"""Experiment configuration: a flat INI file with sections, materialized
defaults, canonical serialization, and a content hash used in manifests."""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackError, AttackSpec
from .data import AugmentSpec, DataError, check_bar_images, check_synthetic
from .losses import SCHEMES, LossConfig, LossError
from .models import EncoderConfig, ModelError, layer_ids
from .training import SCENARIOS, OptimizerConfig, ScenarioSpec, TrainingError


class ConfigError(Exception):
    pass


DEFAULTS = {
    "experiment": {
        "seed": "0",
        "output_dir": "runs/out",
    },
    "dataset": {
        "source": "synthetic",  # synthetic | synthetic_images | idx | csv
        "kind": "two_gaussians",
        "n": "2000",
        "dim": "20",
        "classes": "2",
        "separation": "8.0",
        "size": "16",
        "contrast": "0.45",
        "noise_sigma": "0.12",
        "shortcut_amp": "0.0",
        "images_path": "",
        "labels_path": "",
        "csv_path": "",
        "split": "0.8,0.0,0.2",  # D_p, D_f, test; D_f fraction 0 -> D_f = D_p
    },
    "model": {
        "kind": "dense",
        "layer_widths": "64,64,32,32,16",
        "head_dim": "16",
    },
    "loss": {
        "scheme": "SL",
        "temperature": "",
        "alpha": "0.5",
        "beta": "0.5",
        "beta_scl": "",
        "combo_weights": "1.0,1.0",
    },
    "scenario": {
        "scenario": "ST",
        "pretrain_epochs": "50",
        "finetune_epochs": "30",
        "batch_size": "128",
        "adv_batch_size": "256",
        "lr": "0.0003",
        "adam_beta1": "0.9",
        "adam_beta2": "0.999",
        "adam_eps": "1e-8",
    },
    "attack_train": {
        "epsilon": "0.03137254901960784",  # 8/255
        "steps": "5",
        "step_size": "",
        "random_start": "false",
    },
    "attack_eval": {
        "epsilons": "0.01568627450980392,0.03137254901960784",
        "steps": "20",
        "steps_tm2": "40",
        "threat_models": "I",
        "random_start": "true",
    },
    "augment": {
        "gaussian_noise_sigma": "0.1",
        "feature_dropout_prob": "0.1",
        "crop_shift_max_pixels": "2",
        "horizontal_flip_prob": "0.0",
        "erase_patch_prob": "0.3",
        "erase_patch_size": "4",
    },
    "analysis": {
        "n_samples": "512",
        "probe_layers": "",
    },
    "sweep": {
        "scenarios": "ST",
        "schemes": "SL",
        "seeds": "0",
    },
}


def _parse(section: str, key: str, cast, value: str):
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not {cast.__name__}: {value!r}") from None


@dataclass
class ExperimentConfig:
    sections: dict  # section -> {key: str value}, fully materialized

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getfloat(self, section, key) -> float:
        return _parse(section, key, float, self.get(section, key))

    def getint(self, section, key) -> int:
        return _parse(section, key, int, self.get(section, key))

    def getbool(self, section, key) -> bool:
        v = self.get(section, key).strip().lower()
        if v in ("true", "1", "yes"):
            return True
        if v in ("false", "0", "no"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {v!r}")

    def getlist(self, section, key, cast=str) -> list:
        v = self.get(section, key).strip()
        if not v:
            return []
        return [_parse(section, key, cast, part.strip()) for part in v.split(",")]

    def canonical(self) -> str:
        buf = io.StringIO()
        for section in sorted(self.sections):
            buf.write(f"[{section}]\n")
            for key in sorted(self.sections[section]):
                buf.write(f"{key} = {self.sections[section][key]}\n")
            buf.write("\n")
        return buf.getvalue()

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    # ---- typed views -------------------------------------------------

    def encoder_config(self, input_shape) -> EncoderConfig:
        kind = self.get("model", "kind")
        input_shape = tuple(input_shape)
        if kind == "dense" and len(input_shape) > 1:
            # dense encoders flatten image inputs in-graph
            input_shape = (int(np.prod(input_shape)),)
        return EncoderConfig(kind,
                             tuple(self.getlist("model", "layer_widths", int)),
                             input_shape)

    def loss_config(self, scheme: str | None = None) -> LossConfig:
        scheme = scheme or self.get("loss", "scheme")
        temp = self.get("loss", "temperature").strip()
        # The adversarial-term weight is per-objective: SupCon and NT-Xent
        # gradients differ in scale, so a single beta over- or under-weights
        # one of them. beta_scl overrides beta for the SCL scheme when set.
        beta = self.getfloat("loss", "beta")
        beta_scl = self.get("loss", "beta_scl").strip()
        if beta_scl and scheme == "SCL":
            beta = self.getfloat("loss", "beta_scl")
        return LossConfig(
            scheme=scheme,
            temperature=self.getfloat("loss", "temperature") if temp else None,
            alpha=self.getfloat("loss", "alpha"),
            beta=beta,
            combo_weights=tuple(self.getlist("loss", "combo_weights", float)) or (1.0, 1.0),
        )

    def augment_spec(self) -> AugmentSpec:
        return AugmentSpec(
            gaussian_noise_sigma=self.getfloat("augment", "gaussian_noise_sigma"),
            feature_dropout_prob=self.getfloat("augment", "feature_dropout_prob"),
            crop_shift_max_pixels=self.getint("augment", "crop_shift_max_pixels"),
            horizontal_flip_prob=self.getfloat("augment", "horizontal_flip_prob"),
            erase_patch_prob=self.getfloat("augment", "erase_patch_prob"),
            erase_patch_size=self.getint("augment", "erase_patch_size"),
        )

    def train_attack(self) -> AttackSpec:
        """The training adversary; each phase sets its driving loss, and
        `AttackSpec.for_data` drops the clamp on vector data."""
        step = self.get("attack_train", "step_size").strip()
        return AttackSpec(
            epsilon=self.getfloat("attack_train", "epsilon"),
            steps=self.getint("attack_train", "steps"),
            step_size=self.getfloat("attack_train", "step_size") if step else None,
            random_start=self.getbool("attack_train", "random_start"),
        )

    def eval_attacks(self, scheme: str) -> list:
        rs = self.getbool("attack_eval", "random_start")
        specs = []
        for eps in self.getlist("attack_eval", "epsilons", float):
            for tm in self.getlist("attack_eval", "threat_models"):
                if tm == "I":
                    specs.append(AttackSpec(epsilon=eps,
                                            steps=self.getint("attack_eval", "steps"),
                                            random_start=rs, driving_loss="CE"))
                elif tm == "II":
                    driving = "SCL" if "SCL" in scheme else "CL"
                    specs.append(AttackSpec(epsilon=eps,
                                            steps=self.getint("attack_eval", "steps_tm2"),
                                            random_start=rs, driving_loss=driving))
                else:
                    raise ConfigError(f"unknown threat model {tm!r}")
        return specs

    def train_epsilon(self, scenario: str, override: float | None = None):
        """The attack budget a cell of `scenario` trains at: `override`, else
        the configured one; None under ST, which trains no attack."""
        if scenario == "ST":
            return None
        return self.getfloat("attack_train", "epsilon") if override is None else override

    def scenario_spec(self, scenario: str | None = None, scheme: str | None = None,
                      seed: int | None = None,
                      train_epsilon: float | None = None) -> ScenarioSpec:
        scenario = scenario or self.get("scenario", "scenario")
        scheme = scheme or self.get("loss", "scheme")
        eps = self.train_epsilon(scenario, train_epsilon)
        attack = None if eps is None else replace(self.train_attack(), epsilon=eps)
        return ScenarioSpec(
            scenario=scenario,
            scheme=scheme,
            pretrain_epochs=self.getint("scenario", "pretrain_epochs"),
            finetune_epochs=self.getint("scenario", "finetune_epochs"),
            batch_size=self.getint("scenario", "batch_size"),
            adv_batch_size=self.getint("scenario", "adv_batch_size"),
            optimizer=OptimizerConfig(lr=self.getfloat("scenario", "lr"),
                                      beta1=self.getfloat("scenario", "adam_beta1"),
                                      beta2=self.getfloat("scenario", "adam_beta2"),
                                      eps=self.getfloat("scenario", "adam_eps")),
            loss=self.loss_config(scheme),
            train_attack=attack,
            augment=self.augment_spec(),
            seed=self.getint("experiment", "seed") if seed is None else seed,
        )


def load_config(path=None, text: str | None = None, overrides=None) -> ExperimentConfig:
    """Load an INI config, materialize defaults, apply key=value overrides."""
    parser = configparser.ConfigParser()
    if text is not None:
        parser.read_string(text)
    elif path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    sections = {s: dict(v) for s, v in DEFAULTS.items()}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in sections[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            sections[section][key] = value
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        target, value = ov.split("=", 1)
        section, key = target.split(".", 1)
        if section not in sections or key not in sections[section]:
            raise ConfigError(f"unknown override target {target!r}")
        sections[section][key] = value
    cfg = ExperimentConfig(sections)
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError unless every key parses, a synthetic source's
    generator accepts its arguments, a file source's files exist, the
    encoder accepts its widths (and a synthetic source's input shape), the
    scenario, its training attack, the evaluation attacks and the sweep
    schemes' losses build, the sweep names known scenarios and schemes, and
    the analysis takes at least 3 samples and probes only the input or the
    encoder's layers."""
    source = cfg.get("dataset", "source")
    if source not in ("synthetic", "synthetic_images", "idx", "csv"):
        raise ConfigError(f"[dataset] source: unknown value {source!r}")
    fracs = cfg.getlist("dataset", "split", float)
    if len(fracs) != 3 or abs(sum(fracs) - 1.0) > 1e-9:
        raise ConfigError("[dataset] split must be three fractions summing to 1")
    if cfg.get("model", "kind") not in ("dense", "conv_small"):
        raise ConfigError("[model] kind must be dense or conv_small")
    # every typed key parses, whichever source reads it
    n, dim, classes, size = (cfg.getint("dataset", k) for k in ("n", "dim", "classes", "size"))
    separation, _, _, shortcut_amp = (cfg.getfloat("dataset", k) for k in (
        "separation", "contrast", "noise_sigma", "shortcut_amp"))
    widths = cfg.getlist("model", "layer_widths", int)
    cfg.getint("model", "head_dim")
    if cfg.getint("analysis", "n_samples") < 3:
        raise ConfigError("[analysis] n_samples must be >= 3: linear CKA needs 3 samples")
    cfg.getlist("sweep", "seeds", int)
    for key, names in (("scenarios", SCENARIOS), ("schemes", SCHEMES)):
        if unknown := [v for v in cfg.getlist("sweep", key) if v not in names]:
            raise ConfigError(f"[sweep] {key}: unknown {unknown}; have {list(names)}")
    try:
        if source == "synthetic":
            check_synthetic(cfg.get("dataset", "kind"), n, dim, classes, separation)
            cfg.encoder_config((dim,))
        elif source == "synthetic_images":
            check_bar_images(n, classes, shortcut_amp)
            cfg.encoder_config((1, size, size))
        else:
            # no input shape before the files load: check they exist, and the widths
            for key in ("images_path", "labels_path") if source == "idx" else ("csv_path",):
                if not os.path.isfile(path := cfg.get("dataset", key)):
                    raise ConfigError(f"[dataset] {key}: no such file: {path!r}")
            EncoderConfig("dense", widths, (1,))
        cfg.scenario_spec()
        for scheme in cfg.getlist("sweep", "schemes"):
            cfg.loss_config(scheme)
        cfg.train_attack()
        cfg.eval_attacks(cfg.get("loss", "scheme"))
    except (AttackError, DataError, LossError, ModelError, TrainingError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    ids = ["input"] + layer_ids(cfg.get("model", "kind"), widths)
    if unknown := [v for v in cfg.getlist("analysis", "probe_layers") if v not in ids]:
        raise ConfigError(f"[analysis] probe_layers: unknown {unknown}; have {ids}")
