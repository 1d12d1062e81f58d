"""Experiment configuration: a flat INI file with sections, materialized
defaults, every value parsed once to its declared type, canonical
serialization of the raw strings, and a content hash used in manifests."""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackError, AttackSpec
from .data import AugmentSpec, DataError, check_bar_images, check_synthetic
from .losses import SCHEMES, LossConfig, LossError
from .models import EncoderConfig, ModelError, check_heads, layer_ids
from .training import SCENARIOS, OptimizerConfig, ScenarioSpec, TrainingError


class ConfigError(Exception):
    pass


# section -> key -> (type, default). A type is str, int, float (finite),
# bool, float | None (empty means None) or [t]: comma-separated t values
# (empty means []).
DEFAULTS = {
    "experiment": {
        "seed": (int, "0"),
        "output_dir": (str, "runs/out"),
    },
    "dataset": {
        "source": (str, "synthetic"),  # synthetic | synthetic_images | idx | csv
        "kind": (str, "two_gaussians"),
        "n": (int, "2000"),
        "dim": (int, "20"),
        "classes": (int, "2"),
        "separation": (float, "8.0"),
        "size": (int, "16"),
        "contrast": (float, "0.45"),
        "noise_sigma": (float, "0.12"),
        "shortcut_amp": (float, "0.0"),
        "images_path": (str, ""),
        "labels_path": (str, ""),
        "csv_path": (str, ""),
        "split": ([float], "0.8,0.0,0.2"),  # D_p, D_f, test; D_f fraction 0 -> D_f = D_p
    },
    "model": {
        "layer_widths": ([int], "64,64,32,32,16"),
        "head_dim": (int, "16"),
    },
    "loss": {
        "scheme": (str, "SL"),
        "temperature": (float | None, ""),
        "alpha": (float, "0.5"),
        "beta": (float, "0.5"),
        "beta_scl": (float | None, ""),
        "combo_weights": ([float], "1.0,1.0"),
    },
    "scenario": {
        "scenario": (str, "ST"),
        "pretrain_epochs": (int, "50"),
        "finetune_epochs": (int, "30"),
        "batch_size": (int, "128"),
        "adv_batch_size": (int, "256"),
        "lr": (float, "0.0003"),
        "adam_beta1": (float, "0.9"),
        "adam_beta2": (float, "0.999"),
        "adam_eps": (float, "1e-8"),
    },
    "attack_train": {
        "epsilon": (float, "0.03137254901960784"),  # 8/255
        "steps": (int, "5"),
        "step_size": (float | None, ""),
        "random_start": (bool, "false"),
    },
    "attack_eval": {
        "epsilons": ([float], "0.01568627450980392,0.03137254901960784"),
        "steps": (int, "20"),
        "steps_tm2": (int, "40"),
        "threat_models": ([str], "I"),
        "random_start": (bool, "true"),
    },
    "augment": {
        "gaussian_noise_sigma": (float, "0.1"),
        "feature_dropout_prob": (float, "0.1"),
        "crop_shift_max_pixels": (int, "2"),
        "horizontal_flip_prob": (float, "0.0"),
        "erase_patch_prob": (float, "0.3"),
        "erase_patch_size": (int, "4"),
    },
    "analysis": {
        "n_samples": (int, "512"),
        "probe_layers": ([str], ""),
    },
    "sweep": {
        "scenarios": ([str], "ST"),
        "schemes": ([str], "SL"),
        "seeds": ([int], "0"),
    },
}


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _cast(section: str, key: str, kind, value: str):
    """`value` as `kind` (see DEFAULTS), or a ConfigError naming the key."""
    if isinstance(kind, list):
        return [_cast(section, key, kind[0], v.strip()) for v in value.split(",")
                ] if value.strip() else []
    if kind == float | None:
        return _cast(section, key, float, value) if value.strip() else None
    try:
        got = _BOOLEANS[value.strip().lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: not {kind.__name__}: {value!r}") from None
    if kind is float and not math.isfinite(got):
        raise ConfigError(f"[{section}] {key}: not finite: {value!r}")
    return got


@dataclass
class ExperimentConfig:
    sections: dict  # section -> {key: str value}, fully materialized; read-only
    values: dict = field(init=False, repr=False, compare=False)  # the same, typed

    def __post_init__(self):
        self.values = {section: {key: _cast(section, key, DEFAULTS[section][key][0], value)
                                 for key, value in keys.items()}
                       for section, keys in self.sections.items()}

    def get(self, section: str, key: str):
        """The value of `key`, of the type DEFAULTS declares for it."""
        return self.values[section][key]

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
        """The encoder of samples of `input_shape`, which it sees flattened."""
        return EncoderConfig(tuple(self.get("model", "layer_widths")),
                             (int(np.prod(input_shape)),))

    def own_cell(self) -> tuple:
        """The (scenario, scheme, seed) cell that the config selects for the
        CLI's train, evaluate, cka and probe."""
        return (self.get("scenario", "scenario"), self.get("loss", "scheme"),
                self.get("experiment", "seed"))

    def loss_config(self, scheme: str) -> LossConfig:
        # The adversarial-term weight is per-objective: SupCon and NT-Xent
        # gradients differ in scale, so a single beta over- or under-weights
        # one of them. beta_scl overrides beta for the SCL scheme when set.
        beta = self.get("loss", "beta_scl")
        if beta is None or scheme != "SCL":
            beta = self.get("loss", "beta")
        return LossConfig(
            scheme=scheme,
            temperature=self.get("loss", "temperature"),
            alpha=self.get("loss", "alpha"),
            beta=beta,
            combo_weights=tuple(self.get("loss", "combo_weights")) or (1.0, 1.0),
        )

    def augment_spec(self) -> AugmentSpec:
        return AugmentSpec(**self.values["augment"])

    def train_attack(self) -> AttackSpec:
        """The training adversary; each phase sets its driving loss, and
        `attacks.pgd` clips image batches into the pixel box."""
        return AttackSpec(**self.values["attack_train"])

    def eval_attacks(self, scheme: str) -> list:
        rs = self.get("attack_eval", "random_start")
        specs = []
        for eps in self.get("attack_eval", "epsilons"):
            for tm in self.get("attack_eval", "threat_models"):
                if tm == "I":
                    specs.append(AttackSpec(epsilon=eps, steps=self.get("attack_eval", "steps"),
                                            random_start=rs, driving_loss="CE"))
                elif tm == "II":
                    driving = "SCL" if "SCL" in scheme else "CL"
                    specs.append(AttackSpec(epsilon=eps,
                                            steps=self.get("attack_eval", "steps_tm2"),
                                            random_start=rs, driving_loss=driving))
                else:
                    raise ConfigError(f"unknown threat model {tm!r}")
        return specs

    def train_epsilon(self, scenario: str, override: float | None = None):
        """The attack budget a cell of `scenario` trains at: `override`, else
        the configured one; None under ST, which trains no attack."""
        if scenario == "ST":
            return None
        return self.get("attack_train", "epsilon") if override is None else override

    def scenario_spec(self, scenario: str, scheme: str, seed: int | None = None,
                      train_epsilon: float | None = None) -> ScenarioSpec:
        eps = self.train_epsilon(scenario, train_epsilon)
        attack = None if eps is None else replace(self.train_attack(), epsilon=eps)
        return ScenarioSpec(
            scenario=scenario,
            scheme=scheme,
            pretrain_epochs=self.get("scenario", "pretrain_epochs"),
            finetune_epochs=self.get("scenario", "finetune_epochs"),
            batch_size=self.get("scenario", "batch_size"),
            adv_batch_size=self.get("scenario", "adv_batch_size"),
            optimizer=OptimizerConfig(lr=self.get("scenario", "lr"),
                                      beta1=self.get("scenario", "adam_beta1"),
                                      beta2=self.get("scenario", "adam_beta2"),
                                      eps=self.get("scenario", "adam_eps")),
            loss=self.loss_config(scheme),
            train_attack=attack,
            augment=self.augment_spec(),
            seed=self.get("experiment", "seed") if seed is None else seed,
        )


def load_config(path=None, text: str | None = None, overrides=None) -> ExperimentConfig:
    """Load an INI config (values verbatim: no interpolation), materialize
    defaults, apply key=value overrides, and parse every value."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None and not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path or 'config text'}: {type(exc).__name__}: {exc}") from None
    sections = {s: {k: default for k, (_, default) in keys.items()}
                for s, keys in DEFAULTS.items()}
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
    """Raise ConfigError unless the seeds are non-negative, the split gives
    D_p and test rows, a synthetic source's generator accepts its arguments,
    a file source's files exist, the model accepts its widths, the own
    cell's scenario, its training attack, the evaluation attacks and the
    sweep schemes' losses build, the sweep names known scenarios and schemes
    and no value twice, and the analysis takes at least 3 samples and probes
    only the input or the encoder's layers."""
    source = cfg.get("dataset", "source")
    if source not in ("synthetic", "synthetic_images", "idx", "csv"):
        raise ConfigError(f"[dataset] source: unknown value {source!r}")
    if cfg.get("experiment", "seed") < 0:
        raise ConfigError("[experiment] seed must be >= 0")
    if any(s < 0 for s in cfg.get("sweep", "seeds")):
        raise ConfigError("[sweep] seeds must be >= 0")
    fracs = cfg.get("dataset", "split")
    if (len(fracs) != 3 or abs(sum(fracs) - 1.0) > 1e-9
            or not all(0.0 <= f <= 1.0 for f in fracs) or 0.0 in (fracs[0], fracs[2])):
        raise ConfigError("[dataset] split must be three fractions in [0, 1] summing to 1, "
                          "with D_p and test above 0")
    n, dim, classes = (cfg.get("dataset", k) for k in ("n", "dim", "classes"))
    if cfg.get("analysis", "n_samples") < 3:
        raise ConfigError("[analysis] n_samples must be >= 3: linear CKA needs 3 samples")
    for key, names in (("scenarios", SCENARIOS), ("schemes", SCHEMES)):
        if unknown := [v for v in cfg.get("sweep", key) if v not in names]:
            raise ConfigError(f"[sweep] {key}: unknown {unknown}; have {list(names)}")
    for key in ("scenarios", "schemes", "seeds"):
        if len(set(values := cfg.get("sweep", key))) < len(values):
            raise ConfigError(f"[sweep] {key}: a value repeats in {values}")
    try:
        if source == "synthetic":
            check_synthetic(cfg.get("dataset", "kind"), n, dim, classes,
                            cfg.get("dataset", "separation"))
        elif source == "synthetic_images":
            check_bar_images(n, classes, cfg.get("dataset", "shortcut_amp"))
        else:
            for key in ("images_path", "labels_path") if source == "idx" else ("csv_path",):
                if not os.path.isfile(path := cfg.get("dataset", key)):
                    raise ConfigError(f"[dataset] {key}: no such file: {path!r}")
        # a file source's classes are counted only once it is read: check head_dim alone
        check_heads(classes if source.startswith("synthetic") else 2,
                    cfg.get("model", "head_dim"))
        cfg.encoder_config((1,))  # the widths alone decide whether it builds
        scenario, scheme, _ = cfg.own_cell()
        cfg.scenario_spec(scenario, scheme)
        for sweep_scheme in cfg.get("sweep", "schemes"):
            cfg.loss_config(sweep_scheme)
        cfg.train_attack()
        cfg.eval_attacks(scheme)
    except (AttackError, DataError, LossError, ModelError, TrainingError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    ids = ["input"] + layer_ids(cfg.get("model", "layer_widths"))
    if unknown := [v for v in cfg.get("analysis", "probe_layers") if v not in ids]:
        raise ConfigError(f"[analysis] probe_layers: unknown {unknown}; have {ids}")
