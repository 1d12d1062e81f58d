"""Scenario runner: ST / AT / Partial-AT / Full-AT over any learning scheme,
with a two-phase pretrain + fine-tune structure and an Adam optimizer."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks, data, losses, models
from . import tensor as T
from .attacks import AttackSpec
from .data import AugmentSpec, Dataset, ViewBatch
from .losses import LossConfig
from .models import ModelBundle
from .tensor import GradientTape, Tensor

SCENARIOS = ("ST", "AT", "Partial-AT", "Full-AT")


class TrainingError(Exception):
    pass


class Adam:
    """Adam with bias correction; state advances even on zero gradients."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    @classmethod
    def from_config(cls, params, cfg: "OptimizerConfig") -> "Adam":
        return cls(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)

    def step(self, grads: dict) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class OptimizerConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class ScenarioSpec:
    scenario: str = "ST"
    scheme: str = "SL"
    pretrain_epochs: int = 50
    finetune_epochs: int = 30
    batch_size: int = 128
    adv_batch_size: int = 256
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    loss: LossConfig | None = None
    train_attack: AttackSpec | None = None
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise TrainingError(f"unknown scenario {self.scenario!r}")
        if self.scheme not in losses.SCHEMES:
            raise TrainingError(f"unknown scheme {self.scheme!r}")
        if self.adversarial and (self.train_attack is None or self.train_attack.epsilon <= 0):
            raise TrainingError(f"{self.scenario} requires a train attack with epsilon > 0")
        if self.scheme == "SL" and self.scenario in ("Partial-AT", "Full-AT"):
            raise TrainingError("SL trains end-to-end; use ST or AT")
        if "+" in self.scheme and self.scenario != "ST":
            raise TrainingError("combined schemes are studied under ST only")
        if self.loss is None:
            self.loss = LossConfig(scheme=self.scheme)

    @property
    def adversarial(self) -> bool:
        return self.scenario != "ST"

    @property
    def effective_batch_size(self) -> int:
        return self.adv_batch_size if self.adversarial else self.batch_size


@dataclass
class RunRecord:
    loss_curve: list  # (epoch, phase, mean loss)
    model: ModelBundle
    manifest: dict


def _mean_loss_guard(value: float, where: str) -> float:
    if not np.isfinite(value):
        raise TrainingError(f"divergence: non-finite loss during {where}")
    return value


def _train_attack_for(spec: ScenarioSpec, driving_loss: str, step_seed: int) -> AttackSpec:
    base = spec.train_attack
    return replace(base, driving_loss=driving_loss, seed=step_seed)


def pretrain(model: ModelBundle, d_p: Dataset, spec: ScenarioSpec,
             attack_counter: list | None = None) -> RunRecord:
    """Phase 1: train encoder + head with a contrastive objective.

    Under adversarial scenarios the x_adv term is regenerated every step from
    the current parameters (online min-max training).
    """
    if spec.scheme not in ("CL", "SCL"):
        raise TrainingError("pretrain requires scheme CL or SCL")
    cfg = spec.loss
    t0 = time.time()
    curve = []
    model.set_tracking(encoder=True, head=True, classifier=False)
    opt = Adam.from_config(model.encoder_tensors() + model.head_tensors(),
                           spec.optimizer)
    clamp = (0.0, 1.0) if d_p.is_image else None
    for epoch in range(spec.pretrain_epochs):
        losses_epoch = []
        for step, (xb, yb) in enumerate(
                data.iter_batches(d_p, spec.effective_batch_size, spec.seed, epoch)):
            xp, xpp = data.make_views(xb, spec.augment, seed=hash((spec.seed, epoch, step)) & 0x7FFFFFFF)
            batch = ViewBatch(x=Tensor(xb), x_prime=Tensor(xp),
                              x_double_prime=Tensor(xpp), y=yb)
            step_cfg = cfg
            if spec.adversarial:
                aspec = _train_attack_for(spec, spec.scheme,
                                          step_seed=(spec.seed, epoch, step).__hash__() & 0x7FFFFFFF)
                if aspec.clamp is not None and clamp is None:
                    aspec = replace(aspec, clamp=None)
                batch.x_adv = attacks.pgd(model, batch, aspec)
                if attack_counter is not None:
                    attack_counter.append(1)
            else:
                step_cfg = replace(cfg, beta=0.0)
            with GradientTape() as tape:
                loss = losses.pretrain_loss(model, batch, step_cfg)
            grads = T.backward(tape, loss)
            opt.step(grads)
            losses_epoch.append(_mean_loss_guard(loss.item(), "pretraining"))
        curve.append((epoch, "pretrain", float(np.mean(losses_epoch))))
    manifest = {"phase": "pretrain", "seed": spec.seed, "epochs": spec.pretrain_epochs,
                "dataset": d_p.fingerprint(), "runtime_s": time.time() - t0}
    return RunRecord(curve, model, manifest)


def finetune(model: ModelBundle, d_f: Dataset, spec: ScenarioSpec) -> RunRecord:
    """Phase 2: train the linear classifier (and, under Full-AT, the encoder)."""
    t0 = time.time()
    curve = []
    models.reinit_classifier(model, seed=spec.seed + 1)
    full_at = spec.scenario == "Full-AT"
    partial_at = spec.scenario == "Partial-AT"
    model.freeze_encoder = not full_at
    model.set_tracking(encoder=full_at, head=False, classifier=True)
    params = model.classifier_tensors()
    if full_at:
        params = model.encoder_tensors() + params
    opt = Adam.from_config(params, spec.optimizer)
    mode = "full_at" if full_at else ("partial_at" if partial_at else "standard")
    adversarial = full_at or partial_at
    clamp = (0.0, 1.0) if d_f.is_image else None
    batch_size = spec.adv_batch_size if adversarial else spec.batch_size
    for epoch in range(spec.finetune_epochs):
        losses_epoch = []
        for step, (xb, yb) in enumerate(
                data.iter_batches(d_f, batch_size, spec.seed + 1, epoch)):
            batch = ViewBatch(x=Tensor(xb), y=yb)
            if adversarial:
                aspec = _train_attack_for(spec, "CE",
                                          step_seed=(spec.seed, 1, epoch, step).__hash__() & 0x7FFFFFFF)
                if aspec.clamp is not None and clamp is None:
                    aspec = replace(aspec, clamp=None)
                batch.x_adv = attacks.pgd(model, batch, aspec)
            with GradientTape() as tape:
                loss = losses.finetune_loss(model, batch, spec.loss, mode)
            grads = T.backward(tape, loss)
            opt.step(grads)
            losses_epoch.append(_mean_loss_guard(loss.item(), "fine-tuning"))
        curve.append((epoch, "finetune", float(np.mean(losses_epoch))))
    manifest = {"phase": "finetune", "seed": spec.seed, "epochs": spec.finetune_epochs,
                "dataset": d_f.fingerprint(), "runtime_s": time.time() - t0}
    return RunRecord(curve, model, manifest)


def _train_single_phase(model: ModelBundle, d: Dataset, spec: ScenarioSpec) -> RunRecord:
    """SL and the combined schemes train in one phase, end-to-end."""
    t0 = time.time()
    curve = []
    sl_only = spec.scheme == "SL"
    model.freeze_encoder = False
    model.set_tracking(encoder=True, head=not sl_only, classifier=True)
    params = model.encoder_tensors() + model.classifier_tensors()
    if not sl_only:
        params += model.head_tensors()
    opt = Adam.from_config(params, spec.optimizer)
    adversarial = spec.adversarial
    clamp = (0.0, 1.0) if d.is_image else None
    epochs = spec.finetune_epochs if sl_only else spec.pretrain_epochs
    for epoch in range(epochs):
        losses_epoch = []
        for step, (xb, yb) in enumerate(
                data.iter_batches(d, spec.effective_batch_size, spec.seed, epoch)):
            batch = ViewBatch(x=Tensor(xb), y=yb)
            if not sl_only:
                xp, xpp = data.make_views(xb, spec.augment,
                                          seed=hash((spec.seed, epoch, step)) & 0x7FFFFFFF)
                batch.x_prime, batch.x_double_prime = Tensor(xp), Tensor(xpp)
            if adversarial:
                aspec = _train_attack_for(spec, "CE",
                                          step_seed=(spec.seed, epoch, step).__hash__() & 0x7FFFFFFF)
                if aspec.clamp is not None and clamp is None:
                    aspec = replace(aspec, clamp=None)
                batch.x_adv = attacks.pgd(model, batch, aspec)
            with GradientTape() as tape:
                if sl_only:
                    if adversarial:
                        loss = losses.finetune_loss(model, batch, spec.loss, "full_at")
                    else:
                        loss = losses.finetune_loss(model, batch, spec.loss, "standard")
                else:
                    loss = losses.combined_scheme_loss(model, batch, spec.loss)
            grads = T.backward(tape, loss)
            opt.step(grads)
            losses_epoch.append(_mean_loss_guard(loss.item(), "single-phase training"))
        curve.append((epoch, "train", float(np.mean(losses_epoch))))
    manifest = {"phase": "single", "seed": spec.seed, "epochs": epochs,
                "dataset": d.fingerprint(), "runtime_s": time.time() - t0}
    return RunRecord(curve, model, manifest)


def _finetune_linear_only(model: ModelBundle, d: Dataset, spec: ScenarioSpec) -> RunRecord:
    """Standard classifier training on frozen encoder for combined schemes."""
    frozen = replace(spec, scenario="ST", train_attack=None)
    return finetune(model, d, frozen)


def run_scenario(model: ModelBundle, dataset_pretrain: Dataset, dataset_finetune: Dataset,
                 spec: ScenarioSpec) -> RunRecord:
    """Compose the two training phases (or a single SL / combined phase)."""
    t0 = time.time()
    curve = []
    if spec.scheme == "SL":
        rec = _train_single_phase(model, dataset_finetune, spec)
        curve += rec.loss_curve
    elif "+" in spec.scheme:
        rec = _train_single_phase(model, dataset_pretrain, spec)
        curve += rec.loss_curve
        rec2 = _finetune_linear_only(model, dataset_finetune, spec)
        curve += rec2.loss_curve
    else:
        rec = pretrain(model, dataset_pretrain, spec)
        curve += rec.loss_curve
        rec2 = finetune(model, dataset_finetune, spec)
        curve += rec2.loss_curve
    manifest = {
        "scenario": spec.scenario,
        "scheme": spec.scheme,
        "seed": spec.seed,
        "dataset_pretrain": dataset_pretrain.fingerprint(),
        "dataset_finetune": dataset_finetune.fingerprint(),
        "pretrain_epochs": spec.pretrain_epochs,
        "finetune_epochs": spec.finetune_epochs,
        "runtime_s": time.time() - t0,
    }
    return RunRecord(curve, model, manifest)


def write_loss_csv(record: RunRecord, path) -> None:
    with open(path, "w") as f:
        f.write("epoch,phase,loss\n")
        for epoch, phase, loss in record.loss_curve:
            f.write(f"{epoch},{phase},{loss!r}\n")


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
