"""Scenario runner: ST / AT / Partial-AT / Full-AT over any learning scheme.

`run_scenario` splits a scenario into phases: SL trains end to end in one;
CL / SCL pretrain, and the combined schemes train end to end, before a
fine-tuning phase. One phase runner trains each with an Adam optimizer."""

from __future__ import annotations

import functools
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks, data, losses, models
from . import tensor as T
from .attacks import AttackSpec
from .data import AugmentSpec, Dataset, ViewBatch
from .losses import LossConfig
from .models import ModelBundle
from .tensor import GradientTape

SCENARIOS = ("ST", "AT", "Partial-AT", "Full-AT")


class TrainingError(Exception):
    pass


class Adam:
    """Adam with bias correction; state advances even on zero gradients.

    The hyperparameters are `cfg`'s, range-checked when it was built; each
    `step` reads them from it, and the optimizer keeps no copy. The moments
    `m` and `v` are the only state kept between steps. They are updated in
    place, and each parameter's step is formed in two scratch arrays made
    inside `step`, with the operand order of the textbook update
    (b2 * v + ((1 - b2) * g) * g, then (lr * m_hat) / (sqrt(v_hat) + eps)),
    so the result is bitwise that of the allocating form. Each parameter's
    `data` is rebound to a new array, never written in place."""

    def __init__(self, params, cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict) -> None:
        self.t += 1
        lr, b1, b2, eps = self.cfg.lr, self.cfg.beta1, self.cfg.beta2, self.cfg.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            m *= b1
            m_hat = np.multiply(g, 1 - b1)
            m += m_hat
            v *= b2
            v_hat = np.multiply(g, 1 - b2)
            v_hat *= g
            v += v_hat
            np.divide(m, c1, out=m_hat)
            np.divide(v, c2, out=v_hat)
            m_hat *= lr
            np.sqrt(v_hat, out=v_hat)
            v_hat += eps
            m_hat /= v_hat
            p.data = p.data - m_hat


@dataclass
class OptimizerConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (self.lr > 0 and self.eps > 0):
            raise TrainingError("Adam lr and eps must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise TrainingError("Adam betas must lie in [0, 1)")


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
        if min(self.batch_size, self.adv_batch_size) < 2:
            raise TrainingError("batch sizes must be >= 2: batches of one are skipped")
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise TrainingError("epochs must be >= 0")
        if self.adversarial and (self.train_attack is None or self.train_attack.epsilon <= 0):
            raise TrainingError(f"{self.scenario} requires a train attack with epsilon > 0")
        if self.scheme == "SL" and self.scenario in ("Partial-AT", "Full-AT"):
            raise TrainingError("SL trains end-to-end; use ST or AT")
        if "+" in self.scheme and self.scenario != "ST":
            raise TrainingError("combined schemes are studied under ST only")
        if self.loss is None:
            self.loss = LossConfig(scheme=self.scheme)
        elif self.loss.scheme != self.scheme:
            raise TrainingError(f"loss scheme {self.loss.scheme!r} is not the "
                                f"scenario's scheme {self.scheme!r}")

    @property
    def adversarial(self) -> bool:
        return self.scenario != "ST"


@dataclass
class RunRecord:
    loss_curve: list  # (epoch, phase, mean loss)
    manifest: dict


@dataclass
class _Phase:
    """One training phase: what it trains, on which data, with which loss.
    An attacking phase trains at `adv_batch_size` on batches with x_adv."""
    name: str  # the loss-curve label
    dataset: Dataset
    epochs: int
    data_seed: int
    seed_prefix: tuple  # per-step seed = hash(seed_prefix + (epoch, step))
    views: bool
    driving_loss: str | None  # the train attack's driving loss; None: no attack
    trains: tuple  # (encoder, head, classifier)
    loss: Callable  # (model, batch, LossConfig) -> [(weight, term)], see `losses`


def _phases(spec: ScenarioSpec, d_p: Dataset, d_f: Dataset) -> list:
    """SL and the combined schemes train end-to-end in one phase; the
    combined schemes and CL / SCL then fine-tune the classifier (and, under
    Full-AT, the encoder) in a second phase."""
    # the losses are read off the module here, so wrapped module functions apply
    seed = spec.seed
    if spec.scheme == "SL":
        return [_Phase("train", d_f, spec.finetune_epochs, seed, (seed,), views=False,
                       driving_loss="CE" if spec.adversarial else None,
                       trains=(True, False, True), loss=losses.finetune_loss)]
    if "+" in spec.scheme:  # ST only
        first = _Phase("train", d_p, spec.pretrain_epochs, seed, (seed,), views=True,
                       driving_loss=None, trains=(True, True, True),
                       loss=losses.combined_scheme_loss)
    else:
        first = _Phase("pretrain", d_p, spec.pretrain_epochs, seed, (seed,), views=True,
                       driving_loss=spec.scheme if spec.adversarial else None,
                       trains=(True, True, False), loss=losses.pretrain_loss)
    second = _Phase("finetune", d_f, spec.finetune_epochs, seed + 1, (seed, 1), views=False,
                    driving_loss="CE" if spec.scenario in ("Partial-AT", "Full-AT") else None,
                    trains=(spec.scenario == "Full-AT", False, True),
                    loss=losses.finetune_loss)
    return [first, second]


def _backward_term(weight: float, term: Callable, grads: dict) -> float:
    """Run weight * term() on its own tape and add its gradients into
    `grads`; returns its value. The tape, and with it every node's
    buffers, is freed on return."""
    with GradientTape() as tape:
        loss = T.scale(term(), weight)
    T.backward(tape, loss, grads)
    return loss.item()


def _train_step(model: ModelBundle, spec: ScenarioSpec, phase: _Phase, opt: Adam,
                batch: ViewBatch) -> float:
    """One optimizer step on `batch`; returns the loss value, the sum of the
    phase loss's weighted terms in their order.

    Each term runs forward and backward on its own tape, last term first,
    so only one term's graph is alive at a time. Into the shared map each
    parameter's gradient is summed in the order one tape over all terms
    would give (its reverse pass meets the last term first), and the
    values are summed first to last as that tape's adds would, so the step
    is bitwise the joint graph's."""
    grads = {}
    terms = phase.loss(model, batch, spec.loss)
    values = [_backward_term(w, term, grads) for w, term in reversed(terms)][::-1]
    opt.step(grads)
    return functools.reduce(operator.add, values) if values else 0.0


def _batch(model: ModelBundle, spec: ScenarioSpec, phase: _Phase, attack: AttackSpec | None,
           xb: np.ndarray, yb: np.ndarray, seed: int) -> ViewBatch:
    """The step's batch: x and y, the phase's views and the attack's x_adv,
    each checked against x and y by `ViewBatch`."""
    views = data.make_views(xb, spec.augment, seed=seed) if phase.views else (None, None)
    batch = ViewBatch(xb, *views, y=yb)
    if attack is None:
        return batch
    # replace() re-runs the checks with x_adv in the batch
    return replace(batch, x_adv=attacks.pgd(model, batch, replace(attack, seed=seed)))


def _run_phase(model: ModelBundle, spec: ScenarioSpec, phase: _Phase) -> list:
    """Train one phase; returns its (epoch, phase, mean loss) curve.

    Under an attack, x_adv is regenerated every step from the current
    parameters (online min-max training). A step's batch lives only through
    its own optimizer step (`_train_step`), and each of its loss terms' tape
    and buffers only through that term's backward, so all are freed before
    the next step makes its views and runs its attack.
    """
    if phase.name == "finetune":
        models.reinit_classifier(model, seed=spec.seed + 1)
    encoder, head, classifier = phase.trains
    model.freeze_encoder = not encoder
    model.set_tracking(encoder=encoder, head=head, classifier=classifier)
    opt = Adam([t for t in model.all_params() if t.grad_tracked], spec.optimizer)
    attack = None
    if phase.driving_loss is not None:
        attack = replace(spec.train_attack, driving_loss=phase.driving_loss)
    batch_size = spec.batch_size if attack is None else spec.adv_batch_size
    curve = []
    for epoch in range(phase.epochs):
        losses_epoch = []
        for step, (xb, yb) in enumerate(
                data.iter_batches(phase.dataset, batch_size, phase.data_seed, epoch)):
            step_seed = hash(phase.seed_prefix + (epoch, step)) & 0x7FFFFFFF
            losses_epoch.append(_train_step(
                model, spec, phase, opt, _batch(model, spec, phase, attack, xb, yb, step_seed)))
        curve.append((epoch, phase.name, float(np.mean(losses_epoch))))
    return curve


def run_scenario(model: ModelBundle, dataset_pretrain: Dataset, dataset_finetune: Dataset,
                 spec: ScenarioSpec) -> RunRecord:
    """Train `model` in place through the scenario's one or two phases."""
    t0 = time.time()
    curve = []
    for phase in _phases(spec, dataset_pretrain, dataset_finetune):
        curve += _run_phase(model, spec, phase)
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
    return RunRecord(curve, manifest)


def write_loss_csv(record: RunRecord, path) -> None:
    with open(path, "w") as f:
        f.write("epoch,phase,loss\n")
        for epoch, phase, loss in record.loss_curve:
            f.write(f"{epoch},{phase},{loss!r}\n")
