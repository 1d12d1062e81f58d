"""l_inf PGD attack engine driven by CE, CL, or SCL losses.

Each step is one tape-free `models.input_grad` pass through the encoder and
the classifier (CE, Threat Model I) or the head (CL or SCL, Threat Model
II), from the gradient of a target built once per attack (`_target`),
bitwise the taped gradient. No step records a tape or touches a
parameter's tracking. The ball is clamped once per attack; each step moves
the iterate by `_signed_step` and clips it in place (`_project`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses, models
from .tensor import Tensor

DRIVING_LOSSES = ("CE", "CL", "SCL")


class AttackError(Exception):
    pass


@dataclass
class AttackSpec:
    epsilon: float
    steps: int
    step_size: float | None = None  # None -> 2.5 * epsilon / max(steps, 1)
    random_start: bool = False
    driving_loss: str = "CE"
    clamp: tuple | None = (0.0, 1.0)  # None disables clamping (vector data)
    temperature: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise AttackError("epsilon must be >= 0")
        if self.steps < 0:
            raise AttackError("steps must be >= 0")
        if self.driving_loss not in DRIVING_LOSSES:
            raise AttackError(f"unknown driving loss {self.driving_loss!r}")
        if self.step_size is not None and self.step_size <= 0:
            raise AttackError("step_size must be positive")
        if self.temperature is not None and self.temperature <= 0:
            raise AttackError("temperature must be positive")

    @property
    def alpha(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / max(self.steps, 1)

    @property
    def threat_model(self) -> str:
        return "I" if self.driving_loss == "CE" else "II"

    @property
    def robust_key(self) -> tuple:
        """The key of this attack's accuracy in `EvalReport.robust`."""
        return self.threat_model, self.epsilon, self.steps

    def for_data(self, is_image: bool) -> "AttackSpec":
        """This spec, without the [0, 1] clamp when the data are vectors."""
        if is_image or self.clamp is None:
            return self
        return replace(self, clamp=None)


def _target(model, batch, spec: AttackSpec):
    """(to, target): the branch whose output the driving loss reads
    (`models.input_grad`), and the loss, whose `grad(out)` is d loss / d out."""
    if spec.driving_loss == "CE":
        if batch.y is None:
            raise AttackError("CE attack requires labels")
        n = len(batch.x.data)
        return "classifier", losses.CrossEntropyTarget(batch.y, n, model.n_classes)
    if spec.driving_loss == "SCL" and batch.y is None:
        raise AttackError("SCL attack requires labels")
    tau = losses.LossConfig(temperature=spec.temperature).tau(spec.driving_loss)
    z_clean, _ = models.forward_arrays(model, batch.x.data, "head")
    return "head", losses.ContrastiveTarget(z_clean, spec.driving_loss, tau, batch.y)


def _signed_step(g: np.ndarray, alpha: float) -> np.ndarray:
    """g, overwritten with the bytes of `alpha * numpy.sign(g)` for alpha > 0
    and g free of NaN: +-alpha, and +0.0 where g holds either zero, from
    vectorized kernels (numpy's float64 `sign` branches on every value)."""
    zero = g == 0
    np.copysign(alpha, g, out=g)
    g[zero] = 0.0
    return g


def _project(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """x clipped into [lo, hi] in place: `np.clip(x, lo, hi)`'s bytes for finite
    x, in about half its time (39 against 80 us at 256x1x16x16, one x86 core)."""
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


def pgd(model, batch, spec: AttackSpec) -> Tensor:
    """Iterated signed-gradient ascent with l_inf projection.

    Each step adds `_signed_step(g, alpha)`, +0.0 at a zero gradient, so
    zero-gradient coordinates stay put; steps=0 with random_start=False
    returns the input unchanged.
    """
    x0 = batch.x.data
    if spec.epsilon == 0.0 or (spec.steps == 0 and not spec.random_start):
        return Tensor(x0.copy())
    # clip(clip(x, x0 -+ eps), clamp) == clip(x, clip(x0 -+ eps, clamp)), bit
    # for bit unless x0 holds -0.0, so each step clips once, into the clamped ball
    lo, hi = x0 - spec.epsilon, x0 + spec.epsilon
    if spec.clamp is not None:
        np.clip(lo, *spec.clamp, out=lo)
        np.clip(hi, *spec.clamp, out=hi)
    rng = np.random.default_rng(spec.seed)
    if spec.random_start:
        x = x0 + rng.uniform(-spec.epsilon, spec.epsilon, size=x0.shape)
        _project(x, lo, hi)
    else:
        x = x0.copy()
    if spec.steps == 0:
        return Tensor(x)
    to, target = _target(model, batch, spec)
    for _ in range(spec.steps):
        g = models.input_grad(model, x, to, target.grad)  # a fresh array
        if not np.isfinite(g).all():
            raise AttackError("non-finite attack gradient")
        x += _signed_step(g, spec.alpha)  # x is the attack's own array
        _project(x, lo, hi)
    return Tensor(x)
