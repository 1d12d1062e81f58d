"""l_inf PGD attack engine driven by CE, CL, or SCL losses, on arrays: a
batch's inputs go in and the adversarial inputs come out as numpy arrays.

Each step is one tape-free `models.input_grad` pass through the encoder and
the classifier (CE, Threat Model I) or the head (CL or SCL, Threat Model
II), from the gradient of a target built once per attack (`_target`),
bitwise the taped gradient. No step records a tape or touches a
parameter's tracking. The ball is clipped once per attack, into the pixel
box `data.PIXEL_BOX` for an image batch (`batch.x.ndim == 4`) and never for
a vector batch, so no caller has to apply that rule; each step moves the
iterate by `_signed_step` and clips it in place (`_project`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, losses, models

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


def _target(model, batch, spec: AttackSpec):
    """(to, target): the branch whose output the driving loss reads
    (`models.input_grad`), and the loss, whose `grad(out)` is d loss / d out."""
    if spec.driving_loss == "CE":
        if batch.y is None:
            raise AttackError("CE attack requires labels")
        return "classifier", losses.CrossEntropyTarget(batch.y, len(batch.x),
                                                       model.n_classes)
    if spec.driving_loss == "SCL" and batch.y is None:
        raise AttackError("SCL attack requires labels")
    tau = losses.LossConfig(temperature=spec.temperature).tau(spec.driving_loss)
    z_clean, _ = models.forward_arrays(model, batch.x, "head")
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


def pgd(model, batch, spec: AttackSpec) -> np.ndarray:
    """Iterated signed-gradient ascent with l_inf projection.

    Each step adds `_signed_step(g, alpha)`, +0.0 at a zero gradient, so
    zero-gradient coordinates stay put; steps=0 with random_start=False
    returns a copy of the input. The ball is clipped into `data.PIXEL_BOX` only
    for an image batch, (n, C, H, W); a vector batch, (n, d), is never clipped.
    """
    x0 = batch.x
    if spec.epsilon == 0.0 or (spec.steps == 0 and not spec.random_start):
        return x0.copy()
    # clip(clip(x, x0 -+ eps), box) == clip(x, clip(x0 -+ eps, box)), bit for
    # bit unless x0 holds -0.0, so each step clips once, into the boxed ball
    lo, hi = x0 - spec.epsilon, x0 + spec.epsilon
    if x0.ndim == 4:
        np.clip(lo, *data.PIXEL_BOX, out=lo)
        np.clip(hi, *data.PIXEL_BOX, out=hi)
    rng = np.random.default_rng(spec.seed)
    if spec.random_start:
        # drawn into the iterate: u + x0 is x0 + u, bit for bit
        x = rng.uniform(-spec.epsilon, spec.epsilon, size=x0.shape)
        x += x0
        _project(x, lo, hi)
    else:
        x = x0.copy()
    if spec.steps == 0:
        return x
    to, target = _target(model, batch, spec)
    for _ in range(spec.steps):
        g = models.input_grad(model, x, to, target.grad)  # a fresh array
        if not np.isfinite(g).all():
            raise AttackError("non-finite attack gradient")
        x += _signed_step(g, spec.alpha)  # x is the attack's own array
        _project(x, lo, hi)
    return x
