"""l_inf PGD attack engine driven by CE, CL, or SCL losses."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import losses, models
from . import tensor as T
from .tensor import GradientTape, Tensor

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

    @property
    def alpha(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / max(self.steps, 1)

    @property
    def threat_model(self) -> str:
        return "I" if self.driving_loss == "CE" else "II"

    def key(self) -> tuple:
        return (self.driving_loss, self.epsilon, self.steps)

    def for_data(self, is_image: bool) -> "AttackSpec":
        """This spec, without the [0, 1] clamp when the data are vectors."""
        if is_image or self.clamp is None:
            return self
        return replace(self, clamp=None)


def project_linf(x0: np.ndarray, x: np.ndarray, epsilon: float,
                 clamp: tuple | None = None) -> np.ndarray:
    """Clip x into the epsilon-ball around x0, then into the clamp box."""
    if x0.shape != x.shape:
        raise AttackError(f"project_linf: shape mismatch {x0.shape} vs {x.shape}")
    out = np.clip(x, x0 - epsilon, x0 + epsilon)
    if clamp is not None:
        out = np.clip(out, clamp[0], clamp[1])
    return out


@contextmanager
def _params_untracked(model):
    """Attacks differentiate w.r.t. inputs only; keep the tape lean."""
    saved = [(t, t.grad_tracked) for t in model.all_params()]
    for t, _ in saved:
        t.grad_tracked = False
    try:
        yield
    finally:
        for t, was in saved:
            t.grad_tracked = was


def _driving_loss_grad(model, x_cur: np.ndarray, batch, spec: AttackSpec,
                       z_clean: Tensor | None) -> np.ndarray:
    """d loss / d x_cur under the attack's driving loss.

    `z_clean` is the untracked embedding of `batch.x` for the CL and SCL
    losses (None for CE); it does not change across PGD steps.
    """
    leaf = Tensor(x_cur, grad_tracked=True)
    tau = spec.temperature
    with GradientTape() as tape:
        if spec.driving_loss == "CE":
            if batch.y is None:
                raise AttackError("CE attack requires labels")
            rep, _ = models.encode(model, leaf)
            logits = models.classify(model, rep)
            loss = losses.cross_entropy(logits, batch.y)
        else:
            # encoder + head only; positive pair is (clean x, current iterate)
            z_cur = losses._embed(model, leaf)
            if spec.driving_loss == "CL":
                loss = losses.nt_xent(z_clean, z_cur, tau or losses.DEFAULT_TAU_CL)
            else:
                if batch.y is None:
                    raise AttackError("SCL attack requires labels")
                z = T.concat_rows(z_clean, z_cur)
                y2 = np.concatenate([batch.y, batch.y])
                loss = losses.supcon(z, y2, tau or losses.DEFAULT_TAU_SCL)
    grads = T.backward(tape, loss)
    g = grads.get(leaf)
    if g is None:
        return np.zeros_like(x_cur)
    if not np.all(np.isfinite(g)):
        raise AttackError("non-finite attack gradient")
    return g


def pgd(model, batch, spec: AttackSpec) -> Tensor:
    """Iterated signed-gradient ascent with l_inf projection.

    sign(0) = 0, so zero-gradient coordinates stay put; steps=0 with
    random_start=False returns the input unchanged.
    """
    x0 = batch.x.data
    if spec.epsilon == 0.0 or (spec.steps == 0 and not spec.random_start):
        return Tensor(x0.copy())
    rng = np.random.default_rng(spec.seed)
    if spec.random_start:
        x = x0 + rng.uniform(-spec.epsilon, spec.epsilon, size=x0.shape)
        x = project_linf(x0, x, spec.epsilon, spec.clamp)
    else:
        x = x0.copy()
    with _params_untracked(model):
        z_clean = None if spec.driving_loss == "CE" else losses._embed(model, batch.x)
        for _ in range(spec.steps):
            g = _driving_loss_grad(model, x, batch, spec, z_clean)
            x = x + spec.alpha * np.sign(g)
            x = project_linf(x0, x, spec.epsilon, spec.clamp)
    return Tensor(x)

