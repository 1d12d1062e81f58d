"""l_inf PGD attack engine driven by CE, CL, or SCL losses.

A CE step builds its loss on a tape through encoder and classifier. A CL or
SCL step (Threat Model II: encoder and head only) runs the encoder on the
iterate alone and seeds that tape with the gradient of the contrastive
loss with respect to the iterate's embedding, from a
`losses.ContrastiveTarget` built once per attack around the clean batch's
embedding. That gradient is bitwise the one a tape through the stacked
clean and adversarial embeddings and the loss would give, so the attack's
output does not depend on the shortcut. The epsilon-ball bounds are also
computed and clamped once per attack, and each step moves the iterate and
clips it into them in place. The step is `_signed_step`: the bytes of
`alpha * numpy.sign(g)` from vectorized kernels, since numpy runs float64
`sign` as a scalar loop that branches on every value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import losses
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


def _target(model, batch, spec: AttackSpec) -> losses.ContrastiveTarget:
    """The attack's CL or SCL driving loss over the clean batch's embedding."""
    if spec.driving_loss == "SCL" and batch.y is None:
        raise AttackError("SCL attack requires labels")
    tau = losses.LossConfig(temperature=spec.temperature).tau(spec.driving_loss)
    z_clean = losses._embed(model, batch.x).data
    return losses.ContrastiveTarget(z_clean, spec.driving_loss, tau, batch.y)


def _driving_loss_grad(model, x_cur: np.ndarray, batch,
                       target: losses.ContrastiveTarget | None) -> np.ndarray:
    """d loss / d x_cur under the attack's driving loss: cross-entropy
    through the classifier without a `target`, else the target's
    contrastive loss through the encoder and head only, its gradient with
    respect to the embedding seeding the tape."""
    leaf = Tensor(x_cur, grad_tracked=True)
    with GradientTape() as tape:
        if target is None:
            if batch.y is None:
                raise AttackError("CE attack requires labels")
            out = losses._ce_through(model, leaf, batch.y)
        else:
            out = losses._embed(model, leaf)
    grads = T.backward(tape, out, None if target is None else target.grad(out.data))
    g = grads.get(leaf)
    if g is None:
        return np.zeros_like(x_cur)
    if not np.all(np.isfinite(g)):
        raise AttackError("non-finite attack gradient")
    return g


def _signed_step(g: np.ndarray, alpha: float) -> np.ndarray:
    """g, overwritten with the bytes of `alpha * numpy.sign(g)` for alpha > 0
    and g free of NaN: +-alpha, and +0.0 where g holds either zero."""
    zero = g == 0
    np.copysign(alpha, g, out=g)
    g[zero] = 0.0
    return g


def pgd(model, batch, spec: AttackSpec) -> Tensor:
    """Iterated signed-gradient ascent with l_inf projection.

    Each step adds `_signed_step(g, alpha)`, +0.0 at a zero gradient, so
    zero-gradient coordinates stay put; steps=0 with random_start=False
    returns the input unchanged. A CL or SCL attack embeds the clean batch
    once, into a `losses.ContrastiveTarget`; each step embeds the iterate.
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
        np.clip(x, lo, hi, out=x)
    else:
        x = x0.copy()
    if spec.steps == 0:
        return Tensor(x)
    with _params_untracked(model):
        target = None if spec.driving_loss == "CE" else _target(model, batch, spec)
        for _ in range(spec.steps):
            g = _driving_loss_grad(model, x, batch, target)  # a fresh array
            x += _signed_step(g, spec.alpha)  # x is the attack's own array
            np.clip(x, lo, hi, out=x)
    return Tensor(x)
