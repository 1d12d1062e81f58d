"""Primitive graph ops and gradient checks that only the tests use.

The package's tape runs each affine layer as one `tensor.dense` node and
each softmax cross-entropy as one fused loss node. The tests build the same
computations from the tensor module's elementwise primitives and the
row-bias add, matrix, reduction and slicing primitives here, as oracles
that the fused nodes must match bit for bit (`test_losses.py`,
`test_tensor.py`), and check gradients against central finite
differences. These primitives record on the real tape through
`tensor._maybe_record`, so the oracles run the package's `backward`.
`joint_loss` composes a phase loss's weighted terms into one graph, the
oracle for the training step's one tape per term; `brute_nt_xent` and
`brute_supcon` are the contrastive losses written out by the definition.

    import graph_oracle as G
    err = G.finite_diff_check(lambda t: G.tsum(T.mul(t, t)), x)
"""

from __future__ import annotations

import functools

import numpy as np

from robustcl import tensor as T
from robustcl.attacks import AttackError
from robustcl.tensor import (GradientTape, NonFiniteError, Tensor, TensorError,
                             _maybe_record, backward, scale)


def add(a: Tensor, b: Tensor) -> Tensor:
    """`tensor.add`, plus a (d,) bias added row-wise to an (n, d) matrix:
    the bias add of the matmul, add, relu chain that `tensor.dense` fuses."""
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        out = Tensor._output(a.data + b.data[None, :], "add")
        return _maybe_record(out, [a, b], lambda g, need: (
            g, g.sum(axis=0) if need[1] else None))
    return T.add(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._output(a.data @ b.data, "matmul")
    ad, bd = a.data, b.data
    return _maybe_record(out, [a, b], lambda g, need: (
        g @ bd.T if need[0] else None, ad.T @ g if need[1] else None))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise TensorError("transpose: 2-D only")
    out = Tensor._output(a.data.T.copy(), "transpose")
    return _maybe_record(out, [a], lambda g, need: (g.T,))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = Tensor._output(a.data.sum(), "tsum")
        shape = a.shape
        return _maybe_record(out, [a], lambda g, need: (np.full(shape, float(g)),))
    if a.data.ndim != 2 or axis not in (0, 1):
        raise TensorError("tsum: axis reduction supports 2-D, axis in {0, 1}")
    out = Tensor._output(a.data.sum(axis=axis), "tsum")
    n = a.shape[axis]
    if axis == 0:
        bwd = lambda g, need: (np.repeat(g[None, :], n, axis=0),)
    else:
        bwd = lambda g, need: (np.repeat(g[:, None], n, axis=1),)
    return _maybe_record(out, [a], bwd)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / count)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim < 1 or not (0 <= start <= stop <= a.shape[0]):
        raise TensorError(f"slice_rows: bad range [{start}, {stop}) for {a.shape}")
    out = Tensor._output(a.data[start:stop].copy(), "slice_rows")
    shape = a.shape

    def bwd(g, need):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return _maybe_record(out, [a], bwd)


def joint_loss(terms) -> Tensor:
    """sum of weight * term() over a phase loss's `(weight, term)` list, as
    one graph: the terms run first to last and are added in that order;
    0.0 without terms."""
    scaled = [scale(term(), w) for w, term in terms]
    return functools.reduce(T.add, scaled) if scaled else Tensor(0.0)


# ---------------------------------------------------------------------------
# contrastive losses, by the definition, one anchor at a time
# ---------------------------------------------------------------------------

def brute_nt_xent(za, zb, tau):
    """NT-Xent of the positive pairs (za[i], zb[i])."""
    z = np.concatenate([za, zb])
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m, n = len(z), len(za)
    total = 0.0
    for i in range(m):
        p = i + n if i < n else i - n
        num = np.exp(z[i] @ z[p] / tau)
        den = sum(np.exp(z[i] @ z[k] / tau) for k in range(m) if k != i)
        total += -np.log(num / den)
    return total / m


def brute_supcon(z, y, tau):
    """SupCon over labels y; anchors without a positive are left out of
    the mean."""
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m = len(z)
    vals = []
    for i in range(m):
        pos = [p for p in range(m) if p != i and y[p] == y[i]]
        if not pos:
            continue
        den = sum(np.exp(z[i] @ z[a] / tau) for a in range(m) if a != i)
        s = sum(np.log(np.exp(z[i] @ z[p] / tau) / den) for p in pos)
        vals.append(-s / len(pos))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_of(f, x: Tensor) -> np.ndarray:
    """Run f under a fresh tape and return d f(x) / d x."""
    leaf = Tensor(x.data.copy(), grad_tracked=True)
    with GradientTape() as tape:
        out = f(leaf)
    grads = backward(tape, out)
    return grads.get(leaf, np.zeros_like(leaf.data))


def finite_diff_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    f maps a Tensor to a scalar Tensor. Error per coordinate is
    |g_auto - g_fd| / max(1, |g_fd|).
    """
    if h <= 0:
        raise TensorError("finite_diff_check: h must be positive")
    g_auto = grad_of(f, x)
    base = x.data
    g_fd = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = base.copy()
        xp[idx] += h
        xm = base.copy()
        xm[idx] -= h
        fp = f(Tensor(xp)).item()
        fm = f(Tensor(xm)).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError("finite_diff_check: f non-finite near x")
        g_fd[idx] = (fp - fm) / (2 * h)
        it.iternext()
    denom = np.maximum(1.0, np.abs(g_fd))
    return float(np.max(np.abs(g_auto - g_fd) / denom))


# ---------------------------------------------------------------------------
# PGD projection, the two clips that `attacks.pgd` folds into one
# ---------------------------------------------------------------------------

def project_linf(x0: np.ndarray, x: np.ndarray, epsilon: float,
                 clamp: tuple | None = None) -> np.ndarray:
    """Clip x into the epsilon-ball around x0, then into the clamp box."""
    if x0.shape != x.shape:
        raise AttackError(f"project_linf: shape mismatch {x0.shape} vs {x.shape}")
    out = np.clip(x, x0 - epsilon, x0 + epsilon)
    if clamp is not None:
        out = np.clip(out, clamp[0], clamp[1])
    return out
