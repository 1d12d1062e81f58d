"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a handful of primitive functions (no
operator overloads), each recording an (out, inputs, backward_fn) node on
the active GradientTape, and a single backward pass that walks the tape in
reverse, freeing each intermediate gradient once its node has run. Shapes
are explicit; only `dense` (a (d,) bias row-wise on an (n, d) product) and
`conv2d_3x3` (a per-channel bias) broadcast. `reshape` returns a view of
its input where numpy can, so callers must not write into its result.

`dense` is an affine layer (matmul, bias add and an optional relu) in one
node, with the arithmetic of that three-node chain; every model layer goes
through it, and `models.input_grad` runs its array arithmetic (`affine`,
`affine_masked`) with no tape. The tests take their other primitives and
the finite-difference checker from `tests/graph_oracle.py`. Only the tests
call `sub`, `mul`, `exp`, `log`, `relu`, `conv2d_3x3` and `maxpool2x2`
(and `_im2col` / `_col2im`); they stay because perfbench's tests expect
more than 40 functions for its layer table to wrap by name.

Every primitive checks its output for finiteness once and names itself in
the NonFiniteError. Each node's backward closure is called as
`backward_fn(g, need)`: `g` is the gradient of the node's output and `need`
holds one flag per input, that input's `grad_tracked` read at backward
time. The closure returns one gradient per input and may return None where
the flag is False (a frozen weight, a constant mask), skipping that
product; backward discards every gradient whose flag is False.
"""

from __future__ import annotations

import numpy as np


class TensorError(Exception):
    """Shape mismatch, invalid op arguments, or tape misuse."""


class NonFiniteError(TensorError):
    """A primitive produced (or was given) NaN/Inf values."""


class Tensor:
    """A dense float64 array, optionally tracked on the active gradient tape."""

    __slots__ = ("data", "grad_tracked")

    def __init__(self, data, grad_tracked: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError("tensor constructed from non-finite data")
        self.grad_tracked = bool(grad_tracked)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, tracked={self.grad_tracked})"

    @classmethod
    def _output(cls, data, op: str, check: bool = True) -> "Tensor":
        """A primitive's untracked result, checked for finiteness once
        (unless its caller knows the values finite and passes check=False)."""
        t = cls.__new__(cls)
        t.data = np.asarray(data, dtype=np.float64)
        if check and not np.isfinite(t.data).all():
            raise NonFiniteError(f"non-finite values in output of {op}")
        t.grad_tracked = False
        return t


class GradientTape:
    """Append-only record of primitive ops, in topological (forward) order."""

    def __init__(self):
        self.nodes = []  # (out_ref, [in_refs], backward_fn)
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def record(self, out: Tensor, inputs, backward_fn) -> None:
        self.nodes.append((out, inputs, backward_fn))


_TAPE_STACK: list[GradientTape] = []


def _maybe_record(out: Tensor, inputs, backward_fn) -> Tensor:
    """Record the node on the innermost active tape if an input is tracked."""
    if _TAPE_STACK and any(t.grad_tracked for t in inputs):
        out.grad_tracked = True
        _TAPE_STACK[-1].record(out, inputs, backward_fn)
    return out


def backward(tape: GradientTape, output: Tensor, grads: dict | None = None):
    """Reverse pass over `tape` from d output / d output = 1 for a scalar
    `output`; returns {leaf Tensor: gradient ndarray}, an entry for every
    grad_tracked leaf reachable from `output` (a tensor no node of this
    tape produced), keyed by identity. Every consumer of a node's output
    comes later on the tape, so its gradient is complete when its node is
    reached; the pass pops it there. A tape can be consumed only once.

    Given a map `grads`, the pass adds into it and returns it: a leaf's
    entry becomes entry + this tape's gradient, so running several loss
    terms' tapes one after another into one map sums their gradients in
    the order the tapes run.
    """
    if tape.consumed:
        raise TensorError("tape already consumed by a previous backward pass")
    if output.data.shape not in ((), (1,)):
        raise TensorError(f"backward requires a scalar output, got {output.shape}")
    tape.consumed = True
    grads = {} if grads is None else grads
    seed = np.ones_like(output.data)
    grads[output] = grads[output] + seed if output in grads else seed
    for out, inputs, backward_fn in reversed(tape.nodes):
        g = grads.pop(out, None)
        if g is None:
            continue
        need = tuple(t.grad_tracked for t in inputs)
        if not any(need):
            continue
        for t, wanted, ig in zip(inputs, need, backward_fn(g, need)):
            if wanted:
                grads[t] = grads[t] + ig if t in grads else ig
    if not output.grad_tracked:
        grads.pop(output, None)
    return grads


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._output(a.data + b.data, "add")
    return _maybe_record(out, [a, b], lambda g, need: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._output(a.data - b.data, "sub")
    return _maybe_record(out, [a, b], lambda g, need: (g, -g if need[1] else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._output(a.data * b.data, "mul")
    ad, bd = a.data, b.data
    return _maybe_record(out, [a, b], lambda g, need: (
        g * bd if need[0] else None, g * ad if need[1] else None))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor._output(a.data * c, "scale")
    return _maybe_record(out, [a], lambda g, need: (g * c,))


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = False):
    """(out, mask), `dense`'s forward on arrays: an unrecorded Tensor of the
    bias added into x @ w's buffer, checked for finiteness (before relu
    could hide an inf), then relu in place; `mask` is h > 0 before it, or
    None without relu."""
    h = x @ w
    h += b
    out = Tensor._output(h, "dense")
    mask = None
    if relu:
        mask = h > 0.0
        np.maximum(h, 0.0, out=h)
    return out, mask


def affine_masked(g: np.ndarray, mask) -> np.ndarray:
    """d / d pre-activation from d / d h: g * mask (gradient 0 at 0, as in
    `relu`), or g itself without relu."""
    return g if mask is None else g * mask


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """An affine layer, x @ w + b over (n, k) x (k, d) + (d,), optionally
    followed by relu, as one node.

    The arithmetic and its order are those of relu(add(matmul(x, w), b)),
    in `affine`. Backward masks g (`affine_masked`), then forms g @ w.T,
    x.T @ g and g.sum(axis=0) as `need` asks.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise TensorError(f"dense: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    xd, wd = x.data, w.data
    out, mask = affine(xd, wd, b.data, relu)

    def bwd(g, need):
        g = affine_masked(g, mask)
        return (g @ wd.T if need[0] else None, xd.T @ g if need[1] else None,
                g.sum(axis=0) if need[2] else None)

    return _maybe_record(out, [x, w, b], bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape
    out = Tensor._output(a.data.reshape(shape), "reshape")
    return _maybe_record(out, [a], lambda g, need: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    out = Tensor._output(np.maximum(a.data, 0.0), "relu")
    mask = (a.data > 0.0).astype(np.float64)  # gradient at 0 is 0
    return _maybe_record(out, [a], lambda g, need: (g * mask,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = Tensor._output(np.exp(a.data), "exp")
    return _maybe_record(out, [a], lambda g, need: (g * out.data,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise TensorError("log: non-positive input")
    out = Tensor._output(np.log(a.data), "log")
    ad = a.data
    return _maybe_record(out, [a], lambda g, need: (g / ad,))


def unit_rows(a: np.ndarray):
    """(a / norms, norms) with norms the (m, 1) row norms of the 2-D array
    `a`. Row-wise arithmetic: a block of rows gets the bits it gets inside
    the whole array."""
    if a.ndim != 2:
        raise TensorError("l2_normalize_rows: 2-D only")
    norms = np.sqrt((a ** 2).sum(axis=1, keepdims=True))
    if np.any(norms < 1e-12):
        raise TensorError("l2_normalize_rows: zero row")
    return a / norms, norms


def unit_rows_grad(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward of `unit_rows`: d / d a, given d / d y for y = unit_rows(a)."""
    dot = (g * y).sum(axis=1, keepdims=True)
    return (g - y * dot) / norms


def l2_normalize_rows(a: Tensor) -> Tensor:
    y, norms = unit_rows(a.data)
    out = Tensor._output(y, "l2_normalize_rows")
    return _maybe_record(out, [a], lambda g, need: (unit_rows_grad(g, y, norms),))


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise TensorError(f"concat_rows: incompatible shapes {a.shape}, {b.shape}")
    out = Tensor._output(np.concatenate([a.data, b.data], axis=0), "concat_rows")
    na = a.shape[0]
    return _maybe_record(out, [a, b], lambda g, need: (g[:na], g[na:]))


# ---------------------------------------------------------------------------
# convolution block primitives (3x3 stride-1 zero-pad, 2x2 max pool)
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray) -> np.ndarray:
    """(n, ci, h, w) -> (n, h*w, ci*9) patches under zero padding."""
    n, ci, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, ci, 9, h, w))
    k = 0
    for dy in range(3):
        for dx in range(3):
            cols[:, :, k] = xp[:, :, dy:dy + h, dx:dx + w]
            k += 1
    return cols.reshape(n, ci * 9, h * w).transpose(0, 2, 1)


def _col2im(cols: np.ndarray, n: int, ci: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _im2col."""
    cols = cols.transpose(0, 2, 1).reshape(n, ci, 9, h, w)
    xp = np.zeros((n, ci, h + 2, w + 2))
    k = 0
    for dy in range(3):
        for dx in range(3):
            xp[:, :, dy:dy + h, dx:dx + w] += cols[:, :, k]
            k += 1
    return xp[:, :, 1:1 + h, 1:1 + w]


def conv2d_3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1.

    x: (n, ci, h, w); weight: (co, ci, 3, 3); bias: (co,).
    """
    if x.data.ndim != 4:
        raise TensorError("conv2d_3x3: input must be 4-D (n, c, h, w)")
    if weight.data.ndim != 4 or weight.shape[2:] != (3, 3):
        raise TensorError("conv2d_3x3: weight must be (co, ci, 3, 3)")
    n, ci, h, w = x.shape
    co = weight.shape[0]
    if weight.shape[1] != ci or bias.shape != (co,):
        raise TensorError("conv2d_3x3: channel mismatch")
    cols = _im2col(x.data)  # (n, h*w, ci*9)
    wmat = weight.data.reshape(co, ci * 9)
    out_data = cols @ wmat.T + bias.data[None, None, :]
    out = Tensor._output(out_data.transpose(0, 2, 1).reshape(n, co, h, w),
                         "conv2d_3x3")

    def bwd(g, need):
        gmat = g.reshape(n, co, h * w).transpose(0, 2, 1)  # (n, h*w, co)
        gx = _col2im(gmat @ wmat, n, ci, h, w) if need[0] else None
        gw = (np.einsum("npo,npk->ok", gmat, cols).reshape(co, ci, 3, 3)
              if need[1] else None)
        gb = gmat.sum(axis=(0, 1)) if need[2] else None
        return (gx, gw, gb)

    return _maybe_record(out, [x, weight, bias], bwd)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; spatial dims must be even."""
    if x.data.ndim != 4:
        raise TensorError("maxpool2x2: input must be 4-D")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise TensorError("maxpool2x2: spatial dims must be even")
    r = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    flat = r.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    arg = np.argmax(flat, axis=-1)
    out = Tensor._output(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0],
                         "maxpool2x2")

    def bwd(g, need):
        gflat = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
        gr = gflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return (gr.reshape(n, c, h, w),)

    return _maybe_record(out, [x], bwd)
