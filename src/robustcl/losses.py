"""Training objectives: NT-Xent, supervised contrastive, cross-entropy, and
the combined pretraining / fine-tuning losses built from them.

All entry points l2-normalize embeddings themselves; the cosine-similarity
formulas silently corrupt gradients otherwise.

NT-Xent, SupCon and cross-entropy are thin wrappers over one fused softmax
cross-entropy tape node, `_softmax_xent`, which for the contrastive losses
also computes the similarity matrix of the l2-normalized embeddings. It
repeats the primitive graph's floating-point operations in the same order,
with the same matmul operand layouts, so losses and gradients are bitwise
the graph's (`tests/test_losses.py` keeps the graph as its oracle). Its one
check is the finiteness of its output, under the op name `softmax_xent`.

Positives are never dense float masks. NT-Xent and cross-entropy have one
positive per row, a column index (row i's other view, (i + n) mod 2n, or
its label): the node gathers those logits and subtracts the gradient's
positive term at those entries only, bit for bit what a one-hot mask's row
sum and product give. SupCon's positives are a boolean (m, m) mask, and its
products with the mask are formed over fixed blocks of rows, so no float
(m, m) positive array exists. The contrastive node runs its row softmax in
place over its own logit buffer and turns that buffer into the logit
gradient, so a pass holds one float (m, m) array and a few row blocks;
cross-entropy's logits belong to its input and are not written.

A PGD attack uses a target instead: `ContrastiveTarget` (around the clean
embedding) or `CrossEntropyTarget` (around the labels), built once per
attack. Each returns the gradient with respect to the iterate's embedding
or logits, bitwise the node's, and computes no loss value.

A training phase's loss is a list of weighted terms, `(weight, term)` with
`term()` the unweighted scalar Tensor (`pretrain_loss`, `finetune_loss`,
`combined_scheme_loss`). Building the list checks the arguments and runs no
forward; the training step runs each term on its own tape.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import models
from . import tensor as T
from .tensor import Tensor

SCHEMES = ("CL", "SCL", "SL", "SL+CL", "CL+SCL", "SL+SCL")

DEFAULT_TAU_CL = 0.5
DEFAULT_TAU_SCL = 0.1
# rows per block of SupCon's products with its (m, m) positive mask
_ROW_BLOCK = 64


class LossError(Exception):
    pass


@dataclass
class LossConfig:
    scheme: str = "CL"
    temperature: float | None = None  # None -> per-scheme default
    alpha: float = 0.5
    beta: float = 0.5
    combo_weights: tuple = (1.0, 1.0)  # per-constituent weights for combined schemes

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise LossError(f"unknown scheme {self.scheme!r}")
        if self.temperature is not None and self.temperature <= 0:
            raise LossError("temperature must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise LossError("alpha and beta must be non-negative")
        if any(w < 0 for w in self.combo_weights):
            raise LossError(f"combo_weights {tuple(self.combo_weights)} must be non-negative")
        if "+" in self.scheme and len(self.combo_weights) != len(self.scheme.split("+")):
            raise LossError(f"combo_weights {tuple(self.combo_weights)} must give one "
                            f"weight per constituent of {self.scheme}")

    def tau(self, constituent: str) -> float:
        if self.temperature is not None:
            return self.temperature
        return DEFAULT_TAU_CL if constituent == "CL" else DEFAULT_TAU_SCL


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise LossError("temperature must be positive")


def _nt_xent_terms(n: int):
    """(pos, counts, weights, c) of NT-Xent over n stacked pairs: row i's
    one positive is its other view, column (i + n) mod 2n."""
    m = 2 * n
    ones = np.ones(m)
    return (np.arange(m) + n) % m, ones, ones, 1.0 / m


def _supcon_terms(y: np.ndarray, m: int):
    """(pos_mask, counts, weights, c) of SupCon over m rows labelled `y`;
    the mask is boolean, False on the diagonal."""
    y = np.asarray(y)
    if y.shape != (m,):
        raise LossError("supcon: label count mismatch")
    pos_mask = y[:, None] == y[None, :]
    np.fill_diagonal(pos_mask, False)
    pos_counts = pos_mask.sum(axis=1)
    anchors = pos_counts > 0
    if not anchors.any():
        raise LossError("supcon: no anchor has a positive")
    # per-anchor mean log-ratio; the weights fold in the 1/|P(i)| factor
    # and drop anchors without positives
    weights = np.where(anchors, 1.0 / np.maximum(pos_counts, 1.0), 0.0)
    counts = np.where(anchors, pos_counts, 1.0)
    return pos_mask, counts, weights, 1.0 / float(anchors.sum())


# The arithmetic of the fused node, shared by `_softmax_xent`,
# `_similarity_xent` and `ContrastiveTarget`.

def _similarity_logits(yd: np.ndarray, k: float, out=None):
    """(s, yt): s = (yd @ yt) * k with yt = yd.T copied, the rows of `yd`
    l2-normalized, and -1e9 added to the diagonal, each row's
    self-similarity. Adding 0 off the diagonal would change no bit that
    reaches a gradient: it only turns -0.0 into 0.0, and exp(s - max)
    takes both to the same value."""
    yt = yd.T.copy()
    s = np.matmul(yd, yt, out=out)
    s *= k
    s.reshape(-1)[::len(yd) + 1] += -1e9
    return s, yt


def _row_softmax(s: np.ndarray, out=None):
    """(mx, e, r): row maxima (m, 1), e = exp(s - mx) and its row sums."""
    mx = s.max(axis=1, keepdims=True)
    e = np.subtract(s, mx, out=out)
    np.exp(e, out=e)
    return mx, e, e.sum(axis=1)


def _row_blocks(m: int):
    """Slices of `_ROW_BLOCK` rows covering m rows."""
    return (slice(i, i + _ROW_BLOCK) for i in range(0, m, _ROW_BLOCK))


def _positive_logits(s: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each row's sum of its positives' logits. `pos` is one positive column
    per row (int, (m,)) or a boolean (m, m) mask. A row summed against a
    one-hot row is exactly its one entry, so the column case gathers it;
    the mask case sums (s * pos) a block of rows at a time, each row with
    the products and the reduction it gets in the whole array."""
    if pos.ndim == 1:
        return s[np.arange(len(s)), pos]
    out = np.empty(len(s))
    for rows in _row_blocks(len(s)):
        out[rows] = (s[rows] * pos[rows]).sum(axis=1)
    return out


def _logit_grad(e: np.ndarray, r: np.ndarray, gw_counts: np.ndarray,
                pos: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """d loss / d s, written over `e`: e * (gw*counts / r) - gw * pos_mask,
    with gw = g * c * weights. With one positive column per row the term is
    subtracted at those entries only: everywhere else it is gw * 0.0, and
    x - 0.0 is x. A mask's term is formed and subtracted a block of rows
    at a time, the same elementwise products and differences."""
    g_s = np.multiply(e, (gw_counts / r)[:, None], out=e)
    if pos.ndim == 1:
        g_s[np.arange(len(g_s)), pos] -= gw
    else:
        for rows in _row_blocks(len(g_s)):
            g_s[rows] -= gw[rows, None] * pos[rows]
    return g_s


def _similarity_input_grad(g_s: np.ndarray, yd: np.ndarray, yt: np.ndarray,
                           k: float) -> np.ndarray:
    """d loss / d yd from d loss / d s, scaling `g_s` in place. These are
    matmul's and transpose's backward products with their operand layouts;
    another layout (g_s @ yd, say) or a block of rows can move the last
    bit."""
    g_s *= k
    return g_s @ yt.T + (yd.T @ g_s).T


def _softmax_xent(x: Tensor, s: np.ndarray, pos: np.ndarray,
                  counts: np.ndarray, weights: np.ndarray, c: float,
                  to_input=None) -> Tensor:
    """One tape node: ((lse*counts - pos) * weights).sum() * c over rows of s.

    `lse` is each row's log-sum-exp of `s` (the logits, masked already) and
    `pos` its sum over the positives `pos` (`_positive_logits`). `to_input`
    maps d loss / d s to the gradient of `x`, the node's one input; without
    it `s` is `x.data` and is left as it is, else `s` is the node's own
    buffer and the row softmax overwrites it. Keep the operations and their
    order: they repeat the primitive graph kept in `tests/test_losses.py`,
    which makes the trained bits independent of the fusion.
    """
    pos_sum = _positive_logits(s, pos)
    mx, e, r = _row_softmax(s, out=None if to_input is None else s)
    lse = np.log(r) + mx[:, 0]
    out = Tensor._output(((lse * counts - pos_sum) * weights).sum() * c, "softmax_xent")

    def bwd(g, need):
        gw = g * c * weights
        g_s = _logit_grad(e, r, gw * counts, pos, gw)
        return (g_s if to_input is None else to_input(g_s),)

    return T._maybe_record(out, [x], bwd)


def _similarity_xent(y: Tensor, tau: float, pos: np.ndarray,
                     counts: np.ndarray, weights: np.ndarray, c: float) -> Tensor:
    """The fused loss over the cosine-similarity logits y y^T / tau of the
    l2-normalized rows `y`, each row's self-similarity masked out."""
    k = float(1.0 / tau)
    s, yt = _similarity_logits(y.data, k)
    return _softmax_xent(y, s, pos, counts, weights, c,
                         lambda g_s: _similarity_input_grad(g_s, y.data, yt, k))


def nt_xent(z_a: Tensor, z_b: Tensor, tau: float) -> Tensor:
    """NT-Xent over 2n stacked embeddings; positive of i is its other view."""
    _check_tau(tau)
    if z_a.shape != z_b.shape or z_a.data.ndim != 2:
        raise LossError(f"nt_xent: incompatible shapes {z_a.shape}, {z_b.shape}")
    z = T.l2_normalize_rows(T.concat_rows(z_a, z_b))
    return _similarity_xent(z, tau, *_nt_xent_terms(z_a.shape[0]))


def supcon(z: Tensor, y: np.ndarray, tau: float) -> Tensor:
    """Supervised contrastive loss; same-label others are positives.

    Anchors without positives are skipped; if no anchor has a positive the
    loss is undefined and an error is raised.
    """
    _check_tau(tau)
    if z.data.ndim != 2 or z.shape[0] < 2:
        raise LossError("supcon: need an (m, d) matrix with m >= 2")
    terms = _supcon_terms(y, z.shape[0])
    return _similarity_xent(T.l2_normalize_rows(z), tau, *terms)


class ContrastiveTarget:
    """The NT-Xent ("CL") or SupCon ("SCL") loss a PGD attack ascends, over
    the clean embedding `z_clean` stacked with an iterate's embedding.

    What does not change across steps is built once: the l2-normalized
    clean rows, the positives (SupCon pairs labels `y` with themselves),
    the per-row weights gw of the logit gradient (upstream 1) and the
    m x m work buffer, its one float m x m array; SupCon's gw * pos_mask
    term is formed a block of rows at a time at each step. `grad(z)` returns
    d loss / d z alone. Its arithmetic is the fused node's, in the same
    order and with every matmul at its full (2n, 2n) shape, so the gradient
    is bitwise the taped one; blocks of those products do not reproduce
    the full product's bits under BLAS.
    """

    def __init__(self, z_clean: np.ndarray, driving_loss: str, tau: float,
                 y: np.ndarray | None = None):
        _check_tau(tau)
        n = len(z_clean)
        if driving_loss == "CL":
            pos, counts, weights, c = _nt_xent_terms(n)
        elif driving_loss == "SCL":
            if y is None:
                raise LossError("supcon: labels required")
            pos, counts, weights, c = _supcon_terms(np.concatenate([y, y]), 2 * n)
        else:
            raise LossError(f"unknown contrastive loss {driving_loss!r}")
        y_clean, _ = T.unit_rows(z_clean)
        gw = c * weights
        self._n = n
        self._k = float(1.0 / tau)
        self._gw_counts = gw * counts
        self._pos = pos
        self._gw = gw
        self._y = np.concatenate([y_clean, np.empty_like(y_clean)])
        self._s = np.empty((2 * n, 2 * n))

    def grad(self, z: np.ndarray) -> np.ndarray:
        """d loss / d z for the iterate's embedding `z` (n rows)."""
        y_cur, norms = T.unit_rows(z)
        self._y[self._n:] = y_cur
        s, yt = _similarity_logits(self._y, self._k, out=self._s)
        _, e, r = _row_softmax(s, out=s)
        g_s = _logit_grad(e, r, self._gw_counts, self._pos, self._gw)
        g_y = _similarity_input_grad(g_s, self._y, yt, self._k)
        return T.unit_rows_grad(g_y[self._n:], y_cur, norms)


def _ce_labels(y: np.ndarray, n: int, c: int) -> np.ndarray:
    """`y` as an array, checked to be n labels of c >= 2 classes."""
    if c < 2:
        raise LossError("cross_entropy: need (n, C) logits with C >= 2")
    y = np.asarray(y)
    if y.shape != (n,) or y.min() < 0 or y.max() >= c:
        raise LossError("cross_entropy: labels out of range")
    return y


def cross_entropy(logits: Tensor, y: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[y]."""
    if logits.data.ndim != 2:
        raise LossError("cross_entropy: need (n, C) logits with C >= 2")
    n, c = logits.shape
    ones = np.ones(n)
    return _softmax_xent(logits, logits.data, _ce_labels(y, n, c), ones, ones, 1.0 / n)


class CrossEntropyTarget:
    """The cross-entropy a TM-I PGD attack ascends over the (n, c) logits of
    a batch labelled `y`. `grad(logits)` is the fused node's backward from an
    upstream 1 (gw = 1/n), with the row softmax in place over `logits`."""

    def __init__(self, y: np.ndarray, n: int, c: int):
        self._y = _ce_labels(y, n, c)
        self._gw = np.full(n, 1.0 / n)

    def grad(self, logits: np.ndarray) -> np.ndarray:
        _, e, r = _row_softmax(logits, out=logits)
        return _logit_grad(e, r, self._gw, self._y, self._gw)


# ---------------------------------------------------------------------------
# model-level losses
# ---------------------------------------------------------------------------

def _embed(model, x: np.ndarray) -> Tensor:
    """The head's embedding of the batch array `x`, a graph input here."""
    rep, _ = models.encode(model, Tensor(x))
    return models.project(model, rep)


def contrastive_pair_term(model, xa: np.ndarray, xb: np.ndarray, constituent: str,
                          y: np.ndarray | None, cfg: LossConfig) -> Callable[[], Tensor]:
    """One contrastive term over a view pair, through encoder + head, as a
    function of no arguments; the labels are checked here, the forward runs
    when the term is called."""
    if constituent != "CL" and y is None:
        raise LossError("SCL constituent requires labels")
    tau = cfg.tau(constituent)

    def term() -> Tensor:
        za = _embed(model, xa)
        zb = _embed(model, xb)
        if constituent == "CL":
            return nt_xent(za, zb, tau)
        return supcon(T.concat_rows(za, zb), np.concatenate([y, y]), tau)

    return term


def pretrain_loss(model, batch, cfg: LossConfig) -> list:
    """alpha * L(x', x'') + beta * L(x, x_adv) for scheme CL or SCL, as the
    terms [(alpha, L(x', x'')), (beta, L(x, x_adv))]; a term whose weight
    is 0 is left out, and a batch without x_adv has no adversarial term."""
    if cfg.scheme not in ("CL", "SCL"):
        raise LossError(f"pretrain_loss: scheme must be CL or SCL, got {cfg.scheme}")
    if batch.x_prime is None or batch.x_double_prime is None:
        raise LossError("pretrain_loss: batch is missing augmented views")
    y = batch.y
    if cfg.scheme == "SCL" and y is None:
        raise LossError("pretrain_loss: SCL requires labels")
    terms = []
    if cfg.alpha != 0.0:
        terms.append((cfg.alpha, contrastive_pair_term(
            model, batch.x_prime, batch.x_double_prime, cfg.scheme, y, cfg)))
    if cfg.beta != 0.0 and batch.x_adv is not None:
        terms.append((cfg.beta, contrastive_pair_term(
            model, batch.x, batch.x_adv, cfg.scheme, y, cfg)))
    return terms


def _ce_through(model, x: np.ndarray, y: np.ndarray) -> Tensor:
    rep, _ = models.encode(model, Tensor(x))
    return cross_entropy(models.classify(model, rep), y)


def finetune_loss(model, batch, cfg: LossConfig) -> list:
    """CE(x) on a clean batch, the one term (1.0, CE(x)); alpha*CE(x) +
    beta*CE(x_adv) on one that carries x_adv. The caller controls which
    parameters are tracked."""
    if batch.y is None:
        raise LossError("finetune_loss: labels required")
    clean = functools.partial(_ce_through, model, batch.x, batch.y)
    if batch.x_adv is None:
        return [(1.0, clean)]
    return [(cfg.alpha, clean),
            (cfg.beta, functools.partial(_ce_through, model, batch.x_adv, batch.y))]


def combined_scheme_loss(model, batch, cfg: LossConfig) -> list:
    """The constituents of SL+CL, CL+SCL or SL+SCL, each weighted by its
    entry of `cfg.combo_weights`; a constituent whose weight is 0 is left
    out. CE runs through the classifier branch, the contrastive
    constituents through the head branch."""
    if "+" not in cfg.scheme:
        raise LossError(f"combined_scheme_loss: {cfg.scheme} is not a combination")
    terms = []
    for part, w in zip(cfg.scheme.split("+"), cfg.combo_weights):
        if w == 0.0:
            continue
        if part == "SL":
            if batch.y is None:
                raise LossError("SL constituent requires labels")
            term = functools.partial(_ce_through, model, batch.x, batch.y)
        else:
            if batch.x_prime is None or batch.x_double_prime is None:
                raise LossError(f"{part} constituent requires augmented views")
            term = contrastive_pair_term(model, batch.x_prime, batch.x_double_prime,
                                         part, batch.y, cfg)
        terms.append((w, term))
    return terms
