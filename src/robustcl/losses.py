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
sum and product give. SupCon's positives are a boolean (m, m) mask. The
contrastive node runs its row softmax in place over its own logit buffer
and turns that buffer into the logit gradient, so a pass holds about one
(m, m) array; cross-entropy's logits belong to its input and are not
written.

A PGD attack uses a target instead: `ContrastiveTarget` (around the clean
embedding) or `CrossEntropyTarget` (around the labels), built once per
attack. Each returns the gradient with respect to the iterate's embedding
or logits, bitwise the node's, and computes no loss value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import models
from . import tensor as T
from .tensor import Tensor

SCHEMES = ("CL", "SCL", "SL", "SL+CL", "CL+SCL", "SL+SCL")

DEFAULT_TAU_CL = 0.5
DEFAULT_TAU_SCL = 0.1


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


def _positive_logits(s: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each row's sum of its positives' logits. `pos` is one positive column
    per row (int, (m,)) or a boolean (m, m) mask. A row summed against a
    one-hot row is exactly its one entry, so the column case gathers it."""
    if pos.ndim == 1:
        return s[np.arange(len(s)), pos]
    return (s * pos).sum(axis=1)


def _positive_term(gw: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """gw * the positive mask, the term `_logit_grad` subtracts: `gw` itself
    for one positive column per row, else the (m, m) product."""
    return gw if pos.ndim == 1 else gw[:, None] * pos


def _logit_grad(e: np.ndarray, r: np.ndarray, gw_counts: np.ndarray,
                pos: np.ndarray, pos_term: np.ndarray) -> np.ndarray:
    """d loss / d s, written over `e`: e * (gw*counts / r) - gw * pos_mask,
    with gw = g * c * weights and `pos_term` = `_positive_term(gw, pos)`.
    With one positive column per row the term is subtracted at those
    entries only: everywhere else it is gw * 0.0, and x - 0.0 is x."""
    g_s = np.multiply(e, (gw_counts / r)[:, None], out=e)
    if pos.ndim == 1:
        g_s[np.arange(len(g_s)), pos] -= pos_term
    else:
        g_s -= pos_term
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
        g_s = _logit_grad(e, r, gw * counts, pos, _positive_term(gw, pos))
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
    the `gw * pos_mask` term of the logit gradient (upstream 1) and the
    m x m work buffer, NT-Xent's one m x m array. `grad(z)` returns
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
        self._pos_term = _positive_term(gw, pos)
        self._y = np.concatenate([y_clean, np.empty_like(y_clean)])
        self._s = np.empty((2 * n, 2 * n))

    def grad(self, z: np.ndarray) -> np.ndarray:
        """d loss / d z for the iterate's embedding `z` (n rows)."""
        y_cur, norms = T.unit_rows(z)
        self._y[self._n:] = y_cur
        s, yt = _similarity_logits(self._y, self._k, out=self._s)
        _, e, r = _row_softmax(s, out=s)
        g_s = _logit_grad(e, r, self._gw_counts, self._pos, self._pos_term)
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
        return _logit_grad(e, r, self._gw, self._y, _positive_term(self._gw, self._y))


# ---------------------------------------------------------------------------
# model-level losses
# ---------------------------------------------------------------------------

def _embed(model, x: Tensor) -> Tensor:
    rep, _ = models.encode(model, x)
    return models.project(model, rep)


def contrastive_pair_loss(model, xa: Tensor, xb: Tensor, constituent: str,
                          y: np.ndarray | None, cfg: LossConfig) -> Tensor:
    """One contrastive term over a view pair, through encoder + head."""
    za = _embed(model, xa)
    zb = _embed(model, xb)
    tau = cfg.tau(constituent)
    if constituent == "CL":
        return nt_xent(za, zb, tau)
    if y is None:
        raise LossError("SCL constituent requires labels")
    z = T.concat_rows(za, zb)
    return supcon(z, np.concatenate([y, y]), tau)


def pretrain_loss(model, batch, cfg: LossConfig) -> Tensor:
    """alpha * L(x', x'') + beta * L(x, x_adv) for scheme CL or SCL; a batch
    without x_adv has no adversarial term."""
    if cfg.scheme not in ("CL", "SCL"):
        raise LossError(f"pretrain_loss: scheme must be CL or SCL, got {cfg.scheme}")
    if batch.x_prime is None or batch.x_double_prime is None:
        raise LossError("pretrain_loss: batch is missing augmented views")
    y = batch.y
    if cfg.scheme == "SCL" and y is None:
        raise LossError("pretrain_loss: SCL requires labels")
    terms = []
    if cfg.alpha != 0.0:
        clean = contrastive_pair_loss(model, batch.x_prime, batch.x_double_prime,
                                      cfg.scheme, y, cfg)
        terms.append(T.scale(clean, cfg.alpha))
    if cfg.beta != 0.0 and batch.x_adv is not None:
        adv = contrastive_pair_loss(model, batch.x, batch.x_adv, cfg.scheme, y, cfg)
        terms.append(T.scale(adv, cfg.beta))
    return functools.reduce(T.add, terms) if terms else Tensor(0.0)


def _ce_through(model, x: Tensor, y: np.ndarray) -> Tensor:
    rep, _ = models.encode(model, x)
    return cross_entropy(models.classify(model, rep), y)


def finetune_loss(model, batch, cfg: LossConfig) -> Tensor:
    """CE(x) on a clean batch; alpha*CE(x) + beta*CE(x_adv) on one that
    carries x_adv. The caller controls which parameters are tracked."""
    if batch.y is None:
        raise LossError("finetune_loss: labels required")
    if batch.x_adv is None:
        return _ce_through(model, batch.x, batch.y)
    clean = T.scale(_ce_through(model, batch.x, batch.y), cfg.alpha)
    adv = T.scale(_ce_through(model, batch.x_adv, batch.y), cfg.beta)
    return T.add(clean, adv)


def combined_scheme_loss(model, batch, cfg: LossConfig) -> Tensor:
    """Equal-weight sum of constituent losses for SL+CL, CL+SCL, SL+SCL.

    CE runs through the classifier branch, contrastive constituents through
    the head branch, all in one joint graph.
    """
    if "+" not in cfg.scheme:
        raise LossError(f"combined_scheme_loss: {cfg.scheme} is not a combination")
    terms = []
    for part, w in zip(cfg.scheme.split("+"), cfg.combo_weights):
        if w == 0.0:
            continue
        if part == "SL":
            if batch.y is None:
                raise LossError("SL constituent requires labels")
            terms.append(T.scale(_ce_through(model, batch.x, batch.y), w))
        else:
            if batch.x_prime is None or batch.x_double_prime is None:
                raise LossError(f"{part} constituent requires augmented views")
            loss = contrastive_pair_loss(model, batch.x_prime, batch.x_double_prime,
                                         part, batch.y, cfg)
            terms.append(T.scale(loss, w))
    return functools.reduce(T.add, terms) if terms else Tensor(0.0)
