"""Representation analysis: linear CKA over layer pairs, clean-vs-adversarial
divergence curves, cross-model grids, and per-layer linear probes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attacks, data, losses, models, training
from . import tensor as T
from .attacks import AttackSpec
from .data import Dataset, ViewBatch
from .models import ModelBundle
from .tensor import Tensor


class AnalysisError(Exception):
    pass


class DegenerateActivationsError(AnalysisError):
    """A layer produced (numerically) constant activations."""


@dataclass
class CKAMatrix:
    row_layers: list
    col_layers: list
    values: np.ndarray  # similarity grid; masked entries are NaN
    mask: np.ndarray  # True where the cell is degenerate
    n_samples: int
    condition: str  # clean-clean | clean-adv | adv-adv
    model_ids: tuple

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()


@dataclass
class ProbeResult:
    layer_id: str
    train_accuracy: float
    test_accuracy: float
    n_samples: int


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA between activation matrices with matched rows.

    Column-center both matrices, then
    ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F * ||Yc^T Yc||_F).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise AnalysisError(f"linear_cka: incompatible shapes {x.shape}, {y.shape}")
    if x.shape[0] < 3:
        raise AnalysisError("linear_cka: need n >= 3 samples")
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    nx = np.linalg.norm(xc.T @ xc)
    ny = np.linalg.norm(yc.T @ yc)
    if nx < 1e-12 or ny < 1e-12:
        raise DegenerateActivationsError("constant activations in linear_cka")
    return float(np.linalg.norm(yc.T @ xc) ** 2 / (nx * ny))


def _cka_or_nan(x: np.ndarray, y: np.ndarray) -> float:
    """`linear_cka`, or NaN where a layer's activations are constant."""
    try:
        return linear_cka(x, y)
    except DegenerateActivationsError:
        return np.nan


def _sample(dataset: Dataset, n_samples: int, seed: int):
    """(inputs, labels) of `n_samples` rows drawn from `dataset` without
    replacement, or of all of its rows if it has fewer."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=min(n_samples, dataset.n), replace=False)
    return dataset.rows(idx), dataset.labels[idx]


def _activations(model: ModelBundle, x: np.ndarray, y: np.ndarray | None = None,
                 attack: AttackSpec | None = None) -> list:
    """Per-layer records of `model` on `x`, or, given an `attack`, on its PGD
    examples of (x, y); `attacks.pgd` clips them into the pixel box only
    when `x` is an image batch."""
    if attack is not None:
        x = attacks.pgd(model, ViewBatch(x=x, y=y), attack)
    return models.encode(model, Tensor(x), capture=True)[1]


def _grid(records_a: list, records_b: list, condition: str, model_ids: tuple) -> CKAMatrix:
    values = np.array([[_cka_or_nan(ra.matrix, rb.matrix) for rb in records_b]
                       for ra in records_a])
    return CKAMatrix([r.layer_id for r in records_a], [r.layer_id for r in records_b],
                     values, np.isnan(values), len(records_a[0].matrix), condition,
                     model_ids)


def cka_heatmap(model: ModelBundle, dataset: Dataset, attack: AttackSpec | None = None,
                n_samples: int = 512, seed: int = 0) -> CKAMatrix:
    """All-layer-pairs CKA grid; with an attack, rows come from clean
    activations and columns from adversarial ones."""
    x, y = _sample(dataset, n_samples, seed)
    clean = _activations(model, x)
    if attack is None:
        return _grid(clean, clean, "clean-clean", ("model", "model"))
    return _grid(clean, _activations(model, x, y, attack), "clean-adv", ("model", "model"))


def divergence_curve(model: ModelBundle, dataset: Dataset, attack: AttackSpec,
                     n_samples: int = 512, seed: int = 0) -> np.ndarray:
    """Per-layer CKA between each layer on clean data and the same layer on
    adversarial data: the diagonal of the clean-adv grid, NaN where a layer
    is degenerate, computed without the grid's off-diagonal cells. The
    attack runs before the clean records are captured, so they are not held
    through it; both passes are deterministic, so the order moves no bit."""
    x, y = _sample(dataset, n_samples, seed)
    adv = _activations(model, x, y, attack)
    pairs = zip(_activations(model, x), adv)
    return np.array([_cka_or_nan(rc.matrix, ra.matrix) for rc, ra in pairs])


def cross_model_cka(model_a: ModelBundle, model_b: ModelBundle, dataset: Dataset,
                    attack: AttackSpec | None = None, n_samples: int = 512,
                    seed: int = 0, model_ids: tuple = ("A", "B")) -> CKAMatrix:
    """Rows from model A's layers, columns from model B's, on shared samples
    (each model's own PGD examples of them, given an attack)."""
    if model_a.config.input_shape != model_b.config.input_shape:
        raise AnalysisError("cross_model_cka: input shapes differ")
    x, y = _sample(dataset, n_samples, seed)
    return _grid(_activations(model_a, x, y, attack), _activations(model_b, x, y, attack),
                 "clean-clean" if attack is None else "adv-adv", model_ids)


def linear_probe(model: ModelBundle, train_set: Dataset, test_set: Dataset,
                 layer_id: str, probe_epochs: int = 30, seed: int = 0) -> ProbeResult:
    """Fit a fresh linear classifier on frozen activations of one layer, by
    Adam at lr 1e-3 (`OptimizerConfig`'s default betas and eps) on batches
    of 128. It trains as a phase does: the training activations, held as a
    `Dataset`, are batched by `data.iter_batches` and each batch is one
    `training._train_step` on its cross-entropy."""
    ids = model.layer_ids()
    if layer_id == "input":
        get = lambda x: np.asarray(x).reshape(len(x), -1)
    else:
        if layer_id not in ids:
            raise AnalysisError(f"unknown layer {layer_id!r}; have {ids}")
        get = lambda x: _activations(model, np.asarray(x))[ids.index(layer_id)].matrix

    a_train = get(train_set.rows())
    a_test = get(test_set.rows())
    std = a_train.std()
    if std < 1e-12:
        raise DegenerateActivationsError(f"constant activations at {layer_id}")
    d = a_train.shape[1]
    c = train_set.n_classes
    w, b = models._affine_init(np.random.default_rng(seed), d, (d, c), (c,))
    w.grad_tracked = b.grad_tracked = True
    opt = training.Adam([w, b], training.OptimizerConfig(lr=1e-3))
    features = Dataset(a_train, train_set.labels, layer_id, c)
    for epoch in range(probe_epochs):
        for xb, yb in data.iter_batches(features, 128, seed, epoch):
            training._train_step(opt, [(1.0, lambda: losses.cross_entropy(
                T.dense(Tensor(xb), w, b), yb))])

    def acc(a, yv):
        logits = a @ w.data + b.data
        return float((np.argmax(logits, axis=1) == yv).mean())

    return ProbeResult(layer_id, acc(a_train, train_set.labels),
                       acc(a_test, test_set.labels), features.n)


def upper_third_mean(matrix: CKAMatrix) -> float:
    """Mean CKA over the top-third layer block (both axes)."""
    n_r = len(matrix.row_layers)
    n_c = len(matrix.col_layers)
    r0 = n_r - max(1, n_r // 3)
    c0 = n_c - max(1, n_c // 3)
    block = matrix.values[r0:, c0:]
    return float(np.nanmean(block))

