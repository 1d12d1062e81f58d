"""Representation analysis: linear CKA over layer pairs, clean-vs-adversarial
divergence curves, cross-model grids, and per-layer linear probes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attacks, losses, models, training
from . import tensor as T
from .attacks import AttackSpec
from .data import Dataset, ViewBatch
from .models import ModelBundle
from .tensor import GradientTape, Tensor


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


def _capture(model: ModelBundle, x: np.ndarray) -> list:
    _, records = models.encode(model, Tensor(x), capture=True)
    return records


def _analysis_batch(dataset: Dataset, n_samples: int, seed: int = 0):
    if n_samples > dataset.n:
        raise AnalysisError("n_samples exceeds dataset size")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=n_samples, replace=False)
    return dataset.inputs[idx], dataset.labels[idx]


def _adversarial_inputs(model: ModelBundle, x: np.ndarray, y: np.ndarray,
                        attack: AttackSpec, is_image: bool) -> np.ndarray:
    batch = ViewBatch(x=Tensor(x), y=y)
    return attacks.pgd(model, batch, attack.for_data(is_image)).data


def _grid(records_a: list, records_b: list, n: int, condition: str,
          model_ids: tuple) -> CKAMatrix:
    na, nb = len(records_a), len(records_b)
    values = np.full((na, nb), np.nan)
    mask = np.zeros((na, nb), dtype=bool)
    for i, ra in enumerate(records_a):
        for j, rb in enumerate(records_b):
            try:
                values[i, j] = linear_cka(ra.matrix, rb.matrix)
            except DegenerateActivationsError:
                mask[i, j] = True
    return CKAMatrix([r.layer_id for r in records_a], [r.layer_id for r in records_b],
                     values, mask, n, condition, model_ids)


def _clean_and_adv(model: ModelBundle, dataset: Dataset, attack: AttackSpec | None,
                   n_samples: int, seed: int):
    """(n, clean layer records, adversarial layer records or None)."""
    n_samples = min(n_samples, dataset.n)
    x, y = _analysis_batch(dataset, n_samples, seed)
    clean = _capture(model, x)
    if attack is None:
        return n_samples, clean, None
    x_adv = _adversarial_inputs(model, x, y, attack, dataset.is_image)
    return n_samples, clean, _capture(model, x_adv)


def cka_heatmap(model: ModelBundle, dataset: Dataset, attack: AttackSpec | None = None,
                n_samples: int = 512, seed: int = 0) -> CKAMatrix:
    """All-layer-pairs CKA grid; with an attack, rows come from clean
    activations and columns from adversarial ones."""
    n_samples, clean, adv = _clean_and_adv(model, dataset, attack, n_samples, seed)
    if adv is None:
        return _grid(clean, clean, n_samples, "clean-clean", ("model", "model"))
    return _grid(clean, adv, n_samples, "clean-adv", ("model", "model"))


def divergence_curve(model: ModelBundle, dataset: Dataset, attack: AttackSpec,
                     n_samples: int = 512, seed: int = 0) -> np.ndarray:
    """Per-layer CKA between each layer on clean data and the same layer on
    adversarial data: the diagonal of the clean-adv grid, NaN where a layer
    is degenerate, computed without the grid's off-diagonal cells."""
    _, clean, adv = _clean_and_adv(model, dataset, attack, n_samples, seed)
    curve = np.full(len(clean), np.nan)
    for i, (rc, ra) in enumerate(zip(clean, adv)):
        try:
            curve[i] = linear_cka(rc.matrix, ra.matrix)
        except DegenerateActivationsError:
            pass
    return curve


def cross_model_cka(model_a: ModelBundle, model_b: ModelBundle, dataset: Dataset,
                    attack: AttackSpec | None = None, n_samples: int = 512,
                    seed: int = 0, model_ids: tuple = ("A", "B")) -> CKAMatrix:
    """Rows from model A's layers, columns from model B's, on shared samples."""
    if model_a.config.input_shape != model_b.config.input_shape:
        raise AnalysisError("cross_model_cka: input shapes differ")
    n_samples = min(n_samples, dataset.n)
    x, y = _analysis_batch(dataset, n_samples, seed)
    if attack is not None:
        xa = _adversarial_inputs(model_a, x, y, attack, dataset.is_image)
        xb = _adversarial_inputs(model_b, x, y, attack, dataset.is_image)
        condition = "adv-adv"
    else:
        xa = xb = x
        condition = "clean-clean"
    ra = _capture(model_a, xa)
    rb = _capture(model_b, xb)
    return _grid(ra, rb, n_samples, condition, model_ids)


def linear_probe(model: ModelBundle, train_set: Dataset, test_set: Dataset,
                 layer_id: str, probe_epochs: int = 30, lr: float = 1e-3,
                 seed: int = 0, batch_size: int = 128) -> ProbeResult:
    """Fit a fresh linear classifier on frozen activations of one layer."""
    ids = model.layer_ids()
    if layer_id == "input":
        get = lambda x: np.asarray(x).reshape(len(x), -1)
    else:
        if layer_id not in ids:
            raise AnalysisError(f"unknown layer {layer_id!r}; have {ids}")
        k = ids.index(layer_id)

        def get(x):
            recs = _capture(model, np.asarray(x))
            return recs[k].matrix

    a_train = get(train_set.inputs)
    a_test = get(test_set.inputs)
    std = a_train.std()
    if std < 1e-12:
        raise DegenerateActivationsError(f"constant activations at {layer_id}")
    d = a_train.shape[1]
    c = train_set.n_classes
    rng = np.random.default_rng(seed)
    w, b = models._affine_init(rng, d, (d, c), (c,))
    w.grad_tracked = b.grad_tracked = True
    opt = training.Adam([w, b], lr=lr)
    n = a_train.shape[0]
    for epoch in range(probe_epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if len(idx) < 2:
                continue
            with GradientTape() as tape:
                logits = T.dense(Tensor(a_train[idx]), w, b)
                loss = losses.cross_entropy(logits, train_set.labels[idx])
            opt.step(T.backward(tape, loss))

    def acc(a, yv):
        logits = a @ w.data + b.data
        return float((np.argmax(logits, axis=1) == yv).mean())

    return ProbeResult(layer_id, acc(a_train, train_set.labels),
                       acc(a_test, test_set.labels), n)


def upper_third_mean(matrix: CKAMatrix) -> float:
    """Mean CKA over the top-third layer block (both axes)."""
    n_r = len(matrix.row_layers)
    n_c = len(matrix.col_layers)
    r0 = n_r - max(1, n_r // 3)
    c0 = n_c - max(1, n_c // 3)
    block = matrix.values[r0:, c0:]
    return float(np.nanmean(block))

