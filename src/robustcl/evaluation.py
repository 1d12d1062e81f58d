"""Accuracy and robust-accuracy measurement under both threat models."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import attacks, models
from .attacks import AttackSpec
from .data import Dataset, ViewBatch
from .models import ModelBundle


@dataclass
class EvalReport:
    model_id: str
    scenario: str
    scheme: str
    clean_accuracy: float
    robust: dict  # (threat_model, epsilon, steps) -> accuracy or None (n/a)
    n_test: int
    classifier_grad_queries_tm2: int = 0


def _accuracy(model: ModelBundle, dataset: Dataset) -> float:
    correct = 0
    for start in range(0, dataset.n, 512):
        rows = slice(start, start + 512)
        correct += int((_predict(model, dataset.rows(rows)) == dataset.labels[rows]).sum())
    return correct / dataset.n


def robust_accuracy(model: ModelBundle, dataset: Dataset, attack: AttackSpec) -> float:
    """Top-1 accuracy on adversarially perturbed test inputs, 256 at a time."""
    correct = 0
    for start in range(0, dataset.n, 256):
        rows = slice(start, start + 256)
        x, y = dataset.rows(rows), dataset.labels[rows]
        x_adv = attacks.pgd(model, ViewBatch(x=x, y=y),
                            replace(attack, seed=attack.seed + start))
        correct += int((_predict(model, x_adv) == y).sum())
    return correct / dataset.n


def _predict(model: ModelBundle, x: np.ndarray) -> np.ndarray:
    return np.argmax(models.forward_arrays(model, x, "classifier")[0], axis=1)


def evaluate(model: ModelBundle, test_data: Dataset, attack_list,
             scenario: str = "?", scheme: str = "?",
             model_id: str = "model") -> EvalReport:
    """Clean accuracy plus one robust accuracy per attack spec.

    Threat-Model-II entries (CL/SCL driving losses) are reported as None for
    the SL scheme; classifier gradient queries during TM-II attacks are
    audited and must stay at zero. At epsilon 0, `attacks.pgd` returns the
    clean inputs, so the entry is the clean accuracy.
    """
    clean = _accuracy(model, test_data)
    robust = {}
    tm2_queries = 0
    for spec in attack_list:
        key = spec.robust_key
        if spec.threat_model == "II" and scheme == "SL":
            robust[key] = None
        elif spec.threat_model == "II":
            before = model.classifier_grad_queries
            model.audit_active = True
            try:
                robust[key] = robust_accuracy(model, test_data, spec)
            finally:
                model.audit_active = False
            tm2_queries += model.classifier_grad_queries - before
        else:
            robust[key] = robust_accuracy(model, test_data, spec)
    return EvalReport(model_id, scenario, scheme, clean, robust, test_data.n,
                      classifier_grad_queries_tm2=tm2_queries)


def results_rows(report: EvalReport, seed: int, runtime_s: float,
                 train_epsilon: float | None = None) -> list:
    """Rows for results.csv, one per attack, keyed by `RESULTS_COLUMNS`;
    `train_epsilon` is the budget the model trained at, None under ST. A
    missing number (that, or a robust accuracy that does not apply) is NA."""
    def num(v):
        return "NA" if v is None else repr(float(v))

    return [dict(zip(RESULTS_COLUMNS, (
        report.scenario, report.scheme, num(train_epsilon), tm, num(eps), steps,
        num(report.clean_accuracy), num(acc), seed, repr(round(float(runtime_s), 3)))))
        for (tm, eps, steps), acc in sorted(report.robust.items())]


RESULTS_COLUMNS = ["scenario", "scheme", "train_epsilon", "threat_model", "epsilon",
                   "steps", "clean_acc", "robust_acc", "seed", "runtime_s"]


def write_results_csv(rows, path) -> None:
    with open(path, "w") as f:
        f.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in RESULTS_COLUMNS) + "\n")


def read_results_csv(path) -> list:
    with open(path) as f:
        header = f.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in f if line.strip()]
