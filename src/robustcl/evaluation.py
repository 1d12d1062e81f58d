"""Accuracy and robust-accuracy measurement under both threat models."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import attacks, models
from .attacks import AttackSpec
from .data import Dataset, ViewBatch
from .models import ModelBundle
from .tensor import Tensor


class EvaluationError(Exception):
    pass


@dataclass
class EvalReport:
    model_id: str
    scenario: str
    scheme: str
    clean_accuracy: float
    robust: dict  # (threat_model, epsilon, steps) -> accuracy or None (n/a)
    n_test: int
    classifier_grad_queries_tm2: int = 0


def _accuracy(model: ModelBundle, x: np.ndarray, y: np.ndarray,
              batch_size: int = 512) -> float:
    correct = 0
    for start in range(0, len(x), batch_size):
        stop = start + batch_size
        correct += int((_predict(model, x[start:stop]) == y[start:stop]).sum())
    return correct / len(x)


def robust_accuracy(model: ModelBundle, dataset: Dataset, attack: AttackSpec,
                    batch_size: int = 256) -> float:
    """Top-1 accuracy on adversarially perturbed test inputs."""
    attack = attack.for_data(dataset.is_image)
    correct = 0
    for start in range(0, dataset.n, batch_size):
        x = dataset.inputs[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        batch = ViewBatch(x=Tensor(x), y=y)
        x_adv = attacks.pgd(model, batch, replace(attack, seed=attack.seed + start))
        correct += int((_predict(model, x_adv.data) == y).sum())
    return correct / dataset.n


def _predict(model: ModelBundle, x: np.ndarray) -> np.ndarray:
    rep, _ = models.encode(model, Tensor(x))
    return np.argmax(models.classify(model, rep).data, axis=1)


def evaluate(model: ModelBundle, test_data: Dataset, attack_list,
             scenario: str = "?", scheme: str = "?",
             model_id: str = "model") -> EvalReport:
    """Clean accuracy plus one robust accuracy per attack spec.

    Threat-Model-II entries (CL/SCL driving losses) are reported as None for
    the SL scheme; classifier gradient queries during TM-II attacks are
    audited and must stay at zero.
    """
    if test_data.n < 1:
        raise EvaluationError("empty test set")
    clean = _accuracy(model, test_data.inputs, test_data.labels)
    robust = {}
    tm2_queries = 0
    for spec in attack_list:
        key = (spec.threat_model, spec.epsilon, spec.steps)
        if spec.threat_model == "II" and scheme == "SL":
            robust[key] = None
            continue
        if spec.epsilon == 0.0:
            robust[key] = clean
            continue
        if spec.threat_model == "II":
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


def results_rows(report: EvalReport, seed: int, runtime_s: float) -> list:
    """Rows for results.csv: scenario, scheme, threat_model, epsilon, steps,
    clean_acc, robust_acc, seed, runtime_s."""
    rows = []
    for (tm, eps, steps), acc in sorted(report.robust.items()):
        rows.append({
            "scenario": report.scenario,
            "scheme": report.scheme,
            "threat_model": tm,
            "epsilon": repr(float(eps)),
            "steps": steps,
            "clean_acc": repr(float(report.clean_accuracy)),
            "robust_acc": "NA" if acc is None else repr(float(acc)),
            "seed": seed,
            "runtime_s": repr(round(float(runtime_s), 3)),
        })
    return rows


RESULTS_COLUMNS = ["scenario", "scheme", "threat_model", "epsilon", "steps",
                   "clean_acc", "robust_acc", "seed", "runtime_s"]


def write_results_csv(rows, path) -> None:
    with open(path, "w") as f:
        f.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in RESULTS_COLUMNS) + "\n")


def read_results_csv(path) -> list:
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = []
        for line in f:
            if line.strip():
                rows.append(dict(zip(header, line.strip().split(","))))
    return rows
