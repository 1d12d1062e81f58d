#!/usr/bin/env python3
"""Record the golden fixture cells that tier-1 retrains and checks.

    python3 scripts/record_golden_cells.py

Trains each of the directional study's 11 cells (`directional.CELLS`) at
seed 0 for one pretraining and one fine-tuning epoch on the image fixture,
and the `EXTRA_CELLS` that cover the paths the study does not train
(Partial-AT, vector data), and writes `tests/golden_cells.json`. Per cell
and per training phase it holds the phase's loss curve and the sha256 of
every parameter after the phase; per cell, the clean, TM-I and TM-II
accuracy on the first 64 test images and the sha256 of each attack's
adversarial images (after one epoch the accuracies sit near chance, so the
images carry the attack's bits). The file is stamped with the numpy
version, BLAS build and thread count: other builds may round the last bits
differently, so the test checks the cells only on the same build. A change
that moves training bits re-records the file in the same commit, and its
diff shows which cells moved.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import robustcl  # noqa: E402, F401  (first: pins one BLAS thread before numpy loads)
import numpy as np  # noqa: E402

from robustcl import (attacks, config, directional, evaluation, experiment,  # noqa: E402
                      models, training)
from robustcl.data import ViewBatch  # noqa: E402
from robustcl.tensor import Tensor  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_cells.json"
SEED = 0
EPOCHS = (1, 1)  # (pretrain, fine-tune)
N_TEST = 64
# name -> (fixture overrides, scenario, scheme), trained like the study's cells
EXTRA_CELLS = {
    "Partial-AT/CL": ((), "Partial-AT", "CL"),
    "Partial-AT/SCL": ((), "Partial-AT", "SCL"),
    "two_gaussians/AT/CL": (("dataset.source=synthetic", "dataset.kind=two_gaussians",
                             "dataset.n=500", "dataset.classes=2"), "AT", "CL"),
}


def build_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name')} {blas.get('version')}"
    if blas.get("openblas configuration"):
        name += f" ({blas['openblas configuration']})"
    return {"numpy": np.__version__, "blas": name,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def fixture(overrides=()):
    """(config, pretraining split, fine-tuning split, 64 test images)."""
    cfg = config.load_config(text=directional.FIXTURE_TEXT, overrides=[
        f"scenario.pretrain_epochs={EPOCHS[0]}", f"scenario.finetune_epochs={EPOCHS[1]}",
        *overrides])
    d_p, d_f, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    return cfg, d_p, d_f, test.subset(np.arange(N_TEST))


def golden_cell(cfg, d_p, d_f, test, scenario: str, scheme: str, train_eps) -> dict:
    """Train one cell from `init_model` through the phases of
    `training.run_scenario`, recording each phase, then evaluate it."""
    spec = cfg.scenario_spec(scenario=scenario, scheme=scheme, seed=SEED,
                             train_epsilon=train_eps)
    model = models.init_model(cfg.encoder_config(d_p.input_shape), d_p.n_classes,
                              cfg.get("model", "head_dim"), SEED)
    phases = {}
    for phase in training._phases(spec, d_p, d_f):
        curve = training._run_phase(model, spec, phase)
        phases[phase.name] = {"loss_curve": [loss for _, _, loss in curve],
                              "params_sha256": sha256(p.data for p in model.all_params())}
    # vector data drop the [0, 1] clamp, as `evaluation.robust_accuracy` does
    tm1, tm2 = (a.for_data(test.is_image)
                for a in (directional.tm1_attack(), directional.tm2_attack()))
    report = evaluation.evaluate(model, test, [tm1, tm2], scenario=scenario, scheme=scheme)
    batch = ViewBatch(x=Tensor(test.inputs), y=test.labels)
    return {"phases": phases,
            "eval": {"clean": report.clean_accuracy,
                     "tm1": report.robust[tm1.robust_key],
                     "tm2": report.robust[tm2.robust_key],
                     "tm1_x_adv_sha256": sha256([attacks.pgd(model, batch, tm1).data]),
                     "tm2_x_adv_sha256": sha256([attacks.pgd(model, batch, tm2).data])}}


def main():
    cfg, d_p, d_f, test = fixture()
    cells = {}
    for name, (scenario, scheme, train_eps, _) in directional.CELLS.items():
        cells[name] = golden_cell(cfg, d_p, d_f, test, scenario, scheme, train_eps)
        print(name, cells[name]["eval"], flush=True)
    extra = {}
    for name, (overrides, scenario, scheme) in EXTRA_CELLS.items():
        extra[name] = golden_cell(*fixture(overrides), scenario, scheme, None)
        print(name, extra[name]["eval"], flush=True)
    GOLDEN.write_text(json.dumps(
        {"build": build_info(), "seed": SEED, "epochs": list(EPOCHS), "n_test": N_TEST,
         "cells": cells, "extra_cells": extra}, indent=2) + "\n")


if __name__ == "__main__":
    main()
