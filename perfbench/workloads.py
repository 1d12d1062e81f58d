"""The benchmark's workloads on the calibrated bar-image fixture.

Each workload has a set-up (timed, repeated), a warm-up (untimed) and a
unit of work that the runner repeats for the length of a run. A unit checks
every output it produces against a committed reference; a mismatch, an
exception or a missing input counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from robustcl import analysis, config, directional, evaluation, experiment, models

import layers

# The workload seed picks the cell seed; the committed checkpoints, and the
# recorded parameter hashes, cover cell seeds 0..2.
CELL_SEEDS = 3
WARMUP_EPOCHS = (1, 1)
WARMUP_EXAMPLES = 512
EVAL_BATCH = 256  # evaluation.robust_accuracy's batch size
N_ANALYSIS = 400  # samples of one CKA pass, as in the directional study
REFERENCE = Path(__file__).with_name("reference.json")


def cell_seed(seed: int) -> int:
    return seed % CELL_SEEDS


def param_hash(model) -> str:
    h = hashlib.sha256()
    for p in model.all_params():
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def fixture(epochs=None):
    overrides = None
    if epochs is not None:
        overrides = [f"scenario.pretrain_epochs={epochs[0]}",
                     f"scenario.finetune_epochs={epochs[1]}"]
    return config.load_config(text=directional.FIXTURE_TEXT, overrides=overrides)


@dataclass
class Outcome:
    """Operations attempted and failed, and the outputs they produced."""
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    cka_pass_s: list = field(default_factory=list)

    def fail(self, n: int, what: str, why) -> None:
        self.attempted += n
        self.failed += n
        self.errors.append(f"{what}: {why}")

    def check(self, n: int, what: str, got, want) -> None:
        """Record `n` operations whose output `got` must equal `want`."""
        self.outputs[what] = got
        if want is None:
            self.fail(n, what, "no reference to check against")
        elif got != want:
            self.fail(n, what, f"got {got!r}, expected {want!r}")
        else:
            self.attempted += n


class TrainWorkload:
    """Trains fixture cells from `init_model` at short epochs, without a cache."""

    group_end = ("training.Adam.step",)
    examples_counter = "training.examples"
    step_times = staticmethod(layers.optimizer_steps)

    def __init__(self, name, epochs, cells):
        self.name = name
        self.epochs = epochs
        self.cells = cells

    def setup(self, seed, build):
        cfg = fixture(self.epochs)
        dataset = experiment.build_dataset(cfg)
        d_p, d_f, _ = experiment.build_splits(cfg, dataset)
        s = cell_seed(seed)
        ref = load_reference(self.name, self.epochs, build)
        want = {f"{sc}/{sch}": ref[f"{sc}/{sch}"][s] if ref else None
                for sc, sch in self.cells}
        return {"cfg": cfg, "warm_cfg": fixture(WARMUP_EPOCHS), "d_p": d_p,
                "d_f": d_f, "seed": s, "want": want}

    def warm_up(self, st):
        small = st["d_p"].subset(np.arange(WARMUP_EXAMPLES))
        for scenario, scheme in self.cells:
            experiment.train_cell(st["warm_cfg"], small, small, scenario, scheme, st["seed"])

    def train(self, st, scenario, scheme):
        model, _ = experiment.train_cell(st["cfg"], st["d_p"], st["d_f"],
                                         scenario, scheme, st["seed"])
        return param_hash(model)

    def unit(self, st, out: Outcome):
        for scenario, scheme in self.cells:
            what = f"{scenario}/{scheme}"
            try:
                got = self.train(st, scenario, scheme)
            except Exception as exc:  # the program failed; the run goes on
                out.fail(1, what, repr(exc))
                continue
            out.check(1, what, got, st["want"][what])


@dataclass
class EvalCell:
    scenario: str
    scheme: str
    need_tm2: bool
    key: str
    model: object
    committed: dict | None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def _load_model(path: Path):
    """The checkpoint at `path`, or None if it is missing or unreadable
    (the evaluations that need it then count as failed)."""
    try:
        return models.load_checkpoint(path)
    except (OSError, models.ModelError) as exc:
        print(f"cannot load {path.name}: {exc!r}", file=sys.stderr)
        return None


def _robust_key(spec) -> str:
    """Key of a robust accuracy in the committed `<key>.eval.json`."""
    return f"{spec.threat_model}|{spec.epsilon!r}|{spec.steps}"


class EvalWorkload:
    """Evaluates the seed's committed AT/CL and AT/SL checkpoints read-only."""

    group_end = ("attacks.pgd",)
    examples_counter = "evaluation.images"
    step_times = staticmethod(layers.attack_batches)
    cells = (("AT", "CL", True), ("AT", "SL", False))

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir

    def setup(self, seed, build):
        cfg = directional.fixture_config()
        dataset = experiment.build_dataset(cfg)
        d_p, _, test = experiment.build_splits(cfg, dataset)
        s = cell_seed(seed)
        cells = []
        for scenario, scheme, need_tm2 in self.cells:
            key = experiment.cell_key(cfg, scenario, scheme, s, d_p)
            cells.append(EvalCell(scenario, scheme, need_tm2, key,
                                  _load_model(self.cache_dir / f"{key}.ckpt"),
                                  _read_json(self.cache_dir / f"{key}.eval.json")))
        a, b = cells
        cka = _read_json(self.cache_dir / f"{a.key}.cka.json")
        cross = _read_json(self.cache_dir / f"cross_{a.key}_{b.key}.json")
        want_cka = None
        if cka is not None and cross is not None:
            want_cka = (cka["final_clean_adv_cka"], cross["upper_third_mean"])
        return {"test": test, "cells": cells, "want_cka": want_cka}

    def warm_up(self, st):
        a, b = st["cells"]
        if a.model is None or b.model is None:
            return
        head = st["test"].subset(np.arange(EVAL_BATCH))
        tm1 = directional.tm1_attack()
        evaluation.evaluate(a.model, head, [tm1, directional.tm2_attack()],
                            scenario=a.scenario, scheme=a.scheme)
        analysis.divergence_curve(a.model, head, tm1, n_samples=128, seed=0)
        analysis.cross_model_cka(a.model, b.model, head, n_samples=128, seed=0)

    def evaluate(self, cell: EvalCell, test, out: Outcome):
        specs = [directional.tm1_attack()]
        if cell.need_tm2:
            specs.append(directional.tm2_attack())
        batches = math.ceil(test.n / EVAL_BATCH)
        what = f"{cell.scenario}/{cell.scheme}"
        if cell.model is None or cell.committed is None:
            out.fail(batches * len(specs), what, "missing checkpoint or eval JSON")
            return
        try:
            report = evaluation.evaluate(cell.model, test, specs, scenario=cell.scenario,
                                         scheme=cell.scheme, model_id=cell.key)
        except Exception as exc:  # the program failed; the run goes on
            out.fail(batches * len(specs), what, repr(exc))
            return
        want = cell.committed
        for spec in specs:
            key = _robust_key(spec)
            got = {"robust": report.robust[(spec.threat_model, spec.epsilon, spec.steps)]}
            expect = {"robust": want["robust"].get(key)}
            if spec.threat_model == "I":
                # the clean pass is part of the same evaluation
                got.update(clean=report.clean_accuracy, n_test=report.n_test)
                expect.update(clean=want["clean"], n_test=want["n_test"])
            else:
                # an encoder-targeted attack must never query the classifier
                got["tm2_queries"] = report.classifier_grad_queries_tm2
                expect["tm2_queries"] = 0
            out.check(batches, f"{what} {key}", got, expect)

    def cka_pass(self, st, out: Outcome):
        a, b = st["cells"]
        if a.model is None or b.model is None:
            out.fail(1, "CKA pass", "missing checkpoint")
            return
        t0 = perf_counter()
        try:
            curve = analysis.divergence_curve(a.model, st["test"], directional.tm1_attack(),
                                              n_samples=N_ANALYSIS, seed=0)
            grid = analysis.cross_model_cka(a.model, b.model, st["test"],
                                            n_samples=N_ANALYSIS, seed=0,
                                            model_ids=(a.key, b.key))
            got = (float(curve[-1]), analysis.upper_third_mean(grid))
        except Exception as exc:  # the program failed; the run goes on
            out.fail(1, "CKA pass", repr(exc))
            return
        out.cka_pass_s.append(perf_counter() - t0)
        out.check(1, "CKA pass", got, st["want_cka"])

    def unit(self, st, out: Outcome):
        for cell in st["cells"]:
            self.evaluate(cell, st["test"], out)
        self.cka_pass(st, out)


def load_reference(name: str, epochs, build: dict):
    """Recorded parameter hashes of workload `name`, or None when they were
    recorded at other epochs or on another numpy, BLAS build or thread count
    than `build` (every check then fails)."""
    ref = _read_json(REFERENCE)
    if ref is None or name not in ref["param_hash"]:
        return None
    recorded = {k: ref["build"].get(k) for k in ("numpy", "blas", "blas_threads")}
    current = {k: build.get(k) for k in recorded}
    if recorded != current or ref["epochs"][name] != list(epochs):
        print(f"{name}: reference hashes were recorded on {recorded} at epochs "
              f"{ref['epochs'][name]}; this run is {current} at {list(epochs)}",
              file=sys.stderr)
        return None
    return ref["param_hash"][name]


# (pretrain, fine-tune) epochs and cells of each training workload. The full
# grid trains (50, 30) epochs; every epoch of a phase repeats the same steps,
# so a short cell measures the same work at a cost that fits a run. The
# epochs also set the mix of step kinds: a median step must fall inside one
# kind, not on the edge between two.
TRAIN = {
    # no attack anywhere: views, NT-Xent at 256x256, backward and Adam
    "train_st": ((2, 1), (("ST", "CL"), ("ST", "SL+CL"))),
    # PGD-driven NT-Xent at 512x512 and SupCon, CE-PGD through a live encoder
    "train_adv": ((3, 1), (("AT", "CL"), ("Full-AT", "SCL"))),
}


NAMES = (*TRAIN, "eval_robust")


def make(name: str, root: Path):
    if name in TRAIN:
        return TrainWorkload(name, *TRAIN[name])
    if name == "eval_robust":
        return EvalWorkload(root / "runs" / "acceptance" / "cache")
    raise KeyError(name)


