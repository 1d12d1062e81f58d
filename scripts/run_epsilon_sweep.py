#!/usr/bin/env python3
"""Sweep the training attack budget for CL pretraining and record how the
clean-vs-adversarial representation similarity moves with it.

Each budget is a directional-study cell (eps 0 is ST/CL), read through the
study's cell cache, so the default budgets come for free after
scripts/run_directional.py has run.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from robustcl import analysis, directional, experiment, reporting


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.0, directional.EPS4, directional.EPS8])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-dir", default=None,
                    help="cell cache (default: the checkout's runs/acceptance/cache)")
    ap.add_argument("--out", default=None,
                    help="artifact directory (default: the checkout's runs/eps_sweep)")
    ap.add_argument("--n-samples", type=int, default=directional.N_ANALYSIS)
    args = ap.parse_args(argv)

    cache_dir = args.cache_dir or directional.default_cache_dir()
    out = args.out or directional.checkout_path("runs", "eps_sweep", instead="--out")
    cfg = directional.fixture_config()
    d_p, d_f, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    attack = directional.tm1_attack()
    epsilons = sorted(args.epsilons)

    os.makedirs(out, exist_ok=True)
    for eps in epsilons:
        model, _ = experiment.train_cell(cfg, d_p, d_f, "AT" if eps else "ST", "CL",
                                         args.seed, cache_dir, eps or None)
        grid = analysis.cka_heatmap(model, test, attack, args.n_samples, seed=0)
        tag = f"eps_{eps:g}".replace(".", "p")
        reporting.write_cka_grid(grid, os.path.join(out, tag))
        reporting.write_divergence_csv(grid, os.path.join(out, f"{tag}_divergence.csv"))
        print(f"eps={eps:.5f}  final-layer clean-adv CKA {grid.diagonal()[-1]:.3f}")

    manifest = {"epsilons": epsilons, "n_samples": grid.n_samples, "attack": asdict(attack)}
    with open(os.path.join(out, "sweep_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
