#!/usr/bin/env python3
"""Sweep the training attack budget for CL pretraining and record how the
clean-vs-adversarial representation similarity moves with it.

Each budget is a directional-study cell (eps 0 is ST/CL), run through the
study's cell runner and cache, so the default budgets come for free after
scripts/run_directional.py has run; a missing budget trains (logged with a
time stamp). If a budget fails, the script prints "runtime failure:
<message>" to stderr and exits 2 before --out is written, as
scripts/run_directional.py does on a failed cell.
"""

import argparse
import json
import os
import sys
import time
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
    t0 = time.time()

    def log(msg):
        print(f"[{time.time() - t0:7.0f}s] {msg}", flush=True)

    epsilons = sorted(args.epsilons)
    cells = [("AT" if eps else "ST", "CL", args.seed, eps or None, None) for eps in epsilons]
    test, results = experiment.run_cells(directional.fixture_config(), cells, cache_dir, log)
    for (scenario, *_), eps, got in zip(cells, epsilons, results):
        if isinstance(got, str):
            print(f"runtime failure: {scenario}/CL/eps={eps:g}: {got}", file=sys.stderr)
            return 2
    attack = directional.tm1_attack()

    os.makedirs(out, exist_ok=True)
    for eps, (model, _) in zip(epsilons, results):
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
