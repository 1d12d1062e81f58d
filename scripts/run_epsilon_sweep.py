#!/usr/bin/env python3
"""Sweep the training attack budget for CL pretraining and record how the
clean-vs-adversarial representation similarity moves with it.

Reuses the directional-study cell cache, so the default budgets come for
free after scripts/run_directional.py has run.
"""

import argparse
import json
import os
import sys

# One BLAS thread, set before numpy loads: OpenBLAS reads the count once,
# and the committed cache reproduces at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from robustcl import analysis, directional, experiment, reporting  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.0, directional.EPS4, directional.EPS8])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-dir", default=None,
                    help="cell cache (default: the checkout's runs/acceptance/cache)")
    ap.add_argument("--out", default=None,
                    help="artifact directory (default: the checkout's runs/eps_sweep)")
    ap.add_argument("--n-samples", type=int, default=400)
    args = ap.parse_args(argv)

    cache_dir = args.cache_dir or directional.default_cache_dir()
    out = args.out or directional.checkout_path("runs", "eps_sweep", instead="--out")
    cfg = directional.fixture_config()
    dataset = experiment.build_dataset(cfg)
    d_p, d_f, test = experiment.build_splits(cfg, dataset)

    def train_fn(eps):
        # eps 0 is the standard-training member of the family
        scenario = "ST" if eps == 0.0 else "AT"
        train_eps = None if eps == 0.0 else eps
        model, _ = experiment.train_cell(cfg, d_p, d_f, scenario, "CL",
                                         args.seed, cache_dir, train_eps)
        return model

    os.makedirs(out, exist_ok=True)
    entries, manifest = analysis.epsilon_sweep(
        train_fn, test, sorted(args.epsilons), directional.tm1_attack(),
        n_samples=args.n_samples, seed=0)

    for entry in entries:
        tag = f"eps_{entry['epsilon']:g}".replace(".", "p")
        reporting.write_cka_csv(entry["heatmap"], os.path.join(out, f"{tag}.csv"))
        reporting.render_heatmap(entry["heatmap"], os.path.join(out, tag))
        with open(os.path.join(out, f"{tag}_divergence.csv"), "w") as f:
            f.write("layer_index,clean_adv_cka\n")
            for i, v in enumerate(entry["divergence"]):
                f.write(f"{i},{float(v)!r}\n")
        print(f"eps={entry['epsilon']:.5f}  final-layer clean-adv CKA "
              f"{float(entry['divergence'][-1]):.3f}")

    with open(os.path.join(out, "sweep_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
