#!/usr/bin/env python3
"""Run the seeded directional study and emit results.csv plus a badge report.

Every trained cell is cached under the cache directory, so reruns (and the
test suite) reuse the checkpoints instead of retraining.

Exit codes: 0 every badge passes, 1 a badge fails, 2 a cell failed to train
or evaluate (nothing is written under --out).
"""

import argparse
import os
import sys
import time

from robustcl import directional, evaluation, reporting


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(directional.SEEDS))
    ap.add_argument("--cache-dir", default=None,
                    help="cell cache (default: the checkout's runs/acceptance/cache)")
    ap.add_argument("--out", default=None,
                    help="results directory (default: the checkout's runs/acceptance)")
    args = ap.parse_args(argv)
    out = args.out or directional.checkout_path("runs", "acceptance", instead="--out")

    t0 = time.time()

    def log(msg):
        print(f"[{time.time() - t0:7.0f}s] {msg}", flush=True)

    try:
        suite = directional.run_suite(seeds=tuple(args.seeds),
                                      cache_dir=args.cache_dir, log=log)
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    rows = directional.results_rows(suite)
    results_path = os.path.join(out, "results.csv")
    evaluation.write_results_csv(rows, results_path)
    badge_list = directional.badges(suite)
    reporting.write_report(out, results_rows=rows, badges=badge_list)
    log(f"wrote {results_path} and report.md")
    for name, ok, detail in badge_list:
        print(f"{'PASS' if ok else 'FAIL'}  {name}\n      {detail}")
    return 0 if all(ok for _, ok, _ in badge_list) else 1


if __name__ == "__main__":
    sys.exit(main())
