#!/usr/bin/env python3
"""Run perfbench in a parent tree and a change tree, in alternating pairs,
and write every result with a per-metric summary.

    python3 scripts/bench_pairs.py <parent-tree> <change-tree> \\
        --workloads eval_robust train_st --seeds 0 1 2 3 4 5 6 7 8 9 \\
        --out BENCH_<n>.json

For each workload and seed, both trees run `perfbench/run.py --workload <w>
--seed <s> --trace 0` from their own directory, at the run length the
benchmark sets: the parent first for an even seed, the change first for an
odd one. Each run's result (the last line of its stdout) and provenance are
kept. Per workload and end-to-end metric of the change tree's
`BENCHMARK.json`, the summary holds each side's median and quartiles
(`statistics.quantiles(n=4)`), the pairs the change won (ties count for
neither), the parent's interquartile range, and two verdicts: `gain`, the
change won at least nine tenths of the pairs and its median is better by
more than the parent's IQR; `regression`, its median is worse than the
parent's by more than the metric's bound. Nothing is written inside either
tree (the runs do not write bytecode). Exits 1 if any run does not read
`correct: true`, else 0; the output is written either way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in `tree`: its result and provenance."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    provenance = next((json.loads(line[len("provenance "):]) for line in lines
                       if line.startswith("provenance ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return {"returncode": proc.returncode, "provenance": provenance, **result}


def _side(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list, declared: list) -> dict:
    """Per declared end-to-end metric, the two sides' spread and verdicts
    over the seeds that both trees ran correctly."""
    by_seed = {}
    for run in runs:
        if run.get("correct") is True:
            by_seed.setdefault(run["seed"], {})[run["tree"]] = run["metrics"]
    pairs = [(p["parent"], p["change"]) for p in by_seed.values() if len(p) == 2]
    summary = {}
    for metric in declared:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        got = [(a[name]["value"], b[name]["value"]) for a, b in pairs
               if name in a and name in b]
        if len(got) < 2:
            continue
        parent, change = _side([a for a, _ in got]), _side([b for _, b in got])
        gap = sign * (change["median"] - parent["median"])
        wins = sum(sign * (b - a) > 0 for a, b in got)
        iqr = parent["q3"] - parent["q1"]
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "pairs": len(got), "change_wins": wins,
            "median_change_rel": (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": iqr,
            "gain": wins >= 0.9 * len(got) and gap > iqr,
            "regression": -gap > metric["bound"] * abs(parent["median"]),
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    if any(out.is_relative_to(tree) for tree in trees.values()):
        p.error(f"--out {args.out} is inside a tree under test")
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    report = {"command": "python3 perfbench/run.py --workload <w> --seed <s> --trace 0",
              "order": "even seeds run the parent first, odd seeds the change first",
              "workloads": {}}
    correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for tree in order:
                run = run_once(trees[tree], workload, seed)
                runs.append({"tree": tree, "seed": seed, **run})
                correct &= run.get("correct") is True
                print(f"{workload} seed {seed} {tree}: correct {run.get('correct')}",
                      file=sys.stderr)
        report["workloads"][workload] = {"seeds": args.seeds, "runs": runs,
                                         "summary": summarize(runs, declared)}
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
