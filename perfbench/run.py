"""Benchmark of the robustcl fixture workloads.

    python3 perfbench/run.py --workload train_adv --seed 0 --seconds 35 --trace 0

One process, one client, a closed loop: the next unit of work starts when
the previous one ends, until the run has measured `--seconds`. `--trace 0`
prints the end-to-end metrics; `--trace 1` alternates untraced and traced
units, prints the per-layer metrics and writes the spans of the last traced
unit to `perfbench/out/`. The last line of stdout is the JSON result; the
lines before it are the report and the provenance of the run.
"""

import pin  # first: pins the BLAS thread count before numpy loads

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter, process_time

ROOT = pin.ROOT
if not (ROOT / "src" / "robustcl").is_dir():
    sys.exit(f"perfbench: no robustcl sources under {ROOT / 'src'}")

# import time is part of set-up: a user pays it on every run
_t0 = perf_counter()
import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_S = perf_counter() - _t0
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5


@dataclass
class Unit:
    wall: float
    cpu: float
    spans: list
    counters: dict
    call_s: float = 0.0  # mean reference kernel call while it ran


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def build_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name')} {blas.get('version')}"
    if blas.get("openblas configuration"):
        name += f" ({blas['openblas configuration']})"
    return {"numpy": np.__version__, "blas": name, "blas_threads": blas_threads()}


def git_sha():
    """HEAD of the checkout's own git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "robustcl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, build):
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), **build,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "cell_seed": workloads.cell_seed(args.seed),
            "trace": args.trace, "seconds": args.seconds}


def run_unit(wl, st, out, tracer, sampler=None):
    """Run one unit. With a sampler, the unit starts with a sample, is
    sampled while it runs, and its wall and CPU time leave the samples out."""
    if sampler is not None:
        sampler.take()
        sampler.sample()
        paused = sampler.paused
    w0, c0 = tracer.clock(), process_time()
    wl.unit(st, out)
    wall, cpu = tracer.clock() - w0, process_time() - c0
    if sampler is None:
        return Unit(wall, cpu, *tracer.take())
    cpu -= sampler.paused - paused
    return Unit(wall, cpu, *tracer.take(), statistics.mean(sampler.take()))


def time_is_up(start, seconds, rounds):
    """Stop once another round would more likely overrun than not."""
    return perf_counter() - start + statistics.median(rounds) / 2 >= seconds


def measure(wl, st, seconds):
    """Untraced run: step, backward and batch boundaries are timed, and the
    host speed is sampled at them (`calibrate.Sampler`)."""
    sampler = calibrate.Sampler()
    tracer = Tracer(wl.group_end, clock=sampler.clock, poll=sampler.poll)
    out = workloads.Outcome()
    units = []
    with tracer.installed(layers.timing_targets(tracer)):
        start = perf_counter()
        while True:
            units.append(run_unit(wl, st, out, tracer, sampler))
            if time_is_up(start, seconds, [u.wall for u in units]):
                break
    return out, units


def end_to_end(wl, units, out, setup_s):
    wall = sum(u.wall for u in units)
    cpu = sum(u.cpu for u in units)
    examples = [u.counters.get(wl.examples_counter, 0) for u in units]
    # Each unit is timed at the host speed the kernel calls sampled during
    # it saw (see calibrate.py): other tenants slow the unit and the kernel
    # alike, and the ratio keeps what the program itself costs. Percentiles
    # are taken within each unit, over its steps: a unit mixes step kinds of
    # very different cost. Medians over the run's units.
    adj = [calibrate.adjusted(1.0, u.call_s) for u in units]
    rates = [n / (u.wall * k) for n, u, k in zip(examples, units, adj)]
    steps = [wl.step_times(u.spans) or [u.wall] for u in units]
    p50, p90 = np.median([k * np.percentile(s, [50, 90])
                          for s, k in zip(steps, adj)], axis=0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "setup_s": (setup_s, "s"),
        "examples_per_s": (statistics.median(rates), "1/s"),
        "step_ms_p90": (1000 * p90, "ms"),
        "cpu_s_per_wall_s": (cpu / wall, "s/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    report = {
        "step_ms_p50": (1000 * p50, "ms"),
        "units": (len(units), "count"),
        "steps_per_unit": (statistics.median(len(s) for s in steps), "count"),
        "wall_examples_per_s": (sum(examples) / wall, "1/s"),
        "reference_call_ms": (1000 * statistics.median(u.call_s for u in units), "ms"),
        "timed_wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
    }
    # the same numbers under the names of the layer they describe
    if wl.examples_counter == "training.examples":
        report.update(train_examples_per_s=metrics["examples_per_s"],
                      train_step_ms_p50=report["step_ms_p50"],
                      train_step_ms_p90=metrics["step_ms_p90"])
    else:
        attack_wall = sum(u.counters.get("evaluation.tm1_s", 0.0)
                          + u.counters.get("evaluation.tm2_s", 0.0) for u in units)
        attack_rate = sum(examples) / attack_wall if attack_wall else 0.0
        report.update(attack_images_per_s=(attack_rate, "1/s"),
                      cka_pass_ms=(1000 * statistics.median(out.cka_pass_s or [0.0]), "ms"))
    report["failed_ratio"] = (out.failed / max(out.attempted, 1), "ratio")
    return metrics, report


def traced(wl, st, seconds, build, args):
    """Alternate untraced and traced units; per-layer metrics come from the
    traced ones, the overhead ratio from comparing the two."""
    plain_t, full_t = Tracer(wl.group_end), Tracer(wl.group_end)
    with full_t.installed(layers.full_targets(full_t)):
        t0 = perf_counter()
        wl.setup(args.seed, build)
        setup_wall = perf_counter() - t0
    setup_spans, setup_counters = full_t.take()
    plain_out, traced_out = workloads.Outcome(), workloads.Outcome()
    plain, trace_units = [], []
    start = perf_counter()
    while True:
        with plain_t.installed(layers.light_targets(plain_t)):
            plain.append(run_unit(wl, st, plain_out, plain_t))
        with full_t.installed(layers.full_targets(full_t)):
            trace_units.append(run_unit(wl, st, traced_out, full_t))
        if time_is_up(start, seconds, [p.wall + t.wall for p, t in zip(plain, trace_units)]):
            break
    out = workloads.Outcome(plain_out.attempted + traced_out.attempted,
                            plain_out.failed + traced_out.failed,
                            errors=plain_out.errors + traced_out.errors)
    if plain_out.outputs != traced_out.outputs:
        out.fail(1, "traced outputs", f"{traced_out.outputs} differ from "
                                      f"untraced {plain_out.outputs}")
    per_unit = [layers.layer_seconds(u.spans, u.counters, setup_spans, setup_counters)
                for u in trace_units]
    seconds_m = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
    shown = [layers.reported(m, u.wall, setup_wall) for m, u in zip(per_unit, trace_units)]
    metrics = {k: (statistics.median(m[k] for m in shown), layers.unit_of(k))
               for k in shown[0]}
    overhead = (statistics.median(u.wall for u in trace_units)
                / statistics.median(u.wall for u in plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    last = trace_units[-1]
    t0 = last.spans[0][1] if last.spans else 0.0
    s0 = setup_spans[0][1] if setup_spans else 0.0
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "provenance": provenance(args, build),
        "span_fields": ["name", "start_s", "end_s", "parent", "group"],
        "layer_seconds": seconds_m,
        "trace.overhead_ratio": overhead,
        "setup_spans": [[n, a - s0, b - s0, p, g] for n, a, b, p, g in setup_spans],
        "unit_spans": [[n, a - t0, b - t0, p, g] for n, a, b, p, g in last.spans],
    }))
    report = {k: (v, layers.unit_of(k)) for k, v in seconds_m.items()
              if k.endswith("_s") and f"{k[:-2]}_pct" in metrics}
    report["trace_file"] = (str(path.relative_to(ROOT)), "path")
    return out, metrics, report


def main(argv=None):
    args = parse_args(argv)
    build = build_info()
    wl = workloads.make(args.workload, ROOT)
    # set-up is too short to sample inside: it is timed at the host speed
    # of the reference slices around it; the import ran before the first
    before = calibrate.time_slice()
    setups, raw_setups = [calibrate.adjusted(IMPORT_S, before)], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        st = wl.setup(args.seed, build)
        raw_setups.append(perf_counter() - t0)
        after = calibrate.time_slice()
        setups.append(calibrate.adjusted(raw_setups[-1], (before + after) / 2))
        before = after
    setup_s = setups[0] + statistics.median(setups[1:])
    wall_setup_s = IMPORT_S + statistics.median(raw_setups)
    wl.warm_up(st)

    if args.trace:
        out, metrics, report = traced(wl, st, args.seconds, build, args)
    else:
        out, units = measure(wl, st, args.seconds)
        metrics, report = end_to_end(wl, units, out, setup_s)
        report["wall_setup_s"] = (wall_setup_s, "s")

    print(f"perfbench {args.workload} seed {args.seed} "
          f"(cell seed {workloads.cell_seed(args.seed)}) trace {args.trace}")
    print("provenance " + json.dumps(provenance(args, build)))
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:40s} {value:<14.6g} {unit}" if isinstance(value, (int, float))
              else f"  {name:40s} {value} {unit}")
    for err in out.errors[:10]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
