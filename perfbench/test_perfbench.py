"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Tracing must not change a single trained or evaluated bit, spans must nest,
and every wrapped function must be put back when tracing ends.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calibrate
import layers
import run
import workloads
from robustcl import experiment, training
from spans import END, GROUP, PARENT, START, Tracer, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def build():
    return run.build_info()


def _traced(fn, group_end=()):
    tracer = Tracer(group_end)
    with tracer.installed(layers.full_targets(tracer)):
        result = fn()
    return result, tracer.take()


def _unit_outputs(wl, st):
    out = workloads.Outcome()
    wl.unit(st, out)
    return out


@pytest.mark.parametrize("name", ["train_st", "eval_robust"])
def test_tracing_keeps_outputs_bit_identical(name, build):
    wl = workloads.make(name, run.ROOT)
    st = wl.setup(0, build)
    plain = _unit_outputs(wl, st)
    traced, (spans, _) = _traced(lambda: _unit_outputs(wl, st), wl.group_end)
    assert spans
    assert plain.failed == 0 and traced.failed == 0, plain.errors + traced.errors
    assert plain.outputs == traced.outputs


def test_tracing_keeps_adversarial_training_bits(build):
    """A short AT/CL cell covers PGD, views, NT-Xent at 512 rows and Adam."""
    wl = workloads.make("train_adv", run.ROOT)
    st = wl.setup(0, build)
    small = st["d_p"].subset(np.arange(512))

    def train():
        model, _ = experiment.train_cell(st["warm_cfg"], small, small, "AT", "CL", 0)
        return workloads.param_hash(model)

    plain = train()
    traced, (spans, counters) = _traced(train, wl.group_end)
    assert traced == plain
    assert counters["attacks.pgd_steps"] > 0


def test_spans_nest_and_self_times_fit_in_parents(build):
    wl = workloads.make("eval_robust", run.ROOT)
    st = wl.setup(1, build)
    _, (spans, _) = _traced(lambda: wl.warm_up(st), wl.group_end)
    assert len(spans) > 100
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        assert s[START] <= s[END]
        p = s[PARENT]
        if p >= 0:
            assert p < i
            assert spans[p][START] <= s[START] and s[END] <= spans[p][END]
            child_time[p] += s[END] - s[START]
    for s, children in zip(spans, child_time):
        assert children <= s[END] - s[START] + 1e-9
    assert min(self_times(spans)) >= -1e-9
    groups = [s[GROUP] for s in spans]
    assert groups == sorted(groups) and groups[-1] > 0


def _wrappable():
    tracer = Tracer()
    return {(owner, attr): getattr(owner, attr)
            for owner, attr, _ in layers.full_targets(tracer)}


def test_wrapped_functions_are_restored_even_on_error():
    before = _wrappable()
    assert len(before) > 40
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.full_targets(tracer)):
            assert all(getattr(o, a) is not f for (o, a), f in before.items())
            raise RuntimeError("unit failed")
    assert all(getattr(o, a) is f for (o, a), f in before.items())
    assert training.Adam.step is before[(training.Adam, "step")]
    assert not tracer._saved


def _result(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, key):
    proc = _result("--workload", "train_st", "--seed", "4", "--seconds", "0.1",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result("--workload", "train_st", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_clock_leaves_out_the_kernel_calls_it_samples():
    sampler = calibrate.Sampler()
    tracer = Tracer(clock=sampler.clock, poll=sampler.poll)
    calls = []
    wrapped = tracer.span("f")(lambda: calls.append(1))
    wrapped()  # first poll samples at once
    wrapped()  # within INTERVAL_S of the first: no sample
    assert calls == [1, 1]
    assert len(sampler.calls) == 1 and sampler.paused == sampler.calls[0] > 0
    (spans, _) = tracer.take()
    assert spans[1][START] - spans[0][END] < sampler.paused
    assert sampler.take() and not sampler.calls
    assert calibrate.adjusted(2.0, 2 * calibrate.NOMINAL_S) == 1.0
