import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robustcl import analysis, directional, evaluation, experiment
from robustcl.config import load_config

TINY = [
    "dataset.n=120", "dataset.dim=6", "dataset.separation=8.0",
    "model.layer_widths=5,4", "model.head_dim=3",
    "scenario.pretrain_epochs=1", "scenario.finetune_epochs=1",
]


def test_import_leaves_the_process_pool_unloaded():
    # the sweep imports the pool only when it runs more than one worker
    src = str(Path(experiment.__file__).resolve().parents[1])
    probe = ("import sys, robustcl.experiment, robustcl.directional, robustcl.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestAtomicPath:
    def test_moves_the_finished_file_into_place(self, tmp_path):
        target = tmp_path / "out.json"
        with experiment.atomic_path(target) as tmp, open(tmp, "w") as f:
            f.write("{}")
            assert not target.exists()
        assert target.read_text() == "{}"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with experiment.atomic_path(target) as tmp, open(tmp, "w") as f:
                f.write("half")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]


def test_build_splits_with_a_fine_tuning_fraction():
    cfg = load_config(text="", overrides=["dataset.n=100", "dataset.dim=4",
                                          "dataset.split=0.5,0.3,0.2"])
    d_p, d_f, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    assert (d_p.n, d_f.n, test.n) == (50, 30, 20)
    rows = [{r.tobytes() for r in d.inputs} for d in (d_p, d_f, test)]
    assert len(set.union(*rows)) == 100  # the three splits are disjoint


def test_train_cell_writes_cache_then_hits_it(tmp_path):
    cfg = load_config(text="", overrides=TINY)
    dataset = experiment.build_dataset(cfg)
    d_p, d_f, _ = experiment.build_splits(cfg, dataset)
    model, manifest = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    key = manifest["cell_key"]
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{key}.{ext}" for ext in ("ckpt", "loss.csv", "manifest.json"))
    assert json.loads((tmp_path / f"{key}.manifest.json").read_text()) == manifest
    again, cached = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    assert cached == manifest
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(model.all_params(), again.all_params()))


@pytest.mark.parametrize("ext, garble", [
    ("ckpt", lambda b: b[:9] + b"\x04\x00\x00\x00\xff\xff\xff\xff" + b[13:]),
    ("ckpt", lambda b: b[:-16]),
    ("manifest.json", lambda b: b[: len(b) // 2]),
    ("manifest.json", lambda b: b"\xff" + b[1:]),
    ("manifest.json", lambda b: b"[]"),
    ("manifest.json", lambda b: b"{}"),
    ("manifest.json", lambda b: b.replace(json.loads(b)["cell_key"].encode(),
                                          b"c06d7bea7c50898f")),
])
def test_train_cell_retrains_a_corrupt_cache_entry(tmp_path, ext, garble):
    cfg = load_config(text="", overrides=TINY)
    dataset = experiment.build_dataset(cfg)
    d_p, d_f, _ = experiment.build_splits(cfg, dataset)
    model, manifest = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    files = {e: tmp_path / f"{manifest['cell_key']}.{e}"
             for e in ("ckpt", "loss.csv", "manifest.json")}
    good = {e: f.read_bytes() for e, f in files.items()}
    files[ext].write_bytes(garble(good[ext]))
    with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
        again, fresh = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(model.all_params(), again.all_params()))
    assert {k: v for k, v in fresh.items() if k != "runtime_s"} == {
        k: v for k, v in manifest.items() if k != "runtime_s"}
    # the entry is rewritten whole; only the manifest's wall time may differ
    assert files["ckpt"].read_bytes() == good["ckpt"]
    assert files["loss.csv"].read_bytes() == good["loss.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted(f.name for f in files.values())


@pytest.mark.parametrize("garble", [
    lambda b: b[: len(b) // 2],
    lambda b: b"\xff" + b[1:],
], ids=["truncated", "not-utf8"])
def test_directional_cache_recomputes_a_corrupt_file(tmp_path, garble):
    path = tmp_path / "k.eval.json"
    calls = []

    def compute():
        calls.append(1)
        return {"clean": 0.75, "robust": {"I|0.03|20": 0.5}}

    payload = directional._cached_json(path, compute, indent=2)
    good = path.read_bytes()
    assert directional._cached_json(path, compute, indent=2) == payload
    assert len(calls) == 1
    path.write_bytes(garble(good))
    with pytest.warns(RuntimeWarning, match="unreadable cache file"):
        again = directional._cached_json(path, compute, indent=2)
    assert again == payload and len(calls) == 2
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == ["k.eval.json"]


def test_default_cache_dir_is_the_checkouts_committed_cache():
    path = directional.default_cache_dir()
    assert os.path.isdir(path)
    assert os.path.isfile(os.path.join(path, "..", "..", "..", "pyproject.toml"))


def test_default_cache_dir_refuses_a_root_outside_a_checkout(tmp_path, monkeypatch):
    # a non-editable install resolves the package root to site-packages
    monkeypatch.setattr(directional, "package_root", lambda: tmp_path)
    with pytest.raises(directional.CheckoutError, match="no pyproject.toml"):
        directional.default_cache_dir()


def _stub_directional_computations(monkeypatch):
    tm1 = directional.tm1_attack()
    monkeypatch.setattr(analysis, "divergence_curve",
                        lambda *a, **k: np.array([0.9, 0.25]))
    monkeypatch.setattr(analysis, "cross_model_cka", lambda *a, **k: None)
    monkeypatch.setattr(analysis, "upper_third_mean", lambda grid: 0.5)
    monkeypatch.setattr(evaluation, "evaluate", lambda *a, **k: SimpleNamespace(
        clean_accuracy=0.75, n_test=500, classifier_grad_queries_tm2=0,
        robust={(tm1.threat_model, tm1.epsilon, tm1.steps): 0.375}))


# (cache file, call returning the cached value, the value, a payload that
# parses but lacks a key the caller reads)
CACHED_RESULTS = {
    "cka": ("k.cka.json", lambda d: directional._final_cka(None, None, "k", d), 0.25,
            {"upper_third_mean": 0.5}),
    "cross": ("cross_a_b.json",
              lambda d: directional._cross_upper(None, None, None, "a", "b", d), 0.5,
              {"final_clean_adv_cka": 0.25}),
    "eval": ("k.eval.json",
             lambda d: directional._eval_cell(None, None, "k", d, "ST", "SL", False)["n_test"],
             500, {"clean": 0.75, "robust": {}}),
}


@pytest.mark.parametrize("stale", ["empty", "array", "partial"])
@pytest.mark.parametrize("kind", sorted(CACHED_RESULTS))
def test_directional_cache_recomputes_a_payload_without_its_keys(
        tmp_path, monkeypatch, kind, stale):
    name, call, value, partial = CACHED_RESULTS[kind]
    _stub_directional_computations(monkeypatch)
    path = tmp_path / name
    assert call(str(tmp_path)) == value
    good = path.read_bytes()
    path.write_text(json.dumps({"empty": {}, "array": [], "partial": partial}[stale]))
    with pytest.warns(RuntimeWarning, match="unreadable cache file"):
        assert call(str(tmp_path)) == value
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == [name]


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_directional", "run_epsilon_sweep"])
def test_scripts_write_nothing_outside_a_checkout(tmp_path, monkeypatch, name):
    root = tmp_path / "site-packages"  # no pyproject.toml: an installed package
    root.mkdir()
    monkeypatch.setattr(directional, "package_root", lambda: root)
    monkeypatch.chdir(tmp_path)

    def work(*a, **k):
        raise AssertionError("work started before --out was resolved")

    monkeypatch.setattr(directional, "run_suite", work)
    monkeypatch.setattr(experiment, "build_dataset", work)
    with pytest.raises(directional.CheckoutError, match="pass --out"):
        _script(name).main(["--cache-dir", str(tmp_path / "cache")])
    assert os.listdir(tmp_path) == ["site-packages"]
    assert os.listdir(root) == []


def test_run_directional_writes_under_the_checkout_by_default(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text("")
    monkeypatch.setattr(directional, "package_root", lambda: tmp_path)
    monkeypatch.setattr(directional, "run_suite", lambda **k: {"seeds": {}})
    monkeypatch.setattr(directional, "results_rows", lambda suite: [])
    monkeypatch.setattr(directional, "badges", lambda suite: [])
    assert _script("run_directional").main(["--cache-dir", str(tmp_path / "cache")]) == 0
    assert sorted(os.listdir(tmp_path / "runs" / "acceptance")) == ["report.md", "results.csv"]
