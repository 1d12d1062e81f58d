import importlib.util
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robustcl import analysis, directional, evaluation, experiment, models
from robustcl.config import load_config

TINY = [
    "dataset.n=120", "dataset.dim=6", "dataset.separation=8.0",
    "model.layer_widths=5,4", "model.head_dim=3",
    "scenario.pretrain_epochs=1", "scenario.finetune_epochs=1",
]


def test_import_leaves_the_process_pool_unloaded():
    # the cell executor imports the pool only when it trains on two workers
    src = str(Path(experiment.__file__).resolve().parents[1])
    probe = ("import sys, robustcl.experiment, robustcl.directional, robustcl.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_import_pins_one_blas_thread():
    src = str(Path(experiment.__file__).resolve().parents[1])
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = f"import os, robustcl.cli; print([os.environ[v] for v in {names}])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src,
                                          "OPENBLAS_NUM_THREADS": "4"})
    assert out.stdout.strip() == "['1', '1', '1']"


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
    assert "config_hash" not in manifest  # the cell key names what trained the cell
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{key}.{ext}" for ext in ("ckpt", "loss.csv", "manifest.json"))
    assert json.loads((tmp_path / f"{key}.manifest.json").read_text()) == manifest
    again, cached = experiment.cached_cell(tmp_path, key)
    assert cached == manifest
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(model.all_params(), again.all_params()))


def test_cell_key_names_each_model_once():
    cfg = directional.fixture_config()
    d_p, _, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))

    def key(scenario, train_epsilon, overrides=None):
        config = load_config(text=directional.FIXTURE_TEXT, overrides=overrides)
        return experiment.cell_key(config, scenario, "CL", 0, d_p, train_epsilon)

    # the committed AT/CL seed-0 cell, under the configured budget spelled out
    assert key("AT", None) == key("AT", directional.EPS8) == "c06d7bea7c50898f"
    # ST trains no attack, so no budget renames it
    assert key("ST", directional.EPS4) == key("ST", 0.0) == key("ST", None)
    # another budget trains another model
    assert key("AT", directional.EPS4) not in (key("AT", None), key("ST", None))
    # the own-cell selectors pick no model; the pin above has no [model] kind
    for selectors in (["scenario.scenario=AT", "loss.scheme=CL"],
                      ["scenario.scenario=Full-AT", "loss.scheme=SCL"],
                      ["scenario.scenario=Partial-AT", "loss.scheme=CL"], ["loss.scheme=SL+CL"]):
        assert key("AT", None, selectors) == "c06d7bea7c50898f"
    # a key that training reads names another model
    for changed in ("loss.temperature=0.3", "model.layer_widths=128,64"):
        assert key("AT", None, [changed]) != "c06d7bea7c50898f"


def test_run_cells_trains_the_costliest_scenarios_first(tmp_path, monkeypatch):
    """Misses train Full-AT, then AT and Partial-AT, then ST, each rank in cell
    order; results come back in cell order, a failed cell as its error."""
    trained = []

    def train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir=None,
                   train_epsilon=None):
        trained.append((scenario, scheme))
        if scenario == "Partial-AT":
            raise ValueError("no such cell")
        return f"{scenario}/{scheme}", {"cell_key": f"{scenario}/{scheme}", "runtime_s": 2.0}

    def evaluate_cell(model, test, specs, scenario, scheme, key=None, cache_dir=None):
        return evaluation.EvalReport(key, scenario, scheme, 0.5, {}, test.n)

    monkeypatch.setattr(experiment, "train_cell", train_cell)
    monkeypatch.setattr(experiment, "evaluate_cell", evaluate_cell)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = load_config(text="", overrides=TINY)
    cells = [("ST", "SL", 0, None, []), ("AT", "CL", 0, 0.01, []),
             ("Partial-AT", "SL", 0, None, []), ("Full-AT", "CL", 0, None, []),
             ("AT", "SCL", 0, None, [])]
    lines = []
    _, results = experiment.run_cells(cfg, cells, str(tmp_path), log=lines.append)
    assert trained == [("Full-AT", "CL"), ("AT", "CL"), ("Partial-AT", "SL"),
                       ("AT", "SCL"), ("ST", "SL")]
    assert [got if isinstance(got, str) else (got[0], got[1].model_id) for got in results] == [
        ("ST/SL", "ST/SL"), ("AT/CL", "AT/CL"), "no such cell", ("Full-AT/CL", "Full-AT/CL"),
        ("AT/SCL", "AT/SCL")]
    assert lines[:3] == ["seed 0: Full-AT/CL trained in 2 s",
                         "seed 0: AT/CL/eps=0.0100 trained in 2 s",
                         "seed 0: Partial-AT/SL failed: no such cell"]


def test_a_failed_study_evaluation_names_its_seed_and_cell(tmp_path, monkeypatch):
    """The study fails as `run_cells` does: a cell whose evaluation raises is
    that cell's error, and the suite names it with its seed."""
    def train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir=None,
                   train_epsilon=None):
        return "model", {"cell_key": f"{scenario}|{scheme}|{train_epsilon}", "runtime_s": 1.0}

    def evaluate_cell(model, test, specs, scenario, scheme, key=None, cache_dir=None):
        if key == "AT|SCL|None":
            raise ValueError("attack diverged")
        return evaluation.EvalReport(key, scenario, scheme, 0.5, {}, 10)

    monkeypatch.setattr(experiment, "build_dataset", lambda cfg: "dataset")
    monkeypatch.setattr(experiment, "build_splits", lambda cfg, dataset: ("d_p", "d_f", "test"))
    monkeypatch.setattr(experiment, "cell_key", lambda cfg, *cell: "|".join(map(str, cell)))
    monkeypatch.setattr(experiment, "train_cell", train_cell)
    monkeypatch.setattr(experiment, "evaluate_cell", evaluate_cell)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(RuntimeError) as exc:
        directional.run_suite(seeds=(0,), cache_dir=str(tmp_path))
    assert str(exc.value) == "seed 0: AT/SCL: attack diverged"


def test_a_warm_suite_reads_each_checkpoint_once_and_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*a, **k):
        raise AssertionError("a warm cache started a process pool")

    def no_evaluation(*a, **k):
        raise AssertionError("a warm cache evaluated a cell")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(evaluation, "evaluate", no_evaluation)
    loaded = []
    load = models.load_checkpoint
    monkeypatch.setattr(models, "load_checkpoint",
                        lambda path: loaded.append(path) or load(path))
    lines = []
    suite = directional.run_suite(seeds=(0,), log=lines.append)
    assert len(loaded) == len(directional.CELLS) == 11
    assert sorted(suite["seeds"][0]["cells"]) == sorted(directional.CELLS)
    assert lines == []


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, (got,) = experiment.run_cells(cfg, [("ST", "SL", 0, None, None)], tmp_path)
    # the runner reads the entry once, so the corrupt file warns once
    assert [(w.category, "unreadable cache file" in str(w.message)) for w in caught] == [
        (RuntimeWarning, True)]
    again, fresh = got
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

    def load(payload):
        return payload

    payload = experiment.cached_json(path, compute, load, {}, indent=2)
    good = path.read_bytes()
    assert experiment.cached_json(path, compute, load, {}, indent=2) == payload
    assert len(calls) == 1
    path.write_bytes(garble(good))
    with pytest.warns(RuntimeWarning, match="unreadable cache file"):
        again = experiment.cached_json(path, compute, load, {}, indent=2)
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
        robust={tm1.robust_key: 0.375}))


# (cache file, call returning the cached value, the value, a payload that
# parses but lacks a key the caller reads, fields that the caller cannot read
# in a payload with every key, record fields of another run)
CACHED_RESULTS = {
    "cka": ("k.cka.json", lambda d: directional._final_cka(None, None, "k", d), 0.25,
            {"upper_third_mean": 0.5}, {"final_clean_adv_cka": "high"}, {"n_samples": 30}),
    "cross": ("cross_a_b.json",
              lambda d: directional._cross_upper(None, None, None, "a", "b", d), 0.5,
              {"final_clean_adv_cka": 0.25}, {"upper_third_mean": "high"}, {"n_samples": 30}),
    "eval": ("k.eval.json",
             lambda d: experiment.evaluate_cell(None, None, [directional.tm1_attack()],
                                                "ST", "SL", "k", d).n_test,
             500, {"clean": 0.75, "robust": {}}, {"robust": {}},
             {"specs": [asdict(replace(directional.tm1_attack(), steps=10))]}),
}


@pytest.mark.parametrize("stale", ["empty", "array", "partial", "unusable", "other-record"])
@pytest.mark.parametrize("kind", sorted(CACHED_RESULTS))
def test_directional_cache_recomputes_a_payload_without_its_keys(
        tmp_path, monkeypatch, kind, stale):
    name, call, value, partial, unusable, other = CACHED_RESULTS[kind]
    _stub_directional_computations(monkeypatch)
    path = tmp_path / name
    assert call(str(tmp_path)) == value
    good = path.read_bytes()
    path.write_text(json.dumps({"empty": {}, "array": [], "partial": partial,
                                "unusable": {**json.loads(good), **unusable},
                                "other-record": {**json.loads(good), **other}}[stale]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert call(str(tmp_path)) == value
    # a file of another record, even one holding the right value, is a silent miss
    assert [(w.category, "unreadable cache file" in str(w.message)) for w in caught] == (
        [] if stale == "other-record" else [(RuntimeWarning, True)])
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


def test_eps_sweep_reads_the_studys_cells(tmp_path):
    """At its default budgets the sweep trains nothing: eps 0, 4/255 and
    8/255 are the seed-0 cells that badge c8 reads, and each final
    divergence value is that cell's committed final clean-adv CKA, computed
    under the same record."""
    committed = Path(directional.default_cache_dir())
    cfg = directional.fixture_config()
    d_p, _, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    cache = tmp_path / "cache"
    cache.mkdir()
    keys = []
    for name in ("ST/CL", "AT/CL/eps=0.0157", "AT/CL"):
        scenario, scheme, train_eps, _ = directional.CELLS[name]
        keys.append(experiment.cell_key(cfg, scenario, scheme, 0, d_p, train_eps))
        for path in experiment.entry_paths(committed, keys[-1]).values():
            shutil.copy(path, cache)
    before = sorted(os.listdir(cache))
    out = tmp_path / "out"
    assert _script("run_epsilon_sweep").main(
        ["--cache-dir", str(cache), "--out", str(out)]) == 0
    assert sorted(os.listdir(cache)) == before
    tags = ("eps_0", "eps_0p0156863", "eps_0p0313725")
    assert sorted(os.listdir(out)) == sorted(
        [f"{t}{suffix}" for t in tags for suffix in (".csv", ".pgm", ".svg", "_divergence.csv")]
        + ["sweep_manifest.json"])
    for tag, key in zip(tags, keys):
        rows = (out / f"{tag}_divergence.csv").read_text().splitlines()
        assert rows[0] == "layer_id,cka_clean_adv"
        final = json.loads((committed / f"{key}.cka.json").read_text())
        assert float(rows[-1].split(",")[1]) == final["final_clean_adv_cka"]
    # the sweep records its attack and sample count as the CKA files do
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert (manifest["attack"], manifest["n_samples"]) == (final["attack"], final["n_samples"])


def test_eps_sweep_trains_only_its_missing_budgets(tmp_path, monkeypatch, capsys):
    """With the 4/255 entry missing, the sweep trains that budget alone, logs
    it and writes every artifact; once the entry is there, it trains and logs
    nothing."""
    committed = Path(directional.default_cache_dir())
    cfg = directional.fixture_config()
    d_p, _, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    cache = tmp_path / "cache"
    cache.mkdir()

    def copy_entry(name):
        scenario, scheme, train_eps, _ = directional.CELLS[name]
        key = experiment.cell_key(cfg, scenario, scheme, 0, d_p, train_eps)
        for path in experiment.entry_paths(committed, key).values():
            shutil.copy(path, cache)

    copy_entry("ST/CL")
    copy_entry("AT/CL")
    trained = []

    def train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir=None,
                   train_epsilon=None):
        trained.append((scenario, scheme, seed, train_epsilon))
        model = models.init_model(cfg.encoder_config(d_p.input_shape), d_p.n_classes,
                                  cfg.get("model", "head_dim"), seed)
        return model, {"cell_key": "untrained", "runtime_s": 0.0}

    monkeypatch.setattr(experiment, "train_cell", train_cell)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sweep = _script("run_epsilon_sweep")
    argv = ["--cache-dir", str(cache), "--out", str(tmp_path / "out"), "--n-samples", "40"]
    assert sweep.main(argv) == 0
    assert trained == [("AT", "CL", 0, directional.EPS4)]
    logged = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert [line.split("] ", 1)[1] for line in logged] == [
        "seed 0: AT/CL/eps=0.0157 trained in 0 s"]
    tags = ("eps_0", "eps_0p0156863", "eps_0p0313725")
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        [f"{t}{suffix}" for t in tags for suffix in (".csv", ".pgm", ".svg", "_divergence.csv")]
        + ["sweep_manifest.json"])
    copy_entry("AT/CL/eps=0.0157")
    assert sweep.main(argv) == 0
    assert len(trained) == 1
    assert not any(line.startswith("[") for line in capsys.readouterr().out.splitlines())


def test_eps_sweep_exits_2_on_a_failed_budget(tmp_path, monkeypatch, capsys):
    def train_cell(*a, **k):
        raise RuntimeError("loss diverged")

    monkeypatch.setattr(experiment, "train_cell", train_cell)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "out"
    assert _script("run_epsilon_sweep").main(
        ["--cache-dir", str(tmp_path / "cache"), "--out", str(out),
         "--epsilons", str(directional.EPS4)]) == 2
    assert capsys.readouterr().err == "runtime failure: AT/CL/eps=0.0156863: loss diverged\n"
    assert not out.exists()


def test_run_directional_exits_2_on_a_failed_cell(tmp_path, monkeypatch, capsys):
    def run_suite(**k):
        raise RuntimeError("seed 0: AT/SCL: attack diverged")

    monkeypatch.setattr(directional, "run_suite", run_suite)
    out = tmp_path / "out"
    assert _script("run_directional").main(
        ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "runtime failure: seed 0: AT/SCL: attack diverged\n"
    assert os.listdir(tmp_path) == []


def test_run_directional_writes_under_the_checkout_by_default(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text("")
    monkeypatch.setattr(directional, "package_root", lambda: tmp_path)
    monkeypatch.setattr(directional, "run_suite", lambda **k: {"seeds": {}})
    monkeypatch.setattr(directional, "results_rows", lambda suite: [])
    monkeypatch.setattr(directional, "badges", lambda suite: [])
    assert _script("run_directional").main(["--cache-dir", str(tmp_path / "cache")]) == 0
    assert sorted(os.listdir(tmp_path / "runs" / "acceptance")) == ["report.md", "results.csv"]


def _cache_pair(tmp_path):
    """Two copies of a small cell cache: a checkpoint, a manifest, an eval."""
    caches = [tmp_path / "a", tmp_path / "b"]
    for cache in caches:
        cache.mkdir()
        (cache / "k.ckpt").write_bytes(b"RRLB\x00\x01")
        (cache / "k.manifest.json").write_text(
            json.dumps({"cell_key": "k", "runtime_s": 1.5}, indent=2))
        (cache / "k.eval.json").write_text(json.dumps({"clean": 0.5, "n_test": 10}))
    return caches


def test_compare_cache_passes_equal_caches_up_to_wall_time(tmp_path, capsys):
    a, b = _cache_pair(tmp_path)
    # the same values, written differently, and another training wall time
    (b / "k.eval.json").write_text(json.dumps({"n_test": 10, "clean": 0.5}, indent=4))
    (b / "k.manifest.json").write_text(json.dumps({"cell_key": "k", "runtime_s": 9.0}))
    assert _script("compare_cache").main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3 files, 0 difference(s)\n"


def test_compare_cache_lists_each_difference_by_file_and_field(tmp_path, capsys):
    a, b = _cache_pair(tmp_path)
    (b / "k.ckpt").write_bytes(b"RRLB\x00\x02")
    (b / "k.eval.json").write_text(json.dumps({"clean": 0.25, "specs": []}))
    (a / "k.loss.csv").write_text("epoch,phase,loss\n")
    (b / "cross_k_j.json").write_text("{}")
    assert _script("compare_cache").main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cross_k_j.json: only in b",
        "k.ckpt: bytes differ",
        "k.eval.json: clean: 0.5 != 0.25",
        "k.eval.json: n_test: only in a",
        "k.eval.json: specs: only in b",
        "k.loss.csv: only in a",
        "5 files, 6 difference(s)",
    ]


_STUB_RUN = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open({log!r}, "a") as f:
    f.write(f"{{args['--workload']}} {{seed}} {name}\\n")
rate = {base} + seed
print("perfbench stub")
print("provenance " + json.dumps({{"seed": seed}}))
print(json.dumps({{"correct": seed not in {wrong}, "attempted": 4, "failed": 0, "metrics": {{
    "examples_per_s": {{"value": rate, "unit": "1/s"}},
    "peak_rss_mb": {{"value": 60.0, "unit": "MB"}}}}}}))
'''


def _stub_tree(root, name, base, log, wrong=()):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        _STUB_RUN.format(log=str(log), name=name, base=base, wrong=list(wrong)))
    (root / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "examples_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}))
    return root / name


def _listing(tree):
    return sorted(str(p.relative_to(tree)) for p in tree.rglob("*"))


@pytest.mark.parametrize("change_base, gain", [(120.0, True), (104.0, False)])
def test_bench_pairs_alternates_trees_and_keeps_every_run(tmp_path, change_base, gain):
    log = tmp_path / "order.log"
    parent = _stub_tree(tmp_path, "parent", 100.0, log)
    change = _stub_tree(tmp_path, "change", change_base, log)
    before = [_listing(parent), _listing(change)]
    out = tmp_path / "BENCH.json"
    seeds = [str(s) for s in range(10)]
    assert _script("bench_pairs").main([str(parent), str(change), "--workloads", "w",
                                        "--seeds", *seeds, "--out", str(out)]) == 0
    assert [_listing(parent), _listing(change)] == before
    firsts = log.read_text().splitlines()[::2]
    assert firsts == [f"w {s} {'parent' if s % 2 == 0 else 'change'}" for s in range(10)]
    got = json.loads(out.read_text())["workloads"]["w"]
    assert [(r["tree"], r["seed"]) for r in got["runs"]][:4] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1)]
    assert len(got["runs"]) == 20 and all(r["provenance"] for r in got["runs"])
    rate = got["summary"]["examples_per_s"]
    # parent 100..109: quartiles of statistics.quantiles(n=4), an IQR of 5.5
    assert rate["parent"] == {"median": 104.5, "q1": 101.75, "q3": 107.25}
    assert rate["change_wins"] == 10 and rate["gain"] is gain
    assert rate["regression"] is False
    rss = got["summary"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["gain"] is False and rss["regression"] is False


def test_bench_pairs_exits_1_on_an_incorrect_run(tmp_path):
    log = tmp_path / "order.log"
    parent = _stub_tree(tmp_path, "parent", 100.0, log)
    change = _stub_tree(tmp_path, "change", 50.0, log, wrong=[1])
    out = tmp_path / "BENCH.json"
    assert _script("bench_pairs").main([str(parent), str(change), "--workloads", "w",
                                        "--seeds", "0", "1", "2", "--out", str(out)]) == 1
    got = json.loads(out.read_text())["workloads"]["w"]
    assert [r["correct"] for r in got["runs"]] == [True, True, False, True, True, True]
    rate = got["summary"]["examples_per_s"]  # over the seeds both trees ran correctly
    assert rate["pairs"] == 2 and rate["regression"] is True
    with pytest.raises(SystemExit):
        _script("bench_pairs").main([str(parent), str(change), "--workloads", "w",
                                     "--seeds", "0", "--out", str(change / "B.json")])
