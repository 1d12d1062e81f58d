"""Orchestration: build datasets and models from a config, and train,
evaluate and tabulate grids of scenario cells (`run_cells`) on the usable
CPUs, cached on disk."""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict

from . import data, evaluation, models, training
from .config import DEFAULTS, ConfigError, ExperimentConfig
from .data import Dataset


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    source = cfg.get("dataset", "source")
    seed = cfg.get("experiment", "seed")
    if source == "synthetic":
        return data.gen_synthetic(cfg.get("dataset", "kind"),
                                  cfg.get("dataset", "n"),
                                  cfg.get("dataset", "dim"),
                                  cfg.get("dataset", "classes"),
                                  seed=seed,
                                  separation=cfg.get("dataset", "separation"))
    if source == "synthetic_images":
        return data.gen_bar_images(cfg.get("dataset", "n"),
                                   size=cfg.get("dataset", "size"),
                                   n_classes=cfg.get("dataset", "classes"),
                                   seed=seed,
                                   contrast=cfg.get("dataset", "contrast"),
                                   noise_sigma=cfg.get("dataset", "noise_sigma"),
                                   shortcut_amp=cfg.get("dataset", "shortcut_amp"))
    if source == "idx":
        return data.load_idx(cfg.get("dataset", "images_path"),
                             cfg.get("dataset", "labels_path"))
    if source == "csv":
        return data.load_csv(cfg.get("dataset", "csv_path"))
    raise ConfigError(f"unknown dataset source {source!r}")


def build_splits(cfg: ExperimentConfig, dataset: Dataset):
    """Returns (D_p, D_f, test); a zero D_f fraction means D_f = D_p."""
    fracs = cfg.get("dataset", "split")
    seed = cfg.get("experiment", "seed")
    if fracs[1] == 0.0:
        d_p, test = data.split(dataset, (fracs[0], fracs[2]), seed)
        return d_p, d_p, test
    return data.split(dataset, tuple(fracs), seed)


@contextmanager
def atomic_path(path):
    """Yield a temporary path beside `path` and move it onto `path` when the
    block completes, so a crash never leaves a partly written cache file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# The own-cell selectors, the deleted `[model] kind` key and the training budget
# at the values every committed cell key was computed with, so no name moves.
KEYED_AS = {"scenario": {"scenario": "ST"}, "loss": {"scheme": "SL"}, "model": {"kind": "dense"},
            "attack_train": {"epsilon": DEFAULTS["attack_train"]["epsilon"][1]}}


def cell_key(cfg: ExperimentConfig, scenario: str, scheme: str, seed: int,
             dataset: Dataset, train_epsilon: float | None = None) -> str:
    """Hash identifying one trained model: the config sections training
    reads + cell + data fingerprint, so every command keys a model alike
    whatever cell the config selects (`KEYED_AS`). The budget the cell
    trains at (`train_epsilon`, else `[attack_train] epsilon`) is keyed as
    None under ST, which trains no attack, or at the default budget, so a
    budget has one key whether a study or the config sets it."""
    eps = cfg.train_epsilon(scenario, train_epsilon)
    if eps == float(KEYED_AS["attack_train"]["epsilon"]):
        eps = None
    h = hashlib.sha256()
    relevant = {s: {**cfg.sections[s], **KEYED_AS.get(s, {})} for s in
                ("dataset", "model", "loss", "scenario", "attack_train", "augment")}
    h.update(json.dumps(relevant, sort_keys=True).encode())
    h.update(f"{scenario}|{scheme}|{seed}|{eps}|{dataset.fingerprint()}".encode())
    return h.hexdigest()[:16]


def entry_paths(cache_dir, key: str) -> dict:
    """The files of cell-cache entry `key`, by suffix."""
    return {ext: os.path.join(cache_dir, f"{key}.{ext}")
            for ext in ("ckpt", "loss.csv", "manifest.json")}


def _read_cached(path, load):
    """`load` of the JSON value at `path`, or None when there is no such file.
    A file that is unreadable, or that `load` cannot read (KeyError, TypeError,
    ValueError), warns and is also None: a miss, recomputed and overwritten."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return load(json.load(f))
    except (OSError, KeyError, TypeError, ValueError, models.CheckpointError) as exc:
        warnings.warn(f"unreadable cache file {path} "
                      f"({type(exc).__name__}: {exc}); recomputing",
                      RuntimeWarning, stacklevel=2)
        return None


def cached_json(path, compute, load, record, indent=None):
    """`load` of the JSON object cached at `path` (`_read_cached`). A file
    that `load` reads but that holds another value in a field of `record`
    (compared as JSON) is a silent miss. On a miss, `compute()` the object,
    add `record`, write it atomically and `load` it."""
    record = json.loads(json.dumps(record))  # tuples compare as lists
    hit = _read_cached(path, lambda payload: (  # `load` first: a file it cannot read warns
        load(payload), all(payload.get(k) == v for k, v in record.items())))
    if hit and hit[1]:
        return hit[0]
    payload = {**compute(), **record}
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump(payload, f, indent=indent, sort_keys=True)
    return load(payload)


def cached_cell(cache_dir, key: str):
    """(model, manifest) of cell-cache entry `key`, or None on a miss; a
    corrupt checkpoint or a manifest of another key warns and is a miss."""
    paths = entry_paths(cache_dir, key)

    def load(manifest):
        if manifest["cell_key"] != key:
            raise ValueError(f"manifest of cell {manifest['cell_key']}, not {key}")
        return models.load_checkpoint(paths["ckpt"]), manifest

    return _read_cached(paths["manifest.json"], load)


def train_cell(cfg: ExperimentConfig, d_p: Dataset, d_f: Dataset,
               scenario: str, scheme: str, seed: int,
               cache_dir=None, train_epsilon: float | None = None):
    """Train one (scenario, scheme, seed) cell, reading no cache: `run_cells`
    trains only the cells it cannot read. With a `cache_dir`, write the
    cell's entry there, manifest last. Returns (model, manifest)."""
    key = cell_key(cfg, scenario, scheme, seed, d_p, train_epsilon)
    spec = cfg.scenario_spec(scenario=scenario, scheme=scheme, seed=seed,
                             train_epsilon=train_epsilon)
    enc_cfg = cfg.encoder_config(d_p.input_shape)
    model = models.init_model(enc_cfg, d_p.n_classes, cfg.get("model", "head_dim"), seed)
    record = training.run_scenario(model, d_p, d_f, spec)
    manifest = {**record.manifest, "cell_key": key}
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        paths = entry_paths(cache_dir, key)
        # the manifest goes last: a cache hit needs both it and the checkpoint
        with atomic_path(paths["ckpt"]) as tmp:
            models.save_checkpoint(model, tmp)
        with atomic_path(paths["loss.csv"]) as tmp:
            training.write_loss_csv(record, tmp)
        with atomic_path(paths["manifest.json"]) as tmp, open(tmp, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
    return model, manifest


# a scenario's place in the training queue: the costliest cells start first
_SCENARIO_RANK = {"Full-AT": 0, "AT": 1, "Partial-AT": 1, "ST": 2}


def _train_job(job, cfg, d_p, d_f, cache_dir):
    """`train_cell` of one job, or its error as a string, so that the other jobs go on."""
    scenario, scheme, seed, train_eps = job
    try:
        return train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir, train_eps)
    except Exception as exc:
        return str(exc)


def _train_pooled(jobs, workers, *args):
    """Yield (index, `_train_job` result) as each of `jobs` (index -> job)
    finishes on `workers` processes, forked so they start pinned and loaded."""
    # imported here, or every import of this module would load the pool modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        futures = {pool.submit(_train_job, job, *args): i for i, job in jobs.items()}
        for future in as_completed(futures):
            yield futures[future], future.result()


def evaluate_cell(model, test: Dataset, specs, scenario: str, scheme: str,
                  key: str, cache_dir) -> evaluation.EvalReport:
    """`evaluation.evaluate` of cell `key` under the attack `specs`, cached
    in `<cache_dir>/<key>.eval.json`. The file records every field of the
    specs: one of other specs is a miss."""
    def robust_id(spec):
        return f"{spec.threat_model}|{spec.epsilon!r}|{spec.steps}"

    def compute():
        report = evaluation.evaluate(model, test, specs, scenario, scheme, key)
        return {"clean": report.clean_accuracy, "n_test": report.n_test,
                "robust": {robust_id(s): report.robust[s.robust_key] for s in specs},
                "tm2_queries": report.classifier_grad_queries_tm2}

    def load(payload):  # a number per spec, or null where `evaluate` gives SL no TM-II accuracy
        robust = {s.robust_key: payload["robust"][robust_id(s)] for s in specs}
        robust = {k: v if v is None and k[0] == "II" and scheme == "SL" else float(v)
                  for k, v in robust.items()}
        return evaluation.EvalReport(key, scenario, scheme, float(payload["clean"]), robust,
                                     int(payload["n_test"]), int(payload["tm2_queries"]))

    return cached_json(os.path.join(cache_dir, f"{key}.eval.json"), compute, load,
                       {"specs": [asdict(s) for s in specs]}, indent=2)


def run_cells(cfg: ExperimentConfig, cells, cache_dir, log=None):
    """Train, evaluate and tabulate each (scenario, scheme, seed,
    train_epsilon, attack specs) cell, all cached in `cache_dir`; this is the
    one reader of the cell cache that trains on a miss. Each cell is read
    here once (`cached_cell`); the misses train through `train_cell`,
    costliest scenario first, on one worker per usable CPU, or here when
    fewer than two would be busy. Each cell with specs is then evaluated
    here (`evaluate_cell`). Returns (the test split, per cell in cell order
    (model, EvalReport, results rows), or (model, manifest) for a cell whose
    specs are None, or the error string of a cell whose training or
    evaluation failed)."""
    d_p, d_f, test = build_splits(cfg, build_dataset(cfg))
    jobs = [cell[:4] for cell in cells]
    results = [cached_cell(cache_dir, cell_key(cfg, scenario, scheme, seed, d_p, train_eps))
               for scenario, scheme, seed, train_eps in jobs]
    misses = {i: jobs[i] for i in sorted((i for i, hit in enumerate(results) if hit is None),
                                         key=lambda i: _SCENARIO_RANK.get(jobs[i][0], 0))}
    args = (cfg, d_p, d_f, cache_dir)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(misses), cpus)
    if workers < 2:
        done = ((i, _train_job(job, *args)) for i, job in misses.items())
    else:
        if log:
            log(f"training {len(misses)} cells on {workers} workers")
        done = _train_pooled(misses, workers, *args)
    for i, got in done:
        results[i] = got
        if log:
            scenario, scheme, seed, eps = jobs[i]
            name = f"{scenario}/{scheme}" + ("" if eps is None else f"/eps={eps:.4f}")
            log(f"seed {seed}: {name} " + (f"failed: {got}" if isinstance(got, str) else
                                           f"trained in {got[1]['runtime_s']:.0f} s"))
    for i, ((scenario, scheme, seed, train_eps, specs), got) in enumerate(zip(cells, results)):
        if isinstance(got, str) or specs is None:
            continue
        model, manifest = got
        try:  # a failed evaluation is the cell's error, as a failed training is
            report = evaluate_cell(model, test, specs, scenario, scheme, manifest["cell_key"],
                                   cache_dir)
            results[i] = model, report, evaluation.results_rows(
                report, seed, manifest["runtime_s"], cfg.train_epsilon(scenario, train_eps))
        except Exception as exc:
            results[i] = str(exc)
    return test, results
