"""Orchestration: build datasets and models from a config, train scenario
cells with on-disk caching, and run evaluation sweeps."""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager

from . import data, evaluation, models, training
from .config import ConfigError, ExperimentConfig
from .data import Dataset


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    source = cfg.get("dataset", "source")
    seed = cfg.getint("experiment", "seed")
    if source == "synthetic":
        return data.gen_synthetic(cfg.get("dataset", "kind"),
                                  cfg.getint("dataset", "n"),
                                  cfg.getint("dataset", "dim"),
                                  cfg.getint("dataset", "classes"),
                                  seed=seed,
                                  separation=cfg.getfloat("dataset", "separation"))
    if source == "synthetic_images":
        return data.gen_bar_images(cfg.getint("dataset", "n"),
                                   size=cfg.getint("dataset", "size"),
                                   n_classes=cfg.getint("dataset", "classes"),
                                   seed=seed,
                                   contrast=cfg.getfloat("dataset", "contrast"),
                                   noise_sigma=cfg.getfloat("dataset", "noise_sigma"),
                                   shortcut_amp=cfg.getfloat("dataset", "shortcut_amp"))
    if source == "idx":
        return data.load_idx(cfg.get("dataset", "images_path"),
                             cfg.get("dataset", "labels_path"))
    if source == "csv":
        return data.load_csv(cfg.get("dataset", "csv_path"))
    raise ConfigError(f"unknown dataset source {source!r}")


def build_splits(cfg: ExperimentConfig, dataset: Dataset):
    """Returns (D_p, D_f, test); a zero D_f fraction means D_f = D_p."""
    fracs = cfg.getlist("dataset", "split", float)
    seed = cfg.getint("experiment", "seed")
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


def cell_key(cfg: ExperimentConfig, scenario: str, scheme: str, seed: int,
             dataset: Dataset, train_epsilon: float | None = None) -> str:
    """Hash identifying one trained model: config + cell + data fingerprint.
    A `train_epsilon` that trains the same model as None (the configured
    epsilon, or any value under ST, which trains no attack) keys as None."""
    if scenario == "ST" or train_epsilon == cfg.getfloat("attack_train", "epsilon"):
        train_epsilon = None
    h = hashlib.sha256()
    relevant = {s: cfg.sections[s] for s in
                ("dataset", "model", "loss", "scenario", "attack_train", "augment")}
    h.update(json.dumps(relevant, sort_keys=True).encode())
    h.update(f"{scenario}|{scheme}|{seed}|{train_epsilon}|{dataset.fingerprint()}".encode())
    return h.hexdigest()[:16]


def entry_paths(cache_dir, key: str) -> dict:
    """The files of cell-cache entry `key`, by suffix."""
    return {ext: os.path.join(cache_dir, f"{key}.{ext}")
            for ext in ("ckpt", "loss.csv", "manifest.json")}


def _read_cached(path, keys=(), load=lambda payload: payload):
    """`load` of the JSON object at `path`, or None when there is no such
    file. A file that is unreadable, lacks one of `keys` or that `load`
    rejects warns and is also None: a miss, recomputed and overwritten."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            payload = json.load(f)
        if not isinstance(payload, dict) or not all(k in payload for k in keys):
            raise ValueError(f"not a JSON object with the keys {list(keys)}")
        return load(payload)
    except (OSError, ValueError, models.CheckpointError) as exc:
        warnings.warn(f"unreadable cache file {path} "
                      f"({type(exc).__name__}: {exc}); recomputing",
                      RuntimeWarning, stacklevel=2)
        return None


def cached_json(path, compute, keys=(), indent=None) -> dict:
    """The JSON object cached at `path` (`_read_cached`); on a miss,
    `compute()` it and write it atomically."""
    payload = _read_cached(path, keys)
    if payload is None:
        payload = compute()
        with atomic_path(path) as tmp, open(tmp, "w") as f:
            json.dump(payload, f, indent=indent, sort_keys=True)
    return payload


def cached_cell(cache_dir, key: str):
    """(model, manifest) of cell-cache entry `key`, or None on a miss; a
    corrupt checkpoint or a manifest of another key warns and is a miss."""
    paths = entry_paths(cache_dir, key)

    def load(manifest):
        if manifest["cell_key"] != key:
            raise ValueError(f"manifest of cell {manifest['cell_key']}, not {key}")
        return models.load_checkpoint(paths["ckpt"]), manifest

    return _read_cached(paths["manifest.json"], ("cell_key",), load)


def train_cell(cfg: ExperimentConfig, d_p: Dataset, d_f: Dataset,
               scenario: str, scheme: str, seed: int,
               cache_dir=None, train_epsilon: float | None = None):
    """Train one (scenario, scheme, seed) cell, reusing the cache entry with
    the same cell key when it reads back (`cached_cell`); a miss trains and
    writes the entry. Returns (model, manifest)."""
    key = cell_key(cfg, scenario, scheme, seed, d_p, train_epsilon)
    if cache_dir is not None:
        hit = cached_cell(cache_dir, key)
        if hit is not None:
            return hit
    spec = cfg.scenario_spec(scenario=scenario, scheme=scheme, seed=seed,
                             train_epsilon=train_epsilon)
    enc_cfg = cfg.encoder_config(d_p.input_shape)
    model = models.init_model(enc_cfg, d_p.n_classes, cfg.getint("model", "head_dim"), seed)
    record = training.run_scenario(model, d_p, d_f, spec)
    manifest = dict(record.manifest)
    manifest["cell_key"] = key
    manifest["config_hash"] = cfg.hash()
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


def _sweep_cell(args):
    cfg_sections, scenario, scheme, seed, cache_dir = args
    cfg = ExperimentConfig(cfg_sections)
    dataset = build_dataset(cfg)
    d_p, d_f, test = build_splits(cfg, dataset)
    t0 = time.time()
    try:
        model, manifest = train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir)
        report = evaluation.evaluate(model, test, cfg.eval_attacks(scheme),
                                     scenario=scenario, scheme=scheme,
                                     model_id=f"{scenario}/{scheme}/s{seed}")
        runtime = manifest.get("runtime_s", time.time() - t0)
        return evaluation.results_rows(report, seed, runtime), None
    except Exception as exc:  # sweep continues; failure recorded per cell
        return [], f"{scenario}/{scheme}/s{seed}: {exc}"


def scenario_sweep(cfg: ExperimentConfig, cache_dir=None, workers: int = 1):
    """Train + evaluate every (scenario, scheme, seed) grid cell, in a pool
    of `workers` processes when there is more than one.

    Returns (rows for results.csv, list of per-cell error strings)."""
    scenarios = cfg.getlist("sweep", "scenarios")
    schemes = cfg.getlist("sweep", "schemes")
    seeds = cfg.getlist("sweep", "seeds", int)
    if not scenarios or not schemes or not seeds:
        raise ConfigError("sweep grid is empty")
    cells = [(cfg.sections, sc, sch, seed, cache_dir)
             for sc in scenarios for sch in schemes for seed in seeds]
    if workers > 1:
        # imported here: the pool module pulls in multiprocessing, socket and
        # logging, which every import of this module would pay otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = map(_sweep_cell, cells)
    rows, errors = [], []
    for cell_rows, err in results:
        rows.extend(cell_rows)
        if err:
            errors.append(err)
    return rows, errors
