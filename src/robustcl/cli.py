"""Command-line surface: gen-data, train, evaluate, cka, probe, sweep, report.

Exit codes: 0 success, 1 validation error, 2 runtime failure. All outputs go
under [experiment] output_dir (overridable via ROBUSTCL_OUTPUT_DIR).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from . import analysis, data, evaluation, experiment, models, reporting
from .config import ConfigError, ExperimentConfig, load_config


class ValidationFailure(Exception):
    pass


def _load(args) -> ExperimentConfig:
    try:
        cfg = load_config(args.config, overrides=args.override)
    except ConfigError as exc:
        raise ValidationFailure(str(exc))
    env_out = os.environ.get("ROBUSTCL_OUTPUT_DIR")
    if env_out:
        cfg.sections["experiment"]["output_dir"] = env_out
    return cfg


def _out_dir(cfg: ExperimentConfig) -> str:
    out = cfg.get("experiment", "output_dir")
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(cfg: ExperimentConfig, out, files, extra=None) -> None:
    manifest = {"config_hash": cfg.hash(), "files": sorted(files)}
    if extra:
        manifest.update(extra)
    with open(os.path.join(out, "run_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out, "config.canonical.ini"), "w") as f:
        f.write(cfg.canonical())


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    dataset = experiment.build_dataset(cfg)
    files = []
    if dataset.is_image:
        ip = os.path.join(out, f"{dataset.name}-images-idx3-ubyte")
        lp = os.path.join(out, f"{dataset.name}-labels-idx1-ubyte")
        data.write_idx(dataset, ip, lp)
        files += [ip, lp]
    else:
        cp = os.path.join(out, f"{dataset.name}.csv")
        data.write_csv(dataset, cp)
        files.append(cp)
    _write_manifest(cfg, out, files, {"dataset_fingerprint": dataset.fingerprint()})
    print(f"wrote {len(files)} dataset file(s) under {out}")
    return 0


def cmd_train(args) -> int:
    """Train the configured cell through the cell cache under
    <output_dir>/cache (shared with `sweep`) and copy the entry out."""
    cfg = _load(args)
    out = _out_dir(cfg)
    dataset = experiment.build_dataset(cfg)
    d_p, d_f, _ = experiment.build_splits(cfg, dataset)
    scenario = cfg.get("scenario", "scenario")
    scheme = cfg.get("loss", "scheme")
    seed = cfg.getint("experiment", "seed")
    cache_dir = os.path.join(out, "cache")
    _, manifest = experiment.train_cell(cfg, d_p, d_f, scenario, scheme, seed, cache_dir)
    files = []
    for ext, name in (("ckpt", "model.ckpt"), ("loss.csv", "loss.csv"),
                      ("manifest.json", "train_manifest.json")):
        dst = os.path.join(out, name)
        shutil.copyfile(os.path.join(cache_dir, f"{manifest['cell_key']}.{ext}"), dst)
        files.append(dst)
    _write_manifest(cfg, out, files)
    print(f"trained {scenario}/{scheme} (seed {seed}) -> {files[0]}")
    return 0


def _load_model_for(cfg: ExperimentConfig, args):
    ckpt = args.checkpoint or os.path.join(cfg.get("experiment", "output_dir"), "model.ckpt")
    if not os.path.exists(ckpt):
        raise ValidationFailure(f"checkpoint not found: {ckpt}")
    return models.load_checkpoint(ckpt)


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    model = _load_model_for(cfg, args)
    dataset = experiment.build_dataset(cfg)
    _, _, test = experiment.build_splits(cfg, dataset)
    scheme = cfg.get("loss", "scheme")
    report = evaluation.evaluate(model, test, cfg.eval_attacks(scheme),
                                 scenario=cfg.get("scenario", "scenario"),
                                 scheme=scheme)
    # runtime_s reports the (cached) training cost so reruns of this command
    # reproduce results.csv byte for byte
    runtime = 0.0
    train_manifest = os.path.join(out, "train_manifest.json")
    if os.path.exists(train_manifest):
        with open(train_manifest) as f:
            runtime = json.load(f).get("runtime_s", 0.0)
    rows = evaluation.results_rows(report, cfg.getint("experiment", "seed"),
                                   runtime)
    path = os.path.join(out, "results.csv")
    evaluation.write_results_csv(rows, path)
    _write_manifest(cfg, out, [path])
    print(f"clean accuracy {report.clean_accuracy:.4f}; wrote {path}")
    return 0


def cmd_cka(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    model = _load_model_for(cfg, args)
    dataset = experiment.build_dataset(cfg)
    _, _, test = experiment.build_splits(cfg, dataset)
    n_samples = cfg.getint("analysis", "n_samples")
    scheme = cfg.get("loss", "scheme")
    files = []
    clean = analysis.cka_heatmap(model, test, None, n_samples)
    csv_path = os.path.join(out, "cka_clean_clean.csv")
    reporting.write_cka_csv(clean, csv_path)
    files.append(csv_path)
    files += reporting.render_heatmap(clean, os.path.join(out, "cka_clean_clean"))
    eval_attacks = cfg.eval_attacks(scheme)
    if eval_attacks:
        grid = analysis.cka_heatmap(model, test, eval_attacks[-1], n_samples)
        csv_path = os.path.join(out, "cka_clean_adv.csv")
        reporting.write_cka_csv(grid, csv_path)
        files.append(csv_path)
        files += reporting.render_heatmap(grid, os.path.join(out, "cka_clean_adv"))
        dpath = os.path.join(out, "divergence.csv")
        with open(dpath, "w") as f:
            f.write("layer_id,cka_clean_adv\n")
            for lid, v in zip(model.layer_ids(), grid.diagonal()):
                f.write(f"{lid},{float(v)!r}\n")
        files.append(dpath)
    _write_manifest(cfg, out, files)
    print(f"wrote {len(files)} CKA artifact(s) under {out}")
    return 0


def cmd_probe(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    model = _load_model_for(cfg, args)
    dataset = experiment.build_dataset(cfg)
    d_p, _, test = experiment.build_splits(cfg, dataset)
    layers = cfg.getlist("analysis", "probe_layers") or model.layer_ids()
    path = os.path.join(out, "probes.csv")
    if os.path.exists(path):
        os.remove(path)
    for layer in layers:
        result = analysis.linear_probe(model, d_p, test, layer,
                                       seed=cfg.getint("experiment", "seed"))
        reporting.append_probe_csv(result, path)
        print(f"probe {layer}: test accuracy {result.test_accuracy:.4f}")
    _write_manifest(cfg, out, [path])
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    cache_dir = os.path.join(out, "cache")
    workers = cfg.getint("sweep", "workers")
    rows, errors = experiment.scenario_sweep(cfg, cache_dir=cache_dir, workers=workers)
    path = os.path.join(out, "results.csv")
    evaluation.write_results_csv(rows, path)
    files = [path]
    if errors:
        epath = os.path.join(out, "sweep_errors.txt")
        with open(epath, "w") as f:
            f.write("\n".join(errors) + "\n")
        files.append(epath)
        print(f"{len(errors)} cell(s) failed; see {epath}", file=sys.stderr)
    _write_manifest(cfg, out, files)
    print(f"wrote {len(rows)} result row(s) to {path}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    results_path = os.path.join(out, "results.csv")
    rows = evaluation.read_results_csv(results_path) if os.path.exists(results_path) else None
    svgs = []
    for name in ("cka_clean_clean", "cka_clean_adv"):
        p = os.path.join(out, f"{name}.svg")
        if os.path.exists(p):
            svgs.append((name, p))
    path = reporting.write_report(out, results_rows=rows, heatmap_svgs=svgs or None)
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "cka": cmd_cka,
    "probe": cmd_probe,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustcl",
                                     description="Desk-scale robust contrastive learning lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", default=None, help="INI config path")
        p.add_argument("--override", "-o", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        p.add_argument("--checkpoint", default=None, help="model checkpoint path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
