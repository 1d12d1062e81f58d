"""Command-line surface: gen-data, train, evaluate, cka, probe, sweep, report.

Exit codes: 0 success, 1 config or validation error, 2 runtime failure (also a sweep of
which no cell gives a row). All outputs go under [experiment] output_dir, made once a
command has its dataset or model; a non-empty ROBUSTCL_OUTPUT_DIR overrides it, applied
as the last -o override, so config.canonical.ini names the directory used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, data, evaluation, experiment, models, reporting
from .config import ConfigError, ExperimentConfig, load_config


class ValidationFailure(Exception):
    pass


def _load(args) -> ExperimentConfig:
    env_out = os.environ.get("ROBUSTCL_OUTPUT_DIR")
    env = [f"experiment.output_dir={env_out}"] if env_out else []
    return load_config(args.config, overrides=args.override + env)


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
    dataset = experiment.build_dataset(cfg)
    out = _out_dir(cfg)
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


def _cache_dir(cfg: ExperimentConfig) -> str:
    """The cell cache, <output_dir>/cache; the first write to it makes the
    output directory, so a failed set-up leaves none."""
    return os.path.join(cfg.get("experiment", "output_dir"), "cache")


def cmd_train(args) -> int:
    """Train the configured cell into the cell cache (shared with `sweep`)
    through `experiment.run_cells`, which reads the cell instead when it is
    cached there; a cell that fails to train raises RuntimeError naming it."""
    cfg = _load(args)
    scenario, scheme, seed = cfg.own_cell()
    cache_dir = _cache_dir(cfg)
    _, (got,) = experiment.run_cells(cfg, [(scenario, scheme, seed, None, None)], cache_dir)
    if isinstance(got, str):
        raise RuntimeError(f"{scenario}/{scheme}/s{seed}: {got}")
    key = got[1]["cell_key"]
    out = _out_dir(cfg)
    _write_manifest(cfg, out, experiment.entry_paths(cache_dir, key).values(),
                    {"cell_key": key})
    print(f"trained {scenario}/{scheme} (seed {seed}) -> cell {key} in {cache_dir}")
    return 0


def _trained_model(args):
    """(config, output dir, model, its cache manifest, (D_p, D_f, test)) for
    the commands that read a trained model: the file --checkpoint names
    (with an empty manifest; its encoder must be the configured one), or the
    config's own cell in <output_dir>/cache. Only a found model makes the output dir."""
    cfg = _load(args)
    splits = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise ValidationFailure(f"checkpoint not found: {args.checkpoint}")
        model = models.load_checkpoint(args.checkpoint)
        if model.config != (want := cfg.encoder_config(splits[2].input_shape)):
            raise ValidationFailure(f"checkpoint encoder {model.config} is not the "
                                    f"configured encoder {want}")
        return cfg, _out_dir(cfg), model, {}, splits
    cache_dir = _cache_dir(cfg)
    key = experiment.cell_key(cfg, *cfg.own_cell(), splits[0])
    hit = experiment.cached_cell(cache_dir, key)
    if hit is None:
        raise ValidationFailure(f"no trained cell {key} for this config in {cache_dir}; "
                                f"run `train` with it first, or pass --checkpoint")
    return (cfg, _out_dir(cfg), *hit, splits)


def cmd_evaluate(args) -> int:
    """Evaluate the config's cell (cached beside it) or the --checkpoint model (uncached)."""
    cfg, out, model, manifest, (_, _, test) = _trained_model(args)
    scenario, scheme, seed = cfg.own_cell()
    key = manifest.get("cell_key")  # None for a --checkpoint model
    specs = cfg.eval_attacks(scheme)
    report = (experiment.evaluate_cell(model, test, specs, scenario, scheme, key,
                                       _cache_dir(cfg)) if key
              else evaluation.evaluate(model, test, specs, scenario, scheme))
    # runtime_s reports the (cached) training cost so reruns of this command
    # reproduce results.csv byte for byte
    rows = evaluation.results_rows(report, seed, manifest.get("runtime_s", 0.0),
                                   cfg.train_epsilon(scenario))
    path = os.path.join(out, "results.csv")
    evaluation.write_results_csv(rows, path)
    _write_manifest(cfg, out, [path])
    print(f"clean accuracy {report.clean_accuracy:.4f}; wrote {path}")
    return 0


def cmd_cka(args) -> int:
    cfg, out, model, _, (_, _, test) = _trained_model(args)
    n_samples = cfg.get("analysis", "n_samples")
    clean = analysis.cka_heatmap(model, test, None, n_samples)
    files = reporting.write_cka_grid(clean, os.path.join(out, "cka_clean_clean"))
    eval_attacks = cfg.eval_attacks(cfg.own_cell()[1])
    if eval_attacks:
        grid = analysis.cka_heatmap(model, test, eval_attacks[-1], n_samples)
        files += reporting.write_cka_grid(grid, os.path.join(out, "cka_clean_adv"))
        dpath = os.path.join(out, "divergence.csv")
        reporting.write_divergence_csv(grid, dpath)
        files.append(dpath)
    _write_manifest(cfg, out, files)
    print(f"wrote {len(files)} CKA artifact(s) under {out}")
    return 0


def cmd_probe(args) -> int:
    cfg, out, model, _, (d_p, _, test) = _trained_model(args)
    layers = cfg.get("analysis", "probe_layers") or model.layer_ids()
    results = []
    for layer in layers:
        results.append(analysis.linear_probe(model, d_p, test, layer,
                                             seed=cfg.get("experiment", "seed")))
        print(f"probe {layer}: test accuracy {results[-1].test_accuracy:.4f}")
    path = os.path.join(out, "probes.csv")
    reporting.write_probe_csv(results, path)
    _write_manifest(cfg, out, [path])
    return 0


def cmd_sweep(args) -> int:
    """Train, evaluate and tabulate the [sweep] grid through `experiment.run_cells`;
    a failed cell goes to sweep_errors.txt, and a sweep with no row exits 2."""
    cfg = _load(args)
    cells = [(sc, sch, seed, None, cfg.eval_attacks(sch)) for sc in cfg.get("sweep", "scenarios")
             for sch in cfg.get("sweep", "schemes")
             for seed in cfg.get("sweep", "seeds")]
    if not cells:
        raise ConfigError("sweep grid is empty")
    rows, errors = [], []
    for (scenario, scheme, seed, *_), got in zip(
            cells, experiment.run_cells(cfg, cells, _cache_dir(cfg))[1]):
        if isinstance(got, str):
            errors.append(f"{scenario}/{scheme}/s{seed}: {got}")
        else:
            rows.extend(got[2])
    out = _out_dir(cfg)
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
    return 0 if rows else 2


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
# the commands that read a trained model, and so take --checkpoint
READS_CHECKPOINT = ("evaluate", "cka", "probe")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustcl",
                                     description="Desk-scale robust contrastive learning lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", default=None, help="INI config path")
        p.add_argument("--override", "-o", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        if name in READS_CHECKPOINT:
            p.add_argument("--checkpoint", default=None,
                           help="model checkpoint (default: the config's cached cell)")
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
