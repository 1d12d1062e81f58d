import json
import os

import numpy as np
import pytest

from robustcl import cli, evaluation, experiment, models, reporting
from robustcl.analysis import CKAMatrix, ProbeResult
from robustcl.config import (ConfigError, DEFAULTS, ExperimentConfig,
                             load_config)
from robustcl.training import ScenarioSpec

# every key whose value can fail to parse: all but the str and [str] ones
TYPED_KEYS = [f"{section}.{key}" for section, keys in DEFAULTS.items()
              for key, (kind, _) in keys.items() if kind not in (str, [str])]
# every key that must hold finite floats
FLOAT_KEYS = [f"{section}.{key}" for section, keys in DEFAULTS.items()
              for key, (kind, _) in keys.items() if kind in (float, float | None, [float])]

FAST_VECTOR = [
    "dataset.n=300", "dataset.dim=10", "dataset.separation=8.0",
    "model.layer_widths=12,6", "model.head_dim=4",
    "scenario.pretrain_epochs=2", "scenario.finetune_epochs=2",
    "scenario.lr=0.003",
    "attack_eval.epsilons=0.1", "attack_eval.steps=2",
]


def run_cli(tmp_path, command, overrides=(), checkpoint=None):
    argv = [command, "-o", f"experiment.output_dir={tmp_path}"]
    for ov in overrides:
        argv += ["-o", ov]
    if checkpoint:
        argv += ["--checkpoint", checkpoint]
    return cli.main(argv)


class TestConfig:
    def test_defaults_materialized(self):
        cfg = load_config(text="")
        assert set(cfg.sections) == set(DEFAULTS)
        for section in DEFAULTS:
            assert set(cfg.sections[section]) == set(DEFAULTS[section])

    def test_every_default_parses_under_its_declared_type(self):
        cfg = load_config(text="")
        for section, keys in DEFAULTS.items():
            for key, (kind, _) in keys.items():
                value = cfg.get(section, key)
                if isinstance(kind, list):
                    assert type(value) is list and all(type(v) is kind[0] for v in value)
                elif kind == float | None:
                    assert value is None
                else:
                    assert type(value) is kind, (section, key)

    def test_spec_defaults_are_the_config_defaults(self):
        # the dataclass defaults and the config's describe one scenario
        assert ScenarioSpec() == load_config(text="").scenario_spec("ST", "SL")

    def test_get_returns_typed_values(self):
        cfg = load_config(text="", overrides=[
            "loss.temperature=0.2", "attack_train.random_start= Yes ",
            "model.layer_widths= 8, 4", "sweep.schemes=SL, CL", "analysis.probe_layers="])
        assert cfg.get("loss", "temperature") == 0.2
        assert cfg.get("attack_train", "random_start") is True
        assert cfg.get("model", "layer_widths") == [8, 4]
        assert cfg.get("sweep", "schemes") == ["SL", "CL"]
        assert cfg.get("analysis", "probe_layers") == []
        # the raw strings, which name cells and configs, are kept as given
        assert cfg.sections["model"]["layer_widths"] == " 8, 4"

    def test_roundtrip_identical(self):
        cfg = load_config(text="[dataset]\nn = 500\n")
        again = load_config(text=cfg.canonical())
        assert again.sections == cfg.sections
        assert again.hash() == cfg.hash()

    def test_hash_sensitive_to_values(self):
        a = load_config(text="")
        b = load_config(text="[experiment]\nseed = 1\n")
        assert a.hash() != b.hash()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            load_config(text="[optimizer]\nlr = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(text="[dataset]\nnn = 5\n")

    def test_override_applies(self):
        cfg = load_config(text="", overrides=["experiment.seed=9"])
        assert cfg.get("experiment", "seed") == 9

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            load_config(text="", overrides=["seed=9"])
        with pytest.raises(ConfigError):
            load_config(text="", overrides=["experiment.sneed=9"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(path=tmp_path / "absent.ini")

    def test_validate_split(self):
        with pytest.raises(ConfigError):
            load_config(text="[dataset]\nsplit = 0.5,0.5\n")
        with pytest.raises(ConfigError):
            load_config(text="[dataset]\nsplit = 0.5,0.4,0.3\n")

    def test_validate_source_and_model(self):
        with pytest.raises(ConfigError):
            load_config(text="[dataset]\nsource = torrent\n")
        for kind in ("resnet50", "conv_small"):
            with pytest.raises(ConfigError, match=r"unknown key 'kind' in section \[model\]"):
                load_config(text=f"[model]\nkind = {kind}\n")

    @pytest.mark.parametrize("overrides, shape, ids", [
        ([], (20,), ["L0_dense64", "L1_dense64", "L2_dense32", "L3_dense32", "L4_dense16"]),
        (["dataset.source=synthetic_images", "model.layer_widths=4,8"], (1, 16, 16),
         ["L0_dense4", "L1_dense8"]),
    ], ids=["dense", "dense-images"])
    def test_probe_layers_are_the_input_or_the_encoders_layers(self, overrides, shape, ids):
        cfg = load_config(text="", overrides=overrides)
        model = models.init_model(cfg.encoder_config(shape), 2, 4, seed=0)
        assert model.layer_ids() == ids
        load_config(text="", overrides=overrides + ["analysis.probe_layers=" + ",".join(
            ["input"] + ids)])
        for bad in ("L9_bad", ids[-1] + "0", "Input"):
            with pytest.raises(ConfigError, match="probe_layers"):
                load_config(text="", overrides=overrides + [f"analysis.probe_layers={bad}"])

    def test_typed_views(self):
        cfg = load_config(text="[loss]\nscheme = SCL\ntemperature = 0.2\n")
        lc = cfg.loss_config(cfg.own_cell()[1])
        assert lc.scheme == "SCL" and lc.temperature == 0.2
        enc = cfg.encoder_config((20,))
        assert enc.layer_widths == (64, 64, 32, 32, 16)

    def test_beta_scl_override(self):
        cfg = load_config(text="[loss]\nbeta = 0.5\nbeta_scl = 1.5\n")
        assert cfg.loss_config("SCL").beta == 1.5
        assert cfg.loss_config("CL").beta == 0.5
        assert cfg.loss_config("SL").beta == 0.5
        cfg = load_config(text="[loss]\nbeta = 0.7\n")
        assert cfg.loss_config("SCL").beta == 0.7

    def test_eval_attacks_tm2(self):
        cfg = load_config(text="[attack_eval]\nepsilons = 0.1\nthreat_models = I,II\n")
        specs = cfg.eval_attacks("SCL")
        tms = {(s.threat_model, s.steps, s.driving_loss) for s in specs}
        assert ("I", 20, "CE") in tms
        assert ("II", 40, "SCL") in tms
        specs_cl = cfg.eval_attacks("CL")
        assert any(s.driving_loss == "CL" for s in specs_cl)


class TestReporting:
    def grid(self, values, mask=None):
        values = np.asarray(values, dtype=float)
        h, w = values.shape
        if mask is None:
            mask = np.zeros((h, w), dtype=bool)
        rows = [f"L{i}" for i in range(h)]
        cols = [f"L{j}" for j in range(w)]
        return CKAMatrix(rows, cols, values, mask, 64, "clean-clean", ("m", "m"))

    def test_pgm_scaling(self, tmp_path):
        m = self.grid([[1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "g.pgm"
        reporting.write_cka_pgm(m, p)
        blob = p.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [255, 0, 0, 255]

    def test_pgm_deterministic(self, tmp_path):
        m = self.grid(np.random.default_rng(0).random((3, 3)))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        reporting.write_cka_pgm(m, p1)
        reporting.write_cka_pgm(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_masked_zero(self, tmp_path):
        mask = np.array([[False, True], [False, False]])
        m = self.grid([[0.5, 0.9], [0.2, 1.0]], mask)
        p = tmp_path / "g.pgm"
        reporting.write_cka_pgm(m, p)
        assert p.read_bytes()[-3] == 0  # masked cell renders as black

    def test_svg_cells_and_hatching(self, tmp_path):
        mask = np.array([[False, True], [False, False]])
        m = self.grid([[0.5, 0.9], [0.2, 1.0]], mask)
        p = tmp_path / "g.svg"
        reporting.write_cka_svg(m, p)
        text = p.read_text()
        # one background rect plus one rect per cell
        assert text.count("<rect") == 1 + 4
        assert 'url(#hatch)' in text
        assert text.count("<text") == 4  # axis labels

    def test_cka_csv_roundtrip_with_mask(self, tmp_path):
        mask = np.array([[False, True], [False, False]])
        vals = np.array([[0.5, np.nan], [0.25, 1.0]])
        m = self.grid(vals, mask)
        p = tmp_path / "g.csv"
        reporting.write_cka_csv(m, p)
        # masked cells are written empty; the rest as float reprs
        assert p.read_text().splitlines() == [",L0,L1", "L0,0.5,", "L1,0.25,1.0"]

    def test_probe_csv_header_once(self, tmp_path):
        p = tmp_path / "probes.csv"
        reporting.append_probe_csv(ProbeResult("L0", 0.9, 0.8, 100), p)
        reporting.append_probe_csv(ProbeResult("L1", 0.95, 0.85, 100), p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("layer_id,")
        assert len(lines) == 3

    def test_report_badges_and_svg(self, tmp_path):
        svg = tmp_path / "x.svg"
        svg.write_text("<svg xmlns='http://www.w3.org/2000/svg'></svg>")
        path = reporting.write_report(
            tmp_path,
            results_rows=[{"scenario": "ST", "clean_acc": "0.9"}],
            heatmap_svgs=[("demo", str(svg))],
            badges=[("ordering", True, "CL lowest"), ("gap", False, "margin 2.1")])
        text = open(path).read()
        assert "**[PASS]** ordering" in text
        assert "**[FAIL]** gap" in text
        assert "<svg" in text
        assert "| ST | 0.9 |" in text


class TestCli:
    def test_gen_data_vector(self, tmp_path):
        rc = run_cli(tmp_path, "gen-data", ["dataset.n=50", "dataset.dim=4"])
        assert rc == 0
        files = os.listdir(tmp_path)
        assert "run_manifest.json" in files
        assert "config.canonical.ini" in files
        assert any(f.endswith(".csv") for f in files)

    @pytest.mark.parametrize("generate, source", [
        (["dataset.source=synthetic_images", "dataset.n=200", "dataset.classes=10"],
         {"source": "idx", "images_path": "-images-idx3-ubyte",
          "labels_path": "-labels-idx1-ubyte"}),
        (["dataset.n=100", "dataset.dim=4"], {"source": "csv", "csv_path": ".csv"}),
    ], ids=["images-idx", "vectors-csv"])
    def test_generated_files_rebuild_the_dataset(self, tmp_path, generate, source):
        assert run_cli(tmp_path, "gen-data", generate) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        overrides = [f"dataset.source={source['source']}"]
        for key, suffix in source.items():
            if key != "source":
                path, = [f for f in manifest["files"] if f.endswith(suffix)]
                overrides.append(f"dataset.{key}={path}")
        rebuilt = experiment.build_dataset(load_config(text="", overrides=overrides))
        assert rebuilt.fingerprint() == manifest["dataset_fingerprint"]

    def test_train_then_evaluate(self, tmp_path):
        assert run_cli(tmp_path, "train", FAST_VECTOR) == 0
        # the cell lives only in the cache; the run manifest names its entry
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        entry = experiment.entry_paths(str(tmp_path / "cache"), manifest["cell_key"])
        assert manifest["files"] == sorted(entry.values())
        assert sorted(os.listdir(tmp_path)) == [
            "cache", "config.canonical.ini", "run_manifest.json"]
        assert run_cli(tmp_path, "evaluate", FAST_VECTOR) == 0
        results = tmp_path / "results.csv"
        first = results.read_bytes()
        trained = {p: open(p, "rb").read() for p in entry.values()}
        # a rerun of train hits the cell cache, so results.csv reproduces
        assert run_cli(tmp_path, "train", FAST_VECTOR) == 0
        assert {p: open(p, "rb").read() for p in trained} == trained
        assert run_cli(tmp_path, "evaluate", FAST_VECTOR) == 0
        assert results.read_bytes() == first

    def test_commands_share_a_cell_whatever_cell_the_config_selects(self, tmp_path):
        sweep = FAST_VECTOR + ["sweep.scenarios=AT", "sweep.schemes=CL"]
        own = FAST_VECTOR + ["scenario.scenario=AT", "loss.scheme=CL"]
        assert run_cli(tmp_path, "sweep", sweep) == 0
        cache = sorted(os.listdir(tmp_path / "cache"))
        assert run_cli(tmp_path, "evaluate", own) == 0
        assert run_cli(tmp_path, "train", own) == 0
        assert sorted(os.listdir(tmp_path / "cache")) == cache
        assert len([f for f in cache if f.endswith(".ckpt")]) == 1

    @pytest.mark.parametrize("command", ["evaluate", "cka", "probe"])
    @pytest.mark.parametrize("changed", [
        ["loss.scheme=SCL", "scenario.scenario=AT"],
        ["model.layer_widths=8,4"],
    ], ids=["other-cell", "other-model"])
    def test_a_config_that_names_no_trained_cell_exits_1(
            self, tmp_path, capsys, command, changed):
        # ST/CL is trained; the changed config names a cell that is not
        assert run_cli(tmp_path, "train", FAST_VECTOR + ["loss.scheme=CL"]) == 0
        assert run_cli(tmp_path, command, FAST_VECTOR + ["loss.scheme=CL"] + changed) == 1
        assert "error: no trained cell" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("override", [
        "scenario.batch_size=abc", "dataset.n=abc", "model.layer_widths=a,b",
        "scenario.scenario=XX", "augment.erase_patch_prob=2", "loss.scheme=XX",
        "attack_train.epsilon=-1", "attack_eval.epsilons=x", "analysis.n_samples=x",
        "sweep.seeds=x", "dataset.n=1", "dataset.classes=1", "model.layer_widths=5",
        "sweep.scenarios=ST,XX", "sweep.schemes=SL,FOO", "analysis.n_samples=2",
        "analysis.probe_layers=L9_bad", "analysis.probe_layers=input,L5_dense16",
        "scenario.batch_size=0", "scenario.batch_size=1", "scenario.adv_batch_size=1",
        "scenario.finetune_epochs=-1", "scenario.pretrain_epochs=-1", "scenario.lr=-1",
        "scenario.lr=0", "scenario.adam_eps=0", "scenario.adam_beta1=1",
        "scenario.adam_beta2=-0.1", "loss.temperature=nan", "attack_train.epsilon=inf",
        "augment.gaussian_noise_sigma=nan", "attack_eval.epsilons=nan", "dataset.contrast=nan",
        "loss.alpha=nan", "scenario.lr=inf", "experiment.seed=-1", "sweep.seeds=-2",
        "dataset.split=1.2,0.0,-0.2", "dataset.split=0.9,0.1,0.0", "model.kind=conv_small",
        "sweep.seeds=0,0", "sweep.scenarios=ST,ST", "sweep.schemes=SL,SL",
        "augment.crop_shift_max_pixels=-2", "augment.erase_patch_size=-3",
        "augment.erase_patch_size=0", "model.head_dim=0", "dataset.dim=0",
        "dataset.kind=blobs_k dataset.classes=1", "attack_eval.threat_models=III",
        "loss.temperature=0", "loss.alpha=-1",
    ])
    def test_a_value_that_does_not_parse_or_build_is_a_config_error(
            self, tmp_path, capsys, override):
        # an entry of several overrides separates them with spaces
        assert run_cli(tmp_path, "train", override.split()) == 1
        assert "config error: " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("target, value", [pytest.param(t, "x", id=t) for t in TYPED_KEYS]
                             + [pytest.param(t, "nan", id=f"{t}=nan") for t in FLOAT_KEYS])
    def test_an_unparsable_value_is_a_config_error_naming_its_key(self, tmp_path, capsys,
                                                                   target, value):
        assert run_cli(tmp_path, "train", [f"{target}={value}"]) == 1
        section, key = target.split(".")
        assert f"config error: [{section}] {key}: not " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("text", [
        "[experiment\nseed = 1\n",
        "[dataset]\nn = 50\n[experiment\nseed = 1\n",
        "[dataset]\nn = 50\nn = 60\n",
        "[dataset]\nn 50\n",
    ], ids=["unclosed-first-section", "unclosed-section", "duplicate-key", "no-delimiter"])
    def test_an_ini_file_that_does_not_parse_is_a_config_error(self, tmp_path, capsys,
                                                               text):
        ini = tmp_path / "broken.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["gen-data", "-c", str(ini), "-o", f"experiment.output_dir={out}"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {ini}: ")
        assert not out.exists()

    def test_a_percent_in_an_ini_value_is_taken_verbatim(self, tmp_path):
        ini = tmp_path / "percent.ini"
        out = tmp_path / "o%d"
        ini.write_text(f"[experiment]\noutput_dir = {out}\n[dataset]\nn = 50\ndim = 4\n")
        assert cli.main(["gen-data", "-c", str(ini)]) == 0
        assert f"output_dir = {out}\n" in (out / "config.canonical.ini").read_text()

    @pytest.mark.parametrize("command, overrides", [
        ("train", ["loss.scheme=SL+CL", "loss.combo_weights=1,2,3"]),
        ("sweep", ["sweep.schemes=SL,CL+SCL", "loss.combo_weights=1"]),
    ], ids=["scheme", "sweep-scheme"])
    def test_combo_weights_give_one_weight_per_constituent(self, tmp_path, capsys,
                                                           command, overrides):
        assert run_cli(tmp_path, command, FAST_VECTOR + overrides) == 1
        assert "config error: LossError: combo_weights" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_combo_weights_exit_1(self, tmp_path, capsys):
        # a negative weight would make training ascend that constituent's loss
        overrides = ["loss.scheme=SL+CL", "loss.combo_weights=1,-0.5"]
        assert run_cli(tmp_path, "train", FAST_VECTOR + overrides) == 1
        assert ("config error: LossError: combo_weights (1.0, -0.5) must be non-negative"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["evaluate", "cka", "probe"])
    @pytest.mark.parametrize("saved", ["model.layer_widths=20,5", "dataset.dim=20"],
                             ids=["widths", "dim"])
    def test_a_checkpoint_of_another_encoder_exits_1(self, tmp_path, capsys, command, saved):
        saved_cfg = load_config(text="", overrides=FAST_VECTOR + [saved])
        ckpt = tmp_path / "other.ckpt"
        models.save_checkpoint(models.init_model(
            saved_cfg.encoder_config((saved_cfg.get("dataset", "dim"),)), 2, 4, 0), ckpt)
        assert run_cli(tmp_path / "out", command, FAST_VECTOR, checkpoint=str(ckpt)) == 1
        err = capsys.readouterr().err
        assert "is not the configured encoder" in err and "(12, 6)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "cka", "probe"])
    @pytest.mark.parametrize("case", ["missing-checkpoint", "no-trained-cell",
                                      "other-encoder"])
    def test_a_command_without_its_model_leaves_no_directory(self, tmp_path, capsys,
                                                             command, case):
        checkpoint = None
        if case == "missing-checkpoint":
            checkpoint = str(tmp_path / "absent.ckpt")
        elif case == "other-encoder":
            checkpoint = str(tmp_path / "other.ckpt")
            models.save_checkpoint(models.init_model(
                models.EncoderConfig((20, 5), (10,)), 2, 4, 0), checkpoint)
        out = tmp_path / "out"
        assert run_cli(out, command, FAST_VECTOR, checkpoint=checkpoint) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("source, broken", [
        ("idx", ["model.layer_widths=5"]),
        ("idx", ["model.layer_widths=8,0"]),
        ("idx", ["dataset.images_path=absent"]),
        ("idx", ["dataset.labels_path=absent"]),
        ("csv", ["model.layer_widths=5"]),
        ("csv", ["dataset.csv_path=absent"]),
    ], ids=["idx-one-layer", "idx-zero-width", "idx-no-images", "idx-no-labels",
            "csv-one-layer", "csv-no-file"])
    def test_a_file_source_is_checked_before_any_work(self, tmp_path, capsys, source,
                                                      broken):
        if source == "idx":
            assert run_cli(tmp_path / "data", "gen-data", [
                "dataset.source=synthetic_images", "dataset.n=40"]) == 0
            files = {"images_path": "images-idx3-ubyte", "labels_path": "labels-idx1-ubyte"}
        else:
            assert run_cli(tmp_path / "data", "gen-data", ["dataset.n=40"]) == 0
            files = {"csv_path": ".csv"}
        generated = json.loads((tmp_path / "data" / "run_manifest.json").read_text())["files"]
        overrides = [f"dataset.source={source}"] + [
            f"dataset.{key}={path}" for key, suffix in files.items()
            for path in generated if path.endswith(suffix)]
        assert run_cli(tmp_path / "out", "train", overrides + ["model.layer_widths=8,4"]) == 0
        capsys.readouterr()
        assert run_cli(tmp_path / "out_broken", "train", overrides + broken) == 1
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out_broken").exists()

    def test_evaluate_missing_checkpoint(self, tmp_path):
        rc = run_cli(tmp_path, "evaluate", FAST_VECTOR)
        assert rc == 1

    def test_bad_config_exit_code(self, tmp_path):
        rc = run_cli(tmp_path, "train", ["dataset.source=torrent"])
        assert rc == 1

    def test_empty_sweep_grid_exits_1(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sweep", FAST_VECTOR + ["sweep.schemes="]) == 1
        assert "config error: sweep grid is empty" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert run_cli(tmp_path, "evaluate", FAST_VECTOR, checkpoint=str(bad)) == 2
        assert "runtime failure: CheckpointError" in capsys.readouterr().err

    def test_a_csv_of_labels_alone_exits_2_with_no_output_directory(self, tmp_path,
                                                                     capsys):
        csv = tmp_path / "labels.csv"
        csv.write_text("label\n0\n1\n0\n1\n")
        out = tmp_path / "out"
        assert run_cli(out, "train", ["dataset.source=csv", f"dataset.csv_path={csv}"]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: DataError: samples of shape (0,) hold no values\n")
        assert not out.exists()

    def test_evaluate_reads_the_given_checkpoint(self, tmp_path, monkeypatch):
        cfg = load_config(text="", overrides=FAST_VECTOR)
        ckpt = tmp_path / "elsewhere.ckpt"
        models.save_checkpoint(models.init_model(cfg.encoder_config((10,)), 2, 4, 0), ckpt)
        loaded = []
        load = models.load_checkpoint
        monkeypatch.setattr(models, "load_checkpoint",
                            lambda path: loaded.append(path) or load(path))
        assert run_cli(tmp_path / "out", "evaluate", FAST_VECTOR, checkpoint=str(ckpt)) == 0
        assert loaded == [str(ckpt)]
        assert (tmp_path / "out" / "results.csv").exists()
        # a model from outside the cache is evaluated, not cached
        assert not (tmp_path / "out" / "cache").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "sweep", "report"])
    def test_checkpoint_is_a_usage_error_where_no_model_is_read(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--checkpoint", "x"])
        assert exc.value.code == 2

    def test_cka_and_probe_and_report(self, tmp_path, pgd_specs):
        assert run_cli(tmp_path, "train", FAST_VECTOR) == 0
        overrides = FAST_VECTOR + ["analysis.n_samples=60"]
        attacks_in_training = len(pgd_specs)
        assert run_cli(tmp_path, "cka", overrides) == 0
        # one attack yields both the clean-adv grid and its diagonal
        assert len(pgd_specs) == attacks_in_training + 1
        for name in ("cka_clean_clean.csv", "cka_clean_clean.pgm",
                     "cka_clean_clean.svg", "cka_clean_adv.csv", "divergence.csv"):
            assert (tmp_path / name).exists()
        assert run_cli(tmp_path, "probe", overrides) == 0
        probes = (tmp_path / "probes.csv").read_text().splitlines()
        assert len(probes) == 3  # header + one row per encoder layer
        assert run_cli(tmp_path, "evaluate", FAST_VECTOR) == 0
        assert run_cli(tmp_path, "report", FAST_VECTOR) == 0
        report = (tmp_path / "report.md").read_text()
        assert "## Results" in report and "## CKA heatmaps" in report

    def test_a_second_probe_replaces_probes_csv(self, tmp_path):
        assert run_cli(tmp_path, "train", FAST_VECTOR) == 0
        assert run_cli(tmp_path, "probe", FAST_VECTOR) == 0
        probes = tmp_path / "probes.csv"
        first = probes.read_bytes()
        assert len(first.splitlines()) == 3  # header + one row per encoder layer
        assert run_cli(tmp_path, "probe", FAST_VECTOR) == 0
        assert probes.read_bytes() == first

    def test_sweep_rows_and_cache_stability(self, tmp_path):
        overrides = FAST_VECTOR + ["sweep.scenarios=ST", "sweep.schemes=SL,CL",
                                   "sweep.seeds=0"]
        assert run_cli(tmp_path, "sweep", overrides) == 0
        results = tmp_path / "results.csv"
        lines = results.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one attack row per cell
        first = results.read_bytes()
        assert run_cli(tmp_path, "sweep", overrides) == 0
        assert results.read_bytes() == first

    def test_warm_reruns_evaluate_nothing_until_an_attack_changes(self, tmp_path,
                                                                  monkeypatch):
        overrides = FAST_VECTOR + ["sweep.scenarios=ST", "sweep.schemes=SL,CL",
                                   "sweep.seeds=0"]
        calls = []
        evaluate = evaluation.evaluate
        monkeypatch.setattr(evaluation, "evaluate",
                            lambda *a, **k: calls.append(a[4]) or evaluate(*a, **k))
        # the config's own cell is the sweep's ST/SL, so evaluate reads its evaluation
        for command in ("sweep", "evaluate"):
            assert run_cli(tmp_path, command, overrides) == 0
        assert calls == ["SL", "CL"]
        before = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
        for command in ("sweep", "evaluate"):
            assert run_cli(tmp_path, command, overrides) == 0
        assert calls == ["SL", "CL"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == before
        # random_start is a field of the recorded specs: changing it re-evaluates
        changed = overrides + ["attack_eval.random_start=false"]
        for command in ("evaluate", "sweep"):
            assert run_cli(tmp_path, command, changed) == 0
        assert calls == ["SL", "CL", "SL", "CL"]

    def test_sweep_records_a_failing_cell_and_goes_on(self, tmp_path, monkeypatch):
        # SL trains end to end, so it has no Partial-AT cell: that cell fails.
        # The pool trains Partial-AT cells before ST ones; rows keep grid order.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        overrides = FAST_VECTOR + ["sweep.scenarios=ST,Partial-AT", "sweep.schemes=SL,CL",
                                   "sweep.seeds=0"]
        assert run_cli(tmp_path, "sweep", overrides) == 0
        errors = (tmp_path / "sweep_errors.txt").read_text().splitlines()
        assert len(errors) == 1 and errors[0].startswith("Partial-AT/SL/s0: ")
        rows = evaluation.read_results_csv(tmp_path / "results.csv")
        assert [(r["scenario"], r["scheme"]) for r in rows] == [
            ("ST", "SL"), ("ST", "CL"), ("Partial-AT", "CL")]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert str(tmp_path / "sweep_errors.txt") in manifest["files"]

    def test_a_sweep_that_gives_no_row_exits_2(self, tmp_path, capsys):
        overrides = FAST_VECTOR + ["sweep.scenarios=Partial-AT", "sweep.schemes=SL",
                                   "sweep.seeds=0"]
        assert run_cli(tmp_path, "sweep", overrides) == 2
        assert "1 cell(s) failed" in capsys.readouterr().err
        results = tmp_path / "results.csv"
        assert results.read_text() == ",".join(evaluation.RESULTS_COLUMNS) + "\n"
        errors = (tmp_path / "sweep_errors.txt").read_text().splitlines()
        assert len(errors) == 1 and errors[0].startswith("Partial-AT/SL/s0: ")
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["files"] == sorted([str(results), str(tmp_path / "sweep_errors.txt")])

    def test_a_failed_evaluation_is_the_cells_error(self, tmp_path, monkeypatch):
        evaluate_cell = experiment.evaluate_cell

        def fail_cl(model, test, specs, scenario, scheme, *a):
            if scheme == "CL":
                raise ValueError("attack diverged")
            return evaluate_cell(model, test, specs, scenario, scheme, *a)

        monkeypatch.setattr(experiment, "evaluate_cell", fail_cl)
        overrides = FAST_VECTOR + ["sweep.scenarios=ST", "sweep.schemes=SL,CL,SCL",
                                   "sweep.seeds=0"]
        assert run_cli(tmp_path, "sweep", overrides) == 0
        errors = (tmp_path / "sweep_errors.txt").read_text().splitlines()
        assert errors == ["ST/CL/s0: attack diverged"]
        rows = evaluation.read_results_csv(tmp_path / "results.csv")
        assert [(r["scenario"], r["scheme"]) for r in rows] == [("ST", "SL"), ("ST", "SCL")]

    def test_a_failed_training_exits_2_and_caches_nothing(self, tmp_path, monkeypatch,
                                                          capsys):
        def train_cell(*a, **k):
            raise ValueError("loss diverged")

        monkeypatch.setattr(experiment, "train_cell", train_cell)
        out = tmp_path / "out"
        assert run_cli(out, "train", FAST_VECTOR + ["loss.scheme=CL"]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: RuntimeError: ST/CL/s0: loss diverged\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "cka", "probe", "sweep"])
    def test_a_failed_set_up_leaves_no_output_directory(self, tmp_path, capsys, command):
        # the D_f fraction passes validation but rounds to no rows of 300
        out = tmp_path / "out"
        assert run_cli(out, command, ["dataset.split=0.7999,0.0001,0.2",
                                      "dataset.n=300"]) == 2
        assert "gets no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_pool_matches_in_process(self, tmp_path, monkeypatch):
        overrides = FAST_VECTOR + ["sweep.scenarios=ST,AT", "sweep.schemes=SL,CL",
                                   "sweep.seeds=0,1"]
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            assert run_cli(out, "sweep", overrides) == 0
            rows = evaluation.read_results_csv(out / "results.csv")
            cache = {p.name: p.read_bytes() for p in (out / "cache").iterdir()
                     if p.name.endswith((".ckpt", ".loss.csv"))}
            runs[cpus] = ([{k: v for k, v in r.items() if k != "runtime_s"}
                           for r in rows], cache)
        assert len(runs[1][0]) == 8 and len(runs[1][1]) == 16
        assert runs[2] == runs[1]

    def test_env_output_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("ROBUSTCL_OUTPUT_DIR", str(env_dir))
        rc = cli.main(["gen-data", "-o", "dataset.n=50", "-o", "dataset.dim=4",
                       "-o", f"experiment.output_dir={tmp_path / 'option_out'}"])
        assert rc == 0
        assert os.listdir(tmp_path) == ["env_out"]
        assert f"output_dir = {env_dir}\n" in (env_dir / "config.canonical.ini").read_text()
