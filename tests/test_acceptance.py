"""Acceptance gate.

Part 1 (exact property suites): autodiff vs finite differences, loss
oracles, PGD invariants, CKA algebra, and scenario contracts, all with
pinned tolerances.

Part 2 (seeded directional checks): the qualitative robustness claims on
the calibrated image fixture at seeds {0, 1, 2}; each claim must hold for
at least 2 of 3 seeds. These tests read the cell cache under
runs/acceptance/cache; run scripts/run_directional.py first to populate it
(a cold cache retrains all 33 cells: their manifests record 1293 s of
training, written by an older, slower build of the training code; the
current code trains a cold seed 0 in about 120 s on two cores, one worker
per core, and in about 240 s on one).
"""

import filecmp
import functools
import hashlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from graph_oracle import finite_diff_check, project_linf
from robustcl import (analysis, directional, evaluation, experiment, losses,
                      models, training)
from robustcl.attacks import AttackSpec, pgd
from robustcl.data import AugmentSpec, ViewBatch
from robustcl.losses import LossConfig
from robustcl.models import EncoderConfig
from robustcl.tensor import Tensor
from robustcl.training import OptimizerConfig, ScenarioSpec


# ---------------------------------------------------------------------------
# criterion 1: autodiff vs central finite differences
# ---------------------------------------------------------------------------

def _embed_leaf(model, leaf):
    """The head's embedding of a Tensor leaf (`losses._embed` takes arrays)."""
    rep, _ = models.encode(model, leaf)
    return models.project(model, rep)


class TestAutodiffFiniteDifferences:
    def test_100_random_networks_under_a_minute(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        worst = 0.0
        for case in range(100):
            d_in = int(rng.integers(3, 7))
            widths = (int(rng.integers(3, 6)), int(rng.integers(2, 5)))
            n_classes = 3
            m = models.init_model(EncoderConfig(widths, (d_in,)),
                                  n_classes, head_dim=3,
                                  seed=int(rng.integers(0, 10000)))
            n = int(rng.integers(2, 5))
            x = Tensor(rng.standard_normal((n, d_in)))
            tau = float(rng.uniform(0.2, 1.0))
            kind = ("nt_xent", "supcon", "ce", "ce_wrt_weight")[case % 4]
            if kind == "nt_xent":
                xb = rng.standard_normal((n, d_in))

                def f(t):
                    return losses.nt_xent(_embed_leaf(m, t), losses._embed(m, xb), tau)
            elif kind == "supcon":
                y = rng.integers(0, 2, size=n)
                y[: 2] = 0  # guarantee at least one positive pair

                def f(t):
                    return losses.supcon(_embed_leaf(m, t), y, tau)
            elif kind == "ce":
                y = rng.integers(0, n_classes, size=n)

                def f(t):
                    rep, _ = models.encode(m, t)
                    return losses.cross_entropy(models.classify(m, rep), y)
            else:  # differentiate with respect to a weight matrix
                y = rng.integers(0, n_classes, size=n)
                b0 = m.encoder_params[0][1]

                def f(w):
                    old = m.encoder_params[0]
                    m.encoder_params[0] = (w, b0)
                    try:
                        rep, _ = models.encode(m, x)
                        return losses.cross_entropy(models.classify(m, rep), y)
                    finally:
                        m.encoder_params[0] = old

            target = m.encoder_params[0][0] if kind == "ce_wrt_weight" else x
            err = finite_diff_check(f, Tensor(target.data.copy()))
            worst = max(worst, err)
        elapsed = time.monotonic() - t0
        assert worst < 1e-4, f"max relative error {worst:.2e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: loss oracles
# ---------------------------------------------------------------------------

def brute_nt_xent(za, zb, tau):
    z = np.concatenate([za, zb])
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m, n = len(z), len(za)
    total = 0.0
    for i in range(m):
        p = i + n if i < n else i - n
        num = np.exp(z[i] @ z[p] / tau)
        den = sum(np.exp(z[i] @ z[k] / tau) for k in range(m) if k != i)
        total += -np.log(num / den)
    return total / m


def brute_supcon(z, y, tau):
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m = len(z)
    vals = []
    for i in range(m):
        pos = [p for p in range(m) if p != i and y[p] == y[i]]
        if not pos:
            continue
        den = sum(np.exp(z[i] @ z[a] / tau) for a in range(m) if a != i)
        s = sum(np.log(np.exp(z[i] @ z[p] / tau) / den) for p in pos)
        vals.append(-s / len(pos))
    return float(np.mean(vals))


class TestLossOracles:
    def test_200_random_batches_within_1e10(self):
        rng = np.random.default_rng(7)
        for case in range(200):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            if case % 2 == 0:
                za = rng.standard_normal((n, d))
                zb = rng.standard_normal((n, d))
                got = losses.nt_xent(Tensor(za), Tensor(zb), tau).item()
                want = brute_nt_xent(za, zb, tau)
            else:
                z = rng.standard_normal((n, d))
                y = rng.integers(0, 2, size=n)
                y[: 2] = 0
                got = losses.supcon(Tensor(z), y, tau).item()
                want = brute_supcon(z, y, tau)
            assert abs(got - want) < 1e-10, f"case {case}: {got} vs {want}"

    def test_single_pair_nt_xent_is_zero(self):
        rng = np.random.default_rng(0)
        za = Tensor(rng.standard_normal((1, 4)))
        zb = Tensor(rng.standard_normal((1, 4)))
        assert losses.nt_xent(za, zb, 0.5).item() == 0.0

    def test_four_identical_same_class_supcon_is_ln3(self):
        z = Tensor(np.tile(np.array([[1.0, 2.0, -0.5]]), (4, 1)))
        got = losses.supcon(z, np.zeros(4, dtype=int), 0.3).item()
        assert abs(got - np.log(3.0)) < 1e-9

    def test_uniform_logits_ce_is_ln_c(self):
        for c in (2, 5, 10):
            logits = Tensor(np.full((6, c), 1.7))
            y = np.arange(6) % c
            got = losses.cross_entropy(logits, y).item()
            assert abs(got - np.log(c)) < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: PGD invariants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pgd_model(gauss_splits):
    d_train, _ = gauss_splits
    m = models.init_model(EncoderConfig((16, 8, 4), (20,)), 2, 4, seed=0)
    spec = ScenarioSpec(scenario="ST", scheme="SL", finetune_epochs=10,
                        batch_size=128, optimizer=OptimizerConfig(lr=3e-3),
                        loss=LossConfig(scheme="SL"), seed=0)
    training.run_scenario(m, d_train, d_train, spec)
    return m


class TestPGDInvariants:
    def test_budget_and_clamp_on_1000_random_attacks(self, pgd_model):
        rng = np.random.default_rng(11)
        for i in range(1000):
            x = rng.random((2, 1, 4, 5))  # an image batch: pgd clamps images only
            y = rng.integers(0, 2, size=2)
            spec = AttackSpec(epsilon=float(rng.uniform(0.01, 0.3)),
                              steps=int(rng.integers(1, 4)),
                              random_start=bool(rng.integers(0, 2)), seed=i)
            adv = pgd(pgd_model, ViewBatch(x=x, y=y), spec)
            assert np.max(np.abs(adv - x)) <= spec.epsilon + 1e-9
            assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_zero_epsilon_is_identity(self, pgd_model, rng):
        x = rng.random((4, 20))
        y = np.zeros(4, dtype=int)
        spec = AttackSpec(epsilon=0.0, steps=5, random_start=True, seed=3)
        adv = pgd(pgd_model, ViewBatch(x=x, y=y), spec)
        assert np.array_equal(adv, x)

    def test_zero_gradient_fixed_point(self, rng):
        m = models.init_model(EncoderConfig((8, 4), (20,)), 2, 4, seed=0)
        w, b = m.classifier_params
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
        x = rng.random((3, 20))
        spec = AttackSpec(epsilon=0.1, steps=5, random_start=False)
        adv = pgd(m, ViewBatch(x=x, y=np.zeros(3, dtype=int)), spec)
        assert np.array_equal(adv, x)

    def test_projection_idempotent_on_1000_points(self, rng):
        x0 = rng.standard_normal((1000, 6))
        x = x0 + rng.standard_normal((1000, 6))
        once = project_linf(x0, x, 0.2, clamp=(-1.0, 1.0))
        twice = project_linf(x0, once, 0.2, clamp=(-1.0, 1.0))
        assert np.array_equal(once, twice)

    def test_driving_loss_increases_on_95pct_of_50_batches(self, pgd_model,
                                                           gauss_splits):
        _, d_test = gauss_splits
        rng = np.random.default_rng(5)
        increased = 0
        for i in range(50):
            idx = rng.choice(d_test.n, size=16, replace=False)
            x, y = d_test.inputs[idx], d_test.labels[idx]
            batch = ViewBatch(x=x, y=y)
            spec = AttackSpec(epsilon=0.2, steps=5, random_start=False, seed=i)
            adv = pgd(pgd_model, batch, spec)

            def ce(inp):
                rep, _ = models.encode(pgd_model, Tensor(inp))
                return losses.cross_entropy(models.classify(pgd_model, rep), y).item()

            if ce(adv) > ce(x):
                increased += 1
        assert increased >= 48, f"driving loss increased on only {increased}/50"


# ---------------------------------------------------------------------------
# criterion 4: CKA algebra
# ---------------------------------------------------------------------------

class TestCKAAlgebra:
    def setup_method(self):
        rng = np.random.default_rng(99)
        self.x = rng.standard_normal((64, 10))
        self.y = self.x @ rng.standard_normal((10, 8)) + 0.1 * rng.standard_normal((64, 8))
        self.rng = rng

    def test_self_similarity(self):
        assert abs(analysis.linear_cka(self.x, self.x) - 1.0) < 1e-9

    def test_symmetry(self):
        a = analysis.linear_cka(self.x, self.y)
        b = analysis.linear_cka(self.y, self.x)
        assert abs(a - b) < 1e-12

    def test_orthogonal_invariance(self):
        q, _ = np.linalg.qr(self.rng.standard_normal((10, 10)))
        base = analysis.linear_cka(self.x, self.y)
        rotated = analysis.linear_cka(self.x @ q, self.y)
        assert abs(rotated - base) < 1e-9

    def test_positive_isotropic_scale_invariance(self):
        base = analysis.linear_cka(self.x, self.y)
        scaled = analysis.linear_cka(3.7 * self.x, 0.25 * self.y)
        assert abs(scaled - base) < 1e-9

    def test_joint_row_permutation_invariance(self):
        perm = self.rng.permutation(64)
        base = analysis.linear_cka(self.x, self.y)
        permuted = analysis.linear_cka(self.x[perm], self.y[perm])
        assert abs(permuted - base) < 1e-12

    def test_independent_gaussians_below_0p2(self):
        rng = np.random.default_rng(1234)
        a = rng.standard_normal((64, 10))
        b = rng.standard_normal((64, 10))
        assert analysis.linear_cka(a, b) < 0.2


# ---------------------------------------------------------------------------
# criterion 5: scenario contracts
# ---------------------------------------------------------------------------

def _encoder_bytes(model):
    return b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                    for t in model.encoder_tensors())


def _tiny_spec(**kw):
    kw.setdefault("pretrain_epochs", 2)
    kw.setdefault("finetune_epochs", 2)
    kw.setdefault("batch_size", 128)
    kw.setdefault("adv_batch_size", 128)
    kw.setdefault("augment", AugmentSpec(gaussian_noise_sigma=0.05,
                                         feature_dropout_prob=0.1))
    return ScenarioSpec(**kw)


def _encoder_bytes_at_finetune(monkeypatch):
    """Record the encoder bytes when fine-tuning starts: models.reinit_classifier
    runs once, right after pretraining."""
    snaps = []
    reinit = models.reinit_classifier

    def snapshotting_reinit(model, seed):
        snaps.append(_encoder_bytes(model))
        return reinit(model, seed)

    monkeypatch.setattr(models, "reinit_classifier", snapshotting_reinit)
    return snaps


class TestScenarioContracts:
    def test_fixed_backbone_scenarios_leave_encoder_bitwise_unchanged(
            self, gauss_splits, monkeypatch):
        d_p, _ = gauss_splits
        snaps = _encoder_bytes_at_finetune(monkeypatch)
        for scenario, attack in (("ST", None),
                                 ("AT", AttackSpec(epsilon=0.05, steps=2)),
                                 ("Partial-AT", AttackSpec(epsilon=0.05, steps=2))):
            m = models.init_model(EncoderConfig((16, 8, 4), (20,)),
                                  2, 4, seed=0)
            spec = _tiny_spec(scenario=scenario, scheme="CL", train_attack=attack)
            training.run_scenario(m, d_p, d_p, spec)
            assert _encoder_bytes(m) == snaps.pop(), scenario
            assert not snaps

    def test_full_at_changes_encoder(self, gauss_splits, monkeypatch):
        d_p, _ = gauss_splits
        snaps = _encoder_bytes_at_finetune(monkeypatch)
        m = models.init_model(EncoderConfig((16, 8, 4), (20,)), 2, 4, seed=0)
        spec = _tiny_spec(scenario="Full-AT", scheme="CL",
                          train_attack=AttackSpec(epsilon=0.05, steps=2))
        training.run_scenario(m, d_p, d_p, spec)
        [before] = snaps
        assert _encoder_bytes(m) != before

    def test_threat_model_ii_never_queries_classifier(self, gauss_splits):
        d_p, d_test = gauss_splits
        m = models.init_model(EncoderConfig((16, 8, 4), (20,)), 2, 4, seed=0)
        training.run_scenario(m, d_p, d_p, _tiny_spec(scenario="ST", scheme="CL"))
        spec = AttackSpec(epsilon=0.1, steps=3, random_start=True,
                          driving_loss="CL", seed=0)
        report = evaluation.evaluate(m, d_test, [spec], scenario="ST", scheme="CL")
        assert report.classifier_grad_queries_tm2 == 0

    def test_manifests_reproduce_byte_identical_csvs(self, tmp_path):
        from robustcl.config import load_config
        cfg = load_config(text=directional.FIXTURE_TEXT, overrides=[
            "dataset.n=200", "model.layer_widths=4,8", "model.head_dim=4",
            "scenario.pretrain_epochs=1", "scenario.finetune_epochs=1"])
        cache = str(tmp_path / "cache")
        blobs = []
        for run in range(2):
            suite = directional.run_suite(seeds=(0,), cache_dir=cache, cfg=cfg)
            path = tmp_path / f"results_{run}.csv"
            evaluation.write_results_csv(directional.results_rows(suite), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestCacheFreshness:
    def test_st_sl_retrains_to_the_committed_bytes(self, tmp_path):
        """The cheapest fixture cell, retrained from scratch, must reproduce
        its committed checkpoint and loss curve byte for byte: the cache is
        keyed by config and data, not by code, so this is what ties the
        training code to the cached cells."""
        cfg = directional.fixture_config()
        d_p, d_f, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))
        key = experiment.cell_key(cfg, "ST", "SL", 0, d_p)
        experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, cache_dir=str(tmp_path))
        committed = Path(directional.default_cache_dir())
        for name in (f"{key}.ckpt", f"{key}.loss.csv"):
            assert filecmp.cmp(tmp_path / name, committed / name, shallow=False), name

    @pytest.fixture(scope="class")
    def committed(self):
        """(cache dir, fixture pretraining and test splits, checkpoint
        loader) of the committed cache."""
        cfg = directional.fixture_config()
        d_p, _, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
        cache = Path(directional.default_cache_dir())
        return cache, d_p, test, functools.cache(
            lambda key: models.load_checkpoint(cache / f"{key}.ckpt"))

    def test_cka_and_cross_cka_json_recompute_exactly(self, committed, tmp_path):
        """Every cached CKA file, value and record, is what its committed
        checkpoints give; a warm cache only reads these files. Each starts
        as its committed value under a record of n = 30 samples: a file of
        another record is a miss, recomputed at n = 400 and rewritten."""
        cache, _, test, model = committed
        cka = sorted(cache.glob("*.cka.json"))
        cross = sorted(cache.glob("cross_*.json"))
        assert (len(cka), len(cross)) == (12, 6)
        for path in cka + cross:
            (tmp_path / path.name).write_text(
                json.dumps({**json.loads(path.read_text()), "n_samples": 30}))
        for path in cka:
            key = path.name.split(".")[0]
            directional._final_cka(model(key), test, key, str(tmp_path))
        for path in cross:
            a, b = path.stem.split("_")[1:]
            directional._cross_upper(model(a), model(b), test, a, b, str(tmp_path))
        stale = [path.name for path in cka + cross if json.loads(path.read_text())
                 != json.loads((tmp_path / path.name).read_text())]
        assert stale == []

    def test_at_cl_seed0_evaluation_reproduces_its_eval_json(self, committed, tmp_path):
        """TM-I and TM-II (the CL-driven attack) on the 500 test images of
        the committed AT/CL seed-0 model give its cached evaluation exactly."""
        cache, d_p, test, model = committed
        key = experiment.cell_key(directional.fixture_config(), "AT", "CL", 0, d_p)
        assert key == "c06d7bea7c50898f"
        specs = [directional.tm1_attack(), directional.tm2_attack()]
        experiment.evaluate_cell(model(key), test, specs, "AT", "CL", key, str(tmp_path))
        got = (tmp_path / f"{key}.eval.json").read_text()
        assert json.loads(got) == json.loads((cache / f"{key}.eval.json").read_text())


# ---------------------------------------------------------------------------
# criteria 6-10: seeded directional reproductions (cached image fixture)
# ---------------------------------------------------------------------------

def _files(cache: Path) -> dict:
    """name -> (size, sha256) of every file in `cache`."""
    return {p.name: (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in cache.iterdir() if p.is_file()}


def _read_only(cache: Path, run):
    """`run()`, failing afterwards if it added, removed or changed any file
    of `cache`, which it names: a record of the committed cache that differs
    from the code's would be rewritten in place (`experiment.cached_json`),
    not reported."""
    before = _files(cache)
    result = run()
    after = _files(cache)
    changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    if changed:
        pytest.fail(f"the run changed cache files: {', '.join(changed)}")
    return result


def test_read_only_names_each_file_a_run_changed(tmp_path):
    for name in ("a.eval.json", "b.cka.json", "c.ckpt"):
        (tmp_path / name).write_text("{}")
    assert _read_only(tmp_path, lambda: 7) == 7
    # the same bytes written again are no change
    assert _read_only(tmp_path, lambda: (tmp_path / "a.eval.json").write_text("{}")) == 2

    def rewrite():
        (tmp_path / "b.cka.json").write_text("[]")  # same size, other bytes
        (tmp_path / "c.ckpt").unlink()
        (tmp_path / "d.eval.json").write_text("{}")

    with pytest.raises(pytest.fail.Exception,
                       match="changed cache files: b.cka.json, c.ckpt, d.eval.json$"):
        _read_only(tmp_path, rewrite)


@pytest.fixture(scope="session")
def suite():
    return _read_only(Path(directional.default_cache_dir()), directional.run_suite)


@pytest.fixture(scope="session")
def suite_badges(suite):
    return {name: (ok, detail) for name, ok, detail in directional.badges(suite)}


class TestDirectionalClaims:
    def test_c6_scheme_ordering_under_standard_training(self, suite_badges):
        ok, detail = suite_badges["scheme ordering under standard training"]
        assert ok, detail

    def test_c7_full_at_vs_at_gap_by_scheme(self, suite_badges):
        ok, detail = suite_badges["Full-AT vs AT gap by scheme"]
        assert ok, detail

    def test_c8_clean_adv_cka_grows_with_training_budget(self, suite_badges):
        ok, detail = suite_badges["clean-adv CKA grows with training budget"]
        assert ok, detail

    def test_c9_cross_scheme_representation_convergence(self, suite_badges):
        ok, detail = suite_badges["cross-scheme representation convergence under AT"]
        assert ok, detail

    def test_c10_encoder_targeted_attacks_do_not_transfer(self, suite_badges):
        ok, detail = suite_badges["encoder-targeted attacks do not transfer"]
        assert ok, detail


# ---------------------------------------------------------------------------
# criterion 11: end-to-end determinism of the full sweep
# ---------------------------------------------------------------------------

class TestEndToEndDeterminism:
    def test_rerun_from_cache_reproduces_results_csv_bytes(self, suite, tmp_path):
        rerun = _read_only(Path(directional.default_cache_dir()), directional.run_suite)
        blobs = []
        for tag, s in (("a", suite), ("b", rerun)):
            path = tmp_path / f"results_{tag}.csv"
            evaluation.write_results_csv(directional.results_rows(s), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_warm_script_rewrites_the_committed_results_and_report(self, tmp_path):
        """`scripts/run_directional.py` on the committed cache writes the
        committed results.csv and report.md byte for byte, and writes no
        file in the cache."""
        root = Path(__file__).resolve().parents[1]
        cache = Path(directional.default_cache_dir())
        before = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
        spec = importlib.util.spec_from_file_location(
            "run_directional", root / "scripts" / "run_directional.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--out", str(tmp_path)]) == 0
        committed = root / "runs" / "acceptance"
        for name in ("results.csv", "report.md"):
            assert filecmp.cmp(tmp_path / name, committed / name, shallow=False), name
        assert {p.name: p.stat().st_mtime_ns for p in cache.iterdir()} == before
