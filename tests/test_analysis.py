import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcl import analysis, data, models, training
from robustcl.analysis import (AnalysisError, DegenerateActivationsError,
                               cka_heatmap, cross_model_cka, divergence_curve,
                               linear_cka, linear_probe, upper_third_mean)
from robustcl.attacks import AttackSpec
from robustcl.losses import LossConfig
from robustcl.models import EncoderConfig
from robustcl.training import OptimizerConfig, ScenarioSpec


def random_orthogonal(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


@pytest.fixture(scope="module")
def trained(gauss_splits):
    d_train, d_test = gauss_splits
    cfg = EncoderConfig((16, 8, 4), (20,))
    m = models.init_model(cfg, 2, 4, seed=0)
    spec = ScenarioSpec(scenario="ST", scheme="SL", finetune_epochs=20,
                        batch_size=128, optimizer=OptimizerConfig(lr=3e-3),
                        loss=LossConfig(scheme="SL"), seed=0)
    training.run_scenario(m, d_train, d_train, spec)
    return m, d_train, d_test


class TestLinearCka:
    def test_self_similarity(self, rng):
        x = rng.standard_normal((50, 8))
        assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self, rng):
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal((40, 9))
        assert abs(linear_cka(x, y) - linear_cka(y, x)) < 1e-12

    def test_orthogonal_invariance(self, rng):
        x = rng.standard_normal((30, 5))
        q = random_orthogonal(5, rng)
        assert abs(linear_cka(x, x @ q) - 1.0) < 1e-9
        y = rng.standard_normal((30, 7))
        assert abs(linear_cka(x, y) - linear_cka(x @ q, y)) < 1e-9

    def test_scale_invariance(self, rng):
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal((30, 4))
        assert abs(linear_cka(x, y) - linear_cka(3.7 * x, y)) < 1e-9

    def test_joint_permutation_invariance(self, rng):
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        assert abs(linear_cka(x, y) - linear_cka(x[perm], y[perm])) < 1e-12

    def test_independent_gaussians_low(self):
        rng = np.random.default_rng(1234)
        x = rng.standard_normal((200, 10))
        y = rng.standard_normal((200, 10))
        v = linear_cka(x, y)
        assert v < 0.2
        # golden value for the stored seed
        assert v == pytest.approx(linear_cka(x, y))

    def test_range(self, rng):
        for _ in range(20):
            x = rng.standard_normal((25, 6))
            y = rng.standard_normal((25, 3))
            v = linear_cka(x, y)
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_degenerate_raises(self, rng):
        x = np.ones((10, 4))
        with pytest.raises(DegenerateActivationsError):
            linear_cka(x, rng.standard_normal((10, 4)))

    def test_too_few_samples(self, rng):
        with pytest.raises(AnalysisError):
            linear_cka(np.zeros((2, 3)), np.zeros((2, 3)))


class TestHeatmap:
    def test_clean_clean_diagonal(self, trained):
        m, _, d_test = trained
        grid = cka_heatmap(m, d_test, n_samples=128, seed=0)
        assert np.allclose(grid.diagonal(), 1.0, atol=1e-9)
        assert grid.condition == "clean-clean"
        off = grid.values[~np.eye(len(grid.row_layers), dtype=bool)]
        assert np.all(off[~np.isnan(off)] > 0)

    def test_epsilon_zero_matches_clean(self, trained):
        m, _, d_test = trained
        atk = AttackSpec(epsilon=0.0, steps=5, clamp=None)
        g0 = cka_heatmap(m, d_test, attack=atk, n_samples=128, seed=0)
        g1 = cka_heatmap(m, d_test, n_samples=128, seed=0)
        assert np.allclose(g0.values, g1.values, atol=1e-9, equal_nan=True)
        assert g0.condition == "clean-adv"

    def test_divergence_is_diagonal(self, trained):
        m, _, d_test = trained
        atk = AttackSpec(epsilon=0.1, steps=5, clamp=None, random_start=False)
        curve = divergence_curve(m, d_test, atk, n_samples=128, seed=0)
        grid = cka_heatmap(m, d_test, attack=atk, n_samples=128, seed=0)
        assert curve.tobytes() == grid.diagonal().tobytes()
        assert len(curve) == len(m.layer_ids())

    def test_divergence_computes_only_matched_layers(self, trained, monkeypatch):
        # zeroing the middle layer makes it and every layer after it constant:
        # the curve holds NaN there, as the grid's diagonal does
        m, _, d_test = trained
        dead = copy.deepcopy(m)
        for t in dead.encoder_params[1]:
            t.data[...] = 0.0
        atk = AttackSpec(epsilon=0.1, steps=5, clamp=None, random_start=False)
        grid = cka_heatmap(dead, d_test, attack=atk, n_samples=128, seed=0)
        calls = []
        cka = analysis.linear_cka
        monkeypatch.setattr(analysis, "linear_cka", lambda x, y: calls.append(1) or cka(x, y))
        curve = divergence_curve(dead, d_test, atk, n_samples=128, seed=0)
        assert curve.tobytes() == grid.diagonal().tobytes()
        assert len(calls) == len(dead.layer_ids()) == 3
        assert not np.isnan(curve[0]) and np.isnan(curve[1:]).all()

    def test_divergence_epsilon_zero_all_ones(self, trained):
        m, _, d_test = trained
        atk = AttackSpec(epsilon=0.0, steps=5, clamp=None)
        curve = divergence_curve(m, d_test, atk, n_samples=64, seed=0)
        assert np.allclose(curve, 1.0, atol=1e-9)

    def test_n_samples_past_the_dataset_use_all_of_its_rows(self, trained, monkeypatch):
        m, _, d_test = trained
        seen = []
        encode = models.encode
        monkeypatch.setattr(models, "encode", lambda model, x, capture=False:
                            seen.append(x.data) or encode(model, x, capture))
        atk = AttackSpec(epsilon=0.0, steps=1, clamp=None)  # its examples are the clean rows
        n = d_test.n + 1
        assert cka_heatmap(m, d_test, atk, n_samples=n).n_samples == d_test.n
        assert cross_model_cka(m, m, d_test, atk, n_samples=n).n_samples == d_test.n
        assert len(divergence_curve(m, d_test, atk, n_samples=n)) == len(m.layer_ids())
        rows = np.unique(d_test.inputs, axis=0)
        assert len(rows) == d_test.n and len(seen) == 6
        assert all(np.array_equal(np.unique(x, axis=0), rows) for x in seen)


class TestCrossModel:
    def test_self_case_matches_heatmap(self, trained):
        m, _, d_test = trained
        a = cross_model_cka(m, m, d_test, n_samples=128, seed=0)
        b = cka_heatmap(m, d_test, n_samples=128, seed=0)
        assert np.allclose(a.values, b.values, atol=1e-12, equal_nan=True)

    def test_shape_mismatch(self, trained):
        m, _, d_test = trained
        other = models.init_model(EncoderConfig((16, 8, 4), (21,)), 2, 4, seed=0)
        with pytest.raises(AnalysisError):
            cross_model_cka(m, other, d_test)

    def test_adv_adv_condition(self, trained):
        m, _, d_test = trained
        atk = AttackSpec(epsilon=0.05, steps=3, clamp=None)
        grid = cross_model_cka(m, m, d_test, attack=atk, n_samples=64, seed=0)
        assert grid.condition == "adv-adv"

    def test_third_means(self):
        vals = np.arange(9, dtype=float).reshape(3, 3) / 10.0
        grid = analysis.CKAMatrix(["a", "b", "c"], ["a", "b", "c"], vals,
                                  np.zeros((3, 3), bool), 10, "clean-clean", ("m", "m"))
        assert upper_third_mean(grid) == pytest.approx(0.8)


class TestProbe:
    def test_raw_input_separable(self, gauss_splits, trained):
        m, d_train, d_test = trained
        res = linear_probe(m, d_train, d_test, "input")
        assert res.test_accuracy >= 0.95

    def test_permuted_labels_chance(self, trained):
        m, d_train, d_test = trained
        rng = np.random.default_rng(0)
        shuffled_train = data.Dataset(d_train.inputs, rng.permutation(d_train.labels),
                                      "shuffled_train", d_train.n_classes)
        shuffled_test = data.Dataset(d_test.inputs, rng.permutation(d_test.labels),
                                     "shuffled_test", d_test.n_classes)
        res = linear_probe(m, shuffled_train, shuffled_test, "input", probe_epochs=10)
        sigma = np.sqrt(0.5 * 0.5 / d_test.n)
        assert abs(res.test_accuracy - 0.5) <= 3 * sigma

    def test_model_untouched(self, trained):
        m, d_train, d_test = trained
        before = [p.data.copy() for p in m.all_params()]
        tracked = [p.grad_tracked for p in m.all_params()]
        linear_probe(m, d_train, d_test, m.layer_ids()[-1], probe_epochs=2)
        assert all(np.array_equal(p.data, q) for p, q in zip(m.all_params(), before))
        assert [p.grad_tracked for p in m.all_params()] == tracked

    def test_final_layer_beats_first(self, trained):
        m, d_train, d_test = trained
        ids = m.layer_ids()
        first = linear_probe(m, d_train, d_test, ids[0])
        final = linear_probe(m, d_train, d_test, ids[-1])
        assert final.test_accuracy >= first.test_accuracy - 0.02

    def test_unknown_layer(self, trained):
        m, d_train, d_test = trained
        with pytest.raises(AnalysisError):
            linear_probe(m, d_train, d_test, "layer99")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cka_invariances_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal((20, 4))
    base = linear_cka(x, y)
    assert -1e-9 <= base <= 1.0 + 1e-9
    q = random_orthogonal(5, rng)
    assert abs(linear_cka(x @ q, y) - base) < 1e-9
    c = float(rng.uniform(0.1, 10.0))
    assert abs(linear_cka(x, c * y) - base) < 1e-9
