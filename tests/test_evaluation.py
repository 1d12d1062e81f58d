import numpy as np
import pytest

from robustcl import attacks, evaluation, models, training
from robustcl.attacks import AttackSpec
from robustcl.evaluation import (evaluate, results_rows,
                                 robust_accuracy, write_results_csv,
                                 read_results_csv, RESULTS_COLUMNS)
from robustcl.losses import LossConfig
from robustcl.models import EncoderConfig
from robustcl.tensor import GradientTape, Tensor
from robustcl.training import OptimizerConfig, ScenarioSpec


@pytest.fixture(scope="module")
def trained(gauss_splits):
    d_train, d_test = gauss_splits
    cfg = EncoderConfig((16, 8, 4), (20,))
    m = models.init_model(cfg, 2, 4, seed=0)
    spec = ScenarioSpec(scenario="ST", scheme="SL", finetune_epochs=20,
                        batch_size=128, optimizer=OptimizerConfig(lr=3e-3),
                        loss=LossConfig(scheme="SL"), seed=0)
    training.run_scenario(m, d_train, d_train, spec)
    return m, d_test


class TestEvaluate:
    def test_untrained_chance_level(self, gauss_splits):
        _, d_test = gauss_splits
        m = models.init_model(EncoderConfig((16, 8, 4), (20,)), 2, 4, seed=5)
        rep = evaluate(m, d_test, [])
        sigma = np.sqrt(0.25 / d_test.n)
        assert abs(rep.clean_accuracy - 0.5) <= 3 * sigma

    def test_epsilon_zero_equals_clean(self, trained):
        m, d_test = trained
        spec = AttackSpec(epsilon=0.0, steps=20, clamp=None)
        rep = evaluate(m, d_test, [spec])
        assert rep.robust[("I", 0.0, 20)] == rep.clean_accuracy

    def test_trained_model_high_clean(self, trained):
        m, d_test = trained
        rep = evaluate(m, d_test, [])
        assert rep.clean_accuracy >= 0.95

    def test_determinism(self, trained):
        m, d_test = trained
        specs = [AttackSpec(epsilon=0.1, steps=5, random_start=True, clamp=None)]
        a = evaluate(m, d_test, specs)
        b = evaluate(m, d_test, specs)
        assert a.clean_accuracy == b.clean_accuracy
        assert a.robust == b.robust

    def test_monotone_in_epsilon(self, trained):
        m, d_test = trained
        accs = []
        for eps in (0.05, 0.15, 0.4):
            spec = AttackSpec(epsilon=eps, steps=10, random_start=True, clamp=None)
            accs.append(robust_accuracy(m, d_test, spec))
        assert accs[1] <= accs[0] + 0.01
        assert accs[2] <= accs[1] + 0.01
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_tm2_na_for_sl(self, trained):
        m, d_test = trained
        spec = AttackSpec(epsilon=0.1, steps=5, driving_loss="CL", clamp=None)
        rep = evaluate(m, d_test, [spec], scheme="SL")
        assert rep.robust[("II", 0.1, 5)] is None

    def test_tm2_zero_classifier_queries(self, trained):
        m, d_test = trained
        spec = AttackSpec(epsilon=0.1, steps=3, driving_loss="CL",
                          random_start=True, clamp=None)
        rep = evaluate(m, d_test, [spec], scheme="CL")
        assert rep.classifier_grad_queries_tm2 == 0
        assert 0.0 <= rep.robust[("II", 0.1, 3)] <= 1.0

    def test_tm2_classifier_queries_are_reported(self, trained, monkeypatch):
        # an attack that reads the classifier's gradient is counted under
        # Threat Model II only
        m, d_test = trained
        pgd = attacks.pgd

        def querying_pgd(model, batch, spec):
            with GradientTape():
                rep, _ = models.encode(model, Tensor(batch.x.data, grad_tracked=True))
                models.classify(model, rep)
            return pgd(model, batch, spec)

        monkeypatch.setattr(attacks, "pgd", querying_pgd)
        specs = [AttackSpec(epsilon=0.1, steps=2, driving_loss=loss, clamp=None)
                 for loss in ("CE", "CL")]
        rep = evaluate(m, d_test, specs, scheme="CL")
        n_batches = -(-d_test.n // 256)  # robust_accuracy's batch size
        assert rep.classifier_grad_queries_tm2 == n_batches > 0
        assert not m.audit_active

    def test_empty_test_set_rejected(self, gauss_data):
        # empty datasets are rejected at construction time
        with pytest.raises(Exception):
            gauss_data.subset(np.array([], dtype=int))


class TestResultsCsv:
    def report(self):
        return evaluation.EvalReport(
            model_id="m", scenario="AT", scheme="CL", clean_accuracy=0.875,
            robust={("I", 8 / 255, 20): 0.5, ("II", 8 / 255, 40): None},
            n_test=500)

    def test_rows_columns(self):
        rows = results_rows(self.report(), seed=1, runtime_s=12.3456)
        assert len(rows) == 2
        for row in rows:
            assert list(row) == RESULTS_COLUMNS
        assert rows[0]["runtime_s"] == repr(12.346)

    def test_na_marker(self):
        rows = results_rows(self.report(), seed=0, runtime_s=1.0)
        by_tm = {r["threat_model"]: r for r in rows}
        assert by_tm["II"]["robust_acc"] == "NA"
        assert by_tm["I"]["robust_acc"] == repr(0.5)

    def test_roundtrip_and_byte_stability(self, tmp_path):
        rows = results_rows(self.report(), seed=2, runtime_s=3.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(rows, p1)
        loaded = read_results_csv(p1)
        assert [r["scenario"] for r in loaded] == ["AT", "AT"]
        assert loaded[0]["clean_acc"] == repr(0.875)
        write_results_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
