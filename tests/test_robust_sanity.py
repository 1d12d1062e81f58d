"""Sanity checks for the TM-I robust accuracy of committed checkpoints
(Carlini et al. 2019, arXiv 1902.06705): an attack that is working can
only lower accuracy, more budget lowers it further, a budget far past the
class signal removes it, and restarts can only find more adversarial
examples. Seed-0 ST/SL, ST/CL and AT/SL cells, on the first 256 test images.

The default step size is 2.5 * epsilon / steps, so the epsilon check fixes
the step size: otherwise a larger ball also means larger steps."""

from dataclasses import replace

import numpy as np
import pytest

from robustcl import attacks, directional, evaluation, experiment, models
from robustcl.data import ViewBatch

CELLS = [("ST", "SL"), ("ST", "CL"), ("AT", "SL")]
N_TEST = 256
STEP_SIZE = 1 / 255  # 20 steps reach 20/255, past the largest ball checked with it


@pytest.fixture(scope="module")
def committed():
    cfg = directional.fixture_config()
    d_p, _, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
    cache = directional.default_cache_dir()
    cells = {(sc, sch): models.load_checkpoint(
        f"{cache}/{experiment.cell_key(cfg, sc, sch, 0, d_p)}.ckpt") for sc, sch in CELLS}
    return cells, test.subset(np.arange(N_TEST))


def _robust(model, test, **changes):
    return evaluation.robust_accuracy(model, test,
                                      replace(directional.tm1_attack(), **changes))


@pytest.mark.parametrize("cell", CELLS, ids=["/".join(c) for c in CELLS])
class TestTM1Sanity:
    def test_robust_accuracy_is_at_most_clean(self, committed, cell):
        cells, test = committed
        clean = evaluation._accuracy(cells[cell], test)
        assert _robust(cells[cell], test) <= clean

    def test_non_increasing_in_epsilon_at_a_fixed_step_size(self, committed, cell):
        cells, test = committed
        accs = [_robust(cells[cell], test, epsilon=k / 255, step_size=STEP_SIZE)
                for k in (4, 8, 16)]
        assert accs == sorted(accs, reverse=True), accs

    def test_zero_at_32_over_255(self, committed, cell):
        cells, test = committed
        assert _robust(cells[cell], test, epsilon=32 / 255) == 0.0

    def test_worst_case_over_three_restarts_does_not_beat_one_run(self, committed, cell):
        cells, test = committed
        model, spec = cells[cell], directional.tm1_attack()
        batch = ViewBatch(x=test.inputs, y=test.labels)
        correct = [evaluation._predict(model, attacks.pgd(
            model, batch, replace(spec, seed=seed))) == test.labels
            for seed in range(3)]
        single = _robust(model, test)
        assert correct[0].mean() == single  # restart 0 is the evaluation's run
        assert np.logical_and.reduce(correct).mean() <= single
