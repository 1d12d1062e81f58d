"""Every kind of fixture cell, retrained at one epoch per phase, must give
the bits recorded in `golden_cells.json` (`scripts/record_golden_cells.py`).

The cell cache is keyed by config and data, not by code, so this is the
tier-1 check that the two-phase, adversarial and combined-scheme training
paths, and both attacks, still produce what they did."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "record_golden_cells", ROOT / "scripts" / "record_golden_cells.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

GOLDEN = json.loads(record.GOLDEN.read_text())
CELLS = [(name, sc, sch, eps) for name, (sc, sch, eps, _) in record.directional.CELLS.items()]


def test_the_file_covers_every_cell_at_the_recorded_settings():
    assert sorted(GOLDEN["cells"]) == sorted(name for name, *_ in CELLS)
    assert (GOLDEN["seed"], tuple(GOLDEN["epochs"]), GOLDEN["n_test"]) == (
        record.SEED, record.EPOCHS, record.N_TEST)


@pytest.fixture(scope="module")
def fixture():
    if GOLDEN["build"] != record.build_info():
        pytest.skip(f"golden cells were recorded on {GOLDEN['build']}, "
                    f"this is {record.build_info()}")
    return record.fixture()


@pytest.mark.parametrize("name,scenario,scheme,train_eps", CELLS,
                         ids=[name for name, *_ in CELLS])
def test_cell_reproduces_its_golden_bits(fixture, name, scenario, scheme, train_eps):
    got = record.golden_cell(*fixture, scenario, scheme, train_eps)
    want = GOLDEN["cells"][name]
    assert list(got["phases"]) == list(want["phases"]), f"{name}: phases"
    for phase, recorded in want["phases"].items():
        for what, value in recorded.items():
            assert got["phases"][phase][what] == value, f"{name}, {phase} phase: {what}"
    for what, value in want["eval"].items():
        assert got["eval"][what] == value, f"{name}, evaluation: {what}"
