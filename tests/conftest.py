import robustcl  # noqa: F401  (first: pins one BLAS thread before numpy loads)
import hashlib
from pathlib import Path

import numpy as np
import pytest

from robustcl import attacks, data, models
from robustcl.models import EncoderConfig

ROOT = Path(__file__).resolve().parents[1]
# the committed artifacts that no test may write
COMMITTED = ("runs/acceptance/**/*", "tests/golden_cells.json", "perfbench/reference.json")


def _committed_files() -> dict:
    """path under the checkout -> sha256 of every committed artifact."""
    return {p.relative_to(ROOT).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in COMMITTED for p in ROOT.glob(pattern) if p.is_file()}


@pytest.fixture(scope="session", autouse=True)
def committed_files_unchanged():
    """Fail at the end of the session, naming each committed artifact that a
    test added, removed or changed."""
    before = _committed_files()
    yield
    after = _committed_files()
    changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    assert not changed, f"the tests changed committed files: {', '.join(changed)}"


@pytest.fixture(scope="session")
def gauss_data():
    return data.gen_synthetic("two_gaussians", 1000, 20, 2, seed=0, separation=8.0)


@pytest.fixture(scope="session")
def gauss_splits(gauss_data):
    return data.split(gauss_data, (0.8, 0.2), seed=0)


@pytest.fixture()
def dense_model():
    cfg = EncoderConfig((16, 8, 4), (20,))
    return models.init_model(cfg, 2, 4, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def pgd_specs(monkeypatch):
    """Patch attacks.pgd to record the spec of every call."""
    specs = []
    pgd = attacks.pgd

    def counting_pgd(model, batch, spec):
        specs.append(spec)
        return pgd(model, batch, spec)

    monkeypatch.setattr(attacks, "pgd", counting_pgd)
    return specs
