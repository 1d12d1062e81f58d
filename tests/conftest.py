import robustcl  # noqa: F401  (first: pins one BLAS thread before numpy loads)
import numpy as np
import pytest

from robustcl import attacks, data, models
from robustcl.models import EncoderConfig


@pytest.fixture(scope="session")
def gauss_data():
    return data.gen_synthetic("two_gaussians", 1000, 20, 2, seed=0, separation=8.0)


@pytest.fixture(scope="session")
def gauss_splits(gauss_data):
    return data.split(gauss_data, (0.8, 0.2), seed=0)


@pytest.fixture()
def dense_model():
    cfg = EncoderConfig("dense", (16, 8, 4), (20,))
    return models.init_model(cfg, 2, 4, seed=0)


@pytest.fixture()
def conv_model():
    cfg = EncoderConfig("conv_small", (4, 8), (1, 8, 8))
    return models.init_model(cfg, 3, 4, seed=0)


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
