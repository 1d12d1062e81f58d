import json
import os

import numpy as np
import pytest

from robustcl import experiment
from robustcl.config import load_config

TINY = [
    "dataset.n=120", "dataset.dim=6", "dataset.separation=8.0",
    "model.layer_widths=5,4", "model.head_dim=3",
    "scenario.pretrain_epochs=1", "scenario.finetune_epochs=1",
]


class TestAtomicPath:
    def test_moves_the_finished_file_into_place(self, tmp_path):
        target = tmp_path / "out.json"
        with experiment.atomic_path(target) as tmp, open(tmp, "w") as f:
            f.write("{}")
            assert not target.exists()
        assert target.read_text() == "{}"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with experiment.atomic_path(target) as tmp, open(tmp, "w") as f:
                f.write("half")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]


def test_train_cell_writes_cache_then_hits_it(tmp_path):
    cfg = load_config(text="", overrides=TINY)
    dataset = experiment.build_dataset(cfg)
    d_p, d_f, _ = experiment.build_splits(cfg, dataset)
    model, manifest = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    key = manifest["cell_key"]
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{key}.{ext}" for ext in ("ckpt", "loss.csv", "manifest.json"))
    assert json.loads((tmp_path / f"{key}.manifest.json").read_text()) == manifest
    again, cached = experiment.train_cell(cfg, d_p, d_f, "ST", "SL", 0, tmp_path)
    assert cached == manifest
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(model.all_params(), again.all_params()))
