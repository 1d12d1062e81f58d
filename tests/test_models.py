import numpy as np
import pytest

import graph_oracle as G
from robustcl import models
from robustcl import tensor as T
from robustcl.models import (CheckpointError, EncoderConfig, ModelError,
                             init_model, load_checkpoint, save_checkpoint)
from robustcl.tensor import GradientTape, Tensor, backward


def params_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a.all_params(), b.all_params()))


class TestInit:
    def test_same_seed_identical(self):
        cfg = EncoderConfig((8, 4), (16,))
        m1 = init_model(cfg, 3, 2, seed=7)
        m2 = init_model(cfg, 3, 2, seed=7)
        assert params_equal(m1, m2)

    def test_parameter_count(self):
        cfg = EncoderConfig((8, 4), (16,))
        m = init_model(cfg, 3, 2, seed=0)
        n_enc = sum(t.data.size for t in m.encoder_tensors())
        assert n_enc == (16 * 8 + 8) + (8 * 4 + 4)

    def test_head_shape(self):
        cfg = EncoderConfig((8, 4), (16,))
        m = init_model(cfg, 3, head_dim=2, seed=0)
        (w1, b1), (w2, b2) = m.head_params
        assert w1.shape == (4, 4) and w2.shape == (4, 2) and b2.shape == (2,)

    def test_invalid_config(self):
        with pytest.raises(ModelError):
            EncoderConfig((8,), (16,))
        with pytest.raises(ModelError):
            EncoderConfig((8, 0), (16,))
        with pytest.raises(ModelError):
            EncoderConfig((8, 4), (1, 4, 4))  # image samples enter flattened


class TestForward:
    def test_capture_off_empty(self, dense_model, rng):
        _, records = models.encode(dense_model, Tensor(rng.random((5, 20))))
        assert records == []

    def test_capture_shapes(self, dense_model, rng):
        rep, records = models.encode(dense_model, Tensor(rng.random((5, 20))), capture=True)
        assert [r.matrix.shape for r in records] == [(5, 16), (5, 8), (5, 4)]
        assert np.array_equal(records[-1].matrix, rep.data)

    def test_zero_weight_encoder_bias_pattern(self):
        cfg = EncoderConfig((4, 3), (6,))
        m = init_model(cfg, 2, 2, seed=0)
        for w, b in m.encoder_params:
            w.data = np.zeros_like(w.data)
        rep, _ = models.encode(m, Tensor(np.ones((2, 6))))
        b0 = np.maximum(m.encoder_params[0][1].data, 0)
        expected = np.maximum(b0 @ np.zeros((4, 3)) + m.encoder_params[1][1].data, 0)
        assert np.allclose(rep.data, np.tile(expected, (2, 1)))

    def test_forward_pure(self, dense_model, rng):
        x = Tensor(rng.random((3, 20)))
        r1, _ = models.encode(dense_model, x)
        r2, _ = models.encode(dense_model, x)
        assert np.array_equal(r1.data, r2.data)

    def test_classify_zero_classifier(self, dense_model, rng):
        w, b = dense_model.classifier_params
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
        rep, _ = models.encode(dense_model, Tensor(rng.random((4, 20))))
        assert np.array_equal(models.classify(dense_model, rep).data, np.zeros((4, 2)))

    def test_project_normalizes(self, dense_model, rng):
        rep, _ = models.encode(dense_model, Tensor(rng.random((4, 20))))
        z = T.l2_normalize_rows(models.project(dense_model, rep))
        assert np.allclose(np.linalg.norm(z.data, axis=1), 1.0)

    def test_frozen_encoder_classify_grads(self, dense_model, rng):
        dense_model.set_tracking(encoder=False, head=False, classifier=True)
        with GradientTape() as tape:
            rep, _ = models.encode(dense_model, Tensor(rng.random((4, 20))))
            out = G.tmean(models.classify(dense_model, rep))
        grads = backward(tape, out)
        keys = set(grads)
        assert keys <= set(dense_model.classifier_tensors())
        assert keys

    def test_shape_mismatch(self, dense_model):
        for shape in ((2, 7), (2, 1, 4, 4)):
            with pytest.raises(ModelError, match=r"encoder expects samples of shape \(20,\)"):
                models.encode(dense_model, Tensor(np.ones(shape)))

    def test_dense_layers(self, dense_model):
        assert dense_model.layer_ids() == ["L0_dense16", "L1_dense8", "L2_dense4"]

    def test_dense_flattens_image_batches(self, rng):
        cfg = EncoderConfig((8, 4), (64,))
        m = init_model(cfg, 2, 2, seed=0)
        x = rng.random((3, 1, 8, 8))
        rep_img, _ = models.encode(m, Tensor(x))
        rep_flat, _ = models.encode(m, Tensor(x.reshape(3, 64)))
        assert np.array_equal(rep_img.data, rep_flat.data)

    def test_dense_image_gradient_reaches_input(self, rng):
        cfg = EncoderConfig((8, 4), (64,))
        m = init_model(cfg, 2, 2, seed=0)
        x = Tensor(rng.random((3, 1, 8, 8)), grad_tracked=True)
        with GradientTape() as tape:
            rep, _ = models.encode(m, x)
            out = G.tmean(rep)
        grads = backward(tape, out)
        assert x in grads and grads[x].shape == (3, 1, 8, 8)


class TestClassifierAudit:
    """Under audit, `classify` counts the calls through which a gradient
    could reach the classifier: those on a tracked representation."""

    def test_tracked_classify_under_audit_is_counted(self, dense_model, rng):
        x = rng.random((4, 20))
        with GradientTape():
            tracked, _ = models.encode(dense_model, Tensor(x, grad_tracked=True))
        untracked, _ = models.encode(dense_model, Tensor(x))
        assert tracked.grad_tracked and not untracked.grad_tracked
        models.classify(dense_model, tracked)
        assert dense_model.classifier_grad_queries == 0  # audit off
        dense_model.audit_active = True
        models.classify(dense_model, untracked)
        assert dense_model.classifier_grad_queries == 0
        models.classify(dense_model, tracked)
        models.classify(dense_model, tracked)
        assert dense_model.classifier_grad_queries == 2


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, dense_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(dense_model, p)
        loaded = load_checkpoint(p)
        assert params_equal(dense_model, loaded)
        assert loaded.config == dense_model.config
        # byte-identical re-save
        p2 = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, dense_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(dense_model, p)
        blob = bytearray(p.read_bytes())
        blob[0] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated(self, tmp_path, dense_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(dense_model, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @pytest.mark.parametrize("garble", [
        lambda h: b"\xff" + h[1:],                       # not UTF-8
        lambda h: b"{" + h[1:-1] + b" ",                  # not JSON
        lambda h: h.replace(b'"head_dim"', b'"head_dix"'),  # missing key
        lambda h: h.replace(b'"kind": "dense"', b'"kind": "dens_"'),  # bad config
        lambda h: h.replace(b'"kind": "dense"', b'"kind": "conv_small"'),  # deleted kind
        lambda h: h.replace(b'"shapes": [', b'"shapes": [7, '),  # not a shape
        lambda h: b"[" + h[1:-1] + b"]",                  # not an object
    ])
    def test_malformed_header_raises_checkpoint_error(self, tmp_path, dense_model,
                                                      garble):
        p = tmp_path / "m.ckpt"
        save_checkpoint(dense_model, p)
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[9:13], "little")
        header = garble(blob[13:13 + hlen])
        p.write_bytes(blob[:9] + len(header).to_bytes(4, "little") + header
                      + blob[13 + hlen:])
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            load_checkpoint(p)

    def test_freeze_flag_single_byte_diff(self, tmp_path, dense_model):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(dense_model, p1)
        dense_model.freeze_encoder = True
        save_checkpoint(dense_model, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert len(b1) == len(b2)
        diffs = [i for i, (x, y) in enumerate(zip(b1, b2)) if x != y]
        assert diffs == [8]

