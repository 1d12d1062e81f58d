"""Encoder / projection-head / linear-classifier model bundles.

Two desk-scale encoders are provided: a dense multi-layer perceptron for
vector data and a small convolutional network (3x3 conv + relu + 2x2 pool
blocks followed by one dense layer) for image data. Both are one list of
layers, `EncoderConfig.layers`: conv blocks, then dense layers, which
`init_model`, `encode` and `layer_ids` each walk in one loop. The
projection head is a two-layer MLP with a relu in between; the classifier
is a single affine map on the encoder representation. Every affine layer,
with its relu where it has one, is one `tensor.dense` node on the tape.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

CHECKPOINT_MAGIC = b"RRLB"
CHECKPOINT_VERSION = 1


class ModelError(Exception):
    pass


class CheckpointError(ModelError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    kind: str  # "dense" | "conv_small"
    layer_widths: tuple  # dense: widths; conv_small: channel counts + final dense width
    input_shape: tuple  # (d,) for dense, (c, h, w) for conv_small

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        if self.kind not in ("dense", "conv_small"):
            raise ModelError(f"unknown encoder kind {self.kind!r}")
        if len(self.layer_widths) < 2:
            raise ModelError("encoder needs at least 2 layers")
        if any(w < 1 for w in self.layer_widths):
            raise ModelError("all layer widths must be >= 1")
        if self.kind == "dense" and len(self.input_shape) != 1:
            raise ModelError("dense encoder needs a flat input_shape (d,)")
        if self.kind == "conv_small":
            if len(self.input_shape) != 3:
                raise ModelError("conv_small needs input_shape (c, h, w)")
            _, h, w = self.input_shape
            n_blocks = len(self.layer_widths) - 1
            if h % (2 ** n_blocks) or w % (2 ** n_blocks):
                raise ModelError("conv_small spatial dims must survive pooling")

    @property
    def repr_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def layers(self) -> tuple:
        return encoder_layers(self.kind, self.layer_widths)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "layer_widths": list(self.layer_widths),
                "input_shape": list(self.input_shape)}

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        return EncoderConfig(d["kind"], tuple(d["layer_widths"]), tuple(d["input_shape"]))


def encoder_layers(kind: str, layer_widths) -> tuple:
    """(kind, width) per layer: a conv_small encoder's "conv" blocks, then
    its one "dense" layer; a dense encoder's "dense" layers."""
    n_conv = len(layer_widths) - 1 if kind == "conv_small" else 0
    return tuple(("conv" if i < n_conv else "dense", w) for i, w in enumerate(layer_widths))


def layer_ids(kind: str, layer_widths) -> list:
    """`L<i>_<kind><width>` per layer, fixed by the encoder kind and widths alone."""
    return [f"L{i}_{k}{w}" for i, (k, w) in enumerate(encoder_layers(kind, layer_widths))]


@dataclass
class ActivationRecord:
    layer_id: str
    matrix: np.ndarray  # n_samples x d_layer, post-activation


@dataclass
class ModelBundle:
    config: EncoderConfig
    n_classes: int
    head_dim: int
    encoder_params: list  # list of (W, b) Tensor pairs
    head_params: list  # two (W, b) pairs
    classifier_params: tuple  # (W, b)
    freeze_encoder: bool = False
    rng_seed: int = 0
    classifier_grad_queries: int = 0
    audit_active: bool = False

    def all_params(self):
        return self.encoder_tensors() + self.head_tensors() + self.classifier_tensors()

    def encoder_tensors(self):
        return [t for pair in self.encoder_params for t in pair]

    def head_tensors(self):
        return [t for pair in self.head_params for t in pair]

    def classifier_tensors(self):
        return list(self.classifier_params)

    def set_tracking(self, encoder: bool, head: bool, classifier: bool) -> None:
        for t in self.encoder_tensors():
            t.grad_tracked = encoder
        for t in self.head_tensors():
            t.grad_tracked = head
        for t in self.classifier_tensors():
            t.grad_tracked = classifier

    def layer_ids(self):
        return layer_ids(self.config.kind, self.config.layer_widths)


def _affine_init(rng: np.random.Generator, fan_in: int, shape_w, shape_b):
    bound = 1.0 / np.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, size=shape_w))
    b = Tensor(rng.uniform(-bound, bound, size=shape_b))
    return w, b


def init_model(config: EncoderConfig, n_classes: int, head_dim: int, seed: int) -> ModelBundle:
    """Scaled uniform fan-in initialization, fully determined by seed."""
    if n_classes < 2 or head_dim < 1:
        raise ModelError("need n_classes >= 2 and head_dim >= 1")
    rng = np.random.default_rng(seed)
    enc = []
    shape = config.input_shape  # of one sample entering the next layer
    for kind, width in config.layers:
        if kind == "conv":
            ci, h, w = shape
            enc.append(_affine_init(rng, ci * 9, (width, ci, 3, 3), (width,)))
            shape = (width, h // 2, w // 2)
        else:
            fan_in = int(np.prod(shape))
            enc.append(_affine_init(rng, fan_in, (fan_in, width), (width,)))
            shape = (width,)
    d = config.repr_dim
    head = [_affine_init(rng, d, (d, d), (d,)),
            _affine_init(rng, d, (d, head_dim), (head_dim,))]
    clf = _affine_init(rng, d, (d, n_classes), (n_classes,))
    return ModelBundle(config=config, n_classes=n_classes, head_dim=head_dim,
                       encoder_params=enc, head_params=head, classifier_params=clf,
                       rng_seed=seed)


def reinit_classifier(model: ModelBundle, seed: int) -> None:
    rng = np.random.default_rng(seed)
    d = model.config.repr_dim
    model.classifier_params = _affine_init(rng, d, (d, model.n_classes), (model.n_classes,))


def encode(model: ModelBundle, x: Tensor, capture: bool = False):
    """Forward through the encoder; optionally capture per-layer activations,
    each flattened to one row per sample."""
    cfg = model.config
    if cfg.kind == "dense" and x.data.ndim > 2:  # image batches are flattened in-graph
        x = T.reshape(x, (x.shape[0], -1))
    if x.shape[1:] != cfg.input_shape:
        raise ModelError(f"{cfg.kind} encoder expects samples of shape {cfg.input_shape}, "
                         f"got a batch of shape {x.shape}")
    n = x.shape[0]
    records: list[ActivationRecord] = []
    h = x
    for (kind, _), (w, b), layer_id in zip(cfg.layers, model.encoder_params,
                                           model.layer_ids()):
        if kind == "conv":
            h = T.maxpool2x2(T.relu(T.conv2d_3x3(h, w, b)))
        else:
            if h.data.ndim > 2:
                h = T.reshape(h, (n, -1))
            h = T.dense(h, w, b, relu=True)
        if capture:
            records.append(ActivationRecord(layer_id, h.data.reshape(n, -1).copy()))
    return h, records


def project(model: ModelBundle, representation: Tensor) -> Tensor:
    (w1, b1), (w2, b2) = model.head_params
    h = T.dense(representation, w1, b1, relu=True)
    return T.dense(h, w2, b2)


def classify(model: ModelBundle, representation: Tensor) -> Tensor:
    if model.audit_active and representation.grad_tracked:
        model.classifier_grad_queries += 1
    w, b = model.classifier_params
    return T.dense(representation, w, b)


# ---------------------------------------------------------------------------
# checkpoint format: magic "RRLB", u32 version, u8 freeze flag,
# u32 JSON-header length, JSON header, raw little-endian float64 arrays
# ---------------------------------------------------------------------------

def save_checkpoint(model: ModelBundle, path) -> None:
    header = {
        "config": model.config.to_dict(),
        "n_classes": model.n_classes,
        "head_dim": model.head_dim,
        "rng_seed": model.rng_seed,
        "shapes": [list(t.shape) for t in model.all_params()],
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<B", 1 if model.freeze_encoder else 0))
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for t in model.all_params():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelBundle:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 13 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    freeze = bool(blob[8])
    hlen = struct.unpack("<I", blob[9:13])[0]
    if len(blob) < 13 + hlen:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(blob[13:13 + hlen].decode())
        config = EncoderConfig.from_dict(header["config"])
        model = init_model(config, header["n_classes"], header["head_dim"],
                           header["rng_seed"])
        shapes = [tuple(s) for s in header["shapes"]]
    except (ValueError, KeyError, TypeError, OverflowError, ModelError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CheckpointError(f"malformed checkpoint header in {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    model.freeze_encoder = freeze
    offset = 13 + hlen
    params = model.all_params()
    if shapes != [t.shape for t in params]:
        raise CheckpointError("checkpoint shapes do not match declared config")
    for t in params:
        nbytes = t.data.size * 8
        if offset + nbytes > len(blob):
            raise CheckpointError("truncated checkpoint data")
        t.data = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").reshape(t.shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError("trailing bytes in checkpoint")
    return model

