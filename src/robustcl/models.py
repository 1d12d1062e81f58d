"""Encoder / projection-head / linear-classifier model bundles.

The encoder is a dense multi-layer perceptron: an image batch is flattened
once, then each width in `EncoderConfig.layer_widths` is one affine layer
with a relu. The projection head is a two-layer MLP with a relu in between;
the classifier is a single affine map on the encoder representation. Every
affine layer, with its relu where it has one, is one `tensor.dense` node on
the tape; `input_grad` runs them with no tape, for PGD.
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
    layer_widths: tuple
    input_shape: tuple  # (d,): image samples enter flattened

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        if len(self.layer_widths) < 2:
            raise ModelError("encoder needs at least 2 layers")
        if any(w < 1 for w in self.layer_widths):
            raise ModelError("all layer widths must be >= 1")
        if len(self.input_shape) != 1:
            raise ModelError("dense encoder needs a flat input_shape (d,)")

    @property
    def repr_dim(self) -> int:
        return self.layer_widths[-1]

    def to_dict(self) -> dict:
        # "kind" is written so that checkpoints keep their bytes
        return {"kind": "dense", "layer_widths": list(self.layer_widths),
                "input_shape": list(self.input_shape)}

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        if d["kind"] != "dense":
            raise ModelError(f"unknown encoder kind {d['kind']!r}")
        return EncoderConfig(tuple(d["layer_widths"]), tuple(d["input_shape"]))


def layer_ids(layer_widths) -> list:
    """`L<i>_dense<width>` per layer, fixed by the widths alone."""
    return [f"L{i}_dense{w}" for i, w in enumerate(layer_widths)]


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
        return layer_ids(self.config.layer_widths)


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
    fan_in = config.input_shape[0]
    for width in config.layer_widths:
        enc.append(_affine_init(rng, fan_in, (fan_in, width), (width,)))
        fan_in = width
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


def _layer(h: Tensor, w: Tensor, b: Tensor, relu: bool, back) -> Tensor:
    """`tensor.dense`, or with a `back` list its arithmetic with no tape
    (`tensor.affine`), the layer's weight and relu mask appended to `back`."""
    if back is None:
        return T.dense(h, w, b, relu)
    out, mask = T.affine(h.data, w.data, b.data, relu)
    back.append((w.data, mask))
    return out


def encode(model: ModelBundle, x: Tensor, capture: bool = False, back=None):
    """Forward through the encoder; optionally capture each layer's
    activations, one row per sample. With `back`, see `_layer`."""
    cfg = model.config
    if x.data.ndim > 2:  # image batches are flattened in-graph
        x = T.reshape(x, (x.shape[0], -1))
    if x.shape[1:] != cfg.input_shape:
        raise ModelError(f"encoder expects samples of shape {cfg.input_shape}, "
                         f"got a batch of shape {x.shape}")
    records: list[ActivationRecord] = []
    h = x
    for (w, b), layer_id in zip(model.encoder_params, model.layer_ids()):
        h = _layer(h, w, b, True, back)
        if capture:
            records.append(ActivationRecord(layer_id, h.data.copy()))
    return h, records


def project(model: ModelBundle, representation: Tensor, back=None) -> Tensor:
    (w1, b1), (w2, b2) = model.head_params
    return _layer(_layer(representation, w1, b1, True, back), w2, b2, False, back)


def classify(model: ModelBundle, representation: Tensor, back=None) -> Tensor:
    if model.audit_active and representation.grad_tracked:
        model.classifier_grad_queries += 1
    w, b = model.classifier_params
    return _layer(representation, w, b, False, back)


def forward_arrays(model: ModelBundle, x: np.ndarray, to: str):
    """(out, back): `encode` and then `project` (to "head") or `classify`
    (to "classifier") with no tape on a finite array, bitwise the taped
    pass; `back` holds each layer's weight and relu mask, for `input_grad`."""
    back = []
    rep, _ = encode(model, Tensor._output(x.reshape(len(x), -1), "input", False), back=back)
    return (project if to == "head" else classify)(model, rep, back).data, back


def input_grad(model: ModelBundle, x: np.ndarray, to: str, output_grad) -> np.ndarray:
    """d loss / d x, bitwise the taped gradient but with no tape, for a loss
    of `to`'s output whose gradient is `output_grad(out)`: `forward_arrays`,
    then each layer walked back as `tensor.dense`'s backward does. Under the
    audit a pass through the classifier counts one query, as `classify` does."""
    if to == "classifier" and model.audit_active:
        model.classifier_grad_queries += 1
    out, back = forward_arrays(model, x, to)
    g = output_grad(out)
    for w, mask in reversed(back):
        g = T.affine_masked(g, mask) @ w.T
    return g.reshape(x.shape)


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

