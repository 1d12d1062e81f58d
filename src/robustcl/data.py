"""Dataset ingestion, synthetic generators, augmentation views, and splits."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(Exception):
    pass


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, d) vectors or (n, c, h, w) images
    labels: np.ndarray  # (n,) ints in [0, C)
    name: str
    n_classes: int
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only views, not copies: the fingerprint is computed once, so a
        # write through the dataset after hashing must raise, not go stale
        self.inputs = np.asarray(self.inputs, dtype=np.float64).view()
        self.labels = np.asarray(self.labels, dtype=np.int64).view()
        self.inputs.flags.writeable = False
        self.labels.flags.writeable = False
        n = self.inputs.shape[0]
        if n < 1 or self.labels.shape != (n,):
            raise DataError("inputs/labels size mismatch")
        if not np.all(np.isfinite(self.inputs)):
            raise DataError("dataset contains non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise DataError("label out of range")
        if self.is_image and (self.inputs.min() < 0.0 or self.inputs.max() > 1.0):
            raise DataError("image data must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def is_image(self) -> bool:
        return self.inputs.ndim == 4

    @property
    def input_shape(self) -> tuple:
        return self.inputs.shape[1:]

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(self.inputs, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(self.labels, dtype="<i8").tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        return Dataset(self.inputs[idx].copy(), self.labels[idx].copy(),
                       name or self.name, self.n_classes)


@dataclass
class ViewBatch:
    x: Tensor
    x_prime: Tensor | None = None
    x_double_prime: Tensor | None = None
    y: np.ndarray | None = None
    x_adv: Tensor | None = None

    def __post_init__(self):
        n = self.x.shape[0]
        for m in (self.x_prime, self.x_double_prime, self.x_adv):
            if m is not None and m.shape[0] != n:
                raise DataError("batch members disagree on leading dimension")
        if self.y is not None and len(self.y) != n:
            raise DataError("label count mismatch in batch")


@dataclass
class AugmentSpec:
    # vectors
    gaussian_noise_sigma: float = 0.1
    feature_dropout_prob: float = 0.1
    # images
    crop_shift_max_pixels: int = 2
    horizontal_flip_prob: float = 0.5
    erase_patch_prob: float = 0.3
    erase_patch_size: int = 4

    def __post_init__(self):
        for p in (self.feature_dropout_prob, self.horizontal_flip_prob, self.erase_patch_prob):
            if not 0.0 <= p <= 1.0:
                raise DataError("augmentation probabilities must lie in [0, 1]")
        if self.gaussian_noise_sigma < 0:
            raise DataError("noise sigma must be >= 0")

    def is_identity(self) -> bool:
        return (self.gaussian_noise_sigma == 0 and self.feature_dropout_prob == 0
                and self.crop_shift_max_pixels == 0 and self.horizontal_flip_prob == 0
                and self.erase_patch_prob == 0)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def load_idx(path_images, path_labels, name: str = "idx") -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled into [0, 1]."""
    with open(path_images, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise DataError(f"truncated IDX image file {path_images}")
    magic, n, h, w = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"bad IDX image magic {magic:#010x}")
    if n == 0:
        raise DataError(f"IDX image file {path_images} holds no images")
    if len(blob) != 16 + n * h * w:
        raise DataError("truncated IDX image payload")
    images = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(n, 1, h, w)
    with open(path_labels, "rb") as f:
        lblob = f.read()
    if len(lblob) < 8:
        raise DataError(f"truncated IDX label file {path_labels}")
    lmagic, ln = struct.unpack(">II", lblob[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise DataError(f"bad IDX label magic {lmagic:#010x}")
    if ln != n:
        raise DataError(f"IDX count mismatch: {n} images vs {ln} labels")
    if len(lblob) != 8 + ln:
        raise DataError("truncated IDX label payload")
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, name, int(labels.max()) + 1)


def write_idx(dataset: Dataset, path_images, path_labels) -> None:
    if not dataset.is_image:
        raise DataError("write_idx requires image data")
    n, c, h, w = dataset.inputs.shape
    if c != 1:
        raise DataError("write_idx supports single-channel images")
    pixels = np.clip(np.round(dataset.inputs * 255.0), 0, 255).astype(np.uint8)
    with open(path_images, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(path_labels, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# CSV vectors: header "label,f0,f1,...", one row per sample
# ---------------------------------------------------------------------------

def load_csv(path, name: str = "csv") -> Dataset:
    with open(path) as f:
        header = f.readline().strip().split(",")
        if not header or header[0] != "label":
            raise DataError("CSV header must start with 'label'")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if not rows:
        raise DataError(f"CSV file {path} holds no samples")
    try:
        labels = np.array([int(r[0]) for r in rows], dtype=np.int64)
        feats = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64)
    except ValueError as exc:  # a non-numeric field, or rows of unequal length
        raise DataError(f"malformed CSV file {path}: {exc}") from None
    return Dataset(feats, labels, name, int(labels.max()) + 1)


def write_csv(dataset: Dataset, path) -> None:
    if dataset.is_image:
        raise DataError("write_csv requires vector data")
    d = dataset.inputs.shape[1]
    with open(path, "w") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for y, row in zip(dataset.labels, dataset.inputs):
            f.write(str(int(y)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def check_synthetic(kind: str, n: int, dim: int, n_classes: int, separation: float) -> None:
    """Raise DataError unless `gen_synthetic` can generate these arguments."""
    if n < n_classes:
        raise DataError("need n >= n_classes")
    if separation <= 0:
        raise DataError("separation must be positive")
    if kind == "two_gaussians" and n_classes != 2:
        raise DataError("two_gaussians requires n_classes == 2")
    if kind == "rings" and dim < 2:
        raise DataError("rings requires dim >= 2")
    if kind not in ("two_gaussians", "rings", "blobs_k"):
        raise DataError(f"unknown synthetic kind {kind!r}")


def check_bar_images(n: int, n_classes: int, shortcut_amp: float) -> None:
    """Raise DataError unless `gen_bar_images` can generate these arguments."""
    if n < n_classes or n_classes > 10:
        raise DataError("gen_bar_images supports up to 10 classes, n >= n_classes")
    if shortcut_amp < 0:
        raise DataError("shortcut_amp must be non-negative")


def gen_synthetic(kind: str, n: int, dim: int, n_classes: int, seed: int,
                  separation: float = 4.0) -> Dataset:
    """Deterministic synthetic vector datasets.

    two_gaussians: class means at +-(separation/2) * e1, unit variance.
    rings: concentric circles in the first two coordinates.
    blobs_k: n_classes gaussian blobs, labels assigned round-robin.
    """
    check_synthetic(kind, n, dim, n_classes, separation)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    if kind == "two_gaussians":
        x = rng.standard_normal((n, dim))
        x[:, 0] += np.where(labels == 0, -separation / 2.0, separation / 2.0)
    elif kind == "rings":
        radii = 1.0 + labels * (separation / 2.0)
        theta = rng.uniform(0, 2 * np.pi, size=n)
        x = rng.standard_normal((n, dim)) * 0.2
        x[:, 0] += radii * np.cos(theta)
        x[:, 1] += radii * np.sin(theta)
    else:
        centers = rng.uniform(-separation, separation, size=(n_classes, dim))
        x = centers[labels] + rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return Dataset(x[perm], labels[perm], f"{kind}_d{dim}_c{n_classes}", n_classes)


def gen_bar_images(n: int, size: int = 16, n_classes: int = 10, seed: int = 0,
                   contrast: float = 0.45, noise_sigma: float = 0.12,
                   shortcut_amp: float = 0.0) -> Dataset:
    """Deterministic synthetic image classes: one horizontal and one vertical
    bar whose positions encode the class, plus jitter and pixel noise.

    Stands in for a small MNIST-style benchmark; amplitude (`contrast`) sets
    how much headroom an l_inf adversary has relative to the class signal.
    `shortcut_amp` additionally stamps a faint class-specific pattern of
    4x4-pixel blocks on every image: a perfectly predictive but non-robust
    feature (coarse enough to survive small crop shifts) that an adversary
    with epsilon >= shortcut_amp can erase or impersonate.

    Only the random draws run per image, in loop order: two jitter integers,
    then the image's noise. The arithmetic then runs once over the batch,
    each pixel getting the same operations in the same order as one image
    at a time would, so the bytes do not depend on the batching. The noise
    buffer is freed before quantizing, which then works in place: a live
    copy of the batch at that point raises the peak memory of every set-up.
    """
    check_bar_images(n, n_classes, shortcut_amp)
    rng = np.random.default_rng(seed)
    # class patterns come from their own stream so the image noise stream is
    # independent of whether the shortcut feature is enabled
    mask_rng = np.random.default_rng(seed + 1000003)
    block = 4
    grid = -(-size // block)
    coarse = (mask_rng.random((n_classes, grid, grid)) < 0.5).astype(np.float64)
    class_masks = np.kron(coarse, np.ones((block, block)))[:, :size, :size]
    labels = (np.arange(n) % n_classes).astype(np.int64)
    jitter = np.empty((n, 2), dtype=np.int64)
    noise = np.empty((n, size, size))
    for i in range(n):
        jitter[i, 0] = rng.integers(-1, 2)
        jitter[i, 1] = rng.integers(-1, 2)
        rng.standard_normal(out=noise[i])
    r = np.clip(1 + (labels % 5) * (size - 3) // 5 + jitter[:, 0], 0, size - 1)
    c = np.clip(2 + (labels // 5) * (size - 6) + jitter[:, 1], 0, size - 1)
    images = np.zeros((n, 1, size, size))
    img = images[:, 0]
    idx = np.arange(n)
    img[idx, r, :] += contrast
    img[idx, :, c] += contrast
    img += (shortcut_amp * class_masks)[labels]
    noise *= noise_sigma
    img += noise
    del noise
    np.clip(img, 0.0, 1.0, out=img)
    # quantize like an 8-bit image file would
    img *= 255.0
    np.round(img, out=img)
    img /= 255.0
    perm = rng.permutation(n)
    return Dataset(images[perm], labels[perm], f"bars{size}_c{n_classes}", n_classes)


# ---------------------------------------------------------------------------
# augmentation views
# ---------------------------------------------------------------------------

def _augment_once(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator,
                  is_image: bool) -> np.ndarray:
    n = x.shape[0]
    if is_image:
        _, c, h, w = x.shape
        s = spec.crop_shift_max_pixels
        if s > 0:
            # One (n, 2) draw equals n draws of size 2: numpy fills a bounded
            # integer array element by element from PCG64, rejections included,
            # so the shifts and the generator state after them are the same.
            # The erase loop below stays per sample: its draws are conditional
            # and interleave with random(). Window (s - dy, s - dx) of the
            # zero-padded batch is out[r, c] = x[r - dy, c - dx], 0 outside.
            d = rng.integers(-s, s + 1, size=(n, 2))
            padded = np.pad(x, ((0, 0), (0, 0), (s, s), (s, s)))
            out = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))[
                np.arange(n), :, s - d[:, 0], s - d[:, 1]]
        else:
            out = x.copy()
        if spec.horizontal_flip_prob > 0:
            flips = rng.random(n) < spec.horizontal_flip_prob
            out[flips] = out[flips][:, :, :, ::-1]
        if spec.erase_patch_prob > 0:
            p = spec.erase_patch_size
            for i in range(n):
                if rng.random() < spec.erase_patch_prob:
                    r = int(rng.integers(0, max(1, h - p)))
                    cc = int(rng.integers(0, max(1, w - p)))
                    out[i, :, r:r + p, cc:cc + p] = 0.0
        if spec.gaussian_noise_sigma > 0:
            out += rng.standard_normal(out.shape) * spec.gaussian_noise_sigma
        np.clip(out, 0.0, 1.0, out=out)
    else:
        out = x.copy()
        if spec.gaussian_noise_sigma > 0:
            out += rng.standard_normal(out.shape) * spec.gaussian_noise_sigma
        if spec.feature_dropout_prob > 0:
            keep = rng.random(out.shape) >= spec.feature_dropout_prob
            out *= keep
    return out


def make_views(x: np.ndarray, spec: AugmentSpec, seed: int):
    """Two independent augmentation draws of the same minibatch."""
    x = np.asarray(x, dtype=np.float64)
    is_image = x.ndim == 4
    if not is_image and x.ndim != 2:
        raise DataError("make_views expects (n, d) vectors or (n, c, h, w) images")
    if spec.is_identity():
        return x.copy(), x.copy()
    rng = np.random.default_rng(seed)
    xp = _augment_once(x, spec, rng, is_image)
    xpp = _augment_once(x, spec, rng, is_image)
    return xp, xpp


# ---------------------------------------------------------------------------
# splits and batching
# ---------------------------------------------------------------------------

def split(dataset: Dataset, fractions, seed: int):
    """Label-stratified split into len(fractions) disjoint datasets."""
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    parts = [[] for _ in fractions]
    for c in range(dataset.n_classes):
        idx = np.where(dataset.labels == c)[0]
        if len(idx) < len(fractions):
            raise DataError(f"class {c} has fewer samples than splits")
        idx = rng.permutation(idx)
        bounds = np.round(np.cumsum(fractions) * len(idx)).astype(int)
        start = 0
        for j, b in enumerate(bounds):
            parts[j].append(idx[start:b])
            start = b
    out = []
    names = [f"{dataset.name}_split{j}" for j in range(len(fractions))]
    for j, chunks in enumerate(parts):
        idx = np.sort(np.concatenate(chunks))
        if not len(idx):
            raise DataError(f"split part {j} ({names[j]}, fraction {fractions[j]}) "
                            "gets no rows")
        out.append(dataset.subset(idx, names[j]))
    return tuple(out)


def iter_batches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Shuffled minibatches; order is a pure function of (seed, epoch)."""
    rng = np.random.default_rng((seed, epoch))
    order = rng.permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start:start + batch_size]
        if len(idx) < 2:
            continue  # contrastive losses degenerate on singleton tails
        yield dataset.inputs[idx], dataset.labels[idx]
