"""Dataset ingestion, synthetic generators, augmentation views, and splits."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# the range of a pixel: images lie in it, and views and PGD clip images into it
PIXEL_BOX = (0.0, 1.0)


class DataError(Exception):
    pass


# bytes of float64 rows that `Dataset.fingerprint` decodes and hashes at a time
# (one row, where a row is larger)
_HASH_CHUNK_BYTES = 32 * 1024


class Dataset:
    """Samples and their labels, held in read-only arrays.

    Storage follows the dtype of `inputs`: an (n, c, h, w) uint8 array is
    taken as 8-bit pixel codes k and kept as it is, one byte per pixel,
    each read as float64(k) / 255.0; any other input is stored as float64.
    `rows` decodes only the rows asked for, and `inputs` decodes every row
    when read. The arrays are views, not copies, and read-only: the
    fingerprint is computed once, so a write through the dataset after
    hashing must raise, not go stale.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray, name: str, n_classes: int):
        x = np.asarray(inputs)
        if x.dtype != np.uint8 or x.ndim != 4:
            x = np.asarray(x, dtype=np.float64)
        self._x = x.view()
        self.labels = np.asarray(labels, dtype=np.int64).view()
        self._x.flags.writeable = False
        self.labels.flags.writeable = False
        self.name = name
        self.n_classes = n_classes
        self._fingerprint = None
        n = self.n
        if n < 1 or self.labels.shape != (n,):
            raise DataError("inputs/labels size mismatch")
        if self._x.size == 0:
            raise DataError(f"samples of shape {self.input_shape} hold no values")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise DataError("label out of range")
        if self._x.dtype == np.uint8:
            return  # codes decode to finite values in [0, 1]
        if not np.all(np.isfinite(self._x)):
            raise DataError("dataset contains non-finite values")
        if self.is_image and (self._x.min() < PIXEL_BOX[0] or self._x.max() > PIXEL_BOX[1]):
            raise DataError("image data must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self._x.shape[0]

    @property
    def is_image(self) -> bool:
        return self._x.ndim == 4

    @property
    def input_shape(self) -> tuple:
        return self._x.shape[1:]

    @property
    def inputs(self) -> np.ndarray:
        """Every row as one read-only float64 array, decoded on each read."""
        x = self.rows()
        x.flags.writeable = False
        return x

    def rows(self, idx=slice(None)) -> np.ndarray:
        """The float64 inputs of the rows `idx` (an index, a slice or an
        integer array), byte for byte `inputs[idx]`; only those rows are
        decoded."""
        x = self._x[idx]
        if x.dtype == np.uint8:
            x = x.astype(np.float64)
            x /= 255.0
        return x

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha256()
            # the float64 rows a chunk at a time (sha256 streams): the whole
            # inputs, decoded or as a tobytes() copy, would cost as much
            # memory as the float64 dataset
            step = max(1, _HASH_CHUNK_BYTES // (8 * self._x[0].size))
            for start in range(0, self.n, step):
                h.update(np.ascontiguousarray(self.rows(slice(start, start + step)),
                                              dtype="<f8"))
            h.update(np.ascontiguousarray(self.labels, dtype="<i8"))
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        """The rows `idx` (an integer array), gathered as they are stored:
        the subset of a coded dataset holds codes."""
        return Dataset(self._x[idx], self.labels[idx], name or self.name, self.n_classes)


@dataclass
class ViewBatch:
    """One minibatch's input arrays: the clean x, its two augmentation views
    and its adversarial x_adv. A loss wraps each array it reads."""
    x: np.ndarray
    x_prime: np.ndarray | None = None
    x_double_prime: np.ndarray | None = None
    y: np.ndarray | None = None
    x_adv: np.ndarray | None = None

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
        if self.crop_shift_max_pixels < 0:
            raise DataError("crop_shift_max_pixels must be >= 0")
        if self.erase_patch_size < 1:
            raise DataError("erase_patch_size must be >= 1")


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def load_idx(path_images, path_labels) -> Dataset:
    """Load an IDX image/label file pair; the dataset holds the file's pixel
    bytes as its codes, each read as k / 255 in [0, 1]."""
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
    return Dataset(images, labels, "idx", int(labels.max()) + 1)


def write_idx(dataset: Dataset, path_images, path_labels) -> None:
    if not dataset.is_image:
        raise DataError("write_idx requires image data")
    n, (c, h, w) = dataset.n, dataset.input_shape
    if c != 1:
        raise DataError("write_idx supports single-channel images")
    pixels = dataset._x  # the codes, or float64 values to round to codes
    if pixels.dtype != np.uint8:
        pixels = np.clip(np.round(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path_images, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(path_labels, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# CSV vectors: header "label,f0,f1,...", one row per sample
# ---------------------------------------------------------------------------

def load_csv(path) -> Dataset:
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
    return Dataset(feats, labels, "csv", int(labels.max()) + 1)


def write_csv(dataset: Dataset, path) -> None:
    if dataset.is_image:
        raise DataError("write_csv requires vector data")
    d = dataset.input_shape[0]
    with open(path, "w") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for y, row in zip(dataset.labels, dataset.inputs):
            f.write(str(int(y)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def check_synthetic(kind: str, n: int, dim: int, n_classes: int, separation: float) -> None:
    """Raise DataError unless `gen_synthetic` can generate these arguments."""
    if n < n_classes or n_classes < 2:
        raise DataError("need n >= n_classes >= 2")
    if dim < 1:
        raise DataError("need dim >= 1")
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
    if n < n_classes or not 2 <= n_classes <= 10:
        raise DataError("gen_bar_images supports 2 to 10 classes, n >= n_classes")
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


# images per block of `gen_bar_images`: its draw and arithmetic buffers
_BAR_BLOCK = 256


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

    The images are made in blocks of `_BAR_BLOCK`. For each block, only the
    random draws run per image, in loop order: two jitter integers, then the
    image's noise. The block's arithmetic then runs in one float64 block
    buffer, each pixel getting the same operations in the same order as one
    image at a time would, so the bytes depend neither on the batching nor
    on the block size. There the block is rounded to 8-bit codes, which go
    into its rows of the uint8 output (see `Dataset`). Held at once: the
    uint8 codes, one block's float64 buffers (image, noise and class-pattern
    gather) and, from the final permutation on, the permuted codes; at the
    fixture's 2500 16x16 images the traced peak is 3.1 MB, 0.6x the 5.12 MB
    the float64 images would take.
    """
    check_bar_images(n, n_classes, shortcut_amp)
    rng = np.random.default_rng(seed)
    # class patterns come from their own stream so the image noise stream is
    # independent of whether the shortcut feature is enabled
    mask_rng = np.random.default_rng(seed + 1000003)
    block = 4
    grid = -(-size // block)
    coarse = (mask_rng.random((n_classes, grid, grid)) < 0.5).astype(np.float64)
    stamps = shortcut_amp * np.kron(coarse, np.ones((block, block)))[:, :size, :size]
    labels = (np.arange(n) % n_classes).astype(np.int64)
    codes = np.empty((n, 1, size, size), dtype=np.uint8)
    rows = min(n, _BAR_BLOCK)
    jitter = np.empty((rows, 2), dtype=np.int64)
    noise = np.empty((rows, size, size))
    block_images = np.empty((rows, size, size))
    for start in range(0, n, _BAR_BLOCK):
        m = min(_BAR_BLOCK, n - start)
        for i in range(m):
            jitter[i, 0] = rng.integers(-1, 2)
            jitter[i, 1] = rng.integers(-1, 2)
            rng.standard_normal(out=noise[i])
        k = labels[start:start + m]
        r = np.clip(1 + (k % 5) * (size - 3) // 5 + jitter[:m, 0], 0, size - 1)
        c = np.clip(2 + (k // 5) * (size - 6) + jitter[:m, 1], 0, size - 1)
        img = block_images[:m]
        img.fill(0.0)
        idx = np.arange(m)
        img[idx, r, :] += contrast
        img[idx, :, c] += contrast
        img += stamps[k]
        noise[:m] *= noise_sigma
        img += noise[:m]
        np.clip(img, *PIXEL_BOX, out=img)
        # quantize like an 8-bit image file would: integral values in [0, 255]
        img *= 255.0
        np.round(img, out=img)
        codes[start:start + m, 0] = img
    perm = rng.permutation(n)
    return Dataset(codes[perm], labels[perm], f"bars{size}_c{n_classes}", n_classes)


# ---------------------------------------------------------------------------
# augmentation views
# ---------------------------------------------------------------------------

def _add_noise(out: np.ndarray, sigma: float, rng: np.random.Generator) -> None:
    """out += sigma * N(0, 1), drawn and scaled in one batch-sized buffer."""
    if sigma > 0:
        noise = rng.standard_normal(out.shape)
        noise *= sigma
        out += noise


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
        _add_noise(out, spec.gaussian_noise_sigma, rng)
        np.clip(out, *PIXEL_BOX, out=out)
    else:
        out = x.copy()
        _add_noise(out, spec.gaussian_noise_sigma, rng)
        if spec.feature_dropout_prob > 0:
            keep = rng.random(out.shape) >= spec.feature_dropout_prob
            out *= keep
    return out


def make_views(x: np.ndarray, spec: AugmentSpec, seed: int):
    """Two independent augmentation draws of the same minibatch. With every
    augmentation at zero, each view is a copy of `x` (images are clipped to
    [0, 1], where a `Dataset` keeps them)."""
    x = np.asarray(x, dtype=np.float64)
    is_image = x.ndim == 4
    if not is_image and x.ndim != 2:
        raise DataError("make_views expects (n, d) vectors or (n, c, h, w) images")
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
        yield dataset.rows(idx), dataset.labels[idx]
