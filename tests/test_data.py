import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from robustcl.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, AugmentSpec,
                           DataError, Dataset, gen_bar_images, gen_synthetic,
                           load_csv, load_idx, make_views, split, write_csv,
                           write_idx)


class TestIdx:
    def test_roundtrip_fixture(self, tmp_path):
        ds = gen_bar_images(4, size=28, n_classes=4, seed=0)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        loaded = load_idx(ip, lp)
        assert loaded.n == 4
        assert loaded.input_shape == (1, 28, 28)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.allclose(loaded.inputs, ds.inputs, atol=1 / 510)

    def test_pixel_scaling(self, tmp_path):
        ds = Dataset(np.ones((1, 1, 2, 2)), np.array([0]), "one", 1)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        assert load_idx(ip, lp).inputs.max() == 1.0

    def test_count_mismatch(self, tmp_path):
        ds = gen_bar_images(4, size=8, n_classes=2, seed=0)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        ds2 = gen_bar_images(6, size=8, n_classes=2, seed=0)
        lp2 = tmp_path / "lbl2"
        write_idx(ds2, tmp_path / "img2", lp2)
        with pytest.raises(DataError, match="mismatch"):
            load_idx(ip, lp2)

    def test_bad_magic(self, tmp_path):
        ds = gen_bar_images(4, size=8, n_classes=2, seed=0)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        blob = bytearray(ip.read_bytes())
        blob[3] ^= 0xFF
        ip.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_idx(ip, lp)

    def test_truncation(self, tmp_path):
        ds = gen_bar_images(4, size=8, n_classes=2, seed=0)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_idx(ip, lp)

    def test_zero_images(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 8, 8))
        lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 0))
        with pytest.raises(DataError, match="holds no images") as exc:
            load_idx(ip, lp)
        assert str(ip) in str(exc.value)


class TestCsv:
    def test_roundtrip(self, tmp_path, gauss_data):
        p = tmp_path / "d.csv"
        write_csv(gauss_data, p)
        loaded = load_csv(p)
        assert np.array_equal(loaded.labels, gauss_data.labels)
        assert np.allclose(loaded.inputs, gauss_data.inputs)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p)

    @pytest.mark.parametrize("text, match", [
        ("label,f0,f1\n", "holds no samples"),
        ("label,f0,f1\n0,1.0,2.0\n1,3.0\n", "malformed CSV file"),
    ], ids=["header-only", "ragged"])
    def test_malformed_file_names_itself(self, tmp_path, text, match):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=match) as exc:
            load_csv(p)
        assert str(p) in str(exc.value)


class TestSynthetic:
    def test_determinism(self):
        a = gen_synthetic("two_gaussians", 100, 5, 2, seed=3, separation=4.0)
        b = gen_synthetic("two_gaussians", 100, 5, 2, seed=3, separation=4.0)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_two_gaussians_separation(self):
        ds = gen_synthetic("two_gaussians", 4000, 10, 2, seed=0, separation=8.0)
        m0 = ds.inputs[ds.labels == 0, 0].mean()
        m1 = ds.inputs[ds.labels == 1, 0].mean()
        assert abs(m0 + 4.0) < 0.2 and abs(m1 - 4.0) < 0.2
        # Bayes accuracy Phi(separation/2) is essentially 1 at this
        # separation, so a bare threshold on the first coordinate works
        acc = ((ds.inputs[:, 0] > 0).astype(int) == ds.labels).mean()
        assert acc >= 0.99

    def test_blobs_round_robin(self):
        ds = gen_synthetic("blobs_k", 1000, 5, 10, seed=0)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(counts == 100)

    def test_rings_radii(self):
        ds = gen_synthetic("rings", 500, 2, 2, seed=0, separation=4.0)
        r = np.linalg.norm(ds.inputs, axis=1)
        assert r[ds.labels == 1].mean() > r[ds.labels == 0].mean() + 1.0

    def test_invalid_args(self):
        with pytest.raises(DataError):
            gen_synthetic("two_gaussians", 1, 5, 2, seed=0)
        with pytest.raises(DataError):
            gen_synthetic("nope", 10, 5, 2, seed=0)

    def test_bar_images_range_and_determinism(self):
        a = gen_bar_images(50, size=16, n_classes=10, seed=1)
        b = gen_bar_images(50, size=16, n_classes=10, seed=1)
        assert np.array_equal(a.inputs, b.inputs)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0

    def test_bar_images_shortcut_is_class_predictive(self):
        # with bars and noise off, the per-class pattern alone must separate
        # the classes via template correlation
        amp = 0.05
        ds = gen_bar_images(200, size=16, n_classes=10, seed=3,
                            contrast=0.0, noise_sigma=0.0, shortcut_amp=amp)
        coarse = (np.random.default_rng(3 + 1000003).random((10, 4, 4)) < 0.5)
        masks = np.kron(coarse.astype(float), np.ones((4, 4)))
        templates = masks - masks.mean(axis=(1, 2), keepdims=True)
        scores = np.einsum("nchw,khw->nk", ds.inputs, templates)
        acc = (np.argmax(scores, axis=1) == ds.labels).mean()
        assert acc == 1.0

    def test_bar_images_shortcut_determinism_and_range(self):
        a = gen_bar_images(50, seed=2, shortcut_amp=0.04)
        b = gen_bar_images(50, seed=2, shortcut_amp=0.04)
        assert np.array_equal(a.inputs, b.inputs)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
        assert not np.array_equal(a.inputs, gen_bar_images(50, seed=2).inputs)

    def test_bar_images_negative_shortcut_rejected(self):
        with pytest.raises(DataError, match="shortcut"):
            gen_bar_images(20, shortcut_amp=-0.1)


class TestViews:
    def test_identity_spec(self, rng):
        x = rng.random((10, 1, 8, 8))
        spec = AugmentSpec(gaussian_noise_sigma=0, feature_dropout_prob=0,
                           crop_shift_max_pixels=0, horizontal_flip_prob=0,
                           erase_patch_prob=0)
        xp, xpp = make_views(x, spec, seed=0)
        assert np.array_equal(xp, x) and np.array_equal(xpp, x)

    def test_seed_determinism(self, rng):
        x = rng.random((10, 1, 8, 8))
        spec = AugmentSpec()
        a = make_views(x, spec, seed=5)
        b = make_views(x, spec, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_views_differ(self, rng):
        x = rng.random((10, 1, 8, 8))
        xp, xpp = make_views(x, AugmentSpec(), seed=0)
        assert not np.array_equal(xp, xpp)

    def test_noise_magnitude_half_normal(self, rng):
        # vectors, noise only: mean |x' - x| ~ sigma * sqrt(2/pi)
        x = rng.random((1000, 20))
        spec = AugmentSpec(gaussian_noise_sigma=0.1, feature_dropout_prob=0)
        xp, _ = make_views(x, spec, seed=0)
        mean_abs = np.abs(xp - x).mean()
        expected = 0.1 * np.sqrt(2 / np.pi)
        assert abs(mean_abs - expected) / expected < 0.2

    def test_images_clamped(self, rng):
        x = rng.random((50, 1, 8, 8))
        spec = AugmentSpec(gaussian_noise_sigma=0.5)
        xp, xpp = make_views(x, spec, seed=0)
        for v in (xp, xpp):
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_invalid_probability(self):
        with pytest.raises(DataError):
            AugmentSpec(horizontal_flip_prob=1.5)


def _oracle_augment_once(x, spec, rng):
    """One image view with the crop shift drawn and applied one sample at a
    time (roll, then zero what wrapped around): the oracle for the batched
    gather in `data._augment_once`. Flip, erase and noise as there."""
    out = x.copy()
    n, _, h, w = out.shape
    s = spec.crop_shift_max_pixels
    if s > 0:
        for i in range(n):
            dy, dx = rng.integers(-s, s + 1, size=2)
            out[i] = np.roll(out[i], (int(dy), int(dx)), axis=(1, 2))
            if dy > 0:
                out[i, :, :dy, :] = 0
            elif dy < 0:
                out[i, :, dy:, :] = 0
            if dx > 0:
                out[i, :, :, :dx] = 0
            elif dx < 0:
                out[i, :, :, dx:] = 0
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
    return out


def _oracle_views(x, spec, seed):
    if spec.is_identity():
        return x.copy(), x.copy()
    rng = np.random.default_rng(seed)
    return _oracle_augment_once(x, spec, rng), _oracle_augment_once(x, spec, rng)


class TestViewsOracle:
    SHAPES = [(1, 1, 8, 8), (1, 3, 8, 12), (5, 1, 12, 8), (16, 3, 16, 12), (33, 1, 16, 16)]

    # s = 17 shifts some samples by at least the image height: all zeros
    @pytest.mark.parametrize("s", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("flip,erase", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.3), (0.5, 0.3)])
    def test_views_are_byte_equal_to_the_per_sample_loop(self, s, flip, erase):
        for seed in range(40):
            shape = self.SHAPES[seed % len(self.SHAPES)]
            x = np.random.default_rng(1000 + seed).random(shape)
            spec = AugmentSpec(gaussian_noise_sigma=0.1 * (seed % 2),
                               crop_shift_max_pixels=s, horizontal_flip_prob=flip,
                               erase_patch_prob=erase)
            got = make_views(x, spec, seed=seed)
            want = _oracle_views(x, spec, seed)
            for g, o in zip(got, want):
                assert g.shape == o.shape and g.dtype == o.dtype
                assert g.tobytes() == o.tobytes(), (seed, shape)

    def test_shift_only_copies_and_zeroes(self):
        # noise, flips and erase off: every pixel of a view is a source
        # pixel at (r - dy, c - dx) or 0, with one shift per sample
        x = np.random.default_rng(0).random((64, 2, 8, 12)) + 1.0
        spec = AugmentSpec(gaussian_noise_sigma=0, crop_shift_max_pixels=3,
                           horizontal_flip_prob=0, erase_patch_prob=0)
        view = make_views(x / 2.0, spec, seed=4)[0] * 2.0
        d = np.random.default_rng(4).integers(-3, 4, size=(64, 2))
        for i, (dy, dx) in enumerate(d):
            want = np.zeros_like(x[i])
            rows = slice(max(dy, 0), 8 + min(dy, 0))
            cols = slice(max(dx, 0), 12 + min(dx, 0))
            want[:, rows, cols] = x[i, :, max(-dy, 0):8 - max(dy, 0),
                                    max(-dx, 0):12 - max(dx, 0)]
            assert np.array_equal(view[i], want), (i, dy, dx)


def _oracle_bar_images(n, size=16, n_classes=10, seed=0, contrast=0.45,
                       noise_sigma=0.12, shortcut_amp=0.0):
    """The bar-image generator one image at a time: the oracle for the
    batched arithmetic in `data.gen_bar_images`."""
    rng = np.random.default_rng(seed)
    mask_rng = np.random.default_rng(seed + 1000003)
    grid = -(-size // 4)
    coarse = (mask_rng.random((n_classes, grid, grid)) < 0.5).astype(np.float64)
    class_masks = np.kron(coarse, np.ones((4, 4)))[:, :size, :size]
    labels = (np.arange(n) % n_classes).astype(np.int64)
    images = np.zeros((n, 1, size, size))
    for i, k in enumerate(labels):
        img = np.zeros((size, size))
        r = 1 + (k % 5) * (size - 3) // 5
        c = 2 + (k // 5) * (size - 6)
        jr = int(rng.integers(-1, 2))
        jc = int(rng.integers(-1, 2))
        r = int(np.clip(r + jr, 0, size - 1))
        c = int(np.clip(c + jc, 0, size - 1))
        img[r, :] += contrast
        img[:, c] += contrast
        img += shortcut_amp * class_masks[k]
        img += rng.standard_normal((size, size)) * noise_sigma
        images[i, 0] = np.clip(img, 0.0, 1.0)
    images = np.round(images * 255.0) / 255.0
    perm = rng.permutation(n)
    return images[perm], labels[perm]


class TestBarImagesOracle:
    # size 3 pushes the column bar of classes 5-9 below 0, so the clip acts
    @pytest.mark.parametrize("size", [3, 8, 12, 16, 20, 28])
    @pytest.mark.parametrize("n_classes", [2, 7, 10])
    def test_bytes_equal_the_per_image_loop(self, size, n_classes):
        cases = [
            # (n, seed, contrast, noise_sigma, shortcut_amp)
            (n_classes, 0, 0.45, 0.12, 0.0),
            (n_classes, 5, 0.45, 0.12, 0.3),
            (3 * n_classes + 1, 1, 0.45, 0.12, 0.04),
            (40, 2, 0.0, 0.12, 0.04),
            (40, 3, 0.45, 0.0, 0.3),
            (40, 4, 0.0, 0.0, 0.0),
            (57, 11, 0.9, 0.5, 0.08),
        ]
        for n, seed, contrast, noise_sigma, amp in cases:
            kw = dict(size=size, n_classes=n_classes, seed=seed, contrast=contrast,
                      noise_sigma=noise_sigma, shortcut_amp=amp)
            ds = gen_bar_images(n, **kw)
            x, y = _oracle_bar_images(n, **kw)
            assert ds.inputs.dtype == x.dtype and ds.inputs.shape == x.shape
            assert ds.inputs.tobytes() == x.tobytes(), (n, kw)
            assert ds.labels.tobytes() == y.tobytes(), (n, kw)
            assert (ds.name, ds.n_classes) == (f"bars{size}_c{n_classes}", n_classes)

    def test_fixture_fingerprint_is_pinned(self):
        from robustcl import directional, experiment

        ds = experiment.build_dataset(directional.fixture_config())
        assert ds.fingerprint() == "338056a0914c3e5c"


@pytest.mark.parametrize("lo,hi", [(-2, 3), (-17, 18), (-5, 3 * 2**30)])
@pytest.mark.parametrize("n", [1, 2, 7, 128])
def test_one_bounded_draw_equals_per_sample_draws(lo, hi, n):
    # the contract the batched crop shift rests on; [-5, 3 * 2**30) rejects
    # about a quarter of the 32-bit draws on numpy's Lemire path
    for seed in range(30):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        d = batched.integers(lo, hi, size=(n, 2))
        want = np.stack([single.integers(lo, hi, size=2) for _ in range(n)])
        assert np.array_equal(d, want)
        assert batched.bit_generator.state == single.bit_generator.state
        assert batched.random() == single.random()
        assert batched.integers(0, 7, size=3).tolist() == single.integers(0, 7, size=3).tolist()


class TestSplit:
    def test_sizes_and_stratification(self):
        ds = gen_synthetic("blobs_k", 1000, 4, 10, seed=0)
        a, b, c = split(ds, (0.8, 0.1, 0.1), seed=0)
        assert (a.n, b.n, c.n) == (800, 100, 100)
        for part, frac in ((a, 0.8), (b, 0.1), (c, 0.1)):
            counts = np.bincount(part.labels, minlength=10)
            assert np.all(np.abs(counts - frac * 100) <= 1)

    def test_determinism(self, gauss_data):
        a1, b1 = split(gauss_data, (0.7, 0.3), seed=9)
        a2, b2 = split(gauss_data, (0.7, 0.3), seed=9)
        assert np.array_equal(a1.inputs, a2.inputs)
        assert np.array_equal(b1.labels, b2.labels)

    def test_union_is_original_multiset(self, gauss_data):
        parts = split(gauss_data, (0.5, 0.3, 0.2), seed=0)
        merged = np.concatenate([p.inputs for p in parts])
        assert np.array_equal(np.sort(merged, axis=0),
                              np.sort(gauss_data.inputs, axis=0))

    def test_fractions_must_sum(self, gauss_data):
        with pytest.raises(DataError):
            split(gauss_data, (0.5, 0.2), seed=0)

    def test_a_part_that_rounds_to_no_rows_is_named(self, gauss_data):
        # 0.0005 of each 500-row class rounds to 0 rows
        with pytest.raises(DataError, match=r"split part 1 \(.*_split1, fraction 0.0005\) "
                                            "gets no rows"):
            split(gauss_data, (0.9995, 0.0005), seed=0)

    def test_too_few_samples_per_class(self):
        ds = gen_synthetic("blobs_k", 10, 3, 10, seed=0)
        with pytest.raises(DataError):
            split(ds, (0.4, 0.3, 0.3), seed=0)


class TestDatasetFingerprint:
    def test_arrays_are_read_only_views(self):
        x, y = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = Dataset(x, y, "ro", 2)
        assert np.shares_memory(ds.inputs, x) and np.shares_memory(ds.labels, y)
        with pytest.raises(ValueError, match="read-only"):
            ds.inputs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1

    def test_hashes_once(self, monkeypatch):
        import hashlib

        ds = gen_bar_images(20, size=8, n_classes=2, seed=0)
        sha256, calls = hashlib.sha256, []
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(1) or sha256(*a))
        first = ds.fingerprint()
        assert ds.fingerprint() == first and len(calls) == 1
        assert ds.subset(np.arange(ds.n)).fingerprint() == first and len(calls) == 2


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError):
        Dataset(np.array([[np.inf]]), np.array([0]), "bad", 1)


def test_dataset_rejects_bad_labels():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3)), np.array([0, 5]), "bad", 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_views_preserve_alignment(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((8, 20))
    spec = AugmentSpec(gaussian_noise_sigma=0.05, feature_dropout_prob=0.2)
    xp, xpp = make_views(x, spec, seed=seed)
    assert xp.shape == x.shape and xpp.shape == x.shape
    # each view row stays close to its source row (positive-pair integrity)
    for i in range(8):
        assert np.linalg.norm(xp[i] - x[i]) <= np.linalg.norm(x[i]) + 1.0
