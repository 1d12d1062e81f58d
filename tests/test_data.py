import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from robustcl.data import (_BAR_BLOCK, IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, AugmentSpec,
                           DataError, Dataset, ViewBatch, gen_bar_images, gen_synthetic,
                           iter_batches, load_csv, load_idx, make_views, split,
                           write_csv, write_idx)


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

    def test_roundtrip_of_codes_is_byte_exact(self, tmp_path):
        ds = gen_bar_images(300, size=8, n_classes=4, seed=3, shortcut_amp=0.08)
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        write_idx(ds, ip, lp)
        assert ip.read_bytes()[16:] == np.round(ds.inputs * 255.0).astype(np.uint8).tobytes()
        loaded = load_idx(ip, lp)
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()
        assert loaded._x.dtype == np.uint8
        write_idx(loaded, tmp_path / "img2", tmp_path / "lbl2")
        assert (tmp_path / "img2").read_bytes() == ip.read_bytes()

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

    @pytest.mark.parametrize("name, damage, match", [
        ("img", lambda b: b[:15], "truncated IDX image file"),
        ("img", lambda b: b[:3] + bytes([b[3] ^ 0xFF]) + b[4:], "bad IDX image magic"),
        ("img", lambda b: b[:-5], "truncated IDX image payload"),
        ("lbl", lambda b: b[:7], "truncated IDX label file"),
        ("lbl", lambda b: b[:3] + bytes([b[3] ^ 0xFF]) + b[4:], "bad IDX label magic"),
        ("lbl", lambda b: b[:-1], "truncated IDX label payload"),
    ])
    def test_damaged_files(self, tmp_path, name, damage, match):
        write_idx(gen_bar_images(4, size=8, n_classes=2, seed=0),
                  tmp_path / "img", tmp_path / "lbl")
        path = tmp_path / name
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match=match):
            load_idx(tmp_path / "img", tmp_path / "lbl")

    def test_write_requires_single_channel_images(self, tmp_path, gauss_data):
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        with pytest.raises(DataError, match="requires image data"):
            write_idx(gauss_data, ip, lp)
        rgb = Dataset(np.zeros((2, 3, 4, 4)), np.array([0, 1]), "rgb", 2)
        with pytest.raises(DataError, match="single-channel"):
            write_idx(rgb, ip, lp)
        assert not ip.exists() and not lp.exists()

    def test_zero_images(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 8, 8))
        lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 0))
        with pytest.raises(DataError, match="holds no images") as exc:
            load_idx(ip, lp)
        assert str(ip) in str(exc.value)

    def test_images_of_zero_rows_hold_no_values(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lbl"
        ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 3, 0, 8))
        lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 3) + bytes([0, 1, 0]))
        with pytest.raises(DataError, match=r"samples of shape \(1, 0, 8\) hold no values"):
            load_idx(ip, lp)


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

    def test_write_requires_vectors(self, tmp_path):
        with pytest.raises(DataError, match="requires vector data"):
            write_csv(gen_bar_images(4, size=8, n_classes=2, seed=0), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_a_label_column_alone_holds_no_values(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label\n0\n1\n")
        with pytest.raises(DataError, match=r"samples of shape \(0,\) hold no values"):
            load_csv(p)


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

    @pytest.mark.parametrize("kind, dim, n_classes, separation, match", [
        ("blobs_k", 5, 3, 0.0, "separation must be positive"),
        ("two_gaussians", 5, 3, 4.0, "two_gaussians requires n_classes == 2"),
        ("rings", 1, 2, 4.0, "rings requires dim >= 2"),
    ])
    def test_invalid_kind_arguments(self, kind, dim, n_classes, separation, match):
        with pytest.raises(DataError, match=match):
            gen_synthetic(kind, 30, dim, n_classes, seed=0, separation=separation)

    @pytest.mark.parametrize("n, n_classes", [(20, 1), (20, 11), (5, 10)])
    def test_bar_images_class_count_rejected(self, n, n_classes):
        with pytest.raises(DataError, match="supports 2 to 10 classes"):
            gen_bar_images(n, n_classes=n_classes)

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
        # with every augmentation at zero, both views are copies of the batch
        spec = AugmentSpec(gaussian_noise_sigma=0, feature_dropout_prob=0,
                           crop_shift_max_pixels=0, horizontal_flip_prob=0,
                           erase_patch_prob=0)
        for x in (rng.random((10, 1, 8, 8)), rng.standard_normal((10, 20))):
            xp, xpp = make_views(x, spec, seed=0)
            assert xp.tobytes() == x.tobytes() and xpp.tobytes() == x.tobytes()
            assert xp is not x and xpp is not x

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

    def test_negative_noise_sigma(self):
        with pytest.raises(DataError, match="noise sigma"):
            AugmentSpec(gaussian_noise_sigma=-0.1)

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 3), (1, 1, 2, 2, 2)])
    def test_views_need_vectors_or_images(self, shape):
        with pytest.raises(DataError, match="make_views expects"):
            make_views(np.zeros(shape), AugmentSpec(), seed=0)


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
    if (spec.gaussian_noise_sigma, spec.crop_shift_max_pixels, spec.horizontal_flip_prob,
            spec.erase_patch_prob) == (0, 0, 0, 0):
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


def _whole_batch_bar_images(n, size=16, n_classes=10, seed=0, contrast=0.45,
                            noise_sigma=0.12, shortcut_amp=0.0):
    """The bar-image generator over the whole batch at once, as it was before
    it ran in blocks: the oracle for the block boundaries of
    `data.gen_bar_images`."""
    rng = np.random.default_rng(seed)
    mask_rng = np.random.default_rng(seed + 1000003)
    grid = -(-size // 4)
    coarse = (mask_rng.random((n_classes, grid, grid)) < 0.5).astype(np.float64)
    class_masks = np.kron(coarse, np.ones((4, 4)))[:, :size, :size]
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
    np.clip(img, 0.0, 1.0, out=img)
    img *= 255.0
    np.round(img, out=img)
    img /= 255.0
    perm = rng.permutation(n)
    return Dataset(images[perm], labels[perm], f"bars{size}_c{n_classes}", n_classes)


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

    @pytest.mark.parametrize("n", [10, _BAR_BLOCK - 1, _BAR_BLOCK, _BAR_BLOCK + 1,
                                   2 * _BAR_BLOCK + 3])
    @pytest.mark.parametrize("size", [8, 16])
    def test_blocks_equal_the_whole_batch(self, n, size):
        for amp in (0.0, 0.08):
            for seed in (0, 7):
                kw = dict(size=size, n_classes=10, seed=seed, shortcut_amp=amp)
                ds, want = gen_bar_images(n, **kw), _whole_batch_bar_images(n, **kw)
                assert ds.inputs.tobytes() == want.inputs.tobytes(), (n, kw)
                assert ds.labels.tobytes() == want.labels.tobytes(), (n, kw)
                assert ds.name == want.name

    def test_fixture_peaks_below_two_and_a_half_outputs(self):
        """The output, its permuted copy and one block's buffers: a noise
        buffer of the whole batch would make it 3.2x."""
        from robustcl import directional, experiment

        cfg = directional.fixture_config()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ds = experiment.build_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert ds.n == 2500
        assert peak < 2.5 * ds.inputs.nbytes

    def test_fixture_fingerprint_is_pinned(self):
        from robustcl import directional, experiment

        ds = experiment.build_dataset(directional.fixture_config())
        assert ds.fingerprint() == "338056a0914c3e5c"

    def test_split_fingerprints_are_pinned(self):
        from robustcl import directional, experiment

        cfg = directional.fixture_config()
        d_p, d_f, test = experiment.build_splits(cfg, experiment.build_dataset(cfg))
        assert d_f is d_p
        assert (d_p.fingerprint(), test.fingerprint()) == ("c3c002e79eda50fe",
                                                           "d67a7352e36c6a53")

    def test_fixture_and_splits_peak_below_the_float64_dataset(self):
        """Codes, their permuted copy, one block's float64 buffers and the
        split's gathered codes: 2500 float64 16x16 images alone are 5.12 MB."""
        from robustcl import directional, experiment

        cfg = directional.fixture_config()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            splits = experiment.build_splits(cfg, experiment.build_dataset(cfg))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sum(d.n for d in splits[1:]) == 2500
        assert peak < 2500 * 256 * 8


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


@pytest.mark.parametrize("n, batch_size, sizes", [(7, 3, [3, 3]), (9, 4, [4, 4]),
                                                  (8, 3, [3, 3, 2])])
def test_iter_batches_skips_a_tail_of_one(n, batch_size, sizes):
    ds = gen_synthetic("blobs_k", n, 2, 2, seed=0)
    batches = list(iter_batches(ds, batch_size, seed=1, epoch=0))
    assert [len(y) for _, y in batches] == sizes
    rows = np.concatenate([x for x, _ in batches])
    assert len(np.unique(rows, axis=0)) == sum(sizes)


class TestDatasetFingerprint:
    def test_arrays_are_read_only_views(self):
        x, y = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = Dataset(x, y, "ro", 2)
        assert np.shares_memory(ds.inputs, x) and np.shares_memory(ds.labels, y)
        with pytest.raises(ValueError, match="read-only"):
            ds.inputs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1

    def test_subset_is_a_read_only_copy(self, gauss_data):
        idx = np.array([3, 1, 4])
        part = gauss_data.subset(idx)
        for got, parent in ((part.inputs, gauss_data.inputs), (part.labels, gauss_data.labels)):
            assert np.array_equal(got, parent[idx])
            assert not np.shares_memory(got, parent)
            assert not got.flags.writeable

    def test_hashes_once(self, monkeypatch):
        import hashlib

        ds = gen_bar_images(20, size=8, n_classes=2, seed=0)
        sha256, calls = hashlib.sha256, []
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(1) or sha256(*a))
        first = ds.fingerprint()
        assert ds.fingerprint() == first and len(calls) == 1
        assert ds.subset(np.arange(ds.n)).fingerprint() == first and len(calls) == 2


    def test_hashes_the_buffers_without_copying_them(self):
        ds = gen_bar_images(2000, size=16, n_classes=10, seed=0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = ds.fingerprint()
            allocated = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert allocated < 64 * 1024  # the inputs alone are 4.1 MB
        want = hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest()[:16]
        assert got == want


class TestPixelCodes:
    """An (n, c, h, w) uint8 array is held as 8-bit codes k, read as k / 255."""

    def test_every_code_decodes_to_its_float64_quotient(self):
        codes = np.arange(256, dtype=np.uint8).reshape(64, 1, 2, 2)
        ds = Dataset(codes, np.zeros(64, dtype=int), "codes", 1)
        want = codes.astype(np.float64) / 255.0
        assert ds.inputs.dtype == np.float64 and ds.inputs.tobytes() == want.tobytes()
        assert not ds.inputs.flags.writeable
        assert ds.inputs.min() == 0.0 and ds.inputs.max() == 1.0

    @pytest.mark.parametrize("idx", [np.array([5, 0, 7, 7, 299]), np.arange(300)[::-3],
                                     slice(3, 9), slice(290, 400), slice(None), 4, -1],
                             ids=["array", "reversed", "slice", "tail", "all", "row", "last"])
    @pytest.mark.parametrize("coded", [True, False], ids=["codes", "float64"])
    def test_rows_equal_inputs_byte_for_byte(self, idx, coded):
        ds = gen_bar_images(300, size=8, n_classes=4, seed=1)
        if not coded:
            ds = Dataset(ds.inputs, ds.labels, ds.name, ds.n_classes)
        got, want = ds.rows(idx), ds.inputs[idx]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_subset_and_split_keep_one_byte_per_pixel(self):
        ds = gen_bar_images(500, size=8, n_classes=5, seed=2)
        parts = split(ds, (0.6, 0.4), seed=0) + (ds.subset(np.array([9, 2, 2])),)
        for part in (ds,) + parts:
            assert part._x.dtype == np.uint8 and part._x.nbytes == part.n * 64
        merged = np.concatenate([p.inputs for p in parts[:2]])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.inputs, axis=0))
        assert parts[2].inputs.tobytes() == ds.inputs[[9, 2, 2]].tobytes()

    def test_other_inputs_are_stored_as_float64(self):
        for x in (np.arange(6, dtype=np.uint8).reshape(3, 2),
                  np.zeros((2, 1, 2, 2), dtype=np.float32), np.zeros((2, 1, 2, 2), dtype=int)):
            ds = Dataset(x, np.zeros(len(x), dtype=int), "f", 1)
            assert ds._x.dtype == np.float64
            assert ds.inputs.tobytes() == x.astype(np.float64).tobytes()
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            Dataset(np.full((2, 1, 2, 2), 255, dtype=np.int16), np.zeros(2, dtype=int), "f", 1)


class TestViewBatch:
    def test_members_must_share_the_leading_dimension(self):
        x = np.zeros((4, 3))
        for short in ("x_prime", "x_double_prime", "x_adv"):
            with pytest.raises(DataError, match="leading dimension"):
                ViewBatch(x, **{short: x[1:]})

    def test_labels_must_count_the_rows(self):
        with pytest.raises(DataError, match="label count"):
            ViewBatch(np.zeros((4, 3)), y=np.zeros(3, dtype=np.int64))


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
