import copy
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import project_linf
from robustcl import attacks, losses, models, training
from robustcl import tensor as T
from robustcl.attacks import AttackError, AttackSpec, pgd
from robustcl.data import ViewBatch
from robustcl.losses import LossConfig
from robustcl.models import EncoderConfig
from robustcl.tensor import GradientTape, Tensor
from robustcl.training import ScenarioSpec


def make_batch(rng, model, n=6, n_classes=2, shape=(20,)):
    """n samples of `shape`; (1, 4, 5) draws the same values as an image
    batch, which pgd clips into the pixel box (the encoder flattens it)."""
    x = rng.random((n, *shape))
    y = rng.integers(0, n_classes, size=n)
    return ViewBatch(x=x, y=y)


@pytest.fixture(scope="module")
def st_model(gauss_splits):
    """A briefly standard-trained model so driving losses have signal."""
    d_train, _ = gauss_splits
    cfg = EncoderConfig((16, 8, 4), (20,))
    m = models.init_model(cfg, 2, 4, seed=0)
    spec = ScenarioSpec(scenario="ST", scheme="SL", finetune_epochs=10,
                        batch_size=128,
                        optimizer=training.OptimizerConfig(lr=3e-3),
                        loss=LossConfig(scheme="SL"), seed=0)
    training.run_scenario(m, d_train, d_train, spec)
    return m


class TestProject:
    def test_inside_ball_unchanged(self, rng):
        x0 = rng.random((5, 4))
        x = x0 + 0.05
        assert np.array_equal(project_linf(x0, x, 0.1), x)

    def test_clip_arithmetic(self):
        out = project_linf(np.array([0.5]), np.array([0.9]), 0.1)
        assert out[0] == pytest.approx(0.6)

    def test_idempotent_on_random_points(self, rng):
        x0 = rng.random(1000)
        x = x0 + rng.standard_normal(1000)
        once = project_linf(x0, x, 0.07, clamp=(0.0, 1.0))
        twice = project_linf(x0, once, 0.07, clamp=(0.0, 1.0))
        assert np.array_equal(once, twice)

    def test_shape_mismatch(self):
        with pytest.raises(AttackError):
            project_linf(np.zeros(3), np.zeros(4), 0.1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-2.0, 3.0)),
                min_size=1, max_size=16),
       st.floats(0.0, 0.5))
@example([(1.5, 0.7), (-0.3, 0.2), (1.05, 1.2), (-0.02, -1.0)], 0.1)  # x0 outside [0, 1]
@example([(0.5, 0.9), (0.98, 1.5), (0.01, -0.5)], 0.03)
@example([(0.0, -0.0)], 0.5)
def test_clamped_ball_bounds_clip_like_ball_then_box(pairs, epsilon):
    """pgd clips once, into clip(x0 -+ eps, 0, 1): for x0 inside [0, 1] or
    not, that is bitwise the ball clip followed by the box clip, except
    for the sign of a zero when x or x0 holds -0.0 (np.clip keeps -0.0 at
    a scalar bound of 0.0 but not at an array one). A PGD iterate holds
    -0.0 only where its clean batch does."""
    x0, x = np.array(pairs).T
    lo = np.clip(x0 - epsilon, 0.0, 1.0)
    hi = np.clip(x0 + epsilon, 0.0, 1.0)
    once, twice = np.clip(x, lo, hi), project_linf(x0, x, epsilon, clamp=(0.0, 1.0))
    assert np.array_equal(once, twice)
    if not (np.signbit(np.concatenate([x0, x])) & (np.concatenate([x0, x]) == 0.0)).any():
        assert once.tobytes() == twice.tobytes()


_SIGN_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SIGN_EDGES), st.floats(allow_nan=False)),
                max_size=64),
       st.integers(0, 2**32 - 1),
       st.sampled_from([2.5 * 8 / 255 / 20, 0.01, 0.5, 1.0, 5e-324, 1e308]))
@example(_SIGN_EDGES, 0, 0.01)
def test_signed_step_writes_the_bytes_of_alpha_times_sign(values, seed, alpha):
    """The step is alpha * np.sign(g) to the byte: +-alpha, and +0.0 at
    +0.0 and at -0.0 (copysign alone would give -alpha at -0.0)."""
    g = np.concatenate([values, np.random.default_rng(seed).standard_normal(256)])
    want = (alpha * np.sign(g)).tobytes()
    step = attacks._signed_step(g, alpha)
    assert step is g  # in place: no new array per PGD step
    assert step.tobytes() == want


class TestSpec:
    def test_validation(self):
        with pytest.raises(AttackError):
            AttackSpec(epsilon=-0.1, steps=5)
        with pytest.raises(AttackError):
            AttackSpec(epsilon=0.1, steps=-1)
        with pytest.raises(AttackError):
            AttackSpec(epsilon=0.1, steps=5, driving_loss="FGSM")
        with pytest.raises(AttackError):
            AttackSpec(epsilon=0.1, steps=5, step_size=0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.2])
    def test_temperature_must_be_positive(self, tau):
        with pytest.raises(AttackError, match="temperature"):
            AttackSpec(epsilon=0.1, steps=5, driving_loss="CL", temperature=tau)

    def test_default_step_size(self):
        spec = AttackSpec(epsilon=0.2, steps=5)
        assert spec.alpha == pytest.approx(2.5 * 0.2 / 5)

    def test_threat_model_tag(self):
        assert AttackSpec(epsilon=0.1, steps=1).threat_model == "I"
        assert AttackSpec(epsilon=0.1, steps=1, driving_loss="CL").threat_model == "II"


class TestPgd:
    def test_epsilon_zero_identity(self, dense_model, rng):
        batch = make_batch(rng, dense_model)
        spec = AttackSpec(epsilon=0.0, steps=5, random_start=True)
        x_adv = pgd(dense_model, batch, spec)
        assert np.array_equal(x_adv, batch.x)

    def test_zero_steps_identity(self, dense_model, rng):
        batch = make_batch(rng, dense_model)
        spec = AttackSpec(epsilon=0.1, steps=0, random_start=False)
        assert np.array_equal(pgd(dense_model, batch, spec), batch.x)

    def test_zero_gradient_fixed_point(self, dense_model, rng):
        # constant CE loss: zero classifier -> uniform logits -> sign(0) = 0
        w, b = dense_model.classifier_params
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
        batch = make_batch(rng, dense_model)
        spec = AttackSpec(epsilon=0.1, steps=5, random_start=False)
        assert np.array_equal(pgd(dense_model, batch, spec), batch.x)

    def test_one_d_logistic_single_step(self):
        # encoder copies x into a 2-vector; classifier makes logits [0, 2x].
        # CE with y=0 is log(1 + exp(2x)), increasing in x, so one signed
        # step of 0.1 from x=0.5 lands exactly on 0.6.
        cfg = EncoderConfig((2, 2), (1,))
        m = models.init_model(cfg, 2, 2, seed=0)
        (w1, b1), (w2, b2) = m.encoder_params
        w1.data = np.array([[1.0, 1.0]])
        b1.data = np.zeros(2)
        w2.data = np.eye(2)
        b2.data = np.zeros(2)
        wc, bc = m.classifier_params
        wc.data = np.array([[0.0, 1.0], [0.0, 1.0]])
        bc.data = np.zeros(2)
        batch = ViewBatch(x=np.array([[0.5]]), y=np.array([0]))
        spec = AttackSpec(epsilon=0.1, steps=1, step_size=0.1,
                          random_start=False)
        x_adv = pgd(m, batch, spec)
        assert x_adv[0, 0] == pytest.approx(0.6, abs=1e-12)
        # brute-force confirmation over the feasible interval
        grid = np.linspace(0.4, 0.6, 201)
        ce = np.log1p(np.exp(2.0 * grid))
        assert grid[np.argmax(ce)] == pytest.approx(0.6)

    def test_budget_and_clamp_random_attacks(self, st_model, rng):
        spec = AttackSpec(epsilon=0.07, steps=4, random_start=True)
        for i in range(20):
            x = rng.random((5, 1, 4, 5))
            y = rng.integers(0, 2, size=5)
            batch = ViewBatch(x=x, y=y)
            x_adv = pgd(st_model, batch, spec)
            assert np.max(np.abs(x_adv - x)) <= 0.07 + 1e-9
            assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    @pytest.mark.parametrize("driving_loss", ["CE", "CL", "SCL"])
    def test_clips_image_batches_only(self, st_model, driving_loss):
        # the same values, clipped into the pixel box as an image batch and
        # never as a vector batch, each to the reference loop's byte
        rng = np.random.default_rng(13)
        x = rng.random((8, 20))
        y = rng.integers(0, 2, size=8)
        spec = AttackSpec(epsilon=0.2, steps=3, random_start=True,
                          driving_loss=driving_loss, seed=4)
        vec_batch, img_batch = ViewBatch(x=x, y=y), ViewBatch(x=x.reshape(8, 1, 4, 5), y=y)
        vec, img = pgd(st_model, vec_batch, spec), pgd(st_model, img_batch, spec)
        assert vec.tobytes() == _reference_pgd(st_model, vec_batch, spec).tobytes()
        assert img.tobytes() == _reference_pgd(st_model, img_batch, spec).tobytes()
        assert vec.min() < 0.0 and vec.max() > 1.0
        assert img.shape == (8, 1, 4, 5)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.max(np.abs(vec - x)) <= 0.2 + 1e-9
        assert np.max(np.abs(img.reshape(8, 20) - x)) <= 0.2 + 1e-9

    def test_determinism(self, st_model, rng):
        batch = make_batch(rng, st_model)
        spec = AttackSpec(epsilon=0.1, steps=3, random_start=True, seed=4)
        a = pgd(st_model, batch, spec)
        b = pgd(st_model, batch, spec)
        assert np.array_equal(a, b)
        c = pgd(st_model, batch, AttackSpec(epsilon=0.1, steps=3, random_start=True, seed=5))
        assert not np.array_equal(a, c)

    def test_driving_loss_increases(self, st_model):
        hits = 0
        for i in range(20):
            rng = np.random.default_rng(100 + i)
            batch = make_batch(rng, st_model)
            spec = AttackSpec(epsilon=0.15, steps=5, random_start=False)
            x_adv = pgd(st_model, batch, spec)
            before = _ce_value(st_model, batch.x, batch.y)
            after = _ce_value(st_model, x_adv, batch.y)
            hits += after >= before
        assert hits >= 19

    def test_params_untouched_and_untracked_during_attack(self, st_model, rng):
        st_model.set_tracking(encoder=True, head=True, classifier=True)
        before = [p.data.copy() for p in st_model.all_params()]
        batch = make_batch(rng, st_model)
        pgd(st_model, batch, AttackSpec(epsilon=0.1, steps=3))
        assert all(np.array_equal(p.data, q)
                   for p, q in zip(st_model.all_params(), before))
        assert all(p.grad_tracked for p in st_model.all_params())

    def test_ce_requires_labels(self, dense_model, rng):
        batch = ViewBatch(x=rng.random((4, 20)), y=None)
        with pytest.raises(AttackError):
            pgd(dense_model, batch, AttackSpec(epsilon=0.1, steps=1))


@contextmanager
def _params_untracked(model):
    """The model's parameters untracked, each flag restored on exit."""
    saved = [(t, t.grad_tracked) for t in model.all_params()]
    for t, _ in saved:
        t.grad_tracked = False
    try:
        yield
    finally:
        for t, was in saved:
            t.grad_tracked = was


def _reference_pgd(model, batch, spec):
    """PGD written out step by step on a tape, re-embedding the clean batch
    on every step inside the step's tape; an image batch is clipped into
    [0, 1] after the ball, a vector batch never."""
    x0 = batch.x
    box = (0.0, 1.0) if x0.ndim == 4 else None
    rng = np.random.default_rng(spec.seed)
    x = x0.copy()
    if spec.random_start:
        x = project_linf(x0, x0 + rng.uniform(-spec.epsilon, spec.epsilon, size=x0.shape),
                         spec.epsilon, box)
    with _params_untracked(model):
        for _ in range(spec.steps):
            leaf = Tensor(x, grad_tracked=True)
            with GradientTape() as tape:
                if spec.driving_loss == "CE":
                    rep, _ = models.encode(model, leaf)
                    loss = losses.cross_entropy(models.classify(model, rep), batch.y)
                else:
                    z_clean = losses._embed(model, batch.x)
                    z_cur = models.project(model, models.encode(model, leaf)[0])
                    if spec.driving_loss == "CL":
                        loss = losses.nt_xent(z_clean, z_cur, losses.DEFAULT_TAU_CL)
                    else:
                        loss = losses.supcon(T.concat_rows(z_clean, z_cur),
                                             np.concatenate([batch.y, batch.y]),
                                             losses.DEFAULT_TAU_SCL)
            g = T.backward(tape, loss)[leaf]
            x = project_linf(x0, x + spec.alpha * np.sign(g), spec.epsilon, box)
    return x


class TestCleanEmbeddingOnce:
    @pytest.mark.parametrize("driving_loss", ["CE", "CL", "SCL"])
    def test_matches_reference_loop(self, st_model, driving_loss):
        batch = make_batch(np.random.default_rng(7), st_model, n=8, shape=(1, 4, 5))
        spec = AttackSpec(epsilon=0.1, steps=4, random_start=True,
                          driving_loss=driving_loss, seed=3)
        x_adv = pgd(st_model, batch, spec)
        assert not np.array_equal(x_adv, batch.x)
        assert np.array_equal(x_adv, _reference_pgd(st_model, batch, spec))

    @pytest.mark.parametrize("n", [208, 244, 256])
    @pytest.mark.parametrize("driving_loss", ["CE", "CL", "SCL"])
    def test_matches_reference_loop_at_training_batch_sizes(self, st_model, n,
                                                            driving_loss):
        # a TM-I or TM-II evaluation of 500 test images attacks batches of
        # 256 and 244
        batch = make_batch(np.random.default_rng(n), st_model, n=n, shape=(1, 4, 5))
        spec = AttackSpec(epsilon=0.1, steps=3, random_start=True,
                          driving_loss=driving_loss, seed=3)
        x_adv = pgd(st_model, batch, spec)
        assert x_adv.tobytes() == _reference_pgd(st_model, batch, spec).tobytes()

    @pytest.mark.parametrize("driving_loss", ["CE", "CL"])
    def test_matches_reference_loop_with_inputs_outside_the_clamp(self, st_model,
                                                                driving_loss):
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.3, 1.3, size=(8, 1, 4, 5))
        batch = ViewBatch(x=x, y=rng.integers(0, 2, size=8))
        spec = AttackSpec(epsilon=0.1, steps=4, random_start=True,
                          driving_loss=driving_loss, seed=5)
        x_adv = pgd(st_model, batch, spec)
        assert ((x < 0.0) | (x > 1.0)).any()
        assert x_adv.tobytes() == _reference_pgd(st_model, batch, spec).tobytes()

    @pytest.mark.parametrize("driving_loss", ["CE", "CL"])
    def test_zero_gradient_pixels_keep_their_random_start(self, st_model, driving_loss):
        # inputs whose first-layer weight rows are zero get an exactly zero
        # gradient, while the other inputs move
        model = copy.deepcopy(st_model)
        dead = [0, 7, 13]
        model.encoder_params[0][0].data[dead] = 0.0
        batch = make_batch(np.random.default_rng(5), model, n=16, shape=(1, 4, 5))
        spec = AttackSpec(epsilon=0.1, steps=4, random_start=True,
                          driving_loss=driving_loss, seed=2)
        start = pgd(model, batch, replace(spec, steps=0)).reshape(16, 20)
        x_adv = pgd(model, batch, spec)
        assert x_adv.tobytes() == _reference_pgd(model, batch, spec).tobytes()
        x_adv = x_adv.reshape(16, 20)  # a view: the pixels in input-weight order
        assert x_adv[:, dead].tobytes() == start[:, dead].tobytes()
        live = np.setdiff1d(np.arange(x_adv.shape[1]), dead)
        assert (x_adv[:, live] != start[:, live]).mean() > 0.5

    @pytest.mark.parametrize("driving_loss, calls", [("CE", 3), ("CL", 4), ("SCL", 4)])
    def test_encode_calls(self, st_model, rng, monkeypatch, driving_loss, calls):
        # one tape-free forward through `encode` per step, plus the clean
        # embedding of a contrastive target; no step records a tape
        counted = {"encode": 0, "forward_arrays": 0}
        for name in counted:
            def counting(*args, _fn=getattr(models, name), _name=name, **kwargs):
                counted[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(models, name, counting)
        spec = AttackSpec(epsilon=0.1, steps=3, driving_loss=driving_loss)
        pgd(st_model, make_batch(rng, st_model), spec)
        assert counted == {"encode": calls, "forward_arrays": calls}


@pytest.fixture(scope="module")
def image_model():
    """A model at the directional fixture's widths on 1x16x16 images."""
    return models.init_model(EncoderConfig((128, 128, 64), (256,)), 10, 16, seed=3)


class TestImageBatches:
    """The flatten of an image batch and the reshape of its input gradient,
    byte-checked at the fixture's widths and evaluation batch sizes."""

    @pytest.mark.parametrize("n", [244, 256])
    @pytest.mark.parametrize("driving_loss", ["CE", "CL", "SCL"])
    def test_matches_reference_loop(self, image_model, n, driving_loss):
        rng = np.random.default_rng(n)
        batch = ViewBatch(x=rng.random((n, 1, 16, 16)),
                          y=rng.integers(0, 10, size=n))
        spec = AttackSpec(epsilon=8 / 255, steps=3, random_start=True,
                          driving_loss=driving_loss, seed=n)
        x_adv = pgd(image_model, batch, spec)
        assert x_adv.shape == (n, 1, 16, 16)
        start = pgd(image_model, batch, replace(spec, steps=0))
        assert (x_adv != start).mean() > 0.5
        assert x_adv.tobytes() == _reference_pgd(image_model, batch, spec).tobytes()

    def test_random_start_is_drawn_into_the_iterate(self, image_model):
        """A random start with no steps holds the ball's two bounds and the
        iterate, and no separate noise array. At 64 images the batch is
        under the 256 KiB from which numpy may elide the temporary of
        `x0 + noise` on its own."""
        rng = np.random.default_rng(0)
        batch = ViewBatch(x=rng.random((64, 1, 16, 16)), y=rng.integers(0, 10, 64))
        spec = AttackSpec(epsilon=8 / 255, steps=0, random_start=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            x_adv = pgd(image_model, batch, spec)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert x_adv.tobytes() == _reference_pgd(image_model, batch, spec).tobytes()
        assert peak < 3.5 * batch.x.nbytes


class TestLiveEncoder:
    """An attack inside training, with every parameter tracked (as in
    Full-AT fine-tuning) and a tape open, touches neither."""

    @staticmethod
    def _state(model):
        return [t.grad_tracked for t in model.all_params()], list(T._TAPE_STACK)

    @pytest.mark.parametrize("driving_loss", ["CE", "CL", "SCL"])
    def test_matches_reference_loop_and_leaves_tracking_and_tapes(self, st_model,
                                                                  driving_loss):
        model = copy.deepcopy(st_model)
        model.set_tracking(encoder=True, head=True, classifier=True)
        batch = make_batch(np.random.default_rng(9), model, n=32, shape=(1, 4, 5))
        spec = AttackSpec(epsilon=0.1, steps=3, random_start=True,
                          driving_loss=driving_loss, seed=1)
        with GradientTape() as outer:
            before = self._state(model)
            x_adv = pgd(model, batch, spec)
            assert self._state(model) == before
        assert outer.nodes == [] and not T._TAPE_STACK
        assert x_adv.tobytes() == _reference_pgd(model, batch, spec).tobytes()
        assert all(t.grad_tracked for t in model.all_params())

    @pytest.mark.parametrize("driving_loss, target", [
        ("CE", losses.CrossEntropyTarget), ("CL", losses.ContrastiveTarget),
        ("SCL", losses.ContrastiveTarget)])
    def test_a_raising_step_leaves_tracking_and_tapes(self, st_model, monkeypatch,
                                                      driving_loss, target):
        model = copy.deepcopy(st_model)
        model.set_tracking(encoder=True, head=False, classifier=True)
        monkeypatch.setattr(target, "grad", lambda self, out: np.full(out.shape, np.nan))
        with GradientTape() as outer:
            before = self._state(model)
            with pytest.raises(AttackError, match="non-finite attack gradient"):
                pgd(model, make_batch(np.random.default_rng(2), model),
                    AttackSpec(epsilon=0.1, steps=2, driving_loss=driving_loss))
            assert self._state(model) == before
        assert outer.nodes == [] and not T._TAPE_STACK


class TestStepChecks:
    """The checks a taped step made, kept by the tape-free one."""

    def test_input_shape(self, st_model, rng):
        batch = ViewBatch(x=rng.random((4, 19)), y=np.zeros(4, dtype=int))
        with pytest.raises(models.ModelError, match="encoder expects samples"):
            pgd(st_model, batch, AttackSpec(epsilon=0.1, steps=1))

    @pytest.mark.parametrize("driving_loss", ["CE", "CL"])
    def test_non_finite_layer_output_names_dense(self, dense_model, rng, driving_loss):
        w, _ = dense_model.encoder_params[1]
        w.data = np.full_like(w.data, 1e308)
        batch = make_batch(rng, dense_model)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                T.NonFiniteError, match="output of dense$"):
            pgd(dense_model, batch, AttackSpec(epsilon=0.1, steps=1,
                                               driving_loss=driving_loss))

    def test_ce_labels_are_checked_before_the_first_step(self, dense_model, rng,
                                                         monkeypatch):
        monkeypatch.setattr(models, "input_grad", pytest.fail)
        batch = ViewBatch(x=rng.random((4, 20)), y=np.array([0, 1, 2, 0]))
        with pytest.raises(losses.LossError, match="labels out of range"):
            pgd(dense_model, batch, AttackSpec(epsilon=0.1, steps=3))

    def test_tm1_steps_count_one_classifier_query_each_under_audit(self, st_model, rng):
        model = copy.deepcopy(st_model)
        model.classifier_grad_queries = 0
        model.audit_active = True
        pgd(model, make_batch(rng, model), AttackSpec(epsilon=0.1, steps=4))
        assert model.classifier_grad_queries == 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1.0, 2.0)),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=16),
       st.floats(0.0, 0.5), st.booleans(), st.integers(0, 2**32 - 1))
@example([(-0.0, -0.0), (-0.0, 0.0), (-0.0, 0.3), (1.5, 0.7), (-0.3, -0.0)], 0.1, True, 0)
@example([(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)], 0.0, False, 0)
def test_project_writes_the_bytes_of_clip(pairs, epsilon, clamped, seed):
    """pgd's max-then-min projection is np.clip into the same array bounds,
    byte for byte, for finite iterates: with -0.0 in x0 or the iterate, and
    with x0 outside the clamp."""
    rng = np.random.default_rng(seed)
    x0, x = (np.concatenate([col, rng.uniform(-0.5, 1.5, 256)])
             for col in np.array(pairs).T)
    lo, hi = x0 - epsilon, x0 + epsilon
    if clamped:
        np.clip(lo, 0.0, 1.0, out=lo)
        np.clip(hi, 0.0, 1.0, out=hi)
    want = np.clip(x, lo, hi).tobytes()
    attacks._project(x, lo, hi)
    assert x.tobytes() == want


class TestThreatModelII:
    """Encoder-targeted PGD: the CL and SCL driving losses run through the
    encoder and head only."""

    def test_single_pair_degenerate(self, dense_model, rng):
        # one positive pair, no negatives: NT-Xent is identically 0
        batch = ViewBatch(x=rng.random((1, 20)), y=np.array([0]))
        spec = AttackSpec(epsilon=0.1, steps=3, driving_loss="CL",
                          random_start=False)
        x_adv = pgd(dense_model, batch, spec)
        assert np.array_equal(x_adv, batch.x)

    def test_zero_classifier_queries(self, st_model, rng):
        st_model.classifier_grad_queries = 0
        st_model.audit_active = True
        try:
            batch = make_batch(rng, st_model)
            for loss_name in ("CL", "SCL"):
                spec = AttackSpec(epsilon=0.1, steps=4, driving_loss=loss_name,
                                  random_start=True)
                pgd(st_model, batch, spec)
        finally:
            st_model.audit_active = False
        assert st_model.classifier_grad_queries == 0

    def test_budget_holds(self, st_model, rng):
        batch = make_batch(rng, st_model)
        spec = AttackSpec(epsilon=0.05, steps=6, driving_loss="SCL",
                          random_start=True)
        x_adv = pgd(st_model, batch, spec)
        assert np.max(np.abs(x_adv - batch.x)) <= 0.05 + 1e-9


class TestContrastiveAttackErrors:
    """A CL or SCL attack fails where, and as, it failed when every step
    built the whole loss on its tape."""

    def test_scl_without_labels(self, st_model, rng):
        batch = ViewBatch(x=rng.random((4, 20)), y=None)
        with pytest.raises(AttackError, match="SCL attack requires labels"):
            pgd(st_model, batch, AttackSpec(epsilon=0.1, steps=1, driving_loss="SCL"))

    @pytest.mark.parametrize("driving_loss", ["CL", "SCL"])
    def test_zero_steps_with_random_start_raise_nothing(self, st_model, rng,
                                                        driving_loss):
        x = rng.random((4, 20))
        spec = AttackSpec(epsilon=0.1, steps=0, random_start=True,
                          driving_loss=driving_loss)
        x_adv = pgd(st_model, ViewBatch(x=x, y=None), spec)
        assert 0.0 < np.max(np.abs(x_adv - x)) <= 0.1

    def test_zero_embedding_row(self, dense_model, rng):
        (_, _), (w2, b2) = dense_model.head_params
        w2.data = np.zeros_like(w2.data)
        b2.data = np.zeros_like(b2.data)
        batch = make_batch(rng, dense_model)
        with pytest.raises(T.TensorError, match="zero row"):
            pgd(dense_model, batch, AttackSpec(epsilon=0.1, steps=1,
                                               driving_loss="CL"))

    def test_non_finite_gradient(self, st_model, rng, monkeypatch):
        monkeypatch.setattr(losses.ContrastiveTarget, "grad",
                            lambda self, z: np.full(z.shape, np.nan))
        with pytest.raises(AttackError, match="non-finite attack gradient"):
            pgd(st_model, make_batch(rng, st_model),
                AttackSpec(epsilon=0.1, steps=1, driving_loss="CL"))


def _ce_value(model, x, y):
    rep, _ = models.encode(model, Tensor(x))
    logits = models.classify(model, rep)
    return float(losses.cross_entropy(logits, y).data)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=0.3))
def test_budget_property(seed, epsilon):
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig((8, 4), (6,))
    m = models.init_model(cfg, 2, 4, seed=seed % 7)
    x = rng.random((3, 1, 2, 3))  # the (3, 6) draw as an image batch
    batch = ViewBatch(x=x, y=rng.integers(0, 2, size=3))
    spec = AttackSpec(epsilon=epsilon, steps=3, random_start=True, seed=seed)
    x_adv = pgd(m, batch, spec)
    assert np.max(np.abs(x_adv - x)) <= epsilon + 1e-9
    assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0
