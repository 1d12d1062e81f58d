import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import graph_oracle as G
from robustcl import attacks, data, directional, experiment, losses, models, training
from robustcl.attacks import AttackSpec
from robustcl.data import AugmentSpec, ViewBatch
from robustcl.losses import LossConfig, LossError
from robustcl.models import EncoderConfig
from robustcl.tensor import GradientTape, NonFiniteError, Tensor, backward
from robustcl.training import (Adam, RunRecord, ScenarioSpec, TrainingError,
                               run_scenario)


def small_spec(**kw):
    kw.setdefault("pretrain_epochs", 2)
    kw.setdefault("finetune_epochs", 2)
    kw.setdefault("batch_size", 128)
    kw.setdefault("adv_batch_size", 128)
    kw.setdefault("augment", AugmentSpec(gaussian_noise_sigma=0.05,
                                         feature_dropout_prob=0.1))
    return ScenarioSpec(**kw)


def fresh_model(seed=0):
    return models.init_model(EncoderConfig((16, 8, 4), (20,)), 2, 4, seed=seed)


def encoder_snapshot(model):
    return [t.data.copy() for t in model.encoder_tensors()]


def encoder_unchanged(model, snap):
    return all(np.array_equal(t.data, s) for t, s in zip(model.encoder_tensors(), snap))


class TestAdam:
    def test_first_step_is_signed(self):
        p = Tensor(np.array([1.0, -1.0]))
        opt = Adam([p], lr=0.1)
        opt.step({p: np.array([3.0, -0.5])})
        # with zeroed state the first bias-corrected step is lr * sign(g)
        assert np.allclose(p.data, [0.9, -0.9], atol=1e-6)

    def test_state_advances_on_zero_grads(self):
        p = Tensor(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        opt.step({})
        assert opt.t == 1
        assert np.array_equal(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([10.0]))
        opt = Adam([p], lr=0.05)
        for _ in range(2000):
            opt.step({p: 2.0 * (p.data - 3.0)})
        assert abs(p.data[0] - 3.0) < 1e-3

    def test_in_place_update_bitwise_equals_the_allocating_form(self, rng):
        shapes = [(5, 3), (3,), (4,)]
        params = [Tensor(rng.standard_normal(s)) for s in shapes]
        opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
        data = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 6):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-4, 4) for s in shapes]
            grads[2] = None if t % 2 else grads[2]  # absent: a zero gradient
            before = [p.data for p in params]
            opt.step({p: g for p, g in zip(params, grads) if g is not None})
            for i, g in enumerate(grads):
                g = np.zeros(shapes[i]) if g is None else g
                m[i] = 0.8 * m[i] + (1 - 0.8) * g
                v[i] = 0.99 * v[i] + (1 - 0.99) * g * g
                m_hat = m[i] / (1 - 0.8 ** t)
                v_hat = v[i] / (1 - 0.99 ** t)
                data[i] = data[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-6)
                assert params[i].data.tobytes() == data[i].tobytes(), (t, i)
                assert params[i].data is not before[i]  # rebound, not written

    def test_holds_only_its_moments_between_steps(self, rng):
        params = [Tensor(rng.standard_normal(s)) for s in [(5, 3), (3,)]]
        opt = Adam(params, lr=0.01)
        for _ in range(2):
            opt.step({p: rng.standard_normal(p.shape) for p in params})
            held = {name: v for name, v in vars(opt).items()
                    if isinstance(v, np.ndarray)
                    or (isinstance(v, list) and any(isinstance(a, np.ndarray) for a in v))}
            assert sorted(held) == ["m", "v"]
            assert [a.shape for a in held["m"] + held["v"]] == [p.shape for p in params] * 2

    def test_from_config_matches_explicit_arguments(self):
        cfg = training.OptimizerConfig(lr=0.02, beta1=0.8, beta2=0.99, eps=1e-6)
        p, q = Tensor(np.array([1.0, -2.0])), Tensor(np.array([1.0, -2.0]))
        built = Adam.from_config([p], cfg)
        explicit = Adam([q], lr=0.02, beta1=0.8, beta2=0.99, eps=1e-6)
        for g in ([0.3, -1.0], [2.0, 0.1], [-0.5, 0.0]):
            built.step({p: np.array(g)})
            explicit.step({q: np.array(g)})
        assert np.array_equal(p.data, q.data)


class TestScenarioSpec:
    def test_unknown_scenario(self):
        with pytest.raises(TrainingError):
            ScenarioSpec(scenario="PGD-AT")

    def test_unknown_scheme(self):
        with pytest.raises(TrainingError):
            ScenarioSpec(scheme="MOCO")

    def test_sl_has_no_partial_at(self):
        for scenario in ("Partial-AT", "Full-AT"):
            with pytest.raises(TrainingError):
                ScenarioSpec(scenario=scenario, scheme="SL",
                             train_attack=AttackSpec(epsilon=0.1, steps=2))

    def test_combos_are_st_only(self):
        with pytest.raises(TrainingError):
            ScenarioSpec(scenario="AT", scheme="SL+CL",
                         train_attack=AttackSpec(epsilon=0.1, steps=2))

    def test_adversarial_requires_attack(self):
        with pytest.raises(TrainingError):
            ScenarioSpec(scenario="AT", scheme="CL")

    def test_loss_trains_the_specs_scheme(self):
        with pytest.raises(TrainingError, match="not the scenario's scheme"):
            ScenarioSpec(scenario="ST", scheme="CL", loss=LossConfig(scheme="SCL"))
        spec = ScenarioSpec(scheme="SCL", loss=LossConfig(scheme="SCL", beta=0.1))
        assert spec.loss.beta == 0.1


# (scenario, scheme) -> each phase's (name, (encoder, head, classifier) trained,
# driving loss)
PRETRAIN, FINETUNE = (True, True, False), (False, False, True)
PHASE_TABLE = {
    ("ST", "SL"): [("train", (True, False, True), None)],
    ("AT", "SL"): [("train", (True, False, True), "CE")],
    **{("ST", s): [("pretrain", PRETRAIN, None), ("finetune", FINETUNE, None)]
       for s in ("CL", "SCL")},
    **{("AT", s): [("pretrain", PRETRAIN, s), ("finetune", FINETUNE, None)]
       for s in ("CL", "SCL")},
    **{("Partial-AT", s): [("pretrain", PRETRAIN, s), ("finetune", FINETUNE, "CE")]
       for s in ("CL", "SCL")},
    **{("Full-AT", s): [("pretrain", PRETRAIN, s), ("finetune", (True, False, True), "CE")]
       for s in ("CL", "SCL")},
    **{("ST", s): [("train", (True, True, True), None), ("finetune", FINETUNE, None)]
       for s in ("SL+CL", "CL+SCL", "SL+SCL")},
}


def test_the_phase_table_lists_every_valid_pair():
    for scenario in training.SCENARIOS:
        for scheme in losses.SCHEMES:
            try:
                small_spec(scenario=scenario, scheme=scheme,
                           train_attack=AttackSpec(epsilon=0.05, steps=1))
            except TrainingError:
                assert (scenario, scheme) not in PHASE_TABLE
            else:
                assert (scenario, scheme) in PHASE_TABLE


@pytest.mark.parametrize("scenario, scheme", sorted(PHASE_TABLE))
def test_each_phase_attacks_at_the_adversarial_batch_size(gauss_splits, pgd_specs,
                                                          monkeypatch, scenario, scheme):
    """A phase with a driving loss runs PGD on every step and draws its
    batches at `adv_batch_size`; a phase without one runs no attack and
    draws them at `batch_size`."""
    d_p, _ = gauss_splits
    d_p = d_p.subset(np.arange(96))
    sizes = []
    iter_batches = data.iter_batches

    def recording_iter_batches(dataset, batch_size, seed, epoch):
        sizes.append(batch_size)
        return iter_batches(dataset, batch_size, seed, epoch)

    monkeypatch.setattr(data, "iter_batches", recording_iter_batches)
    spec = small_spec(scenario=scenario, scheme=scheme, pretrain_epochs=1,
                      finetune_epochs=1, batch_size=32, adv_batch_size=48,
                      train_attack=AttackSpec(epsilon=0.05, steps=1))
    phases = training._phases(spec, d_p, d_p)
    table = PHASE_TABLE[scenario, scheme]
    assert [(p.name, p.trains, p.driving_loss) for p in phases] == table
    model = fresh_model()
    for phase in phases:
        del sizes[:], pgd_specs[:]
        training._run_phase(model, spec, phase)
        attacked = phase.driving_loss is not None
        assert sizes == [spec.adv_batch_size if attacked else spec.batch_size]
        steps = -(-d_p.n // sizes[0])  # one epoch
        assert len(pgd_specs) == (steps if attacked else 0)
        assert all(s.driving_loss == phase.driving_loss for s in pgd_specs)


def snapshots_at_finetune(monkeypatch):
    """Patch models.reinit_classifier, which runs once at the start of
    fine-tuning, to record the encoder and head as pretraining left them."""
    snaps = []
    reinit = models.reinit_classifier

    def snapshotting_reinit(model, seed):
        snaps.append((encoder_snapshot(model),
                      [t.data.copy() for t in model.head_tensors()]))
        return reinit(model, seed)

    monkeypatch.setattr(models, "reinit_classifier", snapshotting_reinit)
    return snaps


class TestPretrain:
    def test_st_generates_no_attacks(self, gauss_splits, pgd_specs):
        d_p, _ = gauss_splits
        specs = pgd_specs
        spec = small_spec(scenario="ST", scheme="CL", pretrain_epochs=1)
        run_scenario(fresh_model(), d_p, d_p, spec)
        assert specs == []

    def test_at_attacks_every_step(self, gauss_splits, pgd_specs):
        d_p, _ = gauss_splits
        specs = pgd_specs
        spec = small_spec(scenario="AT", scheme="CL", pretrain_epochs=2,
                          train_attack=AttackSpec(epsilon=0.05, steps=2))
        run_scenario(fresh_model(), d_p, d_p, spec)
        steps_per_epoch = sum(1 for _ in data.iter_batches(
            d_p, spec.adv_batch_size, spec.seed, 0))
        # AT fine-tunes on clean inputs: every attack belongs to pretraining
        assert len(specs) == 2 * steps_per_epoch
        assert {s.driving_loss for s in specs} == {"CL"}

    def test_requires_contrastive_scheme(self, gauss_splits):
        # SL trains in a single phase; the pretraining loss rejects it
        d_p, _ = gauss_splits
        x = d_p.inputs[:4]
        batch = ViewBatch(x=x, x_prime=x, x_double_prime=x, y=d_p.labels[:4])
        with pytest.raises(LossError):
            losses.pretrain_loss(fresh_model(), batch, LossConfig(scheme="SL"))

    @pytest.mark.parametrize("scheme", ["CL", "SCL"])
    def test_adversarial_scenarios_share_the_pretraining_phase(self, scheme):
        """AT, Partial-AT and Full-AT differ only after pretraining: on the
        image fixture their first phase leaves bitwise the same parameters
        and the same loss curve, so one pretraining could serve all three."""
        cfg = directional.fixture_config()
        d_p, _, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))
        d_p = d_p.subset(np.arange(512))
        runs = []
        for scenario in ("AT", "Partial-AT", "Full-AT"):
            spec = replace(cfg.scenario_spec(scenario, scheme, seed=0), pretrain_epochs=1)
            model = models.init_model(cfg.encoder_config(d_p.input_shape), d_p.n_classes,
                                      cfg.get("model", "head_dim"), seed=0)
            phase = training._phases(spec, d_p, d_p)[0]
            assert phase.name == "pretrain"
            curve = training._run_phase(model, spec, phase)
            runs.append((curve, [p.data for p in model.all_params()]))
        (curve, params), *others = runs
        for other_curve, other_params in others:
            assert other_curve == curve
            assert all(np.array_equal(a, b) for a, b in zip(other_params, params))

    def test_a_steps_tape_is_freed_before_the_next_attack(self, monkeypatch):
        """Step 2's attack starts with no more traced memory than step 1's:
        step 1's tape, with its (2n)^2 loss buffers, is gone by then."""
        cfg = directional.fixture_config()
        d_p, _, _ = experiment.build_splits(cfg, experiment.build_dataset(cfg))
        d_p = d_p.subset(np.arange(512))
        spec = replace(cfg.scenario_spec("AT", "CL", seed=0), pretrain_epochs=1)
        model = models.init_model(cfg.encoder_config(d_p.input_shape), d_p.n_classes,
                                  cfg.get("model", "head_dim"), seed=0)
        phase = training._phases(spec, d_p, d_p)[0]
        at_entry = []
        pgd = attacks.pgd

        def traced_pgd(*args):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return pgd(*args)

        monkeypatch.setattr(attacks, "pgd", traced_pgd)
        tracemalloc.start()
        try:
            training._run_phase(model, spec, phase)
        finally:
            tracemalloc.stop()
        assert len(at_entry) == 2
        m = 2 * spec.adv_batch_size
        assert at_entry[1] - at_entry[0] < m * m * 8

    def test_loss_decreases(self, gauss_splits):
        d_p, _ = gauss_splits
        spec = small_spec(scenario="ST", scheme="CL", pretrain_epochs=8)
        rec = run_scenario(fresh_model(), d_p, d_p, spec)
        pre = [loss for _, phase, loss in rec.loss_curve if phase == "pretrain"]
        assert len(pre) == 8
        assert pre[-1] < pre[0]


class TestFinetune:
    def test_standard_leaves_encoder_bitwise_unchanged(self, gauss_splits, monkeypatch):
        d_p, _ = gauss_splits
        m = fresh_model()
        snaps = snapshots_at_finetune(monkeypatch)
        run_scenario(m, d_p, d_p, small_spec(scenario="ST", scheme="CL", pretrain_epochs=1))
        [(snap, head_snap)] = snaps
        assert encoder_unchanged(m, snap)
        assert all(np.array_equal(t.data, s) for t, s in zip(m.head_tensors(), head_snap))
        assert m.freeze_encoder

    def test_partial_at_keeps_encoder_fixed(self, gauss_splits, monkeypatch):
        d_p, _ = gauss_splits
        m = fresh_model()
        snaps = snapshots_at_finetune(monkeypatch)
        spec = small_spec(scenario="Partial-AT", scheme="CL", pretrain_epochs=1,
                          train_attack=AttackSpec(epsilon=0.05, steps=2))
        run_scenario(m, d_p, d_p, spec)
        [(snap, _)] = snaps
        assert encoder_unchanged(m, snap)

    @pytest.mark.parametrize("scenario, scheme, attacked", [
        ("Partial-AT", "CL", True), ("Partial-AT", "SCL", True), ("AT", "CL", False)])
    def test_partial_at_finetunes_under_attack(self, gauss_splits, pgd_specs, monkeypatch,
                                               scenario, scheme, attacked):
        d_p, _ = gauss_splits
        specs = pgd_specs
        at_finetune = []  # attacks run by the time fine-tuning starts
        reinit = models.reinit_classifier

        def marking_reinit(model, seed):
            at_finetune.append(len(specs))
            return reinit(model, seed)

        monkeypatch.setattr(models, "reinit_classifier", marking_reinit)
        spec = small_spec(scenario=scenario, scheme=scheme, pretrain_epochs=1,
                          train_attack=AttackSpec(epsilon=0.05, steps=2))
        run_scenario(fresh_model(), d_p, d_p, spec)
        [boundary] = at_finetune
        assert {s.driving_loss for s in specs[:boundary]} == {scheme}
        finetune_steps = sum(1 for epoch in range(spec.finetune_epochs) for _ in
                             data.iter_batches(d_p, spec.adv_batch_size, spec.seed + 1, epoch))
        finetune = specs[boundary:]
        assert len(finetune) == (finetune_steps if attacked else 0)
        assert all(s.driving_loss == "CE" for s in finetune)

    def test_full_at_updates_encoder(self, gauss_splits, monkeypatch):
        d_p, _ = gauss_splits
        m = fresh_model()
        snaps = snapshots_at_finetune(monkeypatch)
        spec = small_spec(scenario="Full-AT", scheme="CL", pretrain_epochs=1,
                          train_attack=AttackSpec(epsilon=0.05, steps=2))
        run_scenario(m, d_p, d_p, spec)
        [(snap, _)] = snaps
        assert not encoder_unchanged(m, snap)
        assert not m.freeze_encoder

    def test_classifier_reinitialized(self, gauss_splits):
        d_p, _ = gauss_splits
        m = fresh_model()
        w = m.classifier_params[0]
        w.data = np.full_like(w.data, 7.0)
        spec = small_spec(scenario="ST", scheme="CL", pretrain_epochs=1, finetune_epochs=0)
        run_scenario(m, d_p, d_p, spec)
        w_after = m.classifier_params[0].data
        assert not np.array_equal(w_after, np.full(w_after.shape, 7.0))
        ref = fresh_model()
        models.reinit_classifier(ref, seed=spec.seed + 1)
        assert all(np.array_equal(a.data, b.data) for a, b in
                   zip(m.classifier_tensors(), ref.classifier_tensors()))


class TestRunScenario:
    def test_sl_is_single_phase(self, gauss_splits):
        d_p, _ = gauss_splits
        rec = run_scenario(fresh_model(), d_p, d_p,
                           small_spec(scenario="ST", scheme="SL", finetune_epochs=3))
        assert {phase for _, phase, _ in rec.loss_curve} == {"train"}

    def test_two_phase_curve(self, gauss_splits):
        d_p, _ = gauss_splits
        rec = run_scenario(fresh_model(), d_p, d_p,
                           small_spec(scenario="ST", scheme="CL"))
        phases = [phase for _, phase, _ in rec.loss_curve]
        assert phases == ["pretrain"] * 2 + ["finetune"] * 2

    def test_combo_gets_linear_finetune(self, gauss_splits):
        d_p, _ = gauss_splits
        m = fresh_model()
        rec = run_scenario(m, d_p, d_p, small_spec(scenario="ST", scheme="SL+CL"))
        phases = [phase for _, phase, _ in rec.loss_curve]
        assert phases == ["train"] * 2 + ["finetune"] * 2
        assert m.freeze_encoder

    @pytest.mark.parametrize("scenario, scheme",
                             [("AT", "SL"), ("AT", "CL"), ("Full-AT", "SCL")])
    def test_vector_data_attacks_are_never_clipped(self, gauss_splits, monkeypatch,
                                                  scenario, scheme):
        # a step past epsilon lands each coordinate on x0 or x0 +- eps, never boxed
        d_p, _ = gauss_splits
        pgd, outs = attacks.pgd, []

        def recording_pgd(model, batch, spec):
            x_adv = pgd(model, batch, spec)
            step = batch.x + spec.alpha * np.sign(x_adv - batch.x)
            outs.append((x_adv, G.project_linf(batch.x, step, spec.epsilon)))
            return x_adv

        monkeypatch.setattr(attacks, "pgd", recording_pgd)
        attack = AttackSpec(epsilon=0.05, steps=1)
        assert attack.alpha > attack.epsilon
        spec = small_spec(scenario=scenario, scheme=scheme, pretrain_epochs=1,
                          finetune_epochs=1, train_attack=attack)
        run_scenario(fresh_model(), d_p, d_p, spec)
        assert outs and all(a.tobytes() == b.tobytes() for a, b in outs)
        assert all(a.min() < 0.0 or a.max() > 1.0 for a, _ in outs)

    def test_determinism(self, gauss_splits):
        d_p, _ = gauss_splits

        def run():
            m = fresh_model(seed=3)
            rec = run_scenario(m, d_p, d_p, small_spec(scenario="ST", scheme="CL", seed=3))
            return rec, m

        rec1, m1 = run()
        rec2, m2 = run()
        assert rec1.loss_curve == rec2.loss_curve
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(m1.all_params(), m2.all_params()))

    def test_manifest_fields(self, gauss_splits):
        d_p, _ = gauss_splits
        rec = run_scenario(fresh_model(), d_p, d_p,
                           small_spec(scenario="ST", scheme="SL", finetune_epochs=1))
        for key in ("scenario", "scheme", "seed", "dataset_pretrain", "runtime_s"):
            assert key in rec.manifest


@pytest.mark.parametrize("scheme", ["SL", "CL"])
def test_an_overflowing_step_raises_non_finite_error_naming_dense(gauss_splits, scheme):
    d_p, _ = gauss_splits
    model = fresh_model()
    w, _ = model.encoder_params[1]
    w.data = np.full_like(w.data, 1e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteError, match="^non-finite values in output of dense$"):
        run_scenario(model, d_p, d_p, small_spec(scenario="ST", scheme=scheme))


class _GradRecorder:
    """An optimizer that keeps the gradient map of its one step."""

    def step(self, grads):
        self.grads = grads


def _step_batch(rng, n=16, adv=True):
    x = rng.random((n, 20))
    return ViewBatch(x=x, x_prime=x + 0.05 * rng.standard_normal(x.shape),
                     x_double_prime=x - 0.05 * rng.standard_normal(x.shape),
                     y=rng.integers(0, 2, n),
                     x_adv=x + 0.02 * rng.standard_normal(x.shape) if adv else None)


def _per_term_step(model, phase_loss, cfg, batch):
    """`_train_step`'s loss value and gradient map for one phase loss."""
    opt = _GradRecorder()
    value = training._train_step(model, SimpleNamespace(loss=cfg),
                                 SimpleNamespace(loss=phase_loss), opt, batch)
    return value, opt.grads


class TestPerTermStep:
    """A step runs each weighted term of its phase loss on its own tape,
    last term first, into one gradient map: bitwise one tape over all."""

    @pytest.mark.parametrize("name, cfg, adv", [
        ("pretrain_loss", LossConfig(scheme="CL"), True),
        ("pretrain_loss", LossConfig(scheme="CL"), False),
        ("pretrain_loss", LossConfig(scheme="SCL", alpha=0.7, beta=1.3), True),
        ("pretrain_loss", LossConfig(scheme="SCL"), False),
        ("finetune_loss", LossConfig(scheme="SL"), True),
        ("finetune_loss", LossConfig(scheme="SL"), False),
        ("combined_scheme_loss", LossConfig(scheme="SL+CL"), False),
        ("combined_scheme_loss", LossConfig(scheme="CL+SCL", combo_weights=(0.5, 2.0)), False),
        ("combined_scheme_loss", LossConfig(scheme="CL+SCL", combo_weights=(0.0, 1.0)), False),
    ])
    def test_gradients_and_value_are_the_joint_graphs_bit_for_bit(
            self, name, cfg, adv, dense_model, rng):
        batch = _step_batch(rng, adv=adv)
        dense_model.set_tracking(encoder=True, head=True, classifier=True)
        phase_loss = getattr(losses, name)
        with GradientTape() as tape:
            joint = G.joint_loss(phase_loss(dense_model, batch, cfg))
        want = backward(tape, joint)
        value, grads = _per_term_step(dense_model, phase_loss, cfg, batch)
        assert np.float64(value).tobytes() == joint.data.tobytes()
        assert set(grads) == set(want) >= set(dense_model.encoder_tensors())
        for p, g in want.items():
            assert grads[p].dtype == g.dtype and grads[p].tobytes() == g.tobytes()

    def test_no_terms_give_zero_and_an_empty_map(self, dense_model, rng):
        dense_model.set_tracking(encoder=True, head=True, classifier=False)
        cfg = LossConfig(scheme="CL", alpha=0.0, beta=0.0)
        assert _per_term_step(dense_model, losses.pretrain_loss, cfg,
                              _step_batch(rng)) == (0.0, {})

    def test_each_terms_tape_is_freed_before_the_next_opens(self, dense_model, rng,
                                                           monkeypatch):
        opened, alive_at_open = [], []

        class Tape(GradientTape):
            def __enter__(self):
                alive_at_open.append([ref() is not None for ref in opened])
                opened.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(training, "GradientTape", Tape)
        dense_model.set_tracking(encoder=True, head=True, classifier=False)
        _per_term_step(dense_model, losses.pretrain_loss, LossConfig(scheme="SCL"),
                       _step_batch(rng))
        assert alive_at_open == [[], [False]]
        assert [ref() for ref in opened] == [None, None]


@pytest.mark.parametrize("scenario, scheme, phase_index, short", [
    ("ST", "CL", 0, "views"),
    ("AT", "SCL", 0, "x_adv"),
    ("AT", "SL", 0, "x_adv"),
    ("Full-AT", "CL", 1, "x_adv"),  # the fine-tuning attack
])
def test_a_short_view_or_attack_stops_the_step_before_its_loss(
        gauss_splits, monkeypatch, scenario, scheme, phase_index, short):
    """Every member of a training batch is checked against its x and y: a
    view or x_adv one row short raises DataError, and no loss runs."""
    d_p, _ = gauss_splits
    called = []
    for name in ("pretrain_loss", "finetune_loss", "combined_scheme_loss"):
        monkeypatch.setattr(losses, name, lambda *args, name=name: called.append(name))
    if short == "views":
        make_views = data.make_views

        def short_views(x, spec, seed):
            xp, xpp = make_views(x, spec, seed)
            return xp, xpp[:-1]

        monkeypatch.setattr(data, "make_views", short_views)
    else:
        monkeypatch.setattr(attacks, "pgd", lambda model, batch, spec: batch.x[1:].copy())
    spec = small_spec(scenario=scenario, scheme=scheme, pretrain_epochs=1, finetune_epochs=1,
                      train_attack=AttackSpec(epsilon=0.05, steps=1))
    phase = training._phases(spec, d_p, d_p)[phase_index]
    with pytest.raises(data.DataError, match="batch members disagree on leading dimension"):
        training._run_phase(fresh_model(), spec, phase)
    assert called == []


def test_loss_csv_format(tmp_path):
    rec = RunRecord([(0, "pretrain", 1.5), (1, "finetune", 0.25)], {})
    p = tmp_path / "loss.csv"
    training.write_loss_csv(rec, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "epoch,phase,loss"
    assert lines[1] == "0,pretrain,1.5"
