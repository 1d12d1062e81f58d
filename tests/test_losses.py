import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as G
from graph_oracle import finite_diff_check
from robustcl import losses, models
from robustcl import tensor as T
from robustcl.data import ViewBatch
from robustcl.losses import LossConfig, LossError, cross_entropy, nt_xent, supcon
from robustcl.tensor import GradientTape, NonFiniteError, Tensor, backward


def brute_nt_xent(za, zb, tau):
    z = np.concatenate([za, zb])
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m, n = len(z), len(za)
    total = 0.0
    for i in range(m):
        p = i + n if i < n else i - n
        num = np.exp(z[i] @ z[p] / tau)
        den = sum(np.exp(z[i] @ z[k] / tau) for k in range(m) if k != i)
        total += -np.log(num / den)
    return total / m


def brute_supcon(z, y, tau):
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    m = len(z)
    vals = []
    for i in range(m):
        pos = [p for p in range(m) if p != i and y[p] == y[i]]
        if not pos:
            continue
        den = sum(np.exp(z[i] @ z[a] / tau) for a in range(m) if a != i)
        s = sum(np.log(np.exp(z[i] @ z[p] / tau) / den) for p in pos)
        vals.append(-s / len(pos))
    return float(np.mean(vals))


class TestNTXent:
    def test_single_pair_zero(self, rng):
        za, zb = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        assert nt_xent(Tensor(za), Tensor(zb), 0.5).item() == 0.0

    def test_closed_form_axis_pairs(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = nt_xent(Tensor(z), Tensor(z.copy()), 1.0).item()
        assert abs(loss - np.log((np.e + 2) / np.e)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_bruteforce(self, n, rng):
        za, zb = rng.standard_normal((n, 5)), rng.standard_normal((n, 5))
        mine = nt_xent(Tensor(za), Tensor(zb), 0.5).item()
        assert abs(mine - brute_nt_xent(za, zb, 0.5)) < 1e-10

    def test_symmetry(self, rng):
        za, zb = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        a = nt_xent(Tensor(za), Tensor(zb), 0.3).item()
        b = nt_xent(Tensor(zb), Tensor(za), 0.3).item()
        assert abs(a - b) < 1e-12

    def test_bad_temperature(self, rng):
        z = rng.standard_normal((2, 3))
        with pytest.raises(LossError):
            nt_xent(Tensor(z), Tensor(z), 0.0)

    @pytest.mark.parametrize("shape_a, shape_b", [((4, 3), (5, 3)), ((4, 3), (4, 2)),
                                                  ((4,), (4,))])
    def test_incompatible_shapes(self, rng, shape_a, shape_b):
        with pytest.raises(LossError, match="nt_xent: incompatible shapes"):
            nt_xent(Tensor(rng.standard_normal(shape_a)),
                    Tensor(rng.standard_normal(shape_b)), 0.5)

    def test_gradient_finite_diff(self, rng):
        w = rng.standard_normal((4, 5))

        def f(t):
            h = G.matmul(t, Tensor(w))
            return nt_xent(G.slice_rows(h, 0, 3), G.slice_rows(h, 3, 6), 0.5)

        assert finite_diff_check(f, Tensor(rng.standard_normal((6, 4)))) < 1e-4


class TestSupCon:
    def test_identical_same_class(self, rng):
        z = np.tile(rng.standard_normal(3), (4, 1))
        loss = supcon(Tensor(z), np.zeros(4, dtype=int), 0.7).item()
        assert abs(loss - np.log(3)) < 1e-9

    def test_no_positives_error(self, rng):
        z = rng.standard_normal((2, 3))
        with pytest.raises(LossError):
            supcon(Tensor(z), np.array([0, 1]), 0.1)

    @pytest.mark.parametrize("shape", [(1, 3), (4,)])
    def test_fewer_than_two_rows_or_not_a_matrix(self, rng, shape):
        with pytest.raises(LossError, match="supcon: need an"):
            supcon(Tensor(rng.standard_normal(shape)), np.zeros(shape[0], dtype=int), 0.1)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_matches_bruteforce(self, m, rng):
        z = rng.standard_normal((m, 6))
        y = rng.integers(0, 3, m)
        y[1] = y[0]
        mine = supcon(Tensor(z), y, 0.1).item()
        assert abs(mine - brute_supcon(z, y, 0.1)) < 1e-10

    def test_anchor_skipping(self, rng):
        # one singleton class mixed in; brute force skips it too
        z = rng.standard_normal((5, 4))
        y = np.array([0, 0, 1, 1, 2])
        mine = supcon(Tensor(z), y, 0.2).item()
        assert abs(mine - brute_supcon(z, y, 0.2)) < 1e-10

    def test_pairwise_labels_vs_nt_xent(self, rng):
        # every class has exactly 2 members: SupCon == NT-Xent-style pairing
        for n in (2, 3, 4):
            za = rng.standard_normal((n, 4))
            zb = rng.standard_normal((n, 4))
            z = np.concatenate([za, zb])
            y = np.concatenate([np.arange(n), np.arange(n)])
            tau = 0.5
            assert abs(supcon(Tensor(z), y, tau).item()
                       - brute_nt_xent(za, zb, tau)) < 1e-10


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((3, 10))), np.array([0, 5, 9])).item()
        assert abs(loss - np.log(10)) < 1e-12

    def test_monotone_in_true_logit(self, rng):
        logits = rng.standard_normal((1, 4))
        vals = []
        for boost in (0.0, 2.0, 10.0, 50.0):
            l2 = logits.copy()
            l2[0, 1] += boost
            vals.append(cross_entropy(Tensor(l2), np.array([1])).item())
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_reference_formula(self, rng):
        logits = rng.standard_normal((5, 4))
        y = rng.integers(0, 4, 5)
        ref = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(5), y])
        assert abs(cross_entropy(Tensor(logits), y).item() - ref) < 1e-12

    def test_label_out_of_range(self, rng):
        with pytest.raises(LossError):
            cross_entropy(Tensor(rng.standard_normal((2, 3))), np.array([0, 3]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_logits_must_be_a_matrix(self, rng, shape):
        with pytest.raises(LossError, match="cross_entropy: need"):
            cross_entropy(Tensor(rng.standard_normal(shape)), np.zeros(2, dtype=int))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    z = rng.standard_normal((m, 4))
    y = rng.integers(0, 2, m)
    y[1] = y[0]
    perm = rng.permutation(m)
    a = supcon(Tensor(z), y, 0.4).item()
    b = supcon(Tensor(z[perm]), y[perm], 0.4).item()
    assert abs(a - b) < 1e-12
    za, zb = rng.standard_normal((m, 4)), rng.standard_normal((m, 4))
    pa = nt_xent(Tensor(za), Tensor(zb), 0.6).item()
    pb = nt_xent(Tensor(za[perm]), Tensor(zb[perm]), 0.6).item()
    assert abs(pa - pb) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    za, zb = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    assert nt_xent(Tensor(za), Tensor(zb), 0.5).item() >= 0.0
    y = rng.integers(0, 2, 2 * n)
    y[1] = y[0]
    assert supcon(Tensor(np.concatenate([za, zb])), y, 0.2).item() >= 0.0
    logits = rng.standard_normal((n, 4))
    assert cross_entropy(Tensor(logits), rng.integers(0, 4, n)).item() >= 0.0


# ---------------------------------------------------------------------------
# the fused softmax cross-entropy node against the graph-built losses
# ---------------------------------------------------------------------------

def _graph_lse(s):
    m = s.data.max(axis=1, keepdims=True)
    shifted = T.sub(s, Tensor(np.broadcast_to(m, s.shape).copy()))
    return T.add(T.log(G.tsum(T.exp(shifted), axis=1)), Tensor(m[:, 0]))


def _graph_similarity(zn, tau):
    s = T.scale(G.matmul(zn, G.transpose(zn)), 1.0 / tau)
    self_mask = np.zeros(s.shape)
    np.fill_diagonal(self_mask, -1e9)
    return T.add(s, Tensor(self_mask))


def graph_nt_xent(z_a, z_b, tau):
    """NT-Xent as a chain of tape primitives (the oracle for the fused node)."""
    n = z_a.shape[0]
    m = 2 * n
    s = _graph_similarity(T.l2_normalize_rows(T.concat_rows(z_a, z_b)), tau)
    pos_mask = np.zeros((m, m))
    pos_mask[np.arange(m), np.concatenate([np.arange(n) + n, np.arange(n)])] = 1.0
    pos = G.tsum(T.mul(s, Tensor(pos_mask)), axis=1)
    return G.tmean(T.sub(_graph_lse(s), pos))


def graph_supcon(z, y, tau):
    m = z.shape[0]
    s = _graph_similarity(T.l2_normalize_rows(z), tau)
    pos_mask = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(pos_mask, 0.0)
    pos_counts = pos_mask.sum(axis=1)
    anchors = pos_counts > 0
    lse = _graph_lse(s)
    pos_sum = G.tsum(T.mul(s, Tensor(pos_mask)), axis=1)
    weights = np.where(anchors, 1.0 / np.maximum(pos_counts, 1.0), 0.0)
    counts = Tensor(np.where(anchors, pos_counts, 1.0))
    weighted = T.mul(T.sub(T.mul(lse, counts), pos_sum), Tensor(weights))
    return T.scale(G.tsum(weighted), 1.0 / float(anchors.sum()))


def graph_cross_entropy(logits, y):
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    true_logit = G.tsum(T.mul(logits, Tensor(onehot)), axis=1)
    return G.tmean(T.sub(_graph_lse(logits), true_logit))


def _run(loss_fn, arrays, tracked, upstream):
    """Loss value, tape length and the gradient of every input (None if
    untracked), with the loss scaled by `upstream` before backward."""
    xs = [Tensor(a.copy(), grad_tracked=t) for a, t in zip(arrays, tracked)]
    with GradientTape() as tape:
        loss = loss_fn(*xs)
        out = T.scale(loss, upstream)
    grads = backward(tape, out)
    return loss.data, len(tape.nodes), [grads.get(x) for x in xs]


def _assert_bitwise(fused, graph, arrays, tracked=None, upstream=1.0):
    tracked = tracked or [True] * len(arrays)
    v_f, nodes_f, g_f = _run(fused, arrays, tracked, upstream)
    v_g, nodes_g, g_g = _run(graph, arrays, tracked, upstream)
    assert np.array_equal(v_f, v_g)
    for a, b, t in zip(g_f, g_g, tracked):
        assert (a is None) == (b is None) == (not t)
        if t:
            assert np.array_equal(a, b)
    return nodes_f, nodes_g


def _supcon_labels(rng, m):
    y = rng.integers(0, max(1, m // 3), m)
    y[1] = y[0]
    return y


class TestFusedLossBitIdentity:
    # 160 and 416 are the stacked rows of the fixture's last ST batch (80
    # rows) and last adversarial batch (208 rows). A negative upstream gives
    # the logit gradient -0.0 entries, where subtracting at the positives
    # only and subtracting gw * 0.0 everywhere could differ in a zero's sign.
    BIT_SIZES = [2, 6, 160, 416, 512]

    @pytest.mark.parametrize("upstream", [0.3, -0.3])
    @pytest.mark.parametrize("m", BIT_SIZES)
    def test_nt_xent(self, m, upstream, rng):
        za, zb = rng.standard_normal((2, m // 2, 16))
        nodes, graph_nodes = _assert_bitwise(lambda a, b: nt_xent(a, b, 0.2),
                                             lambda a, b: graph_nt_xent(a, b, 0.2),
                                             [za, zb], upstream=upstream)
        # concat_rows, l2_normalize_rows and the fused node, then the scale
        assert nodes == 4 < graph_nodes

    @pytest.mark.parametrize("upstream", [1.7, -0.3])
    @pytest.mark.parametrize("m", BIT_SIZES)
    def test_supcon(self, m, upstream, rng):
        z = rng.standard_normal((m, 16))
        y = _supcon_labels(rng, m)
        nodes, _ = _assert_bitwise(lambda t: supcon(t, y, 0.2),
                                   lambda t: graph_supcon(t, y, 0.2), [z],
                                   upstream=upstream)
        assert nodes == 3

    @pytest.mark.parametrize("upstream", [0.5, -0.3])
    @pytest.mark.parametrize("m", BIT_SIZES)
    def test_cross_entropy(self, m, upstream, rng):
        logits = 3.0 * rng.standard_normal((m, 10))
        y = rng.integers(0, 10, m)
        nodes, _ = _assert_bitwise(lambda t: cross_entropy(t, y),
                                   lambda t: graph_cross_entropy(t, y), [logits],
                                   upstream=upstream)
        assert nodes == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n, d, c = (int(v) for v in rng.integers(1, 40, 3))
        tau = float(rng.uniform(0.05, 1.0))
        za, zb = rng.standard_normal((2, n, d))
        _assert_bitwise(lambda a, b: nt_xent(a, b, tau),
                        lambda a, b: graph_nt_xent(a, b, tau), [za, zb])
        z = np.concatenate([za, zb])
        y = _supcon_labels(rng, 2 * n)
        _assert_bitwise(lambda t: supcon(t, y, tau),
                        lambda t: graph_supcon(t, y, tau), [z])
        logits = rng.standard_normal((n, c + 1))
        y = rng.integers(0, c + 1, n)
        _assert_bitwise(lambda t: cross_entropy(t, y),
                        lambda t: graph_cross_entropy(t, y), [logits])

    @pytest.mark.parametrize("m", [6, 512])
    def test_attack_case_one_half_untracked(self, m, rng):
        # PGD stacks the untracked clean embedding with the tracked adversarial one
        za, zb = rng.standard_normal((2, m // 2, 16))
        _assert_bitwise(lambda a, b: nt_xent(a, b, 0.5),
                        lambda a, b: graph_nt_xent(a, b, 0.5), [za, zb],
                        tracked=[False, True])
        y = _supcon_labels(rng, m // 2)
        y2 = np.concatenate([y, y])
        _assert_bitwise(lambda a, b: supcon(T.concat_rows(a, b), y2, 0.5),
                        lambda a, b: graph_supcon(T.concat_rows(a, b), y2, 0.5),
                        [za, zb], tracked=[False, True])

    def test_supcon_anchors_without_positives(self, rng):
        z = rng.standard_normal((7, 5))
        y = np.array([0, 0, 1, 2, 2, 2, 3])  # classes 1 and 3 have no positive
        _assert_bitwise(lambda t: supcon(t, y, 0.3),
                        lambda t: graph_supcon(t, y, 0.3), [z])
        g = _run(lambda t: supcon(t, y, 0.3), [z], [True], 1.0)[2][0]
        assert np.all(np.isfinite(g)) and np.any(g[2] != 0.0)

    def test_non_finite_error_names_the_fused_op(self):
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="output of softmax_xent$"):
            cross_entropy(Tensor([[1e308, -1e308]]), np.array([1]))

    def test_positives_are_indices_and_masks_no_pass_writes(self, rng, monkeypatch):
        n = 5
        m = 2 * n
        cols, *_ = losses._nt_xent_terms(n)
        assert np.array_equal(cols, (np.arange(m) + n) % m)
        y = np.array([0, 1, 0, 2, 1, 0, 3, 3, 1, 2])
        mask, *_ = losses._supcon_terms(y, m)
        assert mask.dtype == bool and not mask.diagonal().any()
        assert np.array_equal(mask, (y[:, None] == y) & ~np.eye(m, dtype=bool))
        seen = []
        softmax_xent = losses._softmax_xent

        def spy(x, s, pos, *rest, **kw):
            seen.append((pos, pos.copy()))
            return softmax_xent(x, s, pos, *rest, **kw)

        monkeypatch.setattr(losses, "_softmax_xent", spy)
        za, zb = rng.standard_normal((2, n, 4))
        _run(lambda a, b: nt_xent(a, b, 0.5), [za, zb], [True, True], -0.3)
        _run(lambda t: supcon(t, y, 0.5), [np.concatenate([za, zb])], [True], -0.3)
        labels = y[:n]
        _run(lambda t: cross_entropy(t, labels), [rng.standard_normal((n, 4))], [True], -0.3)
        # cross-entropy's positive for row i is column y_i
        for (_, kept), want in zip(seen, (cols, mask, labels)):
            assert kept.dtype == want.dtype and np.array_equal(kept, want)
        # the forward and backward passes wrote into none of them
        assert len(seen) == 3 and all(np.array_equal(pos, kept) for pos, kept in seen)


# ---------------------------------------------------------------------------
# the per-attack contrastive target against the fused node
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _tape_attack_grad(z_clean, z, driving_loss, tau, y):
    """d loss / d z through a tape, as PGD took it before the target: the
    untracked clean rows stacked with the tracked iterate rows."""
    clean, leaf = Tensor(z_clean), Tensor(z, grad_tracked=True)
    with GradientTape() as tape:
        if driving_loss == "CL":
            loss = nt_xent(clean, leaf, tau)
        else:
            loss = supcon(T.concat_rows(clean, leaf), np.concatenate([y, y]), tau)
    return backward(tape, loss)[leaf]


class TestContrastiveTarget:
    @pytest.mark.parametrize("tau", [None, 0.2])
    @pytest.mark.parametrize("driving_loss", ["CL", "SCL"])
    # 65 stacks to 130 rows: SupCon's row blocks end in a partial block
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 208, 244, 256])
    def test_grad_is_the_fused_nodes_bit_for_bit(self, n, driving_loss, tau, rng):
        if tau is None:
            tau = losses.DEFAULT_TAU_CL if driving_loss == "CL" else losses.DEFAULT_TAU_SCL
        z_clean = rng.standard_normal((n, 16))
        kept = z_clean.copy()
        y = rng.integers(0, 10, n)
        target = losses.ContrastiveTarget(z_clean, driving_loss, tau, y)
        for _ in range(3):  # the target's buffers are reused across steps
            z = z_clean + 0.3 * rng.standard_normal((n, 16))
            assert _same_bits(target.grad(z),
                              _tape_attack_grad(z_clean, z, driving_loss, tau, y))
        assert _same_bits(z_clean, kept)

    def test_zero_rows_raise_like_the_fused_node(self, rng):
        z = rng.standard_normal((4, 3))
        zero = z.copy()
        zero[2] = 0.0
        with pytest.raises(T.TensorError, match="zero row"):
            losses.ContrastiveTarget(zero, "CL", 0.5)
        target = losses.ContrastiveTarget(z, "SCL", 0.1, np.arange(4))
        with pytest.raises(T.TensorError, match="zero row"):
            target.grad(zero)

    def test_invalid_arguments(self, rng):
        z = rng.standard_normal((4, 3))
        with pytest.raises(LossError, match="temperature"):
            losses.ContrastiveTarget(z, "CL", 0.0)
        with pytest.raises(LossError, match="labels required"):
            losses.ContrastiveTarget(z, "SCL", 0.1)
        with pytest.raises(LossError, match="label count"):
            losses.ContrastiveTarget(z, "SCL", 0.1, np.arange(3))
        with pytest.raises(LossError, match="unknown contrastive loss"):
            losses.ContrastiveTarget(z, "CE", 0.1)


class TestCrossEntropyTarget:
    @pytest.mark.parametrize("n", [1, 7, 244, 256])
    def test_grad_is_the_fused_nodes_bit_for_bit(self, n, rng):
        y = rng.integers(0, 10, n)
        target = losses.CrossEntropyTarget(y, n, 10)
        for _ in range(3):  # built once, read at every step
            logits = 3.0 * rng.standard_normal((n, 10))
            leaf = Tensor(logits, grad_tracked=True)
            with GradientTape() as tape:
                loss = cross_entropy(leaf, y)
            want = backward(tape, loss)[leaf]
            assert _same_bits(target.grad(logits.copy()), want)

    @pytest.mark.parametrize("y, c", [([0, 1, 2], 2), ([0, -1, 1], 2), ([0, 1], 2),
                                      ([0, 0, 0], 1)])
    def test_labels_are_checked_like_the_node(self, y, c):
        with pytest.raises(LossError, match="cross_entropy"):
            losses.CrossEntropyTarget(np.array(y), 3, c)
        with pytest.raises(LossError, match="cross_entropy"):
            cross_entropy(Tensor(np.zeros((3, c))), np.array(y))


class TestMemory:
    """The fused node's and the target's (2n)^2 float64 buffers, counted."""

    def test_nt_xent_pass_peaks_near_one_logit_array(self, rng):
        n = 256
        za, zb = rng.standard_normal((2, n, 16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _run(lambda a, b: nt_xent(a, b, 0.5), [za, zb], [True, True], 1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the logits, row-softmaxed and turned into their gradient in place
        assert peak < 1.5 * (2 * n) ** 2 * 8

    def test_supcon_pass_peaks_near_one_logit_array(self, rng):
        m = 512
        z = rng.standard_normal((m, 16))
        y = _supcon_labels(rng, m)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _run(lambda t: supcon(t, y, 0.1), [z], [True], 1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the logits and their gradient in place, the boolean mask and one
        # row block of its products; no float (m, m) positive array
        assert peak < 1.5 * m ** 2 * 8

    @pytest.mark.parametrize("driving_loss", ["CL", "SCL"])
    def test_target_holds_one_float_logit_array(self, driving_loss, rng):
        n = 256
        y = rng.integers(0, 10, n)
        target = losses.ContrastiveTarget(rng.standard_normal((n, 16)), driving_loss, 0.5, y)
        square = [name for name, v in vars(target).items()
                  if isinstance(v, np.ndarray) and v.shape == (2 * n, 2 * n)
                  and v.dtype == np.float64]
        assert square == ["_s"]


class TestSupConRowBlocks:
    """SupCon's products with its boolean positive mask, formed a block of
    rows at a time, against the dense (m, m) products."""

    # one block, two and a partial block, eight whole blocks
    @pytest.mark.parametrize("m", [40, 130, 512])
    def test_blocked_products_are_the_dense_ones_bit_for_bit(self, m, rng):
        pos, *_ = losses._supcon_terms(_supcon_labels(rng, m), m)
        s = rng.standard_normal((m, m))
        assert _same_bits(losses._positive_logits(s, pos), (s * pos).sum(axis=1))
        e = rng.random((m, m))
        r = e.sum(axis=1)
        gw = rng.standard_normal(m)  # negative weights give -0.0 products
        gw_counts = gw * rng.integers(1, 5, m)
        g_s = np.multiply(e, (gw_counts / r)[:, None])
        assert _same_bits(losses._logit_grad(e.copy(), r, gw_counts, pos, gw),
                          g_s - gw[:, None] * pos)


class TestPhaseLossArgumentChecks:
    """Every check of a phase loss raises while its term list is built,
    before any term records a node on the tape."""

    @pytest.mark.parametrize("build, scheme, missing, match", [
        (losses.pretrain_loss, "CL", "x_prime", "pretrain_loss: batch is missing"),
        (losses.finetune_loss, "SL", "y", "finetune_loss: labels required"),
        (losses.combined_scheme_loss, "SL", None, "SL is not a combination"),
        (losses.combined_scheme_loss, "SL+CL", "y", "SL constituent requires labels"),
        (losses.combined_scheme_loss, "SL+CL", "x_double_prime",
         "CL constituent requires augmented views"),
        # the CL constituent's term is built before the SCL one raises
        (losses.combined_scheme_loss, "CL+SCL", "y", "SCL constituent requires labels"),
    ])
    def test_raises_before_a_node_is_recorded(self, build, scheme, missing, match,
                                              dense_model, rng):
        x = rng.random((6, 20))
        batch = ViewBatch(x=x, x_prime=x + 0.01, x_double_prime=x - 0.01,
                          y=rng.integers(0, 2, 6), x_adv=x + 0.02)
        if missing is not None:
            setattr(batch, missing, None)
        dense_model.set_tracking(encoder=True, head=True, classifier=True)
        with GradientTape() as tape, pytest.raises(LossError, match=match):
            build(dense_model, batch, LossConfig(scheme=scheme))
        assert tape.nodes == []

    @pytest.mark.parametrize("build, scheme", [
        (losses.pretrain_loss, "CL"), (losses.pretrain_loss, "SCL"),
        (losses.finetune_loss, "SL"), (losses.combined_scheme_loss, "SL+CL"),
        (losses.combined_scheme_loss, "CL+SCL")])
    def test_building_the_terms_runs_no_forward(self, build, scheme, dense_model, rng):
        x = rng.random((6, 20))
        batch = ViewBatch(x=x, x_prime=x + 0.01, x_double_prime=x - 0.01,
                          y=rng.integers(0, 2, 6), x_adv=x + 0.02)
        dense_model.set_tracking(encoder=True, head=True, classifier=True)
        with GradientTape() as tape:
            terms = build(dense_model, batch, LossConfig(scheme=scheme))
        assert tape.nodes == [] and len(terms) == 2
        assert all(isinstance(w, float) and callable(term) for w, term in terms)


class TestModelLevelLosses:
    @pytest.fixture()
    def batch(self, rng):
        x = rng.random((6, 20))
        return ViewBatch(x=x, x_prime=x + 0.01, x_double_prime=x - 0.01,
                         y=rng.integers(0, 2, 6))

    def test_beta_zero_reduces_to_clean_term(self, dense_model, batch):
        batch.x_adv = batch.x + 0.02
        cfg = LossConfig(scheme="CL", alpha=0.7, beta=0.0)
        loss = G.joint_loss(losses.pretrain_loss(dense_model, batch, cfg)).item()
        clean = losses.contrastive_pair_term(dense_model, batch.x_prime,
                                             batch.x_double_prime, "CL", None, cfg)().item()
        assert abs(loss - 0.7 * clean) < 1e-12

    def test_missing_adv_drops_adversarial_term(self, dense_model, batch):
        # a batch without x_adv was not attacked: beta > 0 adds nothing
        cfg = LossConfig(scheme="CL", alpha=0.7, beta=0.5)
        loss = G.joint_loss(losses.pretrain_loss(dense_model, batch, cfg)).item()
        clean = losses.contrastive_pair_term(dense_model, batch.x_prime,
                                             batch.x_double_prime, "CL", None, cfg)().item()
        assert abs(loss - 0.7 * clean) < 1e-12

    def test_alpha_beta_zero(self, dense_model, batch):
        cfg = LossConfig(scheme="CL", alpha=0.0, beta=0.0)
        assert G.joint_loss(losses.pretrain_loss(dense_model, batch, cfg)).item() == 0.0

    def test_identity_attack_duplicates_terms(self, dense_model, batch):
        batch.x_adv = batch.x.copy()
        cfg = LossConfig(scheme="CL", alpha=0.5, beta=0.5)
        loss = G.joint_loss(losses.pretrain_loss(dense_model, batch, cfg)).item()
        t1 = losses.contrastive_pair_term(dense_model, batch.x_prime,
                                          batch.x_double_prime, "CL", None, cfg)().item()
        t2 = losses.contrastive_pair_term(dense_model, batch.x, batch.x_adv,
                                          "CL", None, cfg)().item()
        assert abs(loss - 0.5 * (t1 + t2)) < 1e-12

    def test_scl_requires_labels(self, dense_model, batch):
        batch.y = None
        with pytest.raises(LossError):
            losses.pretrain_loss(dense_model, batch, LossConfig(scheme="SCL", beta=0.0))

    def test_alpha_beta_scaling(self, dense_model, batch):
        batch.x_adv = batch.x + 0.02
        base = G.joint_loss(losses.pretrain_loss(
            dense_model, batch, LossConfig(scheme="CL", alpha=0.5, beta=0.5))).item()
        doubled = G.joint_loss(losses.pretrain_loss(
            dense_model, batch, LossConfig(scheme="CL", alpha=1.0, beta=1.0))).item()
        assert abs(doubled - 2.0 * base) < 1e-10

    def test_partial_at_grads_exclude_encoder(self, dense_model, batch):
        batch.x_adv = batch.x + 0.02
        dense_model.freeze_encoder = True
        dense_model.set_tracking(encoder=False, head=False, classifier=True)
        with GradientTape() as tape:
            loss = G.joint_loss(losses.finetune_loss(dense_model, batch,
                                                     LossConfig(scheme="SL")))
        grads = backward(tape, loss)
        assert set(grads) <= set(dense_model.classifier_tensors())

    def test_full_at_identity_attack_collapses(self, dense_model, batch):
        cfg = LossConfig(scheme="SL", alpha=0.5, beta=0.5)
        # no x_adv: CE(x)
        std = G.joint_loss(losses.finetune_loss(dense_model, batch, cfg)).item()
        batch.x_adv = batch.x.copy()
        full = G.joint_loss(losses.finetune_loss(dense_model, batch, cfg)).item()
        assert abs(full - (0.5 + 0.5) * std) < 1e-12

    def test_full_at_encoder_grad_finite_diff(self, dense_model, batch, rng):
        batch.x_adv = batch.x + 0.02
        cfg = LossConfig(scheme="SL")
        dense_model.set_tracking(encoder=True, head=False, classifier=True)
        w0 = dense_model.encoder_params[0][0]
        with GradientTape() as tape:
            loss = G.joint_loss(losses.finetune_loss(dense_model, batch, cfg))
        g_auto = backward(tape, loss)[w0]
        h = 1e-5
        base = w0.data.copy()
        coords = [(0, 0), (3, 2), (10, 5), (19, 7)]
        try:
            for idx in coords:
                w0.data = base.copy()
                w0.data[idx] += h
                fp = G.joint_loss(losses.finetune_loss(dense_model, batch, cfg)).item()
                w0.data = base.copy()
                w0.data[idx] -= h
                fm = G.joint_loss(losses.finetune_loss(dense_model, batch, cfg)).item()
                g_fd = (fp - fm) / (2 * h)
                assert abs(g_auto[idx] - g_fd) / max(1.0, abs(g_fd)) < 1e-4
        finally:
            w0.data = base

    def test_combined_reduction_to_ce(self, dense_model, batch):
        cfg = LossConfig(scheme="SL+CL", combo_weights=(1.0, 0.0))
        combined = G.joint_loss(losses.combined_scheme_loss(dense_model, batch, cfg)).item()
        ce = G.joint_loss(losses.finetune_loss(dense_model, batch,
                                               LossConfig(scheme="SL"))).item()
        assert abs(combined - ce) < 1e-12

    def test_combined_closed_form(self, rng):
        # identical embeddings, same class, zero classifier: ln C + ln 3
        from robustcl.models import EncoderConfig, init_model

        m = init_model(EncoderConfig((4, 3), (5,)), 4, 2, seed=0)
        for w, b in m.encoder_params + m.head_params:
            w.data = np.zeros_like(w.data)
            b.data = np.abs(b.data) + 0.1  # same positive bias row everywhere
        wc, bc = m.classifier_params
        wc.data = np.zeros_like(wc.data)
        bc.data = np.zeros_like(bc.data)
        x = rng.random((2, 5))
        batch = ViewBatch(x=x, x_prime=x, x_double_prime=x,
                          y=np.zeros(2, dtype=int))
        cfg = LossConfig(scheme="SL+SCL", combo_weights=(1.0, 1.0))
        loss = G.joint_loss(losses.combined_scheme_loss(m, batch, cfg)).item()
        # SCL constituent sees 4 identical same-class embeddings -> ln 3
        assert abs(loss - (np.log(4) + np.log(3))) < 1e-9

    def test_combined_gradient_linearity(self, dense_model, batch):
        cfg = LossConfig(scheme="SL+CL")
        dense_model.set_tracking(encoder=True, head=True, classifier=True)
        with GradientTape() as tape:
            loss = G.joint_loss(losses.combined_scheme_loss(dense_model, batch, cfg))
        g_sum = backward(tape, loss)
        with GradientTape() as tape:
            ce = G.joint_loss(losses.finetune_loss(dense_model, batch,
                                                   LossConfig(scheme="SL")))
        g_ce = backward(tape, ce)
        with GradientTape() as tape:
            cl = losses.contrastive_pair_term(dense_model, batch.x_prime,
                                              batch.x_double_prime, "CL", None, cfg)()
        g_cl = backward(tape, cl)
        for p in dense_model.all_params():
            combined = g_ce.get(p, 0.0) + g_cl.get(p, 0.0)
            assert np.max(np.abs(g_sum.get(p, np.zeros_like(p.data)) - combined)) < 1e-10
