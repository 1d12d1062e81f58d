import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as G
from graph_oracle import finite_diff_check
from robustcl import tensor as T
from robustcl.tensor import GradientTape, NonFiniteError, Tensor, TensorError, backward


def grad_for(f, x_data):
    x = Tensor(x_data, grad_tracked=True)
    with GradientTape() as tape:
        out = f(x)
    return backward(tape, out).get(x)


class TestPrimitives:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = G.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_relu_definition(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_l2_normalize_345(self):
        out = T.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(TensorError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(TensorError):  # a row bias is added only inside dense
            T.add(Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        with pytest.raises(TensorError):
            G.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_non_finite_input_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])
        with pytest.raises(NonFiniteError):
            T.exp(Tensor([1000.0]))

    @pytest.mark.parametrize("op, make", [
        ("add", lambda: T.add(Tensor([1e308]), Tensor([1e308]))),
        ("exp", lambda: T.exp(Tensor([1000.0]))),
    ])
    def test_non_finite_error_names_the_primitive(self, op, make):
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=f"output of {op}$"):
            make()

    def test_row_bias_add(self):
        out = G.add(Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_conv_requires_4d(self):
        with pytest.raises(TensorError):
            T.conv2d_3x3(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 1, 3, 3))),
                         Tensor(np.zeros(1)))

    def test_concat_slice_roundtrip(self, rng):
        a, b = rng.random((3, 4)), rng.random((2, 4))
        cat = T.concat_rows(Tensor(a), Tensor(b))
        assert np.array_equal(G.slice_rows(cat, 0, 3).data, a)
        assert np.array_equal(G.slice_rows(cat, 3, 5).data, b)


class TestBackward:
    def test_quadratic(self):
        g = grad_for(lambda x: G.tsum(T.mul(x, x)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(g, [2.0, 4.0, 6.0])

    def test_constant_output_empty_map(self):
        c = Tensor(3.0)
        with GradientTape() as tape:
            pass
        assert backward(tape, c) == {}

    def test_tracked_leaf_as_output(self):
        a = Tensor(2.0, grad_tracked=True)
        with GradientTape() as tape:
            T.scale(a, 3.0)
        grads = backward(tape, a)
        assert list(grads) == [a] and np.array_equal(grads[a], 1.0)

    def test_output_of_an_earlier_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0], grad_tracked=True)
        with GradientTape():
            h = T.scale(x, 3.0)
        with GradientTape() as tape:
            out = G.tsum(T.mul(h, h))
        grads = backward(tape, out)
        assert list(grads) == [h] and np.array_equal(grads[h], [6.0, 12.0])

    def test_paths_accumulate_last_consumer_first(self, rng):
        x_data = rng.standard_normal(64)
        c = rng.standard_normal(64)
        x = Tensor(x_data, grad_tracked=True)
        with GradientTape() as tape:
            p, q, r = T.scale(x, 3.0), T.exp(x), T.mul(x, Tensor(c))
            out = G.tsum(T.add(T.add(p, q), r))
        g = backward(tape, out)[x]
        # the consumers of x are reached in reverse tape order: r, q, p
        expected = (c + np.exp(x_data)) + 3.0
        assert not np.array_equal(expected, c + (np.exp(x_data) + 3.0))
        assert g.tobytes() == expected.tobytes()

    def test_tapes_run_into_one_map_accumulate_in_their_order(self, rng):
        x_data = rng.standard_normal(64)
        c = rng.standard_normal(64)
        x = Tensor(x_data, grad_tracked=True)
        grads = {}
        for f in (lambda: T.mul(x, Tensor(c)), lambda: T.exp(x), lambda: T.scale(x, 3.0)):
            with GradientTape() as tape:
                out = G.tsum(f())
            assert backward(tape, out, grads) is grads
        # the same sum as one tape whose reverse pass meets them in this order
        assert list(grads) == [x]
        assert grads[x].tobytes() == ((c + np.exp(x_data)) + 3.0).tobytes()

    def test_non_scalar_output_rejected(self):
        x = Tensor([1.0, 2.0], grad_tracked=True)
        with GradientTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(TensorError):
            backward(tape, y)

    def test_tape_consumed_once(self):
        x = Tensor([1.0], grad_tracked=True)
        with GradientTape() as tape:
            y = G.tsum(x)
        backward(tape, y)
        with pytest.raises(TensorError):
            backward(tape, y)

    def test_network_matches_finite_differences(self, rng):
        w = Tensor(rng.standard_normal((6, 4)))
        x = Tensor(rng.standard_normal((3, 6)))
        err = finite_diff_check(lambda t: G.tmean(T.relu(G.matmul(t, w))), x)
        assert err < 1e-4

    def test_linearity(self, rng):
        x_data = rng.standard_normal(5)

        def f(x):
            return G.tsum(T.mul(x, x))

        def g(x):
            return G.tsum(T.exp(T.scale(x, 0.1)))

        gf = grad_for(f, x_data)
        gg = grad_for(g, x_data)
        combo = grad_for(lambda x: T.add(T.scale(f(x), 2.0), T.scale(g(x), 3.0)), x_data)
        assert np.max(np.abs(combo - (2.0 * gf + 3.0 * gg))) < 1e-10

    def test_determinism(self, rng):
        w_data = rng.standard_normal((4, 4))
        x_data = rng.standard_normal((2, 4))

        def run():
            w = Tensor(w_data.copy(), grad_tracked=True)
            with GradientTape() as tape:
                out = G.tmean(T.relu(G.matmul(Tensor(x_data.copy()), w)))
            return backward(tape, out)[w]

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("op", ["maxpool", "conv"])
    def test_image_ops_finite_diff(self, op, rng):
        x = Tensor(rng.random((2, 2, 4, 4)) + 0.05)
        if op == "maxpool":
            f = lambda t: G.tmean(T.maxpool2x2(t))
        else:
            w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3)
            b = Tensor(rng.standard_normal(3) * 0.1)
            f = lambda t: G.tmean(T.relu(T.conv2d_3x3(t, w, b)))
        assert finite_diff_check(f, x) < 1e-4


# (op, shape of a, shape of b) for every primitive whose backward skips the
# gradient of an input that is not tracked
TWO_INPUT_OPS = [
    (G.matmul, (3, 4), (4, 2)),
    (T.mul, (3, 4), (3, 4)),
    (G.add, (3, 4), (4,)),  # row bias
    (T.sub, (3, 4), (3, 4)),
]


class TestBackwardSkipsUntrackedInputs:
    @staticmethod
    def _grads(op, a_data, b_data, track_a, track_b):
        a = Tensor(a_data, grad_tracked=track_a)
        b = Tensor(b_data, grad_tracked=track_b)
        with GradientTape() as tape:
            out = op(a, b)
            weights = np.linspace(-1.0, 2.0, out.data.size).reshape(out.shape)
            loss = G.tsum(T.mul(out, Tensor(weights)))
        grads = backward(tape, loss)
        return grads, a, b

    @pytest.mark.parametrize("op, a_shape, b_shape", TWO_INPUT_OPS)
    def test_kept_gradient_bitwise_unchanged(self, op, a_shape, b_shape, rng):
        a_data = rng.standard_normal(a_shape)
        b_data = rng.uniform(0.5, 2.0, size=b_shape)
        both, a2, b2 = self._grads(op, a_data, b_data, True, True)
        only_a, a1, b1 = self._grads(op, a_data, b_data, True, False)
        only_b, a0, b0 = self._grads(op, a_data, b_data, False, True)
        assert np.array_equal(only_a[a1], both[a2])
        assert np.array_equal(only_b[b0], both[b2])
        # an untracked input gets no entry
        assert list(only_a) == [a1] and list(only_b) == [b0]

    @pytest.mark.parametrize("op, a_shape, b_shape", TWO_INPUT_OPS)
    def test_closure_skips_unneeded_side(self, op, a_shape, b_shape):
        a = Tensor(np.ones(a_shape), grad_tracked=True)
        b = Tensor(np.ones(b_shape), grad_tracked=True)
        with GradientTape() as tape:
            out = op(a, b)
        (_, _, backward_fn), = tape.nodes
        ga, gb = backward_fn(np.ones_like(out.data), (True, False))
        assert ga is not None and gb is None

    @pytest.mark.parametrize("track_b_later", [False, True])
    def test_need_flags_read_at_backward_time(self, track_b_later):
        a = Tensor([1.0], grad_tracked=True)
        b = Tensor([2.0])
        out = Tensor(3.0, grad_tracked=True)
        seen = []

        def bwd(g, need):
            seen.append(need)
            return (g, g)

        tape = GradientTape()
        tape.record(out, [a, b], bwd)
        b.grad_tracked = track_b_later
        grads = backward(tape, out)
        assert seen == [(True, track_b_later)]
        assert (b in grads) == track_b_later

    def test_a_node_whose_inputs_were_untracked_before_the_pass_is_skipped(self):
        a = Tensor([1.0], grad_tracked=True)
        h = Tensor([2.0], grad_tracked=True)
        out = Tensor(3.0, grad_tracked=True)
        seen = []

        def bwd(g, need):
            seen.append(need)
            return (g,)

        tape = GradientTape()
        tape.record(h, [a], bwd)
        tape.record(out, [h], lambda g, need: (g,))
        a.grad_tracked = False
        assert backward(tape, out) == {}
        assert seen == []


def _chain(x, w, b, relu):
    h = G.add(G.matmul(x, w), b)
    return T.relu(h) if relu else h


class TestDense:
    """`dense` is relu(add(matmul(x, w), b)) (or add(matmul(x, w), b)) in
    one node, and bitwise equal to that chain."""

    @staticmethod
    def _run(layer, data, tracked, seed_grad, relu):
        # the loss sum(out * seed_grad) sends seed_grad itself upstream into
        # out: tsum's backward gives ones, and 1.0 * seed_grad is seed_grad
        leaves = [Tensor(d.copy(), grad_tracked=t) for d, t in zip(data, tracked)]
        with GradientTape() as tape:
            out = layer(*leaves, relu=relu)
            nodes = len(tape.nodes)
            loss = G.tsum(T.mul(out, Tensor(seed_grad)))
        grads = backward(tape, loss)
        return out, [grads.get(t) for t in leaves], nodes

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("tracked", [(a, b, c) for a in (True, False)
                                         for b in (True, False) for c in (True, False)])
    def test_output_and_gradients_bitwise_equal_the_chain(self, tracked, relu, rng):
        # small integers make exact zeros in the pre-activation, where relu's
        # gradient is 0, and a negative seed there gives -0.0 in both
        data = [rng.integers(-2, 3, size=(9, 5)).astype(float),
                rng.integers(-2, 3, size=(5, 7)).astype(float),
                rng.integers(-2, 3, size=7).astype(float)]
        assert (data[0] @ data[1] + data[2] == 0.0).any()
        seed_grad = rng.standard_normal((9, 7))
        out, grads, nodes = self._run(T.dense, data, tracked, seed_grad, relu)
        want, want_grads, _ = self._run(_chain, data, tracked, seed_grad, relu)
        assert out.data.tobytes() == want.data.tobytes()
        assert out.grad_tracked == any(tracked)
        assert nodes == (1 if any(tracked) else 0)
        for got, exp, t in zip(grads, want_grads, tracked):
            assert (got is None) == (not t) == (exp is None)
            if t:
                assert got.tobytes() == exp.tobytes()

    def test_closure_skips_unneeded_products(self, rng):
        leaves = [Tensor(rng.standard_normal(s), grad_tracked=True)
                  for s in ((3, 4), (4, 2), (2,))]
        with GradientTape() as tape:
            out = T.dense(*leaves, relu=True)
        (_, _, backward_fn), = tape.nodes
        gx, gw, gb = backward_fn(np.ones_like(out.data), (True, False, False))
        assert gx is not None and gw is None and gb is None

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("x, w", [
        ([[1e308, 1e308]], [[1e308], [1e308]]),  # +inf
        ([[1e308, 1e308]], [[-1e308], [-1e308]]),  # -inf, which relu would hide
        ([[1e308, 1e308]], [[1e308], [-1e308]]),  # inf - inf = nan
    ])
    def test_non_finite_pre_activation_raises(self, x, w, relu):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonFiniteError, match="output of dense$"):
            T.dense(Tensor(x), Tensor(w), Tensor([0.0]), relu=relu)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((3,), (3, 2), (2,)),  # 1-D input
        ((2, 3), (4, 2), (2,)),  # inner dimensions differ
        ((2, 3), (3, 2), (3,)),  # bias width differs
        ((2, 3), (3, 2), (1, 2)),  # bias not 1-D
        ((2, 3, 1), (3, 2), (2,)),  # 3-D input
    ])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(TensorError, match="^dense: incompatible shapes"):
            T.dense(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                    Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_matches_finite_differences(self, wrt, rng):
        data = [rng.standard_normal((4, 6)), rng.standard_normal((6, 3)),
                rng.standard_normal(3)]
        head = Tensor(rng.standard_normal((3, 2)))

        def f(t):
            args = [Tensor(d) for d in data]
            args[wrt] = t
            h = T.dense(*args, relu=True)
            return G.tmean(T.exp(T.scale(G.matmul(h, head), 0.1)))

        assert finite_diff_check(f, Tensor(data[wrt])) < 1e-6


class TestFiniteDiffCheck:
    def test_sum_of_squares(self, rng):
        x = Tensor(rng.standard_normal(10))
        assert finite_diff_check(lambda t: G.tsum(T.mul(t, t)), x) < 1e-6

    def test_constant_function(self):
        x = Tensor(np.ones(4))
        err = finite_diff_check(lambda t: G.tsum(T.scale(t, 0.0)), x)
        assert err == 0.0

    def test_bad_h_rejected(self):
        with pytest.raises(TensorError):
            finite_diff_check(lambda t: G.tsum(t), Tensor([1.0]), h=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_smooth_ops_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 3))
    x = Tensor(rng.standard_normal((2, 5)) * 0.5)

    def f(t):
        h = G.matmul(t, Tensor(w))
        return G.tmean(T.log(T.add(T.exp(h), Tensor(np.ones_like(h.data)))))

    assert finite_diff_check(f, x) < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_l2_normalize_gradient(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)) + 0.1)
    direction = rng.standard_normal((3, 4))
    f = lambda t: G.tsum(T.mul(T.l2_normalize_rows(t), Tensor(direction)))
    assert finite_diff_check(f, x) < 1e-4
