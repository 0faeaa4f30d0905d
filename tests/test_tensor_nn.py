import re
import weakref

import numpy as np
import pytest

from danae.danae_model import DEFAULT_WINDOW, _run, build_model
from danae.errors import ConfigError, DataError, ShapeError, StateError
from danae.tensor_nn import (
    LEAKY_SLOPE,
    AdamState,
    ConvSpec,
    Tensor,
    activation,
    adam_step,
    add,
    backward,
    conv1d,
    conv1d_transposed,
    l2_loss,
    read_checkpoint,
    write_checkpoint,
)

from helpers import (
    backward_reference,
    conv1d_reference,
    conv1d_transposed_reference,
    header_only_checkpoint,
)


def _one(rows):
    """rows as a float64 (channels, length, 1) batch of one window."""
    return np.asarray(rows, dtype=np.float64)[..., None]


def _rand_conv_case(rng, transposed=False):
    """A random spec, weights, bias and a (channels, length, 1) input."""
    in_ch = int(rng.integers(1, 4))
    out_ch = int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    dilation = int(rng.integers(1, 4))
    # padding up to span + 3 reaches over-padding and, for the transposed
    # conv, the crop branch
    padding = int(rng.integers(0, dilation * (k - 1) + 4))
    length = int(rng.integers(dilation * (k - 1) + 1, 14))
    spec = ConvSpec(in_ch, out_ch, k, dilation=dilation, padding=padding,
                    transposed=transposed)
    length += max(0, 1 - spec.out_length(length))
    w = rng.normal(size=spec.weight_shape())
    b = rng.normal(size=out_ch)
    x = rng.normal(size=(in_ch, length, 1))
    return spec, w, b, x


class TestConv1d:
    def test_identity_kernel(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        y = conv1d(Tensor(_one([[1.0, 2.0, 3.0, 4.0]])),
                   Tensor([[[0.0, 1.0, 0.0]]]), Tensor([0.0]), spec)
        assert np.array_equal(y.data, _one([[1.0, 2.0, 3.0, 4.0]]))

    def test_box_kernel_hand_sum(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        y = conv1d(Tensor(_one([[1.0, 1.0, 1.0, 1.0]])),
                   Tensor(np.ones((1, 1, 3))), Tensor([0.0]), spec)
        assert np.array_equal(y.data, _one([[2.0, 3.0, 3.0, 2.0]]))

    def test_dilated_against_triple_loop(self):
        # frozen from the naive oracle on this exact input
        spec = ConvSpec(1, 1, 3, dilation=2, padding=2)
        x = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
        w = np.ones((1, 1, 3))
        want = conv1d_reference(x, w, None, 2, 2)
        assert np.array_equal(want, [[1.0, 0.0, 2.0, 0.0, 1.0]])
        y = conv1d(Tensor(_one(x)), Tensor(w), None, spec)
        assert np.array_equal(y.data, _one(want))

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            spec, w, b, x = _rand_conv_case(rng)
            y = conv1d(Tensor(x), Tensor(w), Tensor(b), spec)
            want = _one(conv1d_reference(x[..., 0], w, b, spec.padding, spec.dilation))
            assert y.data.shape == want.shape
            assert np.max(np.abs(y.data - want)) < 1e-12

    def test_trailing_batch_axis_agrees_with_per_sample(self):
        rng = np.random.default_rng(12)
        spec = ConvSpec(2, 3, 3, dilation=2, padding=2)
        w = Tensor(rng.normal(size=spec.weight_shape()))
        b = Tensor(rng.normal(size=3))
        batch = rng.normal(size=(2, 9, 4))  # (channels, length, batch)
        stacked = conv1d(Tensor(batch), w, b, spec).data
        for i in range(4):
            single = conv1d(Tensor(batch[:, :, i:i + 1]), w, b, spec).data
            assert np.array_equal(stacked[:, :, i:i + 1], single)

    def test_length_preservation_lemma(self):
        # padding = dilation * (k - 1) / 2 keeps the length for odd k
        rng = np.random.default_rng(13)
        for d in (1, 2, 4, 8):
            for k in (1, 3, 5):
                pad = d * (k - 1) // 2
                spec = ConvSpec(1, 1, k, dilation=d, padding=pad)
                x = rng.normal(size=(1, 20, 1))
                y = conv1d(Tensor(x), Tensor(rng.normal(size=(1, 1, k))), None, spec)
                assert y.data.shape == (1, 20, 1)

    def test_impossible_length_rejected(self):
        spec = ConvSpec(1, 1, 5, dilation=3, padding=0)
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.ones((1, 4, 1))), Tensor(np.ones((1, 1, 5))), None, spec)

    @pytest.mark.parametrize("op", [conv1d, conv1d_transposed])
    @pytest.mark.parametrize("wrap", [Tensor, np.asarray], ids=["tensor", "array"])
    def test_input_of_another_layout_rejected(self, op, wrap):
        # activations are (channels, length, batch) only: an unbatched
        # window, a bare track or an extra axis is a ShapeError naming the
        # shape, on the graph path and the plain-array path alike
        spec = ConvSpec(2, 2, 3, padding=1, transposed=op is conv1d_transposed)
        w, b = np.ones(spec.weight_shape()), np.zeros(2)
        for shape in [(), (2,), (2, 8), (2, 8, 1, 1)]:
            with pytest.raises(ShapeError, match=re.escape(f"got {shape}")):
                op(wrap(np.ones(shape)), wrap(w), wrap(b), spec)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 4)  # even kernel
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 3, dilation=0)
        with pytest.raises(TypeError):
            ConvSpec(1, 1, 3, stride=2)


class TestConv1dTransposed:
    def test_single_sample_scatter(self):
        spec = ConvSpec(1, 1, 3, padding=0, transposed=True)
        y = conv1d_transposed(Tensor(_one([[1.0]])), Tensor(np.ones((1, 1, 3))),
                              Tensor([0.0]), spec)
        assert np.array_equal(y.data, _one([[1.0, 1.0, 1.0]]))

    def test_identity_round_trip(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        spec_t = ConvSpec(1, 1, 3, padding=1, transposed=True)
        ident = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        x = Tensor(_one([[0.5, -1.0, 2.0, 0.0, 3.0]]))
        y = conv1d(x, ident, None, spec)
        back = conv1d_transposed(y, ident, None, spec_t)
        assert np.allclose(back.data, x.data)

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            spec, w, b, x = _rand_conv_case(rng, transposed=True)
            y = conv1d_transposed(Tensor(x), Tensor(w), Tensor(b), spec)
            want = _one(conv1d_transposed_reference(x[..., 0], w, b, spec.padding,
                                                    spec.dilation))
            assert y.data.shape == want.shape
            assert np.max(np.abs(y.data - want)) < 1e-12

    def test_adjoint_identity_random_specs(self):
        # <conv(x), y> == <x, conv_t(y)> with shared weights, no bias
        rng = np.random.default_rng(31)
        for _ in range(100):
            spec, w, _, x = _rand_conv_case(rng)
            y_len = spec.out_length(x.shape[1])
            y = rng.normal(size=(spec.out_channels, y_len, 1))
            spec_t = ConvSpec(spec.out_channels, spec.in_channels,
                              spec.kernel_size, dilation=spec.dilation,
                              padding=spec.padding, transposed=True)
            lhs = float(np.sum(conv1d(Tensor(x), Tensor(w), None, spec).data * y))
            rhs = float(np.sum(x * conv1d_transposed(Tensor(y), Tensor(w), None,
                                                     spec_t).data))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


class TestActivation:
    def test_zero_fixed_point(self):
        y = activation(Tensor([[0.0, 0.0, 0.0]]))
        assert np.array_equal(y.data, [[0.0, 0.0, 0.0]])

    def test_definition(self):
        y = activation(Tensor([[1.0, -1.0]]))
        assert np.array_equal(y.data, [[1.0, -0.01]])

    def test_monotone(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 30))
        b = a + np.abs(rng.normal(size=(2, 30)))
        assert np.all(activation(Tensor(a)).data <= activation(Tensor(b)).data)

    def test_backward_bit_equal_to_slope_product(self):
        # the graph keeps a bool mask and builds the slope from it; its
        # gradient must equal the float slope product bit for bit, signed
        # zeros, subnormals and NaN signs and payloads included
        rng = np.random.default_rng(5)
        payload_nans = np.array([0x7FF8000000000123, 0xFFF8000000000ABC],
                                dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, np.nan, -np.nan, *payload_nans, np.inf, -np.inf,
                   5e-324, -5e-324, 2e-310, -2e-310, 1.0, -1.0]
        # every (x, g) pair of special values, then random batches with zeros
        grid = (np.array([special * len(special)]),
                np.array([np.repeat(special, len(special))]))
        x, g = rng.normal(size=(2, 3, 8, 4))
        x[:, :2, :] = 0.0
        x[:, 2:4, :] = -0.0
        for x, g in (grid, (x, g)):
            xt = Tensor(x)
            y = activation(xt)
            # a backward function overwrites the gradient it is handed
            y._backward_fn(g.copy())
            assert xt.grad.tobytes() == (g * np.where(x > 0, 1.0, LEAKY_SLOPE)).tobytes()

    def test_in_place_node_bit_equal_to_fresh_node(self):
        # activation(x, out=x) rectifies x's own buffer and returns a node
        # sharing it; its value and the gradient backward gives x match the
        # fresh node's bit for bit. The loss target holds the special values
        # too, so the gradients reaching the rectifier do as well
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2e-310, -2e-310, 1.0, -1.0]
        x = np.array([special * len(special)])
        target = np.array([np.repeat(special, len(special))])
        grads = []
        for in_place in (False, True):
            xt = Tensor(x.copy())
            y = activation(xt, out=xt if in_place else None)
            assert y is not xt and y._parents == (xt,)
            assert np.shares_memory(y.data, xt.data) == in_place
            with np.errstate(invalid="ignore"):  # inf - inf in the residual
                backward(l2_loss(y, target))
            grads.append((y.data.tobytes(), xt.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_in_place_after_a_conv_keeps_every_gradient(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(2, 3, 3, padding=1)
        w, b, x = rng.normal(size=spec.weight_shape()), rng.normal(size=3), \
            rng.normal(size=(2, 7, 4))
        target = rng.normal(size=(3, 7, 4))
        results = []
        for in_place in (False, True):
            leaves = [Tensor(w), Tensor(b), Tensor(x)]
            y = conv1d(leaves[2], leaves[0], leaves[1], spec)
            loss = l2_loss(activation(y, out=y if in_place else None), target)
            backward(loss)
            results.append([loss.data.tobytes()] + [t.grad.tobytes() for t in leaves])
        assert results[0] == results[1]


class TestL2Loss:
    def test_perfect_reconstruction(self):
        x = np.ones((1, 5))
        assert l2_loss(Tensor(x), x).item() == 0.0

    def test_constant_offset(self):
        pred = Tensor(np.full((2, 10), 0.1))
        assert l2_loss(pred, np.zeros((2, 10))).item() == pytest.approx(0.01)

    def test_hand_arithmetic(self):
        assert l2_loss(Tensor([[1.0, 2.0]]), [[0.0, 0.0]]).item() == pytest.approx(2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            l2_loss(Tensor(np.ones((1, 3))), np.ones((1, 4)))

    def test_gradient_is_scaled_residual(self):
        pred = Tensor([[1.0, 2.0]])
        loss = l2_loss(pred, [[0.0, 0.0]])
        backward(loss)
        assert np.allclose(pred.grad, [[1.0, 2.0]])  # 2 * diff / N


def _danae_model(rng):
    model = build_model(int(rng.integers(1000)), channels=4)
    x = Tensor(rng.normal(size=(1, DEFAULT_WINDOW, 3)))
    return l2_loss(_run(model, x), rng.normal(size=(1, DEFAULT_WINDOW, 3))), \
        [*model.parameters(), x]


def _conv_added_to_itself(rng):
    spec = ConvSpec(2, 3, 3, padding=1)
    w, b = Tensor(rng.normal(size=spec.weight_shape())), Tensor(rng.normal(size=3))
    x = Tensor(rng.normal(size=(2, 7, 1)))
    y = conv1d(x, w, b, spec)
    return l2_loss(add(y, y), rng.normal(size=(3, 7, 1))), [w, b, x]


def _leaf_added_to_itself(rng):
    a = Tensor(rng.normal(size=(2, 5)))
    return l2_loss(add(a, a), rng.normal(size=(2, 5))), [a]


def _leaf_read_by_two_activations(rng):
    x = Tensor(rng.normal(size=(3, 6)))
    return l2_loss(add(activation(x), activation(x)), rng.normal(size=(3, 6))), [x]


def _tensor_target(rng):
    pred, target = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4)))
    return l2_loss(activation(pred), target), [pred, target]


# graphs as (loss, leaves) builders, fresh leaves on every call
_GRAPHS = (_danae_model, _conv_added_to_itself, _leaf_added_to_itself,
           _leaf_read_by_two_activations, _tensor_target)


class TestBackward:
    def test_backward_on_leaf_rejected(self):
        with pytest.raises(StateError):
            backward(Tensor([[1.0]]))

    def test_non_scalar_root_rejected(self):
        y = activation(Tensor([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            backward(y)

    def test_zero_network_zero_gradients(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        w = Tensor(np.zeros((1, 1, 3)))
        b = Tensor(np.zeros(1))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 8, 1)))
        loss = l2_loss(conv1d(x, w, b, spec), np.zeros((1, 8, 1)))
        backward(loss)
        assert np.array_equal(w.grad, np.zeros((1, 1, 3)))
        assert np.array_equal(b.grad, np.zeros(1))

    def test_fanout_doubles_gradient(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(1, 1, 3)))
        b = Tensor(rng.normal(size=1))
        x = Tensor(rng.normal(size=(1, 6, 1)))
        target = rng.normal(size=(1, 6, 1))

        y = conv1d(x, w, b, spec)
        loss = l2_loss(add(y, y), 2.0 * target)
        backward(loss)
        doubled_w = w.grad.copy()

        w.zero_grad(), b.zero_grad(), x.zero_grad()
        loss_single = l2_loss(conv1d(x, w, b, spec), target)
        backward(loss_single)
        # d/dw mean((2y-2t)^2) = 4 * d/dw mean((y-t)^2)
        assert np.allclose(doubled_w, 4.0 * w.grad)

    def test_grad_accumulates_across_calls(self):
        spec = ConvSpec(1, 1, 3, padding=1)
        w = Tensor(np.ones((1, 1, 3)))
        x = Tensor(np.ones((1, 4, 1)))
        for expected_scale in (1.0, 2.0):
            loss = l2_loss(conv1d(x, w, None, spec), np.zeros((1, 4, 1)))
            backward(loss)
            assert np.allclose(w.grad, expected_scale * _single_pass_grad())


    def test_add_gives_each_leaf_its_own_gradient(self):
        # add hands one gradient array to both parents, so each slot must be
        # a copy of it
        rng = np.random.default_rng(10)
        a, b = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 5)))
        backward(l2_loss(add(a, b), np.zeros((2, 5))))
        assert a.grad is not b.grad
        assert np.array_equal(a.grad, b.grad)
        before = b.grad.copy()
        a.grad += 1.0
        assert np.array_equal(b.grad, before)

    def test_leaf_read_by_two_activations_gets_both_gradients(self):
        # the first activation's gradient becomes the slot; the second must
        # be added to it, not replace it
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 6)))
        target = rng.normal(size=(3, 6))
        backward(l2_loss(add(activation(x), activation(x)), target))
        y = activation(x.data)
        slope = np.where(x.data > 0, 1.0, 0.01)
        per_path = (2.0 / x.data.size) * (y + y - target) * slope
        assert np.array_equal(x.grad, per_path + per_path)

    @pytest.mark.parametrize("graph", _GRAPHS, ids=lambda f: f.__name__[1:])
    def test_second_backward_on_one_graph_raises(self, graph):
        # backward consumes the graph; a second call must fail before it
        # adds anything, not return partial gradients
        loss, leaves = graph(np.random.default_rng(16))
        backward(loss)
        first = [t.grad.tobytes() for t in leaves]
        with pytest.raises(StateError, match="graph already consumed by backward"):
            backward(loss)
        assert [t.grad.tobytes() for t in leaves] == first

    def test_new_loss_on_a_consumed_intermediate_raises(self):
        # a kept prediction outlives its graph: its value stays, but a new
        # loss built on it reaches a consumed node
        rng = np.random.default_rng(19)
        spec = ConvSpec(2, 3, 3, padding=1)
        leaves = [Tensor(rng.normal(size=spec.weight_shape())), Tensor(rng.normal(size=3)),
                  Tensor(rng.normal(size=(2, 7, 1)))]
        pred = activation(conv1d(leaves[2], leaves[0], leaves[1], spec))
        value = pred.data.copy()
        backward(l2_loss(pred, rng.normal(size=(3, 7, 1))))
        first = [t.grad.tobytes() for t in leaves]
        assert np.array_equal(pred.data, value)
        loss = l2_loss(add(pred, Tensor(np.ones((3, 7, 1)))), np.zeros((3, 7, 1)))
        with pytest.raises(StateError, match="graph already consumed by backward"):
            backward(loss)
        assert [t.grad.tobytes() for t in leaves] == first

    @pytest.mark.parametrize("graph", _GRAPHS, ids=lambda f: f.__name__[1:])
    def test_leaf_gradients_bit_equal_to_keeping_every_slot(self, graph):
        loss, leaves = graph(np.random.default_rng(17))
        backward(loss)
        ref_loss, ref_leaves = graph(np.random.default_rng(17))
        backward_reference(ref_loss)
        for t, ref in zip(leaves, ref_leaves):
            assert t.grad.tobytes() == ref.grad.tobytes()

    @pytest.mark.parametrize("graph", _GRAPHS, ids=lambda f: f.__name__[1:])
    def test_only_leaves_keep_gradients(self, graph):
        # every node is collected before backward, which unlinks the graph;
        # after it each inner node has no gradient, no closure and no
        # parents, and its backward function has been freed
        loss, leaves = graph(np.random.default_rng(18))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        inner = [n for n in nodes.values() if n._backward_fn is not None]
        closures = [weakref.ref(n._backward_fn) for n in inner]
        backward(loss)
        assert all(t.grad is not None for t in leaves)
        assert inner and all(n.grad is None and n._parents == () for n in inner)
        assert all(getattr(n._backward_fn, "__closure__", None) is None for n in inner)
        assert all(ref() is None for ref in closures)

def _single_pass_grad():
    spec = ConvSpec(1, 1, 3, padding=1)
    w = Tensor(np.ones((1, 1, 3)))
    x = Tensor(np.ones((1, 4, 1)))
    loss = l2_loss(conv1d(x, w, None, spec), np.zeros((1, 4, 1)))
    backward(loss)
    return w.grad


def finite_difference_check(build_loss, params, rng, coords_per_param=20,
                            h=1e-5, tol=1e-4):
    """Central differences on randomly chosen parameter coordinates.

    The loss is piecewise quadratic in any single coordinate (one parameter
    feeds a chain of convolutions and leaky rectifiers), so the central
    difference is exact unless the +-h interval crosses a rectifier kink.
    Crossings are detected by comparing the h and h/2 estimates and those
    coordinates are resampled.
    """

    def central(flat, idx, orig, step):
        flat[idx] = orig + step
        up = build_loss().item()
        flat[idx] = orig - step
        down = build_loss().item()
        flat[idx] = orig
        return (up - down) / (2.0 * step)

    def estimate(flat, idx, orig):
        # shrink the step until the two estimates agree, which pushes any
        # kink at finite distance out of the interval
        for step in (h, h / 8.0, h / 64.0):
            full = central(flat, idx, orig, step)
            half = central(flat, idx, orig, step / 2.0)
            if abs(full - half) <= 1e-6 * max(abs(full), abs(half), 1e-3):
                return half
        return None

    loss = build_loss()
    backward(loss)
    grads = [p.grad.copy() for p in params]
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        n_coords = min(coords_per_param, flat.size)
        order = rng.permutation(flat.size)
        checked = cursor = 0
        while checked < n_coords and cursor < flat.size:
            idx = order[cursor]
            cursor += 1
            numeric = estimate(flat, idx, flat[idx])
            if numeric is None:
                continue  # coordinate sits essentially on a kink
            checked += 1
            analytic = g.reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), 1e-6)
            assert abs(numeric - analytic) / denom < tol, (
                f"grad mismatch at coord {idx}: analytic {analytic}, numeric {numeric}"
            )
        assert checked >= max(1, n_coords - 2), "too many kink coordinates"
        p.zero_grad()


class TestGradientsAgainstFiniteDifferences:
    def test_conv1d_layer(self):
        rng = np.random.default_rng(100)
        spec = ConvSpec(2, 3, 3, dilation=2, padding=2)
        w = Tensor(rng.normal(size=spec.weight_shape()))
        b = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=(2, 9, 1)))
        target = rng.normal(size=(3, 9, 1))
        finite_difference_check(
            lambda: l2_loss(conv1d(x, w, b, spec), target), [w, b, x], rng)

    def test_conv1d_transposed_layer(self):
        rng = np.random.default_rng(101)
        spec = ConvSpec(3, 2, 3, dilation=2, padding=1, transposed=True)
        w = Tensor(rng.normal(size=spec.weight_shape()))
        b = Tensor(rng.normal(size=2))
        x = Tensor(rng.normal(size=(3, 7, 1)))
        target = rng.normal(size=(2, spec.out_length(7), 1))
        finite_difference_check(
            lambda: l2_loss(conv1d_transposed(x, w, b, spec), target), [w, b, x], rng)

    def test_activation_and_skip_sum(self):
        rng = np.random.default_rng(102)
        spec = ConvSpec(2, 2, 3, padding=1)
        w = Tensor(rng.normal(size=spec.weight_shape()))
        b = Tensor(rng.normal(size=2))
        x = Tensor(rng.normal(size=(2, 8, 1)))
        target = rng.normal(size=(2, 8, 1))

        def build():
            y = activation(conv1d(x, w, b, spec))
            return l2_loss(add(y, x), target)

        finite_difference_check(build, [w, b, x], rng)


class TestBatchedBackward:
    @pytest.mark.parametrize("op", [conv1d, conv1d_transposed])
    def test_gradients_are_sums_of_per_sample_gradients(self, op):
        # l2_loss averages over the batch axis too, so the batched gradients
        # are the per-sample ones summed and divided by the batch size
        rng = np.random.default_rng(51)
        batch = 3
        for _ in range(20):
            spec, w, b, x = _rand_conv_case(rng, transposed=op is conv1d_transposed)
            xs = rng.normal(size=x.shape[:2] + (batch,))
            target = rng.normal(size=(spec.out_channels, spec.out_length(x.shape[1]), batch))
            wt, bt, xt = Tensor(w), Tensor(b), Tensor(xs)
            backward(l2_loss(op(xt, wt, bt, spec), target))
            dw, db, dx = np.zeros_like(w), np.zeros_like(b), np.zeros_like(xs)
            for i in range(batch):
                wi, bi, xi = Tensor(w), Tensor(b), Tensor(xs[:, :, i:i + 1])
                backward(l2_loss(op(xi, wi, bi, spec), target[:, :, i:i + 1]))
                dw += wi.grad
                db += bi.grad
                dx[:, :, i:i + 1] = xi.grad
            assert np.max(np.abs(batch * wt.grad - dw)) < 1e-12
            assert np.max(np.abs(batch * bt.grad - db)) < 1e-12
            assert np.max(np.abs(batch * xt.grad - dx)) < 1e-12


class TestArrayPath:
    """Plain-array arguments take the graph-free path: same values, bit for
    bit, as the Tensor call, returned as a plain array with no node."""

    @pytest.mark.parametrize("op", [conv1d, conv1d_transposed])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_conv_bit_equal_to_tensor_path(self, op, batch):
        # batch None keeps the case's batch of one
        rng = np.random.default_rng(61)
        for _ in range(60):
            spec, w, b, x = _rand_conv_case(rng, transposed=op is conv1d_transposed)
            if batch is not None:
                x = rng.normal(size=x.shape[:2] + (batch,))
            for bias in (b, None):
                tensor_bias = None if bias is None else Tensor(bias)
                ref = op(Tensor(x), Tensor(w), tensor_bias, spec)
                y = op(x, w, bias, spec)
                assert type(y) is np.ndarray
                assert y.tobytes() == ref.data.tobytes()
                assert y.shape == ref.data.shape

    def test_activation_bit_equal_to_slope_product(self):
        # the product form x * slope is the rectifier's definition; the
        # maximum form must match it bit for bit, special values included
        # (NaN signs and payloads too), in place as well
        rng = np.random.default_rng(62)
        payload_nans = np.array([0x7FF8000000000123, 0xFFF8000000000ABC],
                                dtype=np.uint64).view(np.float64)
        special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                   2e-310, -2e-310, -1e-300, *payload_nans]
        for x in (rng.normal(size=(4, 9)), rng.normal(size=(2, 7, 3)),
                  np.array([special])):
            ref = x * np.where(x > 0, 1.0, 0.01)
            y = activation(x)
            assert type(y) is np.ndarray
            assert y.tobytes() == ref.tobytes()
            inplace = x.copy()
            assert activation(inplace, out=inplace) is inplace
            assert inplace.tobytes() == ref.tobytes()
            yt = activation(Tensor(x))
            assert isinstance(yt, Tensor)
            assert yt.data.tobytes() == ref.tobytes()

    def test_add_bit_equal_to_tensor_path(self):
        rng = np.random.default_rng(63)
        a, b = rng.normal(size=(2, 3, 5, 4))
        y = add(a, b)
        assert type(y) is np.ndarray
        assert y.tobytes() == add(Tensor(a), Tensor(b)).data.tobytes()
        with pytest.raises(ShapeError):
            add(a, b[:, :4])

    def test_activation_out_takes_only_x(self):
        # out=x is the in-place rectify a conv layer uses on both paths;
        # nothing else is a destination, and a refused call writes nothing
        rng = np.random.default_rng(65)
        x = rng.normal(size=(3, 6, 4))
        t = Tensor(x.copy())
        plain = x.copy()
        calls = [lambda: activation(t, out=t.data),
                 lambda: activation(t, out=Tensor(t.data)),
                 lambda: activation(t, out=plain),
                 lambda: activation(t, out=np.empty_like(x)),
                 lambda: activation(plain, out=t),
                 lambda: activation(plain, out=t.data),
                 lambda: activation(plain, out=plain.copy())]
        # an x that is not its own float64 array cannot be rectified in place
        readonly = x.copy()
        readonly.flags.writeable = False
        listed, single, frozen = x.tolist(), x.astype(np.float32), Tensor(readonly)
        calls += [lambda: activation(listed, out=listed),
                  lambda: activation(single, out=single),
                  lambda: activation(readonly, out=readonly),
                  lambda: activation(frozen, out=frozen)]
        for call in calls:
            with pytest.raises(StateError, match="out=x"):
                call()
        assert t.data.tobytes() == plain.tobytes() == x.tobytes()
        assert single.tobytes() == x.astype(np.float32).tobytes()
        assert listed == x.tolist() and frozen.data.tobytes() == x.tobytes()
        # and out=x itself rectifies x on either path
        ref = activation(x)
        assert activation(plain, out=plain) is plain
        assert activation(t, out=t).data is t.data
        assert t.data.tobytes() == plain.tobytes() == ref.tobytes()

    def test_any_tensor_argument_builds_a_node(self):
        rng = np.random.default_rng(64)
        spec = ConvSpec(2, 3, 3, padding=1)
        w = rng.normal(size=spec.weight_shape())
        x = rng.normal(size=(2, 6, 1))
        wt = Tensor(w)
        y = conv1d(x, wt, None, spec)
        assert isinstance(y, Tensor)
        assert isinstance(add(y.data, y), Tensor)
        backward(l2_loss(activation(y), np.zeros((3, 6, 1))))
        assert wt.grad is not None and np.any(wt.grad != 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(3)], state)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        p = Tensor(np.array([0.0]))
        state = AdamState.for_params([p], lr=0.002)
        adam_step([p], [np.array([1.0])], state)
        assert p.data[0] == pytest.approx(-0.002 / (1.0 + 1e-8), abs=1e-12)

    def test_first_step_is_scale_free(self):
        deltas = []
        for g in (10.0, 0.1):
            p = Tensor(np.array([0.0]))
            state = AdamState.for_params([p], lr=0.002)
            adam_step([p], [np.array([g])], state)
            deltas.append(abs(p.data[0]))
        assert abs(deltas[0] - deltas[1]) < 1e-6

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(4, 4)))
        state = AdamState.for_params([p])
        for _ in range(25):
            adam_step([p], [rng.normal(size=(4, 4))], state)
            assert np.all(state.v[0] >= 0)
        assert state.step_count == 25

    def test_zero_lr_keeps_params_bitwise(self):
        rng = np.random.default_rng(8)
        p = Tensor(rng.normal(size=5))
        before = p.data.copy()
        state = AdamState.for_params([p], lr=0.0)
        for _ in range(3):
            adam_step([p], [rng.normal(size=5)], state)
        assert np.array_equal(p.data, before)


    def test_bit_equal_to_reference_expression(self):
        # the textbook update, transcribed apart from adam_step; both must give
        # the same bits for parameters and moments, so a rewrite of adam_step
        # (say, into preallocated buffers) cannot change a trained model
        def reference(p, g, m, v, step, lr=0.002, b1=0.9, b2=0.999, eps=1e-8):
            c1 = 1.0 - b1 ** step
            c2 = 1.0 - b2 ** step
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            s = np.sqrt(v / c2)
            s += eps
            np.divide(m, s, out=s)
            p -= (lr / c1) * s

        rng = np.random.default_rng(21)
        shapes = [(128, 128, 3), (1, 128, 3), (128,)]
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        state = AdamState.for_params(params)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for step in range(1, 6):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            adam_step(params, grads, state)
            for args in zip(ref_p, grads, ref_m, ref_v):
                reference(*args, step)
        for p, m, v, rp, rm, rv in zip(params, state.m, state.v, ref_p, ref_m, ref_v):
            assert p.data.tobytes() == rp.tobytes()
            assert m.tobytes() == rm.tobytes()
            assert v.tobytes() == rv.tobytes()


class TestDeterminism:
    def test_forward_is_bitwise_reproducible(self):
        rng = np.random.default_rng(77)
        spec = ConvSpec(2, 2, 3, dilation=2, padding=2)
        w = rng.normal(size=spec.weight_shape())
        b = rng.normal(size=2)
        x = rng.normal(size=(2, 16, 1))
        first = conv1d(Tensor(x), Tensor(w), Tensor(b), spec).data
        second = conv1d(Tensor(x), Tensor(w), Tensor(b), spec).data
        assert np.array_equal(first, second)


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        arrays = {"a.w": np.arange(6.0).reshape(2, 3), "a.b": np.zeros(2)}
        write_checkpoint(path, {"kind": "test", "n": 2}, arrays)
        meta, loaded = read_checkpoint(path)
        assert meta == {"kind": "test", "n": 2}
        assert set(loaded) == {"a.w", "a.b"}
        assert np.array_equal(loaded["a.w"], arrays["a.w"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ConfigError, match="magic"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        from danae.errors import DataError
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {}, {"w": np.ones(4)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 2])
    def test_other_versions_rejected(self, tmp_path, version):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {}, {"w": np.ones(2)})
        raw = path.read_bytes()
        path.write_bytes(raw[:9] + version.to_bytes(4, "little") + raw[13:])
        with pytest.raises(ConfigError, match="version"):
            read_checkpoint(path)

    @pytest.mark.parametrize("size", [0, 9, 13, 20])
    def test_short_file_rejected(self, tmp_path, size):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {}, {})
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(DataError, match="shorter than"):
            read_checkpoint(path)

    @pytest.mark.parametrize("header", [
        [],
        {"arrays": []},
        {"meta": {}},
        {"meta": [], "arrays": []},
        {"meta": {}, "arrays": {}},
        {"meta": {}, "arrays": [7]},
        {"meta": {}, "arrays": [{"name": "w"}]},
        {"meta": {}, "arrays": [{"shape": [1]}]},
        {"meta": {}, "arrays": [{"name": "w", "shape": [-1]}]},
        {"meta": {}, "arrays": [{"name": "w", "shape": [1.5]}]},
        {"meta": {}, "arrays": [{"name": 3, "shape": [1]}]},
        # a repeated name, whose later payload used to replace the earlier one
        {"meta": {}, "arrays": [{"name": "w", "shape": [0]}, {"name": "w", "shape": [0]}]},
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "state.ckpt"
        path.write_bytes(header_only_checkpoint(header))
        with pytest.raises(DataError, match="'meta' object|array entry"):
            read_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        a = {"w": np.arange(12.0).reshape(3, 4)}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        write_checkpoint(p1, {"seed": 5}, a)
        write_checkpoint(p2, {"seed": 5}, a)
        assert p1.read_bytes() == p2.read_bytes()
