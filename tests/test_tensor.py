"""Tensor core: op semantics, backward rules vs finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import PROPERTY
from reinlab import tensor as T
from reinlab.errors import ContractError, NumericError, ShapeError
from reinlab.tensor import Tape, Tensor

SEEDS = [1, 2, 3, 4, 5]


def leaf(arr, rg=True):
    return Tensor(np.asarray(arr), requires_grad=rg)


def fd_check(build, leaves, tol=1e-3, h=1e-3):
    """Compare tape gradients of build(*leaves) against central differences.

    Runs in float64 so the 1e-3 tolerance reflects the analytic rules rather
    than float32 rounding noise.
    """
    with Tape() as tape:
        out = build(*leaves)
        tape.backward(out)
    for x in leaves:
        if not x.requires_grad:
            continue
        num = T.finite_difference_gradient(lambda _x: build(*leaves), x, h=h)
        err = T.relative_error(x.grad, num.data)
        assert err <= tol, f"gradient mismatch {err:.2e} on shape {x.shape}"


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = leaf([[1.0, 2.0], [3.0, 4.0]], rg=False)
    eye = leaf(np.eye(2), rg=False)
    out = T.matmul(eye, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_scalar_product():
    out = T.matmul(leaf([[2.0]]), leaf([[3.0]]))
    assert out.item() == 6.0


def test_matmul_gradient_of_sum():
    # d sum(A @ B) / dA at A=[[1,2]], B=[[3],[4]] is [[3,4]]; central
    # differences with h=1e-3 reproduce it to well under 1e-5.
    a = leaf([[1.0, 2.0]])
    b = leaf([[3.0], [4.0]], rg=False)
    with Tape() as tape:
        out = T.sum_all(T.matmul(a, b))
        tape.backward(out)
    np.testing.assert_allclose(a.grad, [[3.0, 4.0]], atol=1e-6)
    num = T.finite_difference_gradient(lambda x: T.sum_all(T.matmul(x, b)), a)
    np.testing.assert_allclose(num.data, [[3.0, 4.0]], atol=1e-3)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 3))))


def test_matmul_associative_float32():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, c = (rng.uniform(-1, 1, (6, 7)).astype(np.float32),
                   rng.uniform(-1, 1, (7, 5)).astype(np.float32),
                   rng.uniform(-1, 1, (5, 4)).astype(np.float32))
        left = T.matmul(T.matmul(leaf(a), leaf(b)), leaf(c)).data
        right = T.matmul(leaf(a), T.matmul(leaf(b), leaf(c))).data
        assert np.max(np.abs(left - right)) <= 1e-4


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((2, 3, 5, 6))
    out = T.matmul(leaf(a, rg=False), leaf(b, rg=False)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(
                out[i, j], a[i, j] @ b[i, j], rtol=1e-5, atol=1e-6
            )


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_equal_logits():
    out = T.softmax_rows(leaf([[0.0, 0.0, 0.0]], rg=False))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-7)


def test_softmax_two_logit_value():
    # e^1 / (e^1 + e^-1) = 0.880797...
    out = T.softmax_rows(leaf([[1.0, -1.0]], rg=False))
    np.testing.assert_allclose(out.data, [[0.8808, 0.1192]], atol=1e-3)


def test_softmax_large_logits_no_overflow():
    out = T.softmax_rows(leaf([[1000.0, 0.0]], rg=False))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(7)
    x = rng.uniform(-4, 4, (11, 9)).astype(np.float32)
    y = T.softmax_rows(leaf(x, rg=False)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(11), atol=1e-6)
    shifted = T.softmax_rows(leaf(x + 3.25, rg=False)).data
    assert np.max(np.abs(y - shifted)) <= 1e-6


def test_softmax_nan_input_rejected():
    bad = leaf([[0.0, float("nan")]], rg=False)
    with pytest.raises(NumericError):
        T.softmax_rows(bad)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_softmax_inf_input_rejected(bad):
    with pytest.raises(NumericError):
        T.softmax_rows(leaf([[0.0, bad]], rg=False))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = leaf(np.zeros((3, 4)))
    with Tape() as tape:
        tape.backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_from_scalar_leaf_root():
    x = leaf([2.0])
    with Tape() as tape:
        tape.backward(x)
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_square():
    x = leaf([3.0])
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)


def test_backward_requires_scalar_root():
    x = leaf(np.ones((2, 2)))
    with Tape() as tape:
        y = T.scale(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_twice_accumulates():
    x = leaf([1.0, 2.0])
    with Tape() as tape:
        out = T.sum_all(x)
        tape.backward(out)
        tape.backward(out)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_no_grad_on_frozen_tensor():
    x = leaf([1.0, 2.0], rg=False)
    w = leaf([2.0, 2.0])
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(x, w)))
    assert x.grad is None
    assert w.grad is not None


def test_exiting_an_outer_tape_before_an_inner_one_raises():
    outer, inner = Tape(), Tape()
    with outer:
        inner.__enter__()
        with pytest.raises(ContractError, match="not the innermost open tape"):
            outer.__exit__(None, None, None)
        # the refused exit closed neither tape: ops still record on the inner
        T.sum_all(leaf([1.0, 2.0]))
        assert (len(inner), len(outer)) == (1, 0)
        inner.__exit__(None, None, None)
    with pytest.raises(ContractError, match="not the innermost open tape"):
        outer.__exit__(None, None, None)


def test_shared_input_grad_not_aliased():
    # The same upstream buffer can be handed to several inputs; accumulation
    # must not corrupt one input's gradient through another's.
    x = leaf([1.0, 2.0])
    y = leaf([3.0, 4.0])
    with Tape() as tape:
        s = T.add(x, y)
        tape.backward(T.sum_all(T.add(s, s)))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    np.testing.assert_array_equal(y.grad, [2.0, 2.0])


def _handing_down(tape, t, upstream):
    """Identity on ``t`` whose backward hands the ``upstream`` buffer itself
    to ``t``, whatever gradient reaches it."""
    out = Tensor(t.data, requires_grad=True)
    tape.record((t,), out, lambda g: (upstream,))
    return out


# each case: (op on a tuple of leaves, leaf shapes); outputs are [6, 4]
SHARED_BUFFER_CASES = {
    "gelu": (lambda a: T.gelu(a[0]), [(6, 4)]),
    "softmax_rows": (lambda a: T.softmax_rows(a[0]), [(6, 4)]),
    "layer_norm": (lambda a: T.layer_norm(*a), [(6, 4), (4,), (4,)]),
    "linear": (lambda a: T.linear(*a), [(6, 3), (3, 4), (4,)]),
    "attention": (lambda a: T.attention(*a, batch_size=2, heads=2),
                  [(6, 4), (6, 4), (6, 4)]),
}


@pytest.mark.parametrize("op_name", sorted(SHARED_BUFFER_CASES))
def test_kernels_never_write_shared_buffers(op_name):
    # add() hands one gradient buffer to both of its inputs, so the two
    # consumers below read the same array; a kernel that wrote into it, or
    # into what its forward saved, would corrupt the other consumer.
    op, shapes = SHARED_BUFFER_CASES[op_name]
    rng = np.random.default_rng(8)
    inputs = [[rng.uniform(-1, 1, sh) for sh in shapes] for _ in range(2)]
    upstream = rng.uniform(-1, 1, (6, 4)).astype(np.float32)
    kept = upstream.copy()
    leaves = [[leaf(a) for a in arrs] for arrs in inputs]
    with Tape() as tape:
        outs = [op(ls) for ls in leaves]
        s = T.add(*outs)
        tape.backward(T.sum_all(_handing_down(tape, s, upstream)))
    assert upstream.tobytes() == kept.tobytes()
    for arrs, ls, out in zip(inputs, leaves, outs):
        assert out.data.tobytes() == op([leaf(a) for a in arrs]).data.tobytes()
        fresh = [leaf(a) for a in arrs]
        with Tape() as tape:
            tape.backward(T.sum_all(_handing_down(tape, op(fresh), kept.copy())))
        for got, want in zip(ls, fresh):
            assert got.grad.tobytes() == want.grad.tobytes()


def test_composite_softmax_matmul_matches_fd():
    with T.using_dtype(np.float64):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            a = leaf(rng.uniform(-1, 1, (3, 4)))
            b = leaf(rng.uniform(-1, 1, (4, 5)))
            w = leaf(rng.uniform(-1, 1, (3, 5)), rg=False)

            def build(a_, b_, w_):
                return T.sum_all(T.mul(T.softmax_rows(T.matmul(a_, b_)), w_))

            fd_check(build, [a, b, w])


# ---------------------------------------------------------------------------
# finite-difference oracle on its own

def test_fd_quadratic():
    with T.using_dtype(np.float64):
        x = leaf([3.0], rg=False)
        num = T.finite_difference_gradient(lambda t: T.sum_all(T.mul(t, t)), x)
        np.testing.assert_allclose(num.data, [6.0], atol=1e-5)


def test_fd_sum_is_ones():
    x = leaf(np.zeros((2, 3)), rg=False)
    num = T.finite_difference_gradient(T.sum_all, x)
    np.testing.assert_allclose(num.data, np.ones((2, 3)), atol=1e-9)


def test_fd_rejects_nonfinite_objective():
    x = leaf([0.0], rg=False)

    def bad(t):
        return Tensor(float("inf"))

    with pytest.raises(NumericError):
        T.finite_difference_gradient(bad, x)


def test_fd_rejects_nonpositive_step():
    with pytest.raises(ContractError):
        T.finite_difference_gradient(T.sum_all, leaf([1.0]), h=0.0)


# ---------------------------------------------------------------------------
# required op inventory, each checked against the oracle


def _rand(rng, shape):
    return leaf(rng.uniform(-1, 1, shape))


OP_CASES = {
    "matmul": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))),
        [_rand(rng, (3, 4)), _rand(rng, (4, 2))],
    ),
    "add": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.add(a, b), T.add(a, b))),
        [_rand(rng, (3, 4)), _rand(rng, (4,))],
    ),
    "scale": lambda rng: (
        lambda a: T.sum_all(T.mul(T.scale(a, -1.7), T.scale(a, -1.7))),
        [_rand(rng, (5,))],
    ),
    "mul": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.mul(a, b), T.mul(a, b))),
        [_rand(rng, (2, 3)), _rand(rng, (2, 3))],
    ),
    "softmax_rows": lambda rng: (
        lambda a, w: T.sum_all(T.mul(T.softmax_rows(a), w)),
        [_rand(rng, (4, 6)), _rand(rng, (4, 6))],
    ),
    "layer_norm": lambda rng: (
        lambda x, g, b, w: T.sum_all(T.mul(T.layer_norm(x, g, b), w)),
        [_rand(rng, (3, 8)), _rand(rng, (8,)), _rand(rng, (8,)), _rand(rng, (3, 8))],
    ),
    "gelu": lambda rng: (
        lambda a, w: T.sum_all(T.mul(T.gelu(a), w)),
        [_rand(rng, (4, 4)), _rand(rng, (4, 4))],
    ),
    "sigmoid": lambda rng: (
        lambda a, w: T.sum_all(T.mul(T.sigmoid(a), w)),
        [_rand(rng, (3, 5)), _rand(rng, (3, 5))],
    ),
    "narrow_rows": lambda rng: (
        lambda a: T.sum_all(T.mul(T.narrow(a, 0, 1, 4), T.narrow(a, 0, 1, 4))),
        [_rand(rng, (5, 3))],
    ),
    "narrow_cols": lambda rng: (
        lambda a: T.sum_all(T.mul(T.narrow(a, 1, 2, 5), T.narrow(a, 1, 2, 5))),
        [_rand(rng, (3, 6))],
    ),
    "concat": lambda rng: (
        lambda a, b, w: T.sum_all(T.mul(T.concat([a, b], axis=-1), w)),
        [_rand(rng, (3, 2)), _rand(rng, (3, 4)), _rand(rng, (3, 6))],
    ),
    "stack_max": lambda rng: (
        lambda a, b, c, w: T.sum_all(T.mul(T.stack_max([a, b, c]), w)),
        [_rand(rng, (3, 4)), _rand(rng, (3, 4)), _rand(rng, (3, 4)), _rand(rng, (3, 4))],
    ),
    "stack_mean": lambda rng: (
        lambda a, b, c, w: T.sum_all(T.mul(T.stack_mean([a, b, c]), w)),
        [_rand(rng, (3, 4)), _rand(rng, (3, 4)), _rand(rng, (3, 4)), _rand(rng, (3, 4))],
    ),
    "reshape": lambda rng: (
        lambda a, w: T.sum_all(T.mul(T.reshape(a, (2, 6)), w)),
        [_rand(rng, (3, 4)), _rand(rng, (2, 6))],
    ),
    "transpose": lambda rng: (
        lambda a, w: T.sum_all(T.mul(T.transpose(a), w)),
        [_rand(rng, (3, 4)), _rand(rng, (4, 3))],
    ),
    "cross_entropy": lambda rng: (
        lambda a: T.cross_entropy_logits(a, np.array([0, 2, 1, 255]), 255),
        [_rand(rng, (4, 3))],
    ),
    "linear": lambda rng: (
        lambda x, w, b, u: T.sum_all(T.mul(T.linear(x, w, b), u)),
        [_rand(rng, (3, 4)), _rand(rng, (4, 2)), _rand(rng, (2,)), _rand(rng, (3, 2))],
    ),
    "linear_entry_bias": lambda rng: (
        lambda x, w, b, u: T.sum_all(T.mul(T.linear(x, w, b), u)),
        [_rand(rng, (3, 4)), _rand(rng, (4, 2)), _rand(rng, (3, 2)), _rand(rng, (3, 2))],
    ),
    "attention": lambda rng: (
        lambda q, k, v, u: T.sum_all(T.mul(T.attention(q, k, v, 2, 2), u)),
        [_rand(rng, (6, 4)) for _ in range(4)],
    ),
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_op_gradients_match_fd(op_name):
    with T.using_dtype(np.float64):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            build, leaves = OP_CASES[op_name](rng)
            fd_check(build, leaves)


# Property versions of the cases above: random broadcast shapes for add and
# mul, random axes and ranges for narrow. Each loss weights the op's output by
# a fixed random tensor, so every output entry reaches the gradient.
VJP_PROPERTY = settings(PROPERTY, max_examples=120)


def _weighted_fd_check(op, shapes, out_shape, seed, spaced=False):
    """``spaced`` draws every leaf entry from a shuffled grid of step 2e-2,
    so that no two entries lie within the FD steps of each other: an op
    with a kink where entries tie (``stack_max``) is smooth there."""
    rng = np.random.default_rng(seed)
    with T.using_dtype(np.float64):
        if spaced:
            sizes = [math.prod(sh) for sh in shapes]
            grid = rng.permutation(sum(sizes)) * 2e-2 - 1.0
            parts = np.split(grid, np.cumsum(sizes)[:-1])
            leaves = [leaf(part.reshape(sh)) for part, sh in zip(parts, shapes)]
        else:
            leaves = [_rand(rng, sh) for sh in shapes]
        w = leaf(rng.uniform(-1, 1, out_shape), rg=False)
        fd_check(lambda *xs: T.sum_all(T.mul(op(*xs), w)), leaves)


@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
@VJP_PROPERTY
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       seed=st.integers(0, 2**16))
def test_broadcast_vjp_matches_fd_property(op, shapes, seed):
    _weighted_fd_check(op, shapes.input_shapes, shapes.result_shape, seed)


@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=4), data=st.data())
def test_narrow_vjp_matches_fd_property(shape, data):
    axis = data.draw(st.integers(0, len(shape) - 1))
    start = data.draw(st.integers(0, shape[axis] - 1))
    stop = data.draw(st.integers(start + 1, shape[axis]))
    out_shape = shape[:axis] + (stop - start,) + shape[axis + 1:]
    _weighted_fd_check(lambda a: T.narrow(a, axis, start, stop), [shape], out_shape,
                       data.draw(st.integers(0, 2**16)))


@VJP_PROPERTY
@given(images=st.integers(1, 3), heads=st.integers(1, 3), rows=st.integers(1, 4),
       head_dim=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_attention_vjp_matches_fd_property(images, heads, rows, head_dim, seed):
    shape = (images * rows, heads * head_dim)
    _weighted_fd_check(lambda q, k, v: T.attention(q, k, v, images, heads),
                       [shape] * 3, shape, seed)


@VJP_PROPERTY
@given(p=st.integers(1, 4), q=st.integers(1, 4), s=st.integers(1, 4),
       entry_bias=st.booleans(), seed=st.integers(0, 2**16))
def test_linear_vjp_matches_fd_property(p, q, s, entry_bias, seed):
    bias = (p, s) if entry_bias else (s,)
    _weighted_fd_check(T.linear, [(p, q), (q, s), bias], (p, s), seed)


@pytest.mark.parametrize("op", [T.softmax_rows, T.gelu, T.sigmoid],
                         ids=["softmax_rows", "gelu", "sigmoid"])
@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=4), seed=st.integers(0, 2**16))
def test_rowwise_vjp_matches_fd_property(op, shape, seed):
    _weighted_fd_check(op, [shape], shape, seed)


@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=4), seed=st.integers(0, 2**16))
def test_layer_norm_vjp_matches_fd_property(shape, seed):
    # eps 1e-2 keeps a row whose entries nearly coincide smooth at the FD
    # step; the backward rule is the same at every eps
    d = shape[-1]
    _weighted_fd_check(lambda x, g, b: T.layer_norm(x, g, b, eps=1e-2),
                       [shape, (d,), (d,)], shape, seed)


@VJP_PROPERTY
@given(shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
       s=st.floats(-4, 4), seed=st.integers(0, 2**16))
def test_scale_vjp_matches_fd_property(shape, s, seed):
    _weighted_fd_check(lambda a: T.scale(a, s), [shape], shape, seed)


@VJP_PROPERTY
@given(stack=hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), p=st.integers(1, 4),
       q=st.integers(1, 4), s=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_matmul_vjp_matches_fd_property(stack, p, q, s, seed):
    _weighted_fd_check(T.matmul, [stack + (p, q), stack + (q, s)], stack + (p, s), seed)


@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=4), data=st.data())
def test_reshape_vjp_matches_fd_property(shape, data):
    size = math.prod(shape)
    rows = data.draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0]))
    _weighted_fd_check(lambda a: T.reshape(a, (rows, size // rows)), [shape],
                       (rows, size // rows), data.draw(st.integers(0, 2**16)))


@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=4, max_side=3), data=st.data())
def test_transpose_vjp_matches_fd_property(shape, data):
    axes = data.draw(st.none() | st.permutations(range(len(shape))).map(tuple))
    out_shape = shape[::-1] if axes is None else tuple(shape[a] for a in axes)
    _weighted_fd_check(lambda a: T.transpose(a, axes), [shape], out_shape,
                       data.draw(st.integers(0, 2**16)))


@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=3), data=st.data())
def test_concat_vjp_matches_fd_property(shape, data):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    extents = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    before, after = shape[:axis % len(shape)], shape[axis % len(shape) + 1:]
    shapes = [before + (e,) + after for e in extents]
    out_shape = before + (sum(extents),) + after
    _weighted_fd_check(lambda *xs: T.concat(xs, axis=axis), shapes, out_shape,
                       data.draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("op", [T.stack_max, T.stack_mean], ids=["stack_max", "stack_mean"])
@VJP_PROPERTY
@given(shape=hnp.array_shapes(max_dims=3, max_side=3), k=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_stack_vjp_matches_fd_property(op, shape, k, seed):
    _weighted_fd_check(lambda *xs: op(xs), [shape] * k, shape, seed, spaced=True)


@VJP_PROPERTY
@given(shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=4), seed=st.integers(0, 2**16))
def test_sum_all_vjp_matches_fd_property(shape, seed):
    _weighted_fd_check(T.sum_all, [shape], (), seed)


@VJP_PROPERTY
@given(p=st.integers(1, 6), k=st.integers(1, 5), data=st.data())
def test_cross_entropy_vjp_matches_fd_property(p, k, data):
    # a label of 255 marks an ignored pixel; at least one pixel counts
    labels = np.array(data.draw(st.lists(st.sampled_from(list(range(k)) + [255]),
                                         min_size=p, max_size=p)
                                .filter(lambda ls: any(v != 255 for v in ls))))
    _weighted_fd_check(lambda x: T.cross_entropy_logits(x, labels), [(p, k)], (),
                       data.draw(st.integers(0, 2**16)))


# The kernels' cheaper forms against the expressions they replaced, byte for
# byte: finite floats of the full range, with +-0, subnormals, repeats and
# huge magnitudes among them.
def _float_arrays(dtype, max_dims):
    fi = np.finfo(dtype)
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, float(fi.smallest_subnormal),
                               -3.0 * float(fi.smallest_subnormal), float(fi.tiny),
                               float(fi.max), -float(fi.max)])
    finite = st.floats(width=fi.bits, allow_nan=False, allow_infinity=False)
    return hnp.arrays(dtype, hnp.array_shapes(max_dims=max_dims, max_side=6),
                      elements=st.one_of(special, finite))


def _old_gelu(xd):
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    y = xd * 0.5
    y *= t + 1.0
    return y


def _old_softmax(x):
    out = np.empty_like(x)
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@VJP_PROPERTY
@given(data=st.data())
def test_gelu_forward_has_the_bits_of_the_old_expression(dtype, data):
    x = data.draw(_float_arrays(dtype, 2))
    with np.errstate(all="ignore"), T.using_dtype(dtype):
        assert T.gelu(leaf(x, rg=False)).data.tobytes() == _old_gelu(x).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@VJP_PROPERTY
@given(data=st.data())
def test_row_reductions_have_the_bits_of_the_old_expressions(dtype, data):
    x = data.draw(_float_arrays(dtype, 4))
    with np.errstate(all="ignore"):
        assert T._row_mean(x).tobytes() == x.mean(axis=-1, keepdims=True).tobytes()
        assert T._softmax(x, np.empty_like(x)).tobytes() == _old_softmax(x).tobytes()


# ---------------------------------------------------------------------------
# remaining op semantics


def test_gelu_close_to_exact_erf_form():
    xs = np.linspace(-5, 5, 801)
    approx = T.gelu(leaf(xs, rg=False)).data
    exact = 0.5 * xs * (1 + np.array([math.erf(v / math.sqrt(2)) for v in xs]))
    assert np.max(np.abs(approx - exact)) <= 1e-3


def test_stack_max_values_and_routing():
    a = leaf([[1.0]])
    b = leaf([[3.0]])
    out = T.stack_max([a, b])
    assert out.item() == 3.0
    assert T.stack_mean([a, b]).item() == 2.0
    with Tape() as tape:
        tape.backward(T.sum_all(T.stack_max([a, b])))
    # gradient flows only to the argmax input
    assert a.grad is None or np.all(a.grad == 0)
    np.testing.assert_array_equal(b.grad, [[1.0]])


def test_cross_entropy_uniform_logits():
    logits = leaf(np.zeros((5, 4)), rg=False)
    loss = T.cross_entropy_logits(logits, np.zeros(5, dtype=np.int64))
    assert abs(loss.item() - math.log(4)) <= 1e-4


def test_cross_entropy_all_ignored():
    logits = leaf(np.zeros((2, 3)), rg=False)
    with pytest.raises(ContractError):
        T.cross_entropy_logits(logits, np.array([255, 255]))


def test_cross_entropy_matches_scalar_loop():
    rng = np.random.default_rng(11)
    logits = rng.uniform(-2, 2, (6, 4)).astype(np.float32)
    labels = np.array([0, 1, 2, 3, 255, 1])
    loss = T.cross_entropy_logits(leaf(logits, rg=False), labels).item()
    # independent scalar-loop oracle in float64
    total, count = 0.0, 0
    for i, lab in enumerate(labels):
        if lab == 255:
            continue
        row = logits[i].astype(np.float64)
        total += math.log(np.exp(row).sum()) - row[lab]
        count += 1
    assert abs(loss - total / count) <= 1e-6


def test_cross_entropy_on_transposed_view_matches_loop_and_fd():
    # the decode head hands the loss a [P, K] view of class-major memory
    rng = np.random.default_rng(12)
    class_major = rng.uniform(-2, 2, (4, 9))
    labels = np.array([0, 3, 255, 1, 2, 255, 3, 0, 1])
    logits = T.transpose(leaf(class_major, rg=False))
    assert not logits.data.flags.c_contiguous
    loss = T.cross_entropy_logits(logits, labels).item()
    total, count = 0.0, 0
    for i, lab in enumerate(labels):
        if lab == 255:
            continue
        row = class_major[:, i].astype(np.float64)
        total += math.log(np.exp(row).sum()) - row[lab]
        count += 1
    assert abs(loss - total / count) <= 1e-6

    with T.using_dtype(np.float64):
        fd_check(lambda x: T.cross_entropy_logits(T.transpose(x), labels),
                 [leaf(class_major)], tol=1e-6, h=1e-5)


def _unfused_attention(q, k, v, batch_size, heads):
    """The tape chain ``attention`` replaces, op by op."""
    rows, c = q.shape
    n, dh = rows // batch_size, c // heads

    def split(t):
        return T.transpose(T.reshape(t, (batch_size, n, heads, dh)), (0, 2, 1, 3))

    logits = T.scale(T.matmul(split(q), T.transpose(split(k), (0, 1, 3, 2))),
                     1.0 / math.sqrt(dh))
    ctx = T.matmul(T.softmax_rows(logits), split(v))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (rows, c))


def _value_and_grads(build, arrays, weight):
    leaves = [leaf(a) for a in arrays]
    with Tape() as tape:
        out = build(*leaves)
        tape.backward(T.sum_all(T.mul(out, leaf(weight, rg=False))))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def test_fused_ops_match_unfused_chains_bytewise():
    # desk encoder shapes: B=4 images of n=64 patches, c=64, 4 heads
    rng = np.random.default_rng(21)
    rows, c = 4 * 64, 64
    qkv = [rng.standard_normal((rows, c)).astype(np.float32) for _ in range(3)]
    weight = rng.standard_normal((rows, c)).astype(np.float32)
    fused = _value_and_grads(lambda q, k, v: T.attention(q, k, v, 4, 4), qkv, weight)
    chain = _value_and_grads(lambda q, k, v: _unfused_attention(q, k, v, 4, 4), qkv, weight)
    assert fused == chain

    x = rng.standard_normal((rows, c)).astype(np.float32)
    w = rng.standard_normal((c, 256)).astype(np.float32)
    weight = rng.standard_normal((rows, 256)).astype(np.float32)
    for bias in (rng.standard_normal(256), rng.standard_normal((rows, 256))):
        arrays = [x, w, bias.astype(np.float32)]
        fused = _value_and_grads(T.linear, arrays, weight)
        chain = _value_and_grads(lambda a, b_, c_: T.add(T.matmul(a, b_), c_), arrays, weight)
        assert fused == chain


def test_linear_and_attention_shape_errors():
    with pytest.raises(ShapeError):
        T.linear(leaf(np.zeros((2, 3))), leaf(np.zeros((3, 4))), leaf(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.linear(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 4))), leaf(np.zeros(4)))
    q = leaf(np.zeros((6, 4)))
    with pytest.raises(ShapeError):
        T.attention(q, q, q, batch_size=4, heads=2)
    with pytest.raises(ShapeError):
        T.attention(q, q, q, batch_size=2, heads=3)
    with pytest.raises(ShapeError):
        T.attention(q, q, leaf(np.zeros((6, 2))), batch_size=2, heads=2)


def test_attention_nonfinite_logits_rejected():
    q = np.zeros((4, 2))
    q[1, 0] = np.inf
    with pytest.raises(NumericError):
        T.attention(leaf(q), leaf(np.ones((4, 2))), leaf(np.ones((4, 2))), 1, 1)


def test_slice_errors():
    with pytest.raises(ShapeError):
        T.narrow(leaf(np.zeros((2, 2))), 0, 0, 3)
    with pytest.raises(ShapeError):
        T.narrow(leaf(np.zeros((2, 2))), 1, 2, 2)
    with pytest.raises(ShapeError):
        T.narrow(leaf(np.zeros((2, 2))), 2, 0, 1)


def test_default_dtype_float32():
    assert Tensor([1.0]).data.dtype == np.float32
    with T.using_dtype(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
    with pytest.raises(ContractError):
        with T.using_dtype(np.int32):
            pass
    with pytest.raises(NumericError):
        with T.using_dtype(np.float64):
            raise NumericError("restores the dtype on the way out")
    assert Tensor([1.0]).data.dtype == np.float32
