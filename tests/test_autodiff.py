import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from medsegdet import autodiff as ad
from medsegdet.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    finite_difference_check,
    reset_tape,
)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    i2 = Tensor(np.eye(2))
    out = ad.matmul(i2, a)
    assert np.array_equal(out.data, a.data)


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_sigmoid_zero():
    out = ad.sigmoid(Tensor([0.0]))
    assert out.data[0] == 0.5


def test_backward_quadratic():
    reset_tape()
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_disconnected_leaf_gets_zero():
    reset_tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([5.0, 5.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    assert np.array_equal(y.grad, np.zeros(2))


def test_backward_sigmoid_layer_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def f():
        return ad.sigmoid(w @ x).mean()

    err = finite_difference_check(f, [w, x])
    assert err < 1e-4


def test_backward_rejects_nonscalar_loss():
    reset_tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
    with pytest.raises(ShapeError):
        backward(y)


def test_backward_twice_is_deterministic():
    reset_tape()
    x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
    loss = ad.sigmoid(x * x).sum()
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.array_equal(first, x.grad)


def test_fd_check_exact_quadratic():
    x = Tensor([3.0], requires_grad=True)

    def f():
        return (x * x).sum()

    assert finite_difference_check(f, [x]) < 1e-8


def test_fd_check_constant_function():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([4.0])

    def f():
        return (x * 0.0).sum() + c.sum()

    err = finite_difference_check(f, [x])
    assert err == 0.0
    assert np.array_equal(x.grad, np.zeros(2))


def test_fd_check_reports_nonfinite():
    x = Tensor([1.0], requires_grad=True)

    def f():
        return ad.log(x - 2.0).sum()  # log of a negative number

    with pytest.raises(NonFiniteError):
        finite_difference_check(f, [x])


def _kernel_cases(rng):
    """One scalar-valued probe per op, on fresh random inputs."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    pos = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
    # keep relu inputs away from the kink where the derivative jumps
    away = rng.normal(size=(3, 4))
    away = away + np.sign(away) * 0.1
    r = Tensor(away, requires_grad=True)
    wconst = rng.normal(size=(3, 4))
    wmat = rng.normal(size=(3, 3))

    return {
        "matmul": ([a, m], lambda: (ad.matmul(a, m) * wmat).sum()),
        "add": ([a, b], lambda: (ad.add(a, b) * wconst).sum()),
        "mul": ([a, b], lambda: (ad.mul(a, b) * wconst).sum()),
        "sigmoid": ([a], lambda: (ad.sigmoid(a) * wconst).sum()),
        "softmax": ([a], lambda: (ad.softmax(a) * wconst).sum()),
        "relu": ([r], lambda: (ad.relu(r) * wconst).sum()),
        "concat": ([a, b], lambda: (ad.concat([a, b], axis=0) * np.vstack([wconst, wconst])).sum()),
        "sum": ([a], lambda: (ad.tsum(a, axis=1) * np.ones(3)).sum()),
        "mean": ([a], lambda: (ad.tmean(a, axis=0) * np.ones(4)).sum()),
        "log": ([pos], lambda: (ad.log(pos) * wconst).sum()),
        "exp": ([a], lambda: (ad.exp(a) * wconst).sum()),
        "slice": ([a], lambda: (ad.tslice(a, (slice(0, 2), slice(1, 3))) * wconst[:2, 1:3]).sum()),
    }


def test_every_kernel_matches_finite_differences_on_100_inputs():
    rng = np.random.default_rng(42)
    kinds = None
    for trial in range(100):
        cases = _kernel_cases(rng)
        if kinds is None:
            kinds = set(cases)
        for kind, (params, f) in cases.items():
            err = finite_difference_check(f, params, max_coords_per_param=4, seed=trial)
            assert err < 1e-4, f"{kind} failed at trial {trial}: {err}"


BROADCAST_OPS = {
    "add": ad.add,
    "sub": ad.sub,
    "mul": ad.mul,
    "div": ad.div,
    "maximum": ad.maximum,
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(sorted(BROADCAST_OPS)),
    shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    constant=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_binary_ops_unbroadcast_gradients_to_operand_shapes(op, shapes, constant, seed):
    rng = np.random.default_rng(seed)
    sa, sb = shapes.input_shapes
    # values on offset integer grids: operands never tie (maximum has no kink
    # in reach of the step) and the divisor stays at least 0.25 from zero
    a = Tensor(rng.integers(-3, 4, size=sa) + 0.25, requires_grad=constant != 0)
    b = Tensor(rng.integers(-3, 4, size=sb) - 0.25, requires_grad=constant != 1)
    w = rng.normal(size=shapes.result_shape)

    def f():
        return (BROADCAST_OPS[op](a, b) * w).sum()

    params = [t for t in (a, b) if t.requires_grad]
    assert finite_difference_check(f, params) < 1e-4


def test_softmax_simplex_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
        s = ad.softmax(x).data
        assert np.all(s >= 0)
        assert np.all(np.abs(s.sum(axis=-1) - 1.0) < 1e-12)


def test_shape_mismatch_diagnostic_names_op_and_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ad.matmul(a, b)


def test_softmax_rejects_nonfinite_input():
    a = Tensor([np.inf, 1.0])
    with pytest.raises(NonFiniteError):
        ad.softmax(a)


def test_tape_ids_are_unique_and_topological():
    tape = reset_tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.sigmoid(x)
    z = (y * x).sum()
    ids = [n.tensor._node_id for n in tape.nodes]
    assert ids == sorted(set(ids))
    for node in tape.nodes:
        if node.parent_ids:
            assert max(node.parent_ids) < node.tensor._node_id
    assert z.node_id == len(tape.nodes) - 1


def test_no_grad_suppresses_recording():
    tape = reset_tape()
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.sigmoid(x)
    assert not y.requires_grad
    assert len(tape.nodes) == 0


def test_embedding_lookup_gradient_accumulates_repeats():
    reset_tape()
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.embedding_lookup(table, [0, 2, 0])
    loss = out.sum()
    backward(loss)
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_bilinear_upsample_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = rng.normal(size=(8, 8))

    def f():
        return (ad.bilinear_upsample(x, (8, 8)) * w).sum()

    assert finite_difference_check(f, [x]) < 1e-4


def test_bilinear_upsample_preserves_constant_grid():
    x = Tensor(np.full((4, 4), 2.5))
    out = ad.bilinear_upsample(x, (12, 12))
    assert np.allclose(out.data, 2.5, atol=1e-12)


def test_constants_get_no_node_and_intermediates_no_grad():
    tape = reset_tape()
    x = Tensor([0.5, -1.0], requires_grad=True)
    y = ad.sigmoid(x)
    loss = (y * 2.0).sum()
    assert [n.tensor for n in tape.nodes[:2]] == [x, y]
    assert len(tape.nodes) == 4  # x, sigmoid, mul, sum: no node for the 2.0
    assert tape.nodes[2].parent_ids == (y.node_id, ad.CONSTANT)
    backward(loss)
    s = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, 2.0 * s * (1.0 - s), rtol=1e-15)
    assert y.grad is None and loss.grad is None


def test_slice_gradient_accumulates_repeated_fancy_indices():
    reset_tape()
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    backward(x[[0, 0, 1]].sum() + x[2, 1:].sum() + (x[np.int64(1)] * 3.0).sum())
    assert np.array_equal(x.grad, [[2.0, 2.0], [4.0, 4.0], [0.0, 1.0]])


def test_bilinear_upsample_identity_is_a_pass_through():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    w = rng.normal(size=(6, 6))
    assert np.array_equal(ad.bilinear_upsample(x, (6, 6)).data, x.data)

    def f():
        return (ad.bilinear_upsample(x, (6, 6)) * w).sum()

    assert finite_difference_check(f, [x]) < 1e-4
    np.testing.assert_array_equal(x.grad, w)


def test_bilinear_upsample_values_and_gradients_are_unchanged():
    # sha256 of the output and input gradient, recorded before the identity
    # fast path was added; the resampling arithmetic must stay bitwise
    recorded = {(8, 8): "bf4e97967906c242", (7, 4): "5cb805045bf0919b", (6, 6): "58732d3de1d17293"}
    rng = np.random.default_rng(5)
    for in_hw, out_hw in (((4, 4), (8, 8)), ((3, 5), (7, 4)), ((6, 6), (6, 6))):
        reset_tape()
        x = Tensor(rng.normal(size=in_hw), requires_grad=True)
        w = rng.normal(size=out_hw)
        y = ad.bilinear_upsample(x, out_hw)
        backward((y * w).sum())
        digest = hashlib.sha256(y.data.tobytes() + x.grad.tobytes()).hexdigest()[:16]
        assert digest == recorded[out_hw], out_hw
