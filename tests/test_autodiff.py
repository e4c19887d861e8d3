import hashlib
import re

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
    assert ad._sigmoid(np.zeros(1))[0] == 0.5


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


def sigmoid(a):
    """A logistic tape node through the package's one logistic kernel."""
    out = ad._sigmoid(a.data)
    return ad._record(out, (a,), lambda g: (g * out * (1.0 - out),))


def test_backward_sigmoid_layer_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def f():
        return sigmoid(w @ x).sum()

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
    loss = (ad.softmax(x * x) * x).sum()
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
        return (x * np.inf).sum()  # an overflowing product

    with pytest.raises(NonFiniteError):
        finite_difference_check(f, [x])


def _kernel_cases(rng):
    """One scalar-valued probe per op, on fresh random inputs."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    # keep relu inputs away from the kink where the derivative jumps
    away = rng.normal(size=(3, 4))
    away = away + np.sign(away) * 0.1
    r = Tensor(away, requires_grad=True)
    wconst = rng.normal(size=(3, 4))
    wmat = rng.normal(size=(3, 3))
    gain = Tensor(rng.normal(size=4), requires_grad=True)
    shift = Tensor(rng.normal(size=4), requires_grad=True)
    # two packed segments, (P, T, cached): 1 patch + 2 text rows, then 2 text rows after 1 cached row
    segments = [(1, 2, 0), (0, 2, 1)]
    q = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    watt = rng.normal(size=(5, 4))

    return {
        "matmul": ([a, m], lambda: (ad.matmul(a, m) * wmat).sum()),
        "add": ([a, b], lambda: (ad.add(a, b) * wconst).sum()),
        "mul": ([a, b], lambda: (ad.mul(a, b) * wconst).sum()),
        "softmax": ([a], lambda: (ad.softmax(a) * wconst).sum()),
        "relu": ([r], lambda: (ad.relu(r) * wconst).sum()),
        "concat": ([a, b], lambda: (ad.concat([a, b]) * np.vstack([wconst, wconst])).sum()),
        "sum": ([a], lambda: ad.tsum(a)),
        "slice": ([a], lambda: (ad.tslice(a, (slice(0, 2), slice(1, 3))) * wconst[:2, 1:3]).sum()),
        "layer_norm": ([a, gain, shift], lambda: (ad.layer_norm(a, gain, shift, 1e-5) * wconst).sum()),
        "attention": ([q, k, v], lambda: (ad.attention(q, k, v, segments, 2) * watt).sum()),
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


def reference_attention(q, k, v, segments, n_heads, queries=None):
    """Attention as a loop over segments and heads with an additive 0 / -1e9 mask.

    ``queries`` lists each segment's query positions (default: all, in order);
    each one takes its row of the segment's full mask.
    """
    queries = queries or [range(P + T) for P, T, _ in segments]
    d = q.shape[1]
    dh = d // n_heads
    out, qo, ko = [], 0, 0
    for (P, T, cached), pos in zip(segments, queries):
        S, n = P + T, len(pos)
        allowed = np.zeros((S, S), dtype=bool)
        allowed[:, :P] = True
        allowed |= np.arange(S)[None, :] <= np.arange(S)[:, None]
        mask = np.pad(np.where(allowed, 0.0, -1e9), ((0, 0), (cached, 0)))[list(pos)]
        heads = []
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q[qo : qo + n, cols], k[ko : ko + cached + S, cols], v[ko : ko + cached + S, cols]
            scores = qh @ kh.T * dh**-0.5 + mask
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(e / e.sum(axis=1, keepdims=True) @ vh)
        out.append(np.concatenate(heads, axis=1))
        qo, ko = qo + n, ko + cached + S
    return np.concatenate(out)


# query positions per segment of (3, 4, 0), (0, 5, 0), (2, 1, 0), (0, 3, 6):
# every row; a subset with rows after 6 cached ones; image-prefix rows only;
# repeats and any order; a single row
QUERY_SUBSETS = [
    None,
    [[0, 2, 6], [4], [], [0, 2]],
    [[0, 1, 2], [], [0, 1], []],
    [[6, 0, 6], [3, 1], [2], [2, 0, 1]],
    [[], [], [], [1]],
]


def test_attention_matches_a_loop_over_segments_and_heads():
    rng = np.random.default_rng(7)
    segments = [(3, 4, 0), (0, 5, 0), (2, 1, 0), (0, 3, 6)]
    n_k = sum(P + T + c for P, T, c in segments)
    for queries in QUERY_SUBSETS:
        n_q = n_k - 6 if queries is None else sum(map(len, queries))
        q, k, v = (rng.normal(size=(n, 8)) for n in (n_q, n_k, n_k))
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), segments, 2, queries)
        want = reference_attention(q, k, v, segments, 2, queries)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12, err_msg=str(queries))
        for bad_q, bad_k in ((q, k[1:]), (q[1:], k)):
            with pytest.raises(ShapeError, match="attention"):
                ad.attention(Tensor(bad_q), Tensor(bad_k), Tensor(v), segments, 2, queries)
        if queries is not None:  # the full case is among the kernels checked above
            qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
            w = rng.normal(size=out.shape)
            err = finite_difference_check(lambda: (ad.attention(qt, kt, vt, segments, 2, queries) * w).sum(), [qt, kt, vt])
            assert err < 1e-4, queries


BROADCAST_OPS = {"add": ad.add, "mul": ad.mul}


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


@pytest.mark.parametrize("sa, sb", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,)), ((), (2, 2))])
def test_matmul_rejects_an_operand_of_fewer_than_two_axes(sa, sb):
    with pytest.raises(ShapeError, match=re.escape(f"{sa} and {sb}")):
        ad.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


def test_softmax_rejects_nonfinite_input():
    a = Tensor([np.inf, 1.0])
    with pytest.raises(NonFiniteError):
        ad.softmax(a)


def test_tape_ids_are_unique_and_topological():
    tape = reset_tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.relu(x)
    z = (y * x).sum()
    ids = [n.tensor._node_id for n in tape.nodes]
    assert ids == sorted(set(ids))
    for node in tape.nodes:
        if node.parent_ids:
            assert max(node.parent_ids) < node.tensor._node_id
    assert tape.nodes[-1].tensor is z


def test_no_grad_suppresses_recording():
    tape = reset_tape()
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.relu(x)
    assert not y.requires_grad
    assert len(tape.nodes) == 0


def test_row_gather_gradient_accumulates_repeats():
    reset_tape()
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = table[[0, 2, 0]]
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
    y = ad.relu(x)
    loss = (y * 2.0).sum()
    assert [n.tensor for n in tape.nodes[:2]] == [x, y]
    assert len(tape.nodes) == 4  # x, relu, mul, sum: no node for the 2.0
    assert tape.nodes[2].parent_ids == (1, ad.CONSTANT)  # y is node 1
    backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 0.0])
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


# -- fast kernels against the formulas they replaced, bit for bit ----------------
# Each oracle below is the kernel's earlier form. The inputs hold NaN, ±inf,
# ±0.0, subnormals and values past exp's range, also as 0-d arrays, where
# numpy ufuncs return scalars instead of arrays.

SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 710.0, -710.0, 746.0, -746.0, 1.5, -1.5]


def special_inputs(seed):
    rng = np.random.default_rng(seed)
    grid = rng.normal(scale=30.0, size=(6, 9))
    grid.flat[rng.choice(grid.size, len(SPECIALS), replace=False)] = SPECIALS
    return [grid, grid[:, 0], *(np.array(v) for v in SPECIALS)]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def old_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_relu_is_bitwise_the_where_formula():
    for x in special_inputs(0):
        assert same_bits(ad.relu(Tensor(x)).data, np.where(x > 0, x, 0.0)), x


def test_sigmoid_is_bitwise_the_two_branch_formula():
    # a NaN stays a NaN, but its sign bit may differ
    for x in special_inputs(1):
        with np.errstate(over="ignore"):
            want = old_sigmoid(x)
        got = ad._sigmoid(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), x
        assert same_bits(got[~nan], want[~nan]), x


def old_layer_norm(x, g, b, eps, gout):
    xc = x - x.mean(axis=-1, keepdims=True)
    rstd = ((xc * xc).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = xc * rstd
    gx = gout * g
    dx = rstd * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(x.ndim - 1))
    return xhat * g + b, dx, (gout * xhat).sum(axis=lead), gout.sum(axis=lead)


def vjp_of_last_node(g):
    """The active tape's last node's parent gradients for the output gradient ``g``."""
    return ad.active_tape().nodes[-1].grad_fn(g)


def test_layer_norm_forward_and_vjp_are_bitwise_the_mean_formula():
    rng = np.random.default_rng(2)
    for x in (rng.normal(size=(7, 12)), rng.normal(scale=1e3, size=(2, 3, 10)), special_inputs(3)[0]):
        d = x.shape[-1]
        g, b, gout = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)
        gout.flat[:3] = [-0.0, 0.0, 1e-310]
        reset_tape()
        params = [Tensor(a, requires_grad=True) for a in (x, g, b)]
        with np.errstate(invalid="ignore"):
            out = ad.layer_norm(*params, 1e-5)
            got = (out.data, *vjp_of_last_node(gout))
            want = old_layer_norm(x, g, b, 1e-5, gout)
        for got_part, want_part in zip(got, want):
            assert same_bits(got_part, want_part)


@pytest.mark.parametrize(
    "key",
    [np.array([0, 2, 3]), np.array([1, 4], dtype=np.int32), np.array([], dtype=np.intp), np.array([3]),
     np.array([-1, 2]), np.array([2, 0]), np.array([1, 1, 3])],
    ids=["sorted", "int32", "empty", "one", "negative-aliases-last", "unsorted", "repeated"],
)
def test_gather_vjp_is_bitwise_np_add_at(key):
    # a key that is not strictly increasing and nonnegative must accumulate:
    # -1 and 2 name the same row of 3
    x = Tensor(np.zeros((3 if key.size and key[0] < 0 else 5, 2)), requires_grad=True)
    g = np.array([[-0.0, np.nan], [np.inf, -np.inf], [0.0, -2.5]])[: len(key)]
    reset_tape()
    x[key]
    (got,) = vjp_of_last_node(g)
    want = np.zeros(x.shape)
    np.add.at(want, key, g)
    assert same_bits(got, want)


def old_attention(Q, K, V, segments, n_heads, queries):
    scale = (Q.shape[1] // n_heads) ** -0.5
    out = np.empty_like(Q)
    qo = ko = 0
    for (P, T, cached), pos in zip(segments, queries):
        S, M = len(pos), cached + P + T
        qs, ks = slice(qo, qo + S), slice(ko, ko + M)
        allowed = np.arange(M) <= cached + np.asarray(pos)[:, None]
        allowed[:, : cached + P] = True
        w = ad._split_heads(Q[qs], n_heads) @ ad._split_heads(K[ks], n_heads).transpose(0, 2, 1)
        w *= scale
        np.copyto(w, -np.inf, where=~allowed)
        w -= w.max(axis=-1, keepdims=True)
        np.copyto(w, 0.0, where=~allowed)
        np.exp(w, out=w)
        w *= allowed
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, ad._split_heads(V[ks], n_heads), out=ad._split_heads(out[qs], n_heads))
        qo, ko = qo + S, ko + M
    return out


@pytest.mark.parametrize(
    "segments, queries",
    [
        ([(3, 4, 0), (0, 5, 0), (2, 1, 0), (0, 3, 6)], None),  # every case blocks some keys
        ([(0, 1, 9)], [np.array([0])]),  # one-row decode query: nothing blocked
        ([(2, 3, 0), (3, 0, 0), (0, 2, 4)], [np.array([4]), np.array([0, 2]), np.array([1])]),  # last rows only
        ([(2, 3, 0), (0, 4, 2)], [np.array([1, 4]), np.array([2, 3])]),  # a prefix row; one blocked key
    ],
    ids=["full", "decode", "unblocked", "mixed"],
)
def test_attention_is_bitwise_the_allowed_mask_formula(segments, queries):
    rng = np.random.default_rng(8)
    queries = [np.arange(P + T) for P, T, _ in segments] if queries is None else queries
    n_q, n_k = sum(map(len, queries)), sum(P + T + c for P, T, c in segments)
    q, k, v = (rng.normal(scale=3.0, size=(n, 8)) for n in (n_q, n_k, n_k))
    got = ad.attention(Tensor(q), Tensor(k), Tensor(v), segments, 2, queries).data
    assert same_bits(got, old_attention(q, k, v, segments, 2, queries))
