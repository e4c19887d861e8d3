"""Tests for the box head, soft raster, mask decoder, and similarity map."""

import numpy as np
import pytest

import medsegdet.autodiff as ad
from medsegdet.autodiff import NonFiniteError, ShapeError, Tensor
from medsegdet.decoders import (
    _CORNERS,
    BBox,
    BBoxParams,
    MaskDecoderParams,
    bbox_decode,
    init_bbox_params,
    init_mask_decoder_params,
    mask_decode,
    similarity_map,
    soft_box_raster,
)


def zero_bbox_params(d=6, hidden=4):
    z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return BBoxParams(w1=z(d, hidden), b1=z(hidden), w2=z(hidden, hidden),
                      b2=z(hidden), w3=z(hidden, 4), b3=z(4))


def boxes(*corners):
    """A (B, 4) corner tensor, one row per box."""
    return Tensor(np.array(corners, dtype=float).reshape(-1, 4))


# -- bbox decoding ------------------------------------------------------------

def test_bbox_decode_zero_logits_gives_centered_half_box():
    box = bbox_decode(Tensor(np.ones((1, 6))), zero_bbox_params())
    np.testing.assert_allclose(box.data, [[0.25, 0.25, 0.75, 0.75]], atol=1e-15)


def test_bbox_decode_degenerate_size_still_valid():
    params = zero_bbox_params()
    params.b3.data[:] = [0.0, 0.0, -30.0, -30.0]
    box = bbox_decode(Tensor(np.zeros((1, 6))), params)
    x1, y1, x2, y2 = BBox(*box.data[0]).validate().as_floats()
    assert x2 - x1 < 1e-10 and abs(x1 - 0.5) < 1e-10
    assert y2 - y1 < 1e-10 and abs(y1 - 0.5) < 1e-10


def test_bbox_decode_always_valid_on_random_inputs():
    rng = np.random.default_rng(0)
    params = init_bbox_params(d=6, hidden=4, seed=1)
    for _ in range(40):
        h = rng.normal(size=(5, 6)) * rng.choice([0.1, 1.0, 100.0], size=(5, 1))
        for row in bbox_decode(Tensor(h), params).data:
            BBox(*row).validate()


def test_bbox_decode_rows_equal_each_embedding_decoded_alone():
    rng = np.random.default_rng(19)
    params = init_bbox_params(d=6, hidden=4, seed=20)
    h = rng.normal(size=(7, 6))
    batch = bbox_decode(Tensor(h), params).data
    alone = np.concatenate([bbox_decode(Tensor(row[None]), params).data for row in h])
    np.testing.assert_allclose(batch, alone, rtol=1e-15, atol=1e-15)


def test_bbox_decode_rejects_non_finite():
    params = init_bbox_params(d=6, hidden=4, seed=2)
    with pytest.raises(NonFiniteError):
        bbox_decode(Tensor([[1.0, np.inf, 0.0, 0.0, 0.0, 0.0]]), params)
    with pytest.raises(ShapeError):
        bbox_decode(Tensor(np.zeros(6)), params)


def test_bbox_decode_gradcheck():
    ad.reset_tape()
    params = init_bbox_params(d=6, hidden=4, seed=3)
    h = Tensor(np.random.default_rng(4).normal(size=(2, 6)), requires_grad=True)
    corner_mix = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])

    def f():
        return (bbox_decode(h, params) * corner_mix).sum()

    leaves = [h] + [t for t in vars(params).values()]
    assert ad.finite_difference_check(f, leaves, max_coords_per_param=6) < 1e-4


# -- soft box raster ----------------------------------------------------------

def test_raster_full_box_interior_saturates():
    grid = soft_box_raster(boxes(0.0, 0.0, 1.0, 1.0), 16, 16, sharpness=200.0)
    assert grid.shape == (1, 16, 16)
    assert np.all(grid.data > 0.9)
    small = soft_box_raster(boxes(0.0, 0.0, 1.0, 1.0), 8, 8, sharpness=50.0)
    assert np.all(small.data > 0.9)


def test_raster_point_far_outside_is_small():
    grid = soft_box_raster(boxes(0.1, 0.1, 0.5, 0.5), 10, 10, sharpness=50.0)
    assert grid.data[0, 9, 9] < 0.1  # pixel center (0.95, 0.95), far outside
    assert grid.data[0, 2, 2] > 0.9  # pixel center (0.25, 0.25), deep inside


def test_raster_values_in_unit_interval_and_differentiable_in_box():
    ad.reset_tape()
    coords = Tensor([[0.2, 0.3, 0.7, 0.9], [0.1, 0.0, 0.4, 0.6]], requires_grad=True)

    def f():
        return soft_box_raster(coords, 6, 5, sharpness=50.0).sum()

    grid = soft_box_raster(coords, 6, 5, sharpness=50.0)
    assert np.all((grid.data > 0) & (grid.data < 1))
    assert ad.finite_difference_check(f, [coords]) < 1e-4


def test_raster_rows_equal_each_box_rastered_alone():
    corners = np.random.default_rng(21).uniform(size=(4, 4))
    corners[:, 2:] = corners[:, :2] + 0.5 * corners[:, 2:]
    batch = soft_box_raster(Tensor(corners), 7, 9, 50.0).data
    for row, grid in zip(corners, batch):
        assert np.array_equal(soft_box_raster(boxes(*row), 7, 9, 50.0).data[0], grid)


def test_raster_rejects_bad_sharpness():
    with pytest.raises(ValueError):
        soft_box_raster(boxes(0, 0, 1, 1), 4, 4, sharpness=0.0)
    with pytest.raises(ShapeError):
        soft_box_raster(Tensor([0.0, 0.0, 1.0, 1.0]), 4, 4, 50.0)


# -- fused nodes against the tape compositions they replaced -----------------------
# The oracles record the ops the box tail and the raster were built from,
# with their arithmetic as it was: sigmoid, sub, and maximum and minimum
# against a constant, which route the gradient to the tensor on a tie.


def taped(fn, vjp, *xs):
    """One local tape node: ``fn`` of the tensors' data, with VJPs ``vjp(g, *data)``."""
    xs = [x if isinstance(x, Tensor) else Tensor(x) for x in xs]
    data = [x.data for x in xs]
    return ad._record(fn(*data), xs, lambda g: vjp(g, *data))


def sigmoid(x):
    return taped(ad._sigmoid, lambda g, d: (g * ad._sigmoid(d) * (1.0 - ad._sigmoid(d)),), x)


def sub(a, b):
    return taped(np.subtract, lambda g, a, b: (ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)), a, b)


def composed_box_tail(z):
    c = sigmoid(z) @ _CORNERS
    c = taped(lambda d: np.maximum(d, 0.0), lambda g, d: (g * (d >= 0.0),), c)
    return taped(lambda d: np.minimum(d, 1.0), lambda g, d: (g * (d <= 1.0),), c)


def composed_raster(corners, H, W, sharpness):
    corners = corners.reshape(-1, 4, 1, 1)
    x1, y1, x2, y2 = (corners[:, k] for k in range(4))
    xs = Tensor((np.arange(W) + 0.5).reshape(1, 1, W) / W)
    ys = Tensor((np.arange(H) + 0.5).reshape(1, H, 1) / H)
    fx = sigmoid(sub(xs, x1) * sharpness) * sigmoid(sub(x2, xs) * sharpness)
    fy = sigmoid(sub(ys, y1) * sharpness) * sigmoid(sub(y2, ys) * sharpness)
    return fy * fx


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def output_gradient(rng, shape):
    """A random output gradient holding zeros of both signs, which signed zeros in the VJP keep."""
    g = rng.normal(size=shape)
    g.flat[::3] = -0.0
    g.flat[1::5] = 0.0
    g[-1] = -0.0  # a whole sample with no gradient
    return g


def composed_value_and_vjp(compose, x, g, *args):
    ad.reset_tape()
    leaf = Tensor(x, requires_grad=True)
    out = compose(leaf, *args)
    ad.backward((out * g).sum())
    return out.data, leaf.grad


def identity_bbox_params():
    """Box MLP params under which the pre-sigmoid (B, 4) equals the embedding: relu(±x) recombined."""
    eye, zeros = np.eye(4), np.zeros((4, 4))
    t = lambda a: Tensor(a, requires_grad=True)
    return BBoxParams(w1=t(np.hstack([eye, -eye])), b1=t(np.zeros(8)), w2=t(np.eye(8)),
                      b2=t(np.zeros(8)), w3=t(np.vstack([eye, -eye])), b3=t(np.zeros(4)))


def test_box_tail_is_one_node_bitwise_its_tape_composition():
    rng = np.random.default_rng(30)
    # (cx, cy, w, h) = (0.5, 0.5, 1, 1) puts the corners exactly on 0 and 1:
    # a tie at each clamp; the other rows clamp on one side, both or neither
    z = np.vstack([
        [0.0, 0.0, 40.0, 40.0], [0.0, -0.0, 0.0, 0.0], [3.0, -3.0, 40.0, 2.0],
        [-5.0, 5.0, 1.0, -1.0], [-40.0, 40.0, -40.0, 40.0], rng.normal(scale=3.0, size=(4, 4)),
    ])
    ad.reset_tape()
    out = bbox_decode(Tensor(z, requires_grad=True), identity_bbox_params())
    tape = ad.active_tape().nodes
    pre = tape[-2].tensor
    assert tape[-1].tensor is out and tape[-1].parent_ids == (pre._node_id,)
    assert np.array_equal(pre.data, z)
    assert out.data[0].tolist() == [0.0, 0.0, 1.0, 1.0]
    g = output_gradient(rng, z.shape)
    g[0] = [1.0, 2.0, 3.0, 4.0]
    (got_grad,) = tape[-1].grad_fn(g)
    want, want_grad = composed_value_and_vjp(composed_box_tail, z, g)
    assert same_bits(out.data, want)
    assert same_bits(got_grad, want_grad)
    # every tied corner passes its gradient: d/dcx = (1 + 3) s'(0), d/dcy = (2 + 4) s'(0)
    assert got_grad[0].tolist() == [1.0, 1.5, 0.0, 0.0]


@pytest.mark.parametrize("H, W", [(9, 11), (4, 4), (1, 6), (5, 1)])
def test_raster_is_one_node_bitwise_its_tape_composition(H, W):
    rng = np.random.default_rng(31)
    cx, cy = (np.arange(W) + 0.5) / W, (np.arange(H) + 0.5) / H
    corners = np.vstack([
        [0.0, 0.0, 1.0, 1.0],  # the grid edges
        [cx[0], cy[0], cx[-1], cy[-1]],  # on pixel centres
        [cx[W // 2], cy[H // 2], cx[W // 2], cy[H // 2]],  # a point box on a centre
        [0.3, 0.0, 0.3, 1.0],  # zero width on the top and bottom edges
        np.sort(rng.uniform(size=(3, 2, 2)), axis=1).transpose(0, 2, 1).reshape(3, 4),
    ])
    for sharpness in (50.0, 25.0, 3.0):
        ad.reset_tape()
        leaf = Tensor(corners, requires_grad=True)
        out = soft_box_raster(leaf, H, W, sharpness)
        assert [n.tensor for n in ad.active_tape().nodes] == [leaf, out]
        g = output_gradient(rng, out.shape)
        (got_grad,) = ad.active_tape().nodes[-1].grad_fn(g)
        want, want_grad = composed_value_and_vjp(composed_raster, corners, g, H, W, sharpness)
        assert same_bits(out.data, want)
        assert same_bits(got_grad, want_grad)


@pytest.mark.parametrize("p", [1, 2])
def test_mask_dots_are_one_node_bitwise_their_matmul_and_reshape(p):
    rng = np.random.default_rng(32)
    B, Hf, Wf = 3, 4, 5
    patches = rng.uniform(size=(B, Hf, Wf, p * p))
    patches.flat[::4], patches.flat[1::7] = 0.0, -0.0  # pixel products of zeros of both signs
    params = init_mask_decoder_params(feat_dim=3, prompt_dim=6, seed=33)
    h_seg = rng.normal(size=(B, 6))
    h_seg[-1] = 0.0  # a zero prompt: its q is zero
    ad.reset_tape()
    proj = Tensor(rng.normal(size=(p * p, 3)), requires_grad=True)
    mask_decode((patches, proj), Tensor(h_seg, requires_grad=True), boxes(0, 0, 1, 1), params, (Hf, Wf), 50.0, False)
    nodes = ad.active_tape().nodes
    dots = next(n for n in nodes if n.grad_fn is not None and n.tensor.shape == (B, Hf, Wf))
    (q_id,) = dots.parent_ids
    g = output_gradient(rng, (B, Hf, Wf))
    (got_grad,) = dots.grad_fn(g)
    P = Tensor(patches.reshape(B, Hf * Wf, p * p))
    want, want_grad = composed_value_and_vjp(lambda q: (P @ q).reshape(B, Hf, Wf), nodes[q_id].tensor.data, g)
    assert same_bits(dots.tensor.data, want)
    assert same_bits(got_grad, want_grad)


# -- mask decoding -------------------------------------------------------------
# ``features(grid)`` gives mask_decode a (B, Hf, Wf, d) feature grid as the
# patch grid of an identity projection


def features(grid):
    grid = np.asarray(grid.data if isinstance(grid, Tensor) else grid)
    return grid, Tensor(np.eye(grid.shape[-1]))


def test_mask_decode_null_prompt_constant_bias():
    rng = np.random.default_rng(7)
    f = Tensor(rng.normal(size=(1, 4, 4, 5)))
    params = MaskDecoderParams(
        w_p=Tensor(rng.normal(size=(6, 5)), requires_grad=True),
        gamma=Tensor(0.0, requires_grad=True),
        b=Tensor(0.7, requires_grad=True),
    )
    out = mask_decode(features(f), Tensor(np.zeros((1, 6))), boxes(0.2, 0.2, 0.8, 0.8), params, (8, 8), 50.0)
    np.testing.assert_allclose(out.data, np.full((1, 8, 8), 0.7), atol=1e-12)


def test_mask_decode_box_dominated_limit_matches_box_interior():
    f = Tensor(np.zeros((1, 8, 8, 5)))
    params = MaskDecoderParams(
        w_p=Tensor(np.zeros((6, 5))), gamma=Tensor(20.0), b=Tensor(-10.0)
    )
    out = mask_decode(features(f), Tensor(np.zeros((1, 6))), boxes(0.25, 0.25, 0.75, 0.75), params, (32, 32), 50.0)
    pred = out.data[0] > 0
    ys = (np.arange(32) + 0.5) / 32
    inside = (ys >= 0.25) & (ys <= 0.75)
    expected = inside[:, None] & inside[None, :]
    inter = np.count_nonzero(pred & expected)
    union = np.count_nonzero(pred | expected)
    assert inter / union > 0.8


def test_mask_gradient_reaches_bbox_parameters():
    ad.reset_tape()
    rng = np.random.default_rng(8)
    bparams = init_bbox_params(d=6, hidden=4, seed=9)
    mparams = init_mask_decoder_params(feat_dim=5, prompt_dim=6, seed=10)
    f = Tensor(rng.normal(size=(1, 4, 4, 5)))
    h_det = Tensor(rng.normal(size=(1, 6)))
    h_seg = Tensor(rng.normal(size=(1, 6)))
    box = bbox_decode(h_det, bparams)
    out = mask_decode(features(f), h_seg, box, mparams, (8, 8), 50.0)
    ad.backward(out.sum())
    assert np.any(bparams.w3.grad != 0)
    assert np.any(bparams.b3.grad != 0)
    assert np.any(mparams.w_p.grad == mparams.w_p.grad)  # finite layout intact
    assert np.all(np.isfinite(bparams.w1.grad))


def test_mask_decode_linear_in_features_when_box_channel_off():
    rng = np.random.default_rng(11)
    params = MaskDecoderParams(
        w_p=Tensor(rng.normal(size=(6, 5))), gamma=Tensor(0.0), b=Tensor(0.0)
    )
    h_seg = Tensor(rng.normal(size=(1, 6)))
    box = boxes(0.1, 0.1, 0.9, 0.9)
    F1 = rng.normal(size=(1, 4, 4, 5))
    F2 = rng.normal(size=(1, 4, 4, 5))
    a, b = 1.7, -0.4

    def run(grid):
        return mask_decode(features(grid), h_seg, box, params, (8, 8), 50.0).data

    np.testing.assert_allclose(
        run(a * F1 + b * F2), a * run(F1) + b * run(F2), atol=1e-10
    )


def test_mask_decode_rows_equal_each_sample_decoded_alone():
    rng = np.random.default_rng(22)
    params = init_mask_decoder_params(feat_dim=5, prompt_dim=6, seed=23)
    grids, prompts = rng.normal(size=(3, 4, 4, 5)), rng.normal(size=(3, 6))
    corners = np.array([[0.1, 0.2, 0.6, 0.7], [0.3, 0.0, 0.9, 0.5], [0.0, 0.0, 1.0, 1.0]])
    batch = mask_decode(features(grids), Tensor(prompts), Tensor(corners), params, (8, 8), 50.0)
    for i in range(3):
        alone = mask_decode(
            features(grids[i : i + 1]), Tensor(prompts[i : i + 1]),
            Tensor(corners[i : i + 1]), params, (8, 8), 50.0,
        )
        np.testing.assert_allclose(batch.data[i], alone.data[0], rtol=1e-13, atol=1e-13)


def test_mask_decode_dimension_mismatches_rejected():
    rng = np.random.default_rng(12)
    f = Tensor(rng.normal(size=(1, 4, 4, 5)))
    params = init_mask_decoder_params(feat_dim=5, prompt_dim=6, seed=13)
    with pytest.raises(ShapeError):
        mask_decode(features(f), Tensor(np.zeros((1, 7))), boxes(0, 0, 1, 1), params, (8, 8), 50.0)
    with pytest.raises(ShapeError):
        mask_decode(features(f), Tensor(np.zeros((2, 6))), boxes(0, 0, 1, 1), params, (8, 8), 50.0)
    bad = Tensor(rng.normal(size=(1, 4, 4, 9)))
    with pytest.raises(ShapeError):
        mask_decode(features(bad), Tensor(np.zeros((1, 6))), boxes(0, 0, 1, 1), params, (8, 8), 50.0)
    for patches, proj in ((f.data, Tensor(np.eye(4, 5))), (f.data[0], Tensor(np.eye(5)))):
        with pytest.raises(ShapeError, match="patch grid"):
            mask_decode((patches, proj), Tensor(np.zeros((1, 6))), boxes(0, 0, 1, 1), params, (8, 8), 50.0)


def test_mask_decode_gradcheck():
    ad.reset_tape()
    rng = np.random.default_rng(14)
    params = init_mask_decoder_params(feat_dim=5, prompt_dim=6, seed=15)
    h_seg = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    coords = Tensor([[0.2, 0.25, 0.8, 0.7], [0.1, 0.3, 0.5, 0.9]], requires_grad=True)
    patches = rng.normal(size=(2, 3, 3, 4))
    proj = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    weights = rng.normal(size=(2, 6, 6))

    def loss():
        out = mask_decode((patches, proj), h_seg, coords, params, (6, 6), 50.0)
        return (out * weights).sum()

    leaves = [h_seg, proj, params.w_p, params.gamma, params.b, coords]
    assert ad.finite_difference_check(loss, leaves, max_coords_per_param=8) < 1e-4


# -- similarity map -----------------------------------------------------------

def test_similarity_zero_prompt_gives_zero_map():
    h_img = Tensor(np.random.default_rng(16).normal(size=(1, 5, 4)))
    out = similarity_map(h_img, Tensor(np.zeros((1, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5)))


def test_similarity_orthonormal_rows_one_hot():
    h_img = Tensor(np.eye(4)[None])
    out = similarity_map(h_img, Tensor(np.eye(4)[2][None]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 1.0, 0.0]])


def test_similarity_matches_naive_loop():
    rng = np.random.default_rng(17)
    h_img = rng.normal(size=(2, 7, 5))
    h_seg = rng.normal(size=(2, 5))
    out = similarity_map(Tensor(h_img), Tensor(h_seg)).data
    expected = np.array(
        [[sum(h_img[b][p][k] * h_seg[b][k] for k in range(5)) for p in range(7)] for b in range(2)]
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_similarity_homogeneous_in_prompt():
    rng = np.random.default_rng(18)
    h_img = Tensor(rng.normal(size=(1, 6, 4)))
    h_seg = rng.normal(size=(1, 4))
    # scale by a power of two so floating-point scaling is exact
    a = similarity_map(h_img, Tensor(2.0 * h_seg)).data
    b = 2.0 * similarity_map(h_img, Tensor(h_seg)).data
    np.testing.assert_array_equal(a, b)


def test_similarity_dimension_mismatch():
    with pytest.raises(ShapeError):
        similarity_map(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 5))))
    with pytest.raises(ShapeError):
        similarity_map(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((1, 4))))
