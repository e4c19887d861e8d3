"""Tests for candidate routing and fusion."""

import numpy as np

import medsegdet.autodiff as ad
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.fusion import (
    FusionConfig,
    RouterParams,
    fuse_candidates,
    init_router_params,
)

import pytest


def make_candidates(n, d, seed=0, requires_grad=False, batch=1):
    return Tensor(np.random.default_rng(seed).normal(size=(batch, n, d)), requires_grad=requires_grad)


def fixed_router(w_seg, w_det, d):
    """Soft-mode router parameters whose weights are softmax(log w) for every input: zero
    layers, and the log weights as the output biases."""
    n = len(w_seg)
    params = init_router_params(FusionConfig(n=n, router_hidden=2), d)
    for t in vars(params).values():
        t.data[...] = 0.0
    params.seg_b2.data[...], params.det_b2.data[...] = np.log(w_seg), np.log(w_det)
    return params


def test_soft_n1_weight_is_one():
    cfg = FusionConfig(n=1, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=0)
    out = fuse_candidates(make_candidates(1, 6), params, cfg)
    assert out.w_seg.data == pytest.approx(np.ones((1, 1)))
    assert out.w_det.data == pytest.approx(np.ones((1, 1)))


def test_zero_router_gives_uniform_weights():
    cfg = FusionConfig(n=4, mode="soft", router_hidden=8)
    params = init_router_params(cfg, d=5, seed=0)
    for t in vars(params).values():
        t.data[...] = 0.0
    out = fuse_candidates(make_candidates(4, 5, batch=3), params, cfg)
    np.testing.assert_allclose(out.w_seg.data, np.full((3, 4), 0.25), atol=1e-15)
    np.testing.assert_allclose(out.w_det.data, np.full((3, 4), 0.25), atol=1e-15)


def test_hard_mode_fixed_assignment():
    cfg = FusionConfig(n=2, mode="hard")
    cands = make_candidates(2, 6, batch=2)
    out = fuse_candidates(cands, None, cfg)
    assert out.w_seg.data.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert out.w_det.data.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    np.testing.assert_array_equal(out.h_seg.data, cands.data[:, 0])
    np.testing.assert_array_equal(out.h_det.data, cands.data[:, 1])


def test_hard_mode_n1_selects_the_single_candidate_for_both():
    cfg = FusionConfig(n=1, mode="hard")
    out = fuse_candidates(make_candidates(1, 6), None, cfg)
    assert out.w_seg.data.tolist() == [[1.0]]
    assert out.w_det.data.tolist() == [[1.0]]


def test_fuse_weighted_sum_example():
    out = fuse_candidates(Tensor([[[1.0, 0.0], [0.0, 1.0]]]), fixed_router([0.25, 0.75], [0.5, 0.5], 2), FusionConfig())
    np.testing.assert_allclose(out.w_seg.data, [[0.25, 0.75]], rtol=1e-14)
    np.testing.assert_allclose(out.h_seg.data, [[0.25, 0.75]], rtol=1e-14)
    np.testing.assert_allclose(out.h_det.data, [[0.5, 0.5]], rtol=1e-14)


def test_fuse_one_hot_selects_candidate_exactly():
    # hard mode's fixed weights: segmentation reads candidate 1, detection candidate 2, of each sample
    cands = make_candidates(3, 7, seed=2, batch=2)
    out = fuse_candidates(cands, None, FusionConfig(n=3, mode="hard"))
    np.testing.assert_array_equal(out.h_seg.data, [cands.data[0, 0], cands.data[1, 0]])
    np.testing.assert_array_equal(out.h_det.data, [cands.data[0, 1], cands.data[1, 1]])


def test_fused_vector_lies_in_convex_hull_of_candidates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, d, B = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        cands = make_candidates(n, d, seed=int(rng.integers(1 << 30)), batch=B)
        cfg = FusionConfig(n=n, router_hidden=int(rng.integers(1, 5)))
        out = fuse_candidates(cands, init_router_params(cfg, d, seed=int(rng.integers(1 << 30))), cfg)
        # each sample's fused vectors are its weights times its own candidates, so they stay in their hull
        for h, w in ((out.h_seg, out.w_seg), (out.h_det, out.w_det)):
            np.testing.assert_allclose(h.data, (w.data[:, None] @ cands.data)[:, 0], rtol=1e-13, atol=1e-15)
            lo = cands.data.min(axis=1) - 1e-12
            hi = cands.data.max(axis=1) + 1e-12
            assert np.all(h.data >= lo) and np.all(h.data <= hi)


def test_router_weights_are_simplex_valued():
    cfg = FusionConfig(n=3, mode="soft", router_hidden=6)
    params = init_router_params(cfg, d=8, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        out = fuse_candidates(Tensor(rng.normal(scale=3.0, size=(4, 3, 8))), params, cfg)
        for w in (out.w_seg, out.w_det):
            assert np.all(w.data >= 0)
            assert np.all(np.abs(w.data.sum(axis=1) - 1.0) <= 1e-6)


def test_fused_rows_equal_each_sample_fused_alone():
    cfg = FusionConfig(n=3, mode="soft", router_hidden=5)
    params = init_router_params(cfg, d=4, seed=16)
    cands = make_candidates(3, 4, seed=17, batch=5)
    batch = fuse_candidates(cands, params, cfg)
    for i in range(5):
        alone = fuse_candidates(Tensor(cands.data[i : i + 1]), params, cfg)
        for got, want in ((batch.w_seg, alone.w_seg), (batch.h_seg, alone.h_seg), (batch.h_det, alone.h_det)):
            np.testing.assert_allclose(got.data[i], want.data[0], rtol=1e-14, atol=1e-15)


def test_n1_soft_equals_hard_exactly():
    cands = make_candidates(1, 6, seed=7, batch=3)
    soft = fuse_candidates(cands, init_router_params(FusionConfig(n=1), 6, 0), FusionConfig(n=1, mode="soft"))
    hard = fuse_candidates(cands, None, FusionConfig(n=1, mode="hard"))
    np.testing.assert_array_equal(soft.h_seg.data, hard.h_seg.data)
    np.testing.assert_array_equal(soft.h_det.data, hard.h_det.data)


def test_fuse_is_linear_in_candidates():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2, 2, 5))
    Y = rng.normal(size=(2, 2, 5))
    a, b = 0.7, -1.3

    def fused(mat):  # hard mode: the weights do not depend on the candidates
        return fuse_candidates(Tensor(mat), None, FusionConfig(mode="hard")).h_det.data

    np.testing.assert_allclose(
        fused(a * X + b * Y), a * fused(X) + b * fused(Y), atol=1e-10
    )


def test_soft_mode_gradients_reach_router_and_candidates():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=9)
    cands = make_candidates(2, 6, seed=10, requires_grad=True, batch=2)
    out = fuse_candidates(cands, params, cfg)
    target = np.arange(12, dtype=float).reshape(2, 6)
    err = out.h_seg + (-target)
    loss = (err * err).sum() + (out.h_det * out.h_det).sum()
    ad.backward(loss)
    assert np.any(cands.grad != 0)
    assert np.any(params.seg_w1.grad != 0)
    assert np.any(params.det_w2.grad != 0)


def test_hard_mode_router_gradients_are_zero():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="hard")
    params = init_router_params(cfg, d=6, seed=11)
    cands = make_candidates(2, 6, seed=12, requires_grad=True)
    out = fuse_candidates(cands, params, cfg)
    ad.backward((out.h_seg * out.h_seg).sum() + out.h_det.sum())
    for t in vars(params).values():
        assert np.all(t.grad == 0)
    assert np.any(cands.grad != 0)


def test_route_gradcheck():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=13)
    cands = make_candidates(2, 6, seed=14, requires_grad=True, batch=2)
    coeff = np.random.default_rng(15).normal(size=(2, 6))

    def f():
        out = fuse_candidates(cands, params, cfg)
        return (out.h_seg * coeff).sum() + (out.h_det * out.h_det).sum()

    leaves = [cands] + list(vars(params).values())
    err = ad.finite_difference_check(f, leaves, max_coords_per_param=6)
    assert err < 1e-4


def test_dimension_mismatches_rejected():
    cfg = FusionConfig(n=2, mode="soft")
    params = init_router_params(cfg, d=6, seed=0)
    with pytest.raises(ShapeError, match="3 candidates, config expects 2"):
        fuse_candidates(make_candidates(3, 6), params, cfg)
    with pytest.raises(ShapeError, match="router expects input 12, candidates provide 10"):
        fuse_candidates(make_candidates(2, 5), params, cfg)
    with pytest.raises(ShapeError, match=r"expected \(B, n, d\) candidates"):
        fuse_candidates(Tensor(np.zeros((2, 6))), params, cfg)
    with pytest.raises(ValueError, match="soft mode requires router parameters"):
        fuse_candidates(make_candidates(2, 6), None, cfg)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        FusionConfig(n=0)
    with pytest.raises(ValueError):
        FusionConfig(mode="soggy")
    with pytest.raises(ValueError):
        FusionConfig(router_hidden=0)
