"""Tests for candidate routing and fusion."""

import numpy as np

import medsegdet.autodiff as ad
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.fusion import (
    CandidateBundle,
    FusionConfig,
    RouterParams,
    fuse,
    fuse_candidates,
    init_router_params,
    route,
)

import pytest


def make_bundle(n, d, seed=0, requires_grad=False, batch=1):
    rng = np.random.default_rng(seed)
    return CandidateBundle(
        candidates=Tensor(rng.normal(size=(batch, n, d)), requires_grad=requires_grad),
        h_img=Tensor(rng.normal(size=(batch, 3, d))),
    )


def test_soft_n1_weight_is_one():
    cfg = FusionConfig(n=1, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=0)
    w_seg, w_det = route(make_bundle(1, 6), params, cfg)
    assert w_seg.data == pytest.approx(np.ones((1, 1)))
    assert w_det.data == pytest.approx(np.ones((1, 1)))


def test_zero_router_gives_uniform_weights():
    cfg = FusionConfig(n=4, mode="soft", router_hidden=8)
    params = init_router_params(cfg, d=5, seed=0)
    for t in vars(params).values():
        t.data[...] = 0.0
    w_seg, w_det = route(make_bundle(4, 5, batch=3), params, cfg)
    np.testing.assert_allclose(w_seg.data, np.full((3, 4), 0.25), atol=1e-15)
    np.testing.assert_allclose(w_det.data, np.full((3, 4), 0.25), atol=1e-15)


def test_hard_mode_fixed_assignment():
    cfg = FusionConfig(n=2, mode="hard")
    w_seg, w_det = route(make_bundle(2, 6, batch=2), None, cfg)
    assert w_seg.data.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert w_det.data.tolist() == [[0.0, 1.0], [0.0, 1.0]]


def test_hard_mode_n1_selects_the_single_candidate_for_both():
    cfg = FusionConfig(n=1, mode="hard")
    w_seg, w_det = route(make_bundle(1, 6), None, cfg)
    assert w_seg.data.tolist() == [[1.0]]
    assert w_det.data.tolist() == [[1.0]]


def test_fuse_weighted_sum_example():
    bundle = CandidateBundle(
        candidates=Tensor([[[1.0, 0.0], [0.0, 1.0]]]),
        h_img=Tensor(np.zeros((1, 1, 2))),
    )
    w = Tensor([[0.25, 0.75]])
    out = fuse(bundle, w, w)
    np.testing.assert_allclose(out.h_seg.data, [[0.25, 0.75]])
    np.testing.assert_allclose(out.h_det.data, [[0.25, 0.75]])


def test_fuse_one_hot_selects_candidate_exactly():
    bundle = make_bundle(3, 7, seed=2, batch=2)
    w = Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    out = fuse(bundle, w, Tensor([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    cands = bundle.candidates.data
    np.testing.assert_array_equal(out.h_seg.data, [cands[0, 1], cands[1, 0]])
    np.testing.assert_array_equal(out.h_det.data, [cands[0, 2], cands[1, 1]])


def test_fused_vector_lies_in_convex_hull_of_candidates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, d, B = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        bundle = make_bundle(n, d, seed=int(rng.integers(1 << 30)), batch=B)
        w = rng.dirichlet(np.ones(n), size=B)
        out = fuse(bundle, Tensor(w), Tensor(w))
        # each sample's fused vector stays in the hull of its own candidates
        lo = bundle.candidates.data.min(axis=1) - 1e-12
        hi = bundle.candidates.data.max(axis=1) + 1e-12
        assert np.all(out.h_seg.data >= lo) and np.all(out.h_seg.data <= hi)


def test_router_weights_are_simplex_valued():
    cfg = FusionConfig(n=3, mode="soft", router_hidden=6)
    params = init_router_params(cfg, d=8, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        bundle = CandidateBundle(
            candidates=Tensor(rng.normal(scale=3.0, size=(4, 3, 8))),
            h_img=Tensor(np.zeros((4, 1, 8))),
        )
        for w in route(bundle, params, cfg):
            assert np.all(w.data >= 0)
            assert np.all(np.abs(w.data.sum(axis=1) - 1.0) <= 1e-6)


def test_fused_rows_equal_each_sample_fused_alone():
    cfg = FusionConfig(n=3, mode="soft", router_hidden=5)
    params = init_router_params(cfg, d=4, seed=16)
    bundle = make_bundle(3, 4, seed=17, batch=5)
    batch = fuse_candidates(bundle, params, cfg)
    for i in range(5):
        alone = fuse_candidates(
            CandidateBundle(Tensor(bundle.candidates.data[i : i + 1]), Tensor(bundle.h_img.data[i : i + 1])),
            params, cfg,
        )
        for got, want in ((batch.w_seg, alone.w_seg), (batch.h_seg, alone.h_seg), (batch.h_det, alone.h_det)):
            np.testing.assert_allclose(got.data[i], want.data[0], rtol=1e-14, atol=1e-15)


def test_n1_soft_equals_hard_exactly():
    bundle = make_bundle(1, 6, seed=7, batch=3)
    soft = fuse_candidates(bundle, init_router_params(FusionConfig(n=1), 6, 0), FusionConfig(n=1, mode="soft"))
    hard = fuse_candidates(bundle, None, FusionConfig(n=1, mode="hard"))
    np.testing.assert_array_equal(soft.h_seg.data, hard.h_seg.data)
    np.testing.assert_array_equal(soft.h_det.data, hard.h_det.data)


def test_fuse_is_linear_in_candidates():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2, 2, 5))
    Y = rng.normal(size=(2, 2, 5))
    w = Tensor(rng.dirichlet(np.ones(2), size=2))
    a, b = 0.7, -1.3

    def fused(mat):
        bundle = CandidateBundle(Tensor(mat), Tensor(np.zeros((2, 1, 5))))
        return fuse(bundle, w, w).h_seg.data

    np.testing.assert_allclose(
        fused(a * X + b * Y), a * fused(X) + b * fused(Y), atol=1e-10
    )


def test_soft_mode_gradients_reach_router_and_candidates():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=9)
    bundle = make_bundle(2, 6, seed=10, requires_grad=True, batch=2)
    out = fuse_candidates(bundle, params, cfg)
    target = np.arange(12, dtype=float).reshape(2, 6)
    err = out.h_seg + (-target)
    loss = (err * err).sum() + (out.h_det * out.h_det).sum()
    ad.backward(loss)
    assert np.any(bundle.candidates.grad != 0)
    assert np.any(params.seg_w1.grad != 0)
    assert np.any(params.det_w2.grad != 0)


def test_hard_mode_router_gradients_are_zero():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="hard")
    params = init_router_params(cfg, d=6, seed=11)
    bundle = make_bundle(2, 6, seed=12, requires_grad=True)
    out = fuse_candidates(bundle, params, cfg)
    ad.backward((out.h_seg * out.h_seg).sum() + out.h_det.sum())
    for t in vars(params).values():
        assert np.all(t.grad == 0)
    assert np.any(bundle.candidates.grad != 0)


def test_route_gradcheck():
    ad.reset_tape()
    cfg = FusionConfig(n=2, mode="soft", router_hidden=4)
    params = init_router_params(cfg, d=6, seed=13)
    bundle = make_bundle(2, 6, seed=14, requires_grad=True, batch=2)
    coeff = np.random.default_rng(15).normal(size=(2, 6))

    def f():
        out = fuse_candidates(bundle, params, cfg)
        return (out.h_seg * coeff).sum() + (out.h_det * out.h_det).sum()

    leaves = [bundle.candidates] + list(vars(params).values())
    err = ad.finite_difference_check(f, leaves, max_coords_per_param=6)
    assert err < 1e-4


def test_dimension_mismatches_rejected():
    cfg = FusionConfig(n=2, mode="soft")
    params = init_router_params(cfg, d=6, seed=0)
    with pytest.raises(ShapeError):
        route(make_bundle(3, 6), params, cfg)
    with pytest.raises(ShapeError):
        route(make_bundle(2, 5), params, cfg)
    with pytest.raises(ShapeError):
        fuse(make_bundle(2, 6), Tensor([[1.0, 0.0, 0.0]]), Tensor([[1.0, 0.0]]))
    with pytest.raises(ShapeError):
        fuse(make_bundle(2, 6, batch=2), Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]))
    with pytest.raises(ShapeError):
        route(CandidateBundle(Tensor(np.zeros((2, 6))), Tensor(np.zeros((1, 1, 6)))), params, cfg)
    with pytest.raises(ValueError):
        route(make_bundle(2, 6), None, cfg)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        FusionConfig(n=0)
    with pytest.raises(ValueError):
        FusionConfig(mode="soggy")
    with pytest.raises(ValueError):
        FusionConfig(router_hidden=0)
