"""Candidate-token fusion, once per batch.

Two small routers score the n candidate embeddings that the language
model produced for each sample and build one fused embedding per
downstream decoder (h_seg for the mask decoder, h_det for the box
decoder) as convex combinations of that sample's candidates. Candidates
come as a (B, n, d) block; weights are (B, n) and fused embeddings (B, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


@dataclass(frozen=True)
class FusionConfig:
    n: int = 2
    mode: str = "soft"
    router_hidden: int = 16

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        if type(self.router_hidden) is not int or self.router_hidden < 1:
            raise ValueError("router_hidden must be an integer >= 1")
        if self.mode not in ("soft", "hard"):
            raise ValueError(f"unknown fusion mode {self.mode!r}")


@dataclass
class RouterParams:
    """One two-layer MLP (concat(n*d) -> hidden -> n) per decoder route."""

    seg_w1: Tensor
    seg_b1: Tensor
    seg_w2: Tensor
    seg_b2: Tensor
    det_w1: Tensor
    det_b1: Tensor
    det_w2: Tensor
    det_b2: Tensor

    def named(self, prefix: str = "router") -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in vars(self).items()}


@dataclass
class FusionOutput:
    h_seg: Tensor
    h_det: Tensor
    w_seg: Tensor
    w_det: Tensor


def init_router_params(cfg: FusionConfig, d: int, seed: int = 0) -> RouterParams:
    rng = np.random.default_rng(seed)
    din, h, n = cfg.n * d, cfg.router_hidden, cfg.n

    def w(shape):
        return Tensor(rng.normal(scale=shape[0] ** -0.5, size=shape), requires_grad=True)

    def b(size):
        return Tensor(np.zeros(size), requires_grad=True)

    return RouterParams(
        seg_w1=w((din, h)), seg_b1=b(h), seg_w2=w((h, n)), seg_b2=b(n),
        det_w1=w((din, h)), det_b1=b(h), det_w2=w((h, n)), det_b2=b(n),
    )


def _router_weights(flat: Tensor, w1, b1, w2, b2) -> Tensor:
    return ad.softmax(ad.relu(flat @ w1 + b1) @ w2 + b2)


def fuse_candidates(candidates: Tensor, params: RouterParams | None, cfg: FusionConfig) -> FusionOutput:
    """Route (B, n, d) candidates and fuse them: per-decoder weights (B, n), simplex-valued
    in both modes, and the weighted sums of each sample's candidate rows."""
    if candidates.data.ndim != 3:
        raise ShapeError(f"fuse_candidates: expected (B, n, d) candidates, got {candidates.shape}")
    B, n, d = candidates.shape
    if n != cfg.n:
        raise ShapeError(f"fuse_candidates: {n} candidates, config expects {cfg.n}")
    if cfg.mode == "hard":
        w_seg, w_det = (Tensor(np.tile(np.eye(n)[i], (B, 1))) for i in (0, min(1, n - 1)))
    elif params is None:
        raise ValueError("fuse_candidates: soft mode requires router parameters")
    elif params.seg_w1.shape[0] != n * d:
        raise ShapeError(f"fuse_candidates: router expects input {params.seg_w1.shape[0]}, candidates provide {n * d}")
    else:
        flat = candidates.reshape(B, n * d)
        w_seg = _router_weights(flat, params.seg_w1, params.seg_b1, params.seg_w2, params.seg_b2)
        w_det = _router_weights(flat, params.det_w1, params.det_b1, params.det_w2, params.det_b2)
    h_seg = (w_seg.reshape(B, 1, n) @ candidates).reshape(B, d)
    h_det = (w_det.reshape(B, 1, n) @ candidates).reshape(B, d)
    return FusionOutput(h_seg=h_seg, h_det=h_det, w_seg=w_seg, w_det=w_det)
