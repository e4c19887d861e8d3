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


@dataclass
class CandidateBundle:
    """A batch's last-layer rows by role: candidates (B×n×d) and image prefix (B×P×d, or None if unread)."""

    candidates: Tensor
    h_img: Tensor | None = None

    @property
    def n(self) -> int:
        return self.candidates.shape[1]

    @property
    def d(self) -> int:
        return self.candidates.shape[2]


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


def route(
    bundle: CandidateBundle, params: RouterParams | None, cfg: FusionConfig
) -> tuple[Tensor, Tensor]:
    """Per-decoder candidate weights (B, n); each row is simplex-valued in both modes."""
    if bundle.candidates.data.ndim != 3:
        raise ShapeError(f"route: expected (B, n, d) candidates, got {bundle.candidates.shape}")
    if bundle.n != cfg.n:
        raise ShapeError(f"route: bundle has {bundle.n} candidates, config expects {cfg.n}")
    B = bundle.candidates.shape[0]
    if cfg.mode == "hard":
        eye = np.eye(cfg.n)
        return Tensor(np.tile(eye[0], (B, 1))), Tensor(np.tile(eye[min(1, cfg.n - 1)], (B, 1)))
    if params is None:
        raise ValueError("route: soft mode requires router parameters")
    if params.seg_w1.shape[0] != cfg.n * bundle.d:
        raise ShapeError(
            f"route: router expects input {params.seg_w1.shape[0]}, "
            f"bundle provides {cfg.n * bundle.d}"
        )
    flat = bundle.candidates.reshape(B, cfg.n * bundle.d)
    w_seg = _router_weights(flat, params.seg_w1, params.seg_b1, params.seg_w2, params.seg_b2)
    w_det = _router_weights(flat, params.det_w1, params.det_b1, params.det_w2, params.det_b2)
    return w_seg, w_det


def fuse(bundle: CandidateBundle, w_seg: Tensor, w_det: Tensor) -> FusionOutput:
    """Weighted sums over each sample's candidate rows, weights recorded in the output."""
    B, n, d = bundle.candidates.shape
    if w_seg.shape != (B, n) or w_det.shape != (B, n):
        raise ShapeError(
            f"fuse: weight shapes {w_seg.shape}/{w_det.shape} do not match {B} samples of n={n}"
        )
    h_seg = (w_seg.reshape(B, 1, n) @ bundle.candidates).reshape(B, d)
    h_det = (w_det.reshape(B, 1, n) @ bundle.candidates).reshape(B, d)
    return FusionOutput(h_seg=h_seg, h_det=h_det, w_seg=w_seg, w_det=w_det)


def fuse_candidates(
    bundle: CandidateBundle, params: RouterParams | None, cfg: FusionConfig
) -> FusionOutput:
    """route + fuse in one call."""
    w_seg, w_det = route(bundle, params, cfg)
    return fuse(bundle, w_seg, w_det)
