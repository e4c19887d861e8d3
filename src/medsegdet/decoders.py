"""Perception heads, run once per batch on (B, …) tensors.

A small MLP turns each detection embedding into a normalized box, a row
of a (B, 4) corner tensor; a prompt-conditioned linear head turns dense
visual features, the segmentation embeddings and a differentiable soft
rasterization of the boxes into (B, H, W) mask logits, a plain Tensor
that is positive where a mask is predicted. The features are a frozen
patchwise projection of the image, the vision-backbone stand-in; the
head contracts the prompt with the projection first, so it reads the
image patches and never builds the feature grid. Also hosts the
patch-token similarity maps (B, P) used by the fine-tuning objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor

# (cx, cy, w, h) @ _CORNERS = (cx - w/2, cy - h/2, cx + w/2, cy + h/2)
_CORNERS = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                     [-0.5, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 0.5]])


@dataclass
class BBox:
    """Axis-aligned box, normalized corners, as floats."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        self.x1, self.y1, self.x2, self.y2 = (float(v) for v in (self.x1, self.y1, self.x2, self.y2))

    def as_floats(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def validate(self) -> "BBox":
        x1, y1, x2, y2 = self.as_floats()
        if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0):
            raise ValueError(f"invalid box {(x1, y1, x2, y2)}")
        return self


@dataclass
class BBoxParams:
    """MLP d -> hidden -> hidden -> 4."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    def named(self, prefix: str = "bbox") -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in vars(self).items()}


@dataclass
class MaskDecoderParams:
    """Prompt projection W_p, box-channel gain gamma, bias b."""

    w_p: Tensor
    gamma: Tensor
    b: Tensor

    def named(self, prefix: str = "maskdec") -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in vars(self).items()}


def init_bbox_params(d: int, hidden: int = 8, seed: int = 0) -> BBoxParams:
    rng = np.random.default_rng(seed)

    def w(shape, scale):
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)

    return BBoxParams(
        w1=w((d, hidden), d**-0.5),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=w((hidden, hidden), hidden**-0.5),
        b2=Tensor(np.zeros(hidden), requires_grad=True),
        w3=w((hidden, 4), 0.02),
        b3=Tensor(np.zeros(4), requires_grad=True),
    )


def init_mask_decoder_params(feat_dim: int, prompt_dim: int, seed: int = 0) -> MaskDecoderParams:
    # small w_p start keeps early logits box-dominated; gamma/b encode a
    # rare-foreground prior (positive inside the box, negative background)
    rng = np.random.default_rng(seed)
    return MaskDecoderParams(
        w_p=Tensor(rng.normal(scale=0.02, size=(prompt_dim, feat_dim)), requires_grad=True),
        gamma=Tensor(4.0, requires_grad=True),
        b=Tensor(-2.0, requires_grad=True),
    )


def bbox_decode(h_det: Tensor, params: BBoxParams) -> Tensor:
    """(B, d) detection embeddings -> (B, 4) corners (x1, y1, x2, y2).

    The MLP's sigmoid outputs (cx, cy, w, h) map to corners through one
    constant matrix, clamped to [0, 1], in one tape node. Total over
    finite inputs: every row satisfies the box invariants because
    clamping is monotone. A corner at exactly 0 or 1 passes its gradient.
    """
    if h_det.data.ndim != 2:
        raise ShapeError(f"bbox_decode: expected (B, d) embeddings, got {h_det.shape}")
    if not np.all(np.isfinite(h_det.data)):
        raise NonFiniteError("bbox_decode: non-finite detection embedding")
    h = ad.relu(h_det @ params.w1 + params.b1)
    h = ad.relu(h @ params.w2 + params.b2)
    z = h @ params.w3 + params.b3
    s = ad._sigmoid(z.data)
    c = s @ _CORNERS
    keep = (c >= 0.0) & (c <= 1.0)
    return ad._record(
        np.minimum(np.maximum(c, 0.0), 1.0), (z,), lambda g: (((g * keep) @ _CORNERS.T) * s * (1.0 - s),)
    )


def soft_box_raster(boxes: Tensor, H: int, W: int, sharpness: float) -> Tensor:
    """B×H×W grids in (0,1): products of four sigmoid edge gates at pixel centers.

    One tape node, differentiable in the (B, 4) box corners, near-binary
    at high sharpness.
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    if boxes.data.ndim != 2 or boxes.shape[1] != 4:
        raise ShapeError(f"soft_box_raster: expected (B, 4) boxes, got {boxes.shape}")
    x1, y1, x2, y2 = boxes.data.T.reshape(4, -1, 1, 1)
    xs = (np.arange(W) + 0.5).reshape(1, 1, W) / W
    ys = (np.arange(H) + 0.5).reshape(1, H, 1) / H
    sx1, sx2 = ad._sigmoid((xs - x1) * sharpness), ad._sigmoid((x2 - xs) * sharpness)
    sy1, sy2 = ad._sigmoid((ys - y1) * sharpness), ad._sigmoid((y2 - ys) * sharpness)
    fx, fy = sx1 * sx2, sy1 * sy2

    def grad_fn(g):
        gx = (g * fy).sum(axis=1, keepdims=True)  # (B, 1, W)
        gy = (g * fx).sum(axis=2, keepdims=True)  # (B, H, 1)

        def edge(g_gates, other, s):  # the gradient at one gate's input, before the sum over its axis
            return g_gates * other * s * (1.0 - s) * sharpness

        d = [
            (-edge(gx, sx2, sx1)).sum(axis=2), (-edge(gy, sy2, sy1)).sum(axis=1),
            edge(gx, sx1, sx2).sum(axis=2), edge(gy, sy1, sy2).sum(axis=1),
        ]
        return (np.concatenate(d, axis=1),)

    return ad._record(fy * fx, (boxes,), grad_fn)


def mask_decode(
    f: tuple[np.ndarray, Tensor],
    h_seg: Tensor,
    boxes: Tensor,
    params: MaskDecoderParams,
    out_hw: tuple[int, int],
    sharpness: float,
    use_box: bool = True,
) -> Tensor:
    """(B, H, W) mask logits: per cell ⟨f(b,i,j), W_p·h_seg(b)⟩ + gamma·raster(b,i,j) + b, upsampled.

    ``f`` is the pair (P, V) of the (B, Hf, Wf, p²) patch grid of
    ``image_patches`` and the (p², d) projection: the features are
    f(b,i,j) = P(b,i,j)·V.  The dots are taken as P·(V·(W_pᵀ h_seg)), so the
    (B, Hf, Wf, d) feature grid is never built.

    ``use_box=False`` removes the raster term entirely, severing the
    gradient path from the mask loss into the box decoder.
    """
    patches, proj = f
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 4 or proj.data.ndim != 2 or proj.shape[0] != patches.shape[3]:
        raise ShapeError(f"mask_decode: patch grid {patches.shape} does not fit projection {proj.shape}")
    B, Hf, Wf, p2 = patches.shape
    dim = proj.shape[1]
    if Hf == 0 or Wf == 0:
        raise ShapeError("mask_decode: empty feature grid")
    if h_seg.shape != (B, params.w_p.shape[0]):
        raise ShapeError(
            f"mask_decode: prompts {h_seg.shape} do not match {B} grids and W_p {params.w_p.shape}"
        )
    if params.w_p.shape[1] != dim:
        raise ShapeError(f"mask_decode: feature dim {dim} does not match W_p {params.w_p.shape}")
    q = proj @ (h_seg @ params.w_p).reshape(B, dim, 1)  # (B, p², 1)
    dots = (Tensor(patches.reshape(B, Hf * Wf, p2)) @ q).reshape(B, Hf, Wf)
    if use_box:
        logits_lr = dots + params.gamma * soft_box_raster(boxes, Hf, Wf, sharpness) + params.b
    else:
        logits_lr = dots + params.b
    return ad.bilinear_upsample(logits_lr, out_hw)


def similarity_map(h_img: Tensor, h_seg: Tensor) -> Tensor:
    """(B, P) dot products of every image-token row with its sample's segmentation embedding."""
    if h_img.data.ndim != 3 or h_seg.shape != (h_img.shape[0], h_img.shape[2]):
        raise ShapeError(f"similarity_map: image rows {h_img.shape} vs prompts {h_seg.shape} disagree")
    B, P, d = h_img.shape
    return (h_img @ h_seg.reshape(B, d, 1)).reshape(B, P)
