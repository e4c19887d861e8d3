"""Perception heads.

A small MLP turns the detection embedding into a normalized box; a
prompt-conditioned linear head turns dense visual features, the
segmentation embedding, and a differentiable soft rasterization of the
box into mask logits. Also hosts the patch-token similarity map used by
the fine-tuning objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor
from .mllm import encode_image_patches

DEFAULT_SHARPNESS = 50.0


def _value(x) -> float:
    return float(x.data) if isinstance(x, Tensor) else float(x)


@dataclass
class BBox:
    """Axis-aligned box, normalized corners. Fields are floats or 0-d Tensors."""

    x1: object
    y1: object
    x2: object
    y2: object

    def as_floats(self) -> tuple[float, float, float, float]:
        return (_value(self.x1), _value(self.y1), _value(self.x2), _value(self.y2))

    def validate(self) -> "BBox":
        x1, y1, x2, y2 = self.as_floats()
        if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0):
            raise ValueError(f"invalid box {(x1, y1, x2, y2)}")
        return self


@dataclass
class DenseFeatures:
    """Hf × Wf × d feature grid from the frozen vision stand-in."""

    grid: Tensor

    @property
    def hw(self) -> tuple[int, int]:
        return self.grid.shape[0], self.grid.shape[1]

    @property
    def dim(self) -> int:
        return self.grid.shape[2]


@dataclass
class MaskLogits:
    grid: Tensor
    threshold: float = 0.0

    def binary(self) -> np.ndarray:
        """Predicted mask: logits above threshold."""
        return self.grid.data > self.threshold


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


def _clamp01(x: Tensor) -> Tensor:
    return ad.minimum(ad.maximum(x, Tensor(0.0)), Tensor(1.0))


def bbox_decode(h_det: Tensor, params: BBoxParams) -> BBox:
    """(cx, cy, w, h) through sigmoid, converted to clamped corners.

    Total over finite inputs: the output always satisfies the box
    invariants because clamping is monotone.
    """
    if not np.all(np.isfinite(h_det.data)):
        raise NonFiniteError("bbox_decode: non-finite detection embedding")
    h = ad.relu(h_det @ params.w1 + params.b1)
    h = ad.relu(h @ params.w2 + params.b2)
    raw = h @ params.w3 + params.b3
    s = ad.sigmoid(raw)
    cx, cy, w, hgt = s[0], s[1], s[2], s[3]
    return BBox(
        x1=_clamp01(cx - w * 0.5),
        y1=_clamp01(cy - hgt * 0.5),
        x2=_clamp01(cx + w * 0.5),
        y2=_clamp01(cy + hgt * 0.5),
    )


def soft_box_raster(box: BBox, H: int, W: int, sharpness: float = DEFAULT_SHARPNESS) -> Tensor:
    """H×W grid in (0,1): product of four sigmoid edge gates at pixel centers.

    Differentiable in the box coordinates, near-binary at high sharpness.
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    xs = Tensor((np.arange(W) + 0.5).reshape(1, W) / W)
    ys = Tensor((np.arange(H) + 0.5).reshape(H, 1) / H)
    fx = ad.sigmoid((xs - box.x1) * sharpness) * ad.sigmoid((box.x2 - xs) * sharpness)
    fy = ad.sigmoid((ys - box.y1) * sharpness) * ad.sigmoid((box.y2 - ys) * sharpness)
    return fy * fx


def dense_features(image: np.ndarray, patch_size: int, projection: Tensor) -> DenseFeatures:
    """Patchwise linear features on the full grid (the vision-backbone stand-in)."""
    rows = encode_image_patches(image, patch_size, projection)
    H, W = np.shape(image)
    return DenseFeatures(grid=rows.reshape(H // patch_size, W // patch_size, projection.shape[1]))


def mask_decode(
    f: DenseFeatures,
    h_seg: Tensor,
    box: BBox,
    params: MaskDecoderParams,
    out_hw: tuple[int, int],
    sharpness: float = DEFAULT_SHARPNESS,
    use_box: bool = True,
) -> MaskLogits:
    """Per-cell logit ⟨f(i,j), W_p·h_seg⟩ + gamma·raster(i,j) + b, upsampled.

    ``use_box=False`` removes the raster term entirely, severing the
    gradient path from the mask loss into the box decoder.
    """
    Hf, Wf = f.hw
    if Hf == 0 or Wf == 0:
        raise ShapeError("mask_decode: empty feature grid")
    if params.w_p.shape[0] != h_seg.shape[0]:
        raise ShapeError(
            f"mask_decode: prompt dim {h_seg.shape[0]} does not match W_p {params.w_p.shape}"
        )
    if params.w_p.shape[1] != f.dim:
        raise ShapeError(
            f"mask_decode: feature dim {f.dim} does not match W_p {params.w_p.shape}"
        )
    q = h_seg @ params.w_p  # (feat_dim,)
    flat = f.grid.reshape(Hf * Wf, f.dim)
    dots = (flat @ q).reshape(Hf, Wf)
    if use_box:
        raster = soft_box_raster(box, Hf, Wf, sharpness)
        logits_lr = dots + params.gamma * raster + params.b
    else:
        logits_lr = dots + params.b
    return MaskLogits(grid=ad.bilinear_upsample(logits_lr, out_hw))


def similarity_map(h_img: Tensor, h_seg: Tensor) -> Tensor:
    """Dot product of every image-token row with the segmentation embedding."""
    if h_img.shape[1] != h_seg.shape[0]:
        raise ShapeError(
            f"similarity_map: dims {h_img.shape} vs {h_seg.shape} disagree"
        )
    return h_img @ h_seg
