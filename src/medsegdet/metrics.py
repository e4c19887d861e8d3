"""Evaluation metrics.

Per-sample mask IoU/Dice, the two set-level IoU aggregations (mean per
image and cumulative), analytic box IoU, detection accuracy at IoU 0.5,
and the mask-to-box protocol for deriving tight boxes from binary masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError
from .decoders import BBox


class EmptyMaskError(ValueError):
    """mask2box needs at least one set pixel."""


@dataclass
class EvalSample:
    pred_mask: np.ndarray
    gt_mask: np.ndarray
    pred_box: BBox | None
    gt_box: BBox
    category: str = ""


@dataclass
class MetricReport:
    """All values are percentages in [0, 100]."""

    dice: float
    giou: float
    ciou: float
    box_iou: float
    acc: float
    count: int
    per_category: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"samples: {self.count}",
            f"dice: {self.dice:.2f}",
            f"giou: {self.giou:.2f}",
            f"ciou: {self.ciou:.2f}",
            f"box_iou: {self.box_iou:.2f}",
            f"acc: {self.acc:.2f}",
        ]
        if self.per_category:
            lines.append("per-category:")
            header = f"  {'category':<12} {'n':>4} {'dice':>7} {'giou':>7} {'ciou':>7} {'box_iou':>8} {'acc':>7}"
            lines.append(header)
            for cat in sorted(self.per_category):
                row = self.per_category[cat]
                lines.append(
                    f"  {cat:<12} {int(row['count']):>4} {row['dice']:>7.2f} "
                    f"{row['giou']:>7.2f} {row['ciou']:>7.2f} {row['box_iou']:>8.2f} {row['acc']:>7.2f}"
                )
        return "\n".join(lines)


def _as_bool(mask) -> np.ndarray:
    return np.asarray(mask).astype(bool)


def _seg_scores(pred, gt) -> tuple[float, float, int, int]:
    """(iou, dice, intersection, union); the both-empty pair scores (1, 1)."""
    pred = _as_bool(pred)
    gt = _as_bool(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"aggregate_seg: mask shapes {pred.shape} vs {gt.shape}")
    inter = int(np.count_nonzero(pred & gt))
    p, g = int(np.count_nonzero(pred)), int(np.count_nonzero(gt))
    union = p + g - inter
    if union == 0:
        return 1.0, 1.0, 0, 0
    return inter / union, 2 * inter / (p + g), inter, union


def aggregate_seg(samples: list[EvalSample]) -> tuple[float, float, float]:
    """(dice, giou, ciou) as fractions: mean dice, mean IoU, cumulative IoU."""
    if not samples:
        raise ValueError("aggregate_seg: empty sample set")
    dices, ious = [], []
    inter_sum = union_sum = 0
    for s in samples:
        iou, dice, inter, union = _seg_scores(s.pred_mask, s.gt_mask)
        ious.append(iou)
        dices.append(dice)
        inter_sum += inter
        union_sum += union
    ciou = inter_sum / union_sum if union_sum else 1.0
    # fsum: exactly-rounded sums keep both means permutation invariant
    return math.fsum(dices) / len(dices), math.fsum(ious) / len(ious), ciou


def box_iou(a: BBox, b: BBox) -> float:
    """Analytic area IoU; identical degenerate boxes score 1, else 0 on empty union."""
    ax1, ay1, ax2, ay2 = a.as_floats()
    bx1, by1, bx2, by2 = b.as_floats()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 1.0 if a.as_floats() == b.as_floats() else 0.0
    return inter / union


def _sample_box_iou(s: EvalSample) -> float:
    # absent prediction (e.g. candidate token never emitted) scores 0
    return box_iou(s.pred_box, s.gt_box) if s.pred_box is not None else 0.0


def detection_acc(samples: list[EvalSample]) -> float:
    """Percentage of samples with box IoU at or above 0.5."""
    if not samples:
        raise ValueError("detection_acc: empty sample set")
    hits = sum(1 for s in samples if _sample_box_iou(s) >= 0.5)
    return 100.0 * hits / len(samples)


def mask2box(mask) -> BBox:
    """Tightest box over set pixels, pixel-edge normalized by (W, H)."""
    mask = _as_bool(mask)
    if mask.ndim != 2:
        raise ShapeError(f"mask2box: expected 2-D mask, got {mask.shape}")
    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    if not rows.any():
        raise EmptyMaskError("mask2box: mask has no set pixels")
    H, W = mask.shape
    r = np.where(rows)[0]
    c = np.where(cols)[0]
    return BBox(
        x1=c[0] / W,
        y1=r[0] / H,
        x2=(c[-1] + 1) / W,
        y2=(r[-1] + 1) / H,
    )


def evaluate_samples(samples: list[EvalSample]) -> MetricReport:
    """Full report over a sample set, with a per-category breakdown."""

    def block(subset):
        dice, giou, ciou = aggregate_seg(subset)
        mean_box = math.fsum(_sample_box_iou(s) for s in subset) / len(subset)
        return {
            "dice": 100.0 * dice,
            "giou": 100.0 * giou,
            "ciou": 100.0 * ciou,
            "box_iou": 100.0 * mean_box,
            "acc": detection_acc(subset),
            "count": len(subset),
        }

    top = block(samples)
    per_cat = {}
    for cat in sorted({s.category for s in samples}):
        per_cat[cat] = block([s for s in samples if s.category == cat])
    return MetricReport(
        dice=top["dice"],
        giou=top["giou"],
        ciou=top["ciou"],
        box_iou=top["box_iou"],
        acc=top["acc"],
        count=len(samples),
        per_category=per_cat,
    )
