"""Training objectives.

Text cross-entropy, mask losses (BCE + Dice), box losses (L1 + GIoU),
and the similarity losses (JS + MSE) used when fine-tuning against a
detached reference pass. The mask, box and similarity losses take a
whole batch as plain Tensors, (B, H, W) mask logits, (B, 4) corners or
(B, P) maps, and return batch means. Each loss is one tape node with an
analytic VJP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

DICE_EPS = 1e-6
_LOG_FLOOR = 1e-300


def finite_real(v) -> bool:
    """True for a finite int or float; a bool is not a number here."""
    return (type(v) is int or isinstance(v, float)) and math.isfinite(v)


@dataclass(frozen=True)
class LossWeights:
    bce: float = 2.0
    dice: float = 0.5
    l1: float = 1.0
    giou: float = 1.0
    js: float = 2.0
    mse: float = 1.0

    def __post_init__(self):
        if not all(finite_real(v) and v >= 0 for v in vars(self).values()):
            raise ValueError("loss weights must be finite nonnegative numbers")


@dataclass
class LossReport:
    """Named scalar tensors; fields absent from a mode stay None."""

    txt: Tensor | None = None
    bce: Tensor | None = None
    dice: Tensor | None = None
    l1: Tensor | None = None
    giou: Tensor | None = None
    js: Tensor | None = None
    mse: Tensor | None = None
    mask: Tensor | None = None
    bbox: Tensor | None = None
    sim: Tensor | None = None
    total: Tensor | None = None

    def scalars(self) -> dict[str, float]:
        return {
            k: float(v.data) for k, v in vars(self).items() if v is not None
        }


def text_ce_loss(h: Tensor, out_proj: Tensor, target_ids, weights) -> Tensor:
    """Weighted mean negative log-likelihood of targets under the row-wise softmax of the logits
    ``h @ out_proj.T`` of (T, d) rows, formed in the node from a contiguous copy of ``out_proj.T``.

    ``weights`` (length T) weighs each position, so 0 drops a position;
    rejecting the all-zero case keeps the mean defined.
    """
    target_ids = np.asarray(target_ids, dtype=np.intp)
    if h.data.ndim != 2 or out_proj.data.ndim != 2 or h.shape[1] != out_proj.shape[1]:
        raise ShapeError(f"text_ce_loss: rows {h.shape} do not fit output projection {out_proj.shape}")
    T, V = h.shape[0], out_proj.shape[0]
    if target_ids.shape != (T,):
        raise ShapeError(f"text_ce_loss: {T} rows vs targets {target_ids.shape}")
    if target_ids.size and (target_ids.min() < 0 or target_ids.max() >= V):
        raise ValueError("text_ce_loss: target id out of vocabulary")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (T,):
        raise ShapeError(f"text_ce_loss: weights shape {weights.shape} != ({T},)")
    count = weights.sum()
    if count == 0:
        raise ValueError("text_ce_loss: all weights are zero")
    x, wt = h.data, out_proj.data.T.copy()  # BLAS rounds x @ W.T, and gz.T @ x, apart from these orders
    z = x @ wt
    rows = np.arange(T)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    nll = (np.log(s) + m - z[rows, target_ids, None]).reshape(T)
    # d/dz = (w / count) (softmax(z) - onehot), with softmax(z) = e / s
    gw = ((1.0 / count) * weights)[:, None]
    coef = (gw / s) * e
    coef[rows, target_ids] -= gw[:, 0]

    def grad_fn(g):
        gz = g * coef
        return gz @ wt.T, (x.T @ gz).T

    return ad._record((nll * weights).sum() / count, (h, out_proj), grad_fn)


def mask_loss(z: Tensor, gt: np.ndarray, w: LossWeights) -> tuple[Tensor, Tensor, Tensor]:
    """(bce, dice, mask) over (B, H, W) logits ``z`` and targets, mask = w.bce*bce + w.dice*dice.

    BCE is the mean over every pixel of the batch; Dice is taken per
    sample and then averaged.  ``mask`` is one tape node with an analytic
    VJP; ``bce`` and ``dice`` are untaped report scalars.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if z.shape != gt.shape or gt.ndim != 3:
        raise ShapeError(f"mask_loss: pred {z.shape} vs gt {gt.shape} (need equal (B, H, W))")
    x = z.data
    p = ad._sigmoid(x)
    # BCE(sigmoid(z), y) = softplus(z) - z*y, with softplus(z) = max(z, 0) + log1p(exp(-|z|))
    # (np.logaddexp's formula, vectorized), stable for any logit magnitude
    s = np.log1p(np.exp(-np.abs(x)))
    s += np.maximum(x, 0.0)
    s -= x * gt
    bce = s.sum() / x.size
    inter = (p * gt).sum(axis=(1, 2))
    denom = p.sum(axis=(1, 2)) + gt.sum(axis=(1, 2)) + DICE_EPS
    num = inter * 2.0 + DICE_EPS
    dice = (1.0 - num / denom).sum() / len(x)
    # d dice_b / d p = (num_b / denom_b - 2 y) / denom_b, through p' = p (1 - p)
    coef = (w.dice / len(x)) * p * (1.0 - p)
    coef *= (num / denom)[:, None, None] - 2.0 * gt
    coef /= denom[:, None, None]
    coef += (w.bce / x.size) * (p - gt)
    total = ad._record(bce * w.bce + dice * w.dice, (z,), lambda g: (g * coef,))
    return Tensor(bce), Tensor(dice), total


def bbox_loss(pred: Tensor, gt, w: LossWeights) -> tuple[Tensor, Tensor, Tensor]:
    """(l1, giou_loss, bbox) over (B, 4) corner rows, bbox = w.l1*l1 + w.giou*giou_loss.

    ``gt`` is a (B, 4) array of target corners. L1 is the mean over all
    corners; GIoU is taken per box and then averaged.  ``bbox`` is one
    tape node with an analytic VJP: a max or min tie routes the gradient to
    the predicted box, as ``autodiff.maximum`` does, and |d| has slope
    sign(d), 0 at 0.  ``l1`` and ``giou_loss`` are untaped report scalars.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or gt.ndim != 2 or gt.shape[1] != 4:
        raise ShapeError(f"bbox_loss: pred {pred.shape} vs gt {gt.shape} (need equal (B, 4))")
    for who, b in (("predicted", pred.data), ("target", gt)):
        if not np.all((0.0 <= b[:, :2]) & (b[:, :2] <= b[:, 2:]) & (b[:, 2:] <= 1.0)):
            raise ValueError(f"bbox_loss: invalid {who} box among {b.tolist()}")
    B = len(gt)
    diff = pred.data - gt
    l1 = np.abs(diff).sum() / diff.size

    # (B, 2) widths and heights of the intersection, the boxes and their hull
    lo, hi = pred.data[:, :2], pred.data[:, 2:]
    glo, ghi = gt[:, :2], gt[:, 2:]
    hi_in, lo_in = hi <= ghi, lo >= glo  # the predicted edge bounds the intersection
    span = np.minimum(hi, ghi) - np.maximum(lo, glo)
    iwh = np.maximum(span, 0.0)
    inter = iwh[:, 0] * iwh[:, 1]
    pwh, gwh = hi - lo, ghi - glo
    union = pwh[:, 0] * pwh[:, 1] + gwh[:, 0] * gwh[:, 1] - inter
    hwh = np.maximum(hi, ghi) - np.minimum(lo, glo)
    hull = hwh[:, 0] * hwh[:, 1]
    # tiny floor keeps degenerate (zero-area) pairs defined
    union_e, hull_e = union + 1e-12, hull + 1e-12
    giou = inter / union_e - (hull - union) / hull_e
    giou_loss = (1.0 - giou).sum() / B

    # d giou / d (inter, predicted area, hull), then through each width and height
    d_union = 1.0 / hull_e - inter / (union_e * union_e)
    d_inter = 1.0 / union_e - d_union
    d_hull = (hull - union) / (hull_e * hull_e) - 1.0 / hull_e
    d_iwh = (d_inter[:, None] * iwh[:, ::-1]) * (span >= 0.0)
    d_pwh = d_union[:, None] * pwh[:, ::-1]
    d_hwh = d_hull[:, None] * hwh[:, ::-1]
    d_hi = d_iwh * hi_in + d_pwh + d_hwh * (hi >= ghi)
    d_lo = d_iwh * lo_in + d_pwh + d_hwh * (lo <= glo)
    coef = np.concatenate([d_lo, -d_hi], axis=1) * (w.giou / B)  # -d giou: the loss is 1 - giou
    coef += (w.l1 / diff.size) * np.sign(diff)
    total = ad._record(l1 * w.l1 + giou_loss * w.giou, (pred,), lambda g: (g * coef,))
    return Tensor(l1), Tensor(giou_loss), total


def sim_loss(sim_pred: Tensor, sim_ref: Tensor, w: LossWeights) -> tuple[Tensor, Tensor, Tensor]:
    """(js, mse, sim) over (B, P) maps, each a batch mean, sim = w.js*js + w.mse*mse.

    JS compares the row softmaxes of the maps; ``sim`` is one tape node with
    an analytic VJP to ``sim_pred`` only, as the reference maps are targets.
    ``js`` and ``mse`` are untaped report scalars.
    """
    if sim_pred.shape != sim_ref.shape or sim_pred.data.ndim != 2:
        raise ShapeError(
            f"sim_loss: shapes {sim_pred.shape} vs {sim_ref.shape} (need equal (B, P))"
        )
    x, ref = sim_pred.data, sim_ref.data
    p, q = ad._softmax(x), ad._softmax(ref)
    # the floor keeps log finite where a softmax entry underflows to 0
    logp, logq = np.log(np.maximum(p, _LOG_FLOOR)), np.log(np.maximum(q, _LOG_FLOOR))
    logm = np.log(np.maximum((p + q) * 0.5, _LOG_FLOOR))
    kl = p * (logp - logm) + q * (logq - logm)
    js = kl.sum(axis=1).sum() / len(x) * 0.5
    diff = x - ref
    mse = (diff * diff).sum() / diff.size
    # d js / d p = (log p - log m) / (2B), then back through the row softmax
    gp = (logp - logm) * (w.js * 0.5 / len(x))
    coef = p * (gp - (gp * p).sum(axis=1, keepdims=True))
    coef += diff * (2.0 * w.mse / diff.size)
    total = ad._record(js * w.js + mse * w.mse, (sim_pred,), lambda g: (g * coef,))
    return Tensor(js), Tensor(mse), total
