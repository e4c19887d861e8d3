"""Tests for evaluation metrics against pixel-count and rasterization oracles."""

import numpy as np
import pytest

from medsegdet.autodiff import ShapeError
from medsegdet.datagen import synth_records
from medsegdet.decoders import BBox
from medsegdet.metrics import (
    EmptyMaskError,
    EvalSample,
    aggregate_seg,
    box_iou,
    detection_acc,
    evaluate_samples,
    mask2box,
)


def naive_iou_dice(pred, gt):
    inter = p = g = 0
    H, W = pred.shape
    for i in range(H):
        for j in range(W):
            a, b = bool(pred[i, j]), bool(gt[i, j])
            inter += a and b
            p += a
            g += b
    union = p + g - inter
    if union == 0:
        return 1.0, 1.0
    return inter / union, 2 * inter / (p + g)


def sample(pred, gt, box=BBox(0, 0, 1, 1), cat="x"):
    return EvalSample(np.asarray(pred, bool), np.asarray(gt, bool), box, box, cat)


def mask_iou_dice(pred, gt):
    """(iou, dice) of one pair, through ``aggregate_seg`` on a one-sample list, which is exact."""
    dice, iou, _ = aggregate_seg([sample(pred, gt)])
    return iou, dice


# -- per-sample mask metrics ---------------------------------------------------

def test_mask_iou_dice_basic_cases():
    m = np.zeros((4, 4), bool)
    m[1:3, 1:3] = True
    assert mask_iou_dice(m, m) == (1.0, 1.0)
    other = np.zeros((4, 4), bool)
    other[0, 0] = True
    assert mask_iou_dice(m, other) == (0.0, 0.0)
    empty = np.zeros((4, 4), bool)
    assert mask_iou_dice(empty, empty) == (1.0, 1.0)


def test_mask_iou_dice_matches_pixel_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        pred = rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)
        gt = rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)
        assert mask_iou_dice(pred, gt) == naive_iou_dice(pred, gt)


def test_mask_iou_dice_shape_mismatch():
    with pytest.raises(ShapeError):
        mask_iou_dice(np.zeros((2, 2), bool), np.zeros((3, 2), bool))


def test_dice_dominates_iou():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pred = rng.uniform(size=(6, 6)) > 0.5
        gt = rng.uniform(size=(6, 6)) > 0.5
        iou, dice = mask_iou_dice(pred, gt)
        assert dice >= iou - 1e-12


def test_erosion_strictly_decreases_scores():
    rng = np.random.default_rng(2)
    gt = rng.uniform(size=(8, 8)) > 0.4
    pred = gt.copy()
    iou0, dice0 = mask_iou_dice(pred, gt)
    set_pixels = np.argwhere(pred)
    for k in (1, 3):
        eroded = pred.copy()
        for i, j in set_pixels[:k]:
            eroded[i, j] = False
        iou, dice = mask_iou_dice(eroded, gt)
        assert iou < iou0 and dice < dice0


# -- aggregation -----------------------------------------------------------------

def test_aggregate_singleton():
    pred = np.zeros((4, 4), bool)
    pred[:2] = True
    gt = np.zeros((4, 4), bool)
    gt[:, :2] = True
    dice, giou, ciou = aggregate_seg([sample(pred, gt)])
    iou, d = naive_iou_dice(pred, gt)
    assert giou == ciou == iou
    assert dice == d


def test_aggregate_mean_vs_cumulative():
    # sample 1: perfect, union 8; sample 2: disjoint, union 24 (3x larger)
    a = np.zeros((8, 8), bool)
    a[0, :] = True  # 8 pixels
    b_pred = np.zeros((8, 8), bool)
    b_pred[1:4, :4] = True  # 12 pixels
    b_gt = np.zeros((8, 8), bool)
    b_gt[4:7, 4:] = True  # 12 pixels, disjoint
    dice, giou, ciou = aggregate_seg([sample(a, a), sample(b_pred, b_gt)])
    assert giou == pytest.approx(0.5)
    assert ciou == pytest.approx(8 / 32)


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(3)
    samples = [
        sample(rng.uniform(size=(5, 5)) > 0.5, rng.uniform(size=(5, 5)) > 0.5)
        for _ in range(6)
    ]
    fwd = aggregate_seg(samples)
    rev = aggregate_seg(samples[::-1])
    assert fwd == rev  # exactly-rounded sums do not reassociate


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_seg([])


# -- box IoU ---------------------------------------------------------------------

def test_box_iou_identity_and_containment():
    a = BBox(0.0, 0.0, 1.0, 1.0)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, BBox(0.0, 0.0, 0.5, 1.0)) == pytest.approx(0.5)


def test_box_iou_degenerate_cases():
    pt = BBox(0.3, 0.3, 0.3, 0.3)
    assert box_iou(pt, BBox(0.3, 0.3, 0.3, 0.3)) == 1.0
    assert box_iou(pt, BBox(0.5, 0.5, 0.5, 0.5)) == 0.0


def test_box_iou_matches_rasterization():
    rng = np.random.default_rng(4)
    n = 1000
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs)

    def inside(box):
        x1, y1, x2, y2 = box.as_floats()
        return (X >= x1) & (X <= x2) & (Y >= y1) & (Y <= y2)

    for _ in range(10):
        x = np.sort(rng.uniform(0, 1, 2))
        y = np.sort(rng.uniform(0, 1, 2))
        u = np.sort(rng.uniform(0, 1, 2))
        v = np.sort(rng.uniform(0, 1, 2))
        a = BBox(x[0], y[0], x[1], y[1])
        b = BBox(u[0], v[0], u[1], v[1])
        A, B = inside(a), inside(b)
        union = np.count_nonzero(A | B)
        oracle = np.count_nonzero(A & B) / union if union else 0.0
        assert box_iou(a, b) == pytest.approx(oracle, abs=2e-3)


# -- detection accuracy ------------------------------------------------------------

def test_detection_acc_perfect_and_disjoint():
    m = np.ones((2, 2), bool)
    perfect = [EvalSample(m, m, BBox(0, 0, 1, 1), BBox(0, 0, 1, 1)) for _ in range(4)]
    assert detection_acc(perfect) == 100.0
    missed = [EvalSample(m, m, BBox(0, 0, 0.1, 0.1), BBox(0.9, 0.9, 1, 1)) for _ in range(4)]
    assert detection_acc(missed) == 0.0


def test_detection_acc_mixed_and_none():
    m = np.ones((2, 2), bool)
    gt = BBox(0.0, 0.0, 0.5, 0.5)
    hit = EvalSample(m, m, BBox(0.0, 0.0, 0.5, 0.5), gt)
    miss = EvalSample(m, m, BBox(0.6, 0.6, 1.0, 1.0), gt)
    absent = EvalSample(m, m, None, gt)
    samples = [hit] * 7 + [miss] * 2 + [absent]
    assert detection_acc(samples) == pytest.approx(70.0)


def test_detection_acc_validation():
    with pytest.raises(ValueError):
        detection_acc([])


# -- mask2box ------------------------------------------------------------------------

def test_mask2box_single_pixel_and_full():
    m = np.zeros((4, 4), bool)
    m[0, 0] = True
    assert mask2box(m).as_floats() == (0.0, 0.0, 0.25, 0.25)
    assert mask2box(np.ones((3, 5), bool)).as_floats() == (0.0, 0.0, 1.0, 1.0)


def test_mask2box_empty_rejected():
    with pytest.raises(EmptyMaskError):
        mask2box(np.zeros((4, 4), bool))


def test_mask2box_tight_cover_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        mask = rng.uniform(size=(9, 7)) > 0.8
        if not mask.any():
            mask[rng.integers(9), rng.integers(7)] = True
        box = mask2box(mask)
        x1, y1, x2, y2 = box.as_floats()
        H, W = mask.shape
        cols = sorted({j for i in range(H) for j in range(W) if mask[i, j]})
        rows = sorted({i for i in range(H) for j in range(W) if mask[i, j]})
        assert x1 == cols[0] / W and x2 == (cols[-1] + 1) / W
        assert y1 == rows[0] / H and y2 == (rows[-1] + 1) / H
        # every set pixel lies inside; each edge is touched
        for i, j in np.argwhere(mask):
            assert x1 <= j / W and (j + 1) / W <= x2
            assert y1 <= i / H and (i + 1) / H <= y2


def test_mask2box_nonrectangular_mask_iou_with_own_box():
    m = np.zeros((8, 8), bool)
    m[2, 2] = m[5, 6] = True
    box = mask2box(m)
    box.validate()
    assert box.as_floats() == (2 / 8, 2 / 8, 7 / 8, 6 / 8)


# -- full report ----------------------------------------------------------------------

def test_evaluate_samples_report():
    rng = np.random.default_rng(6)
    samples = []
    for k in range(6):
        gt = rng.uniform(size=(6, 6)) > 0.5
        if not gt.any():
            gt[0, 0] = True
        pred = gt if k % 2 == 0 else rng.uniform(size=(6, 6)) > 0.5
        box = mask2box(gt)
        samples.append(EvalSample(pred, gt, box, box, category=f"c{k % 2}"))
    rep = evaluate_samples(samples)
    assert rep.count == 6
    for v in (rep.dice, rep.giou, rep.ciou, rep.box_iou, rep.acc):
        assert 0.0 <= v <= 100.0
    assert set(rep.per_category) == {"c0", "c1"}
    assert rep.per_category["c0"]["dice"] == pytest.approx(100.0)
    text = rep.to_text()
    assert "samples: 6" in text and "per-category:" in text


def test_evaluate_samples_scores_perfect_predictions_100():
    records = synth_records(12, seed=4)
    rep = evaluate_samples([EvalSample(r.mask.copy(), r.mask, r.box, r.box, r.label) for r in records])
    assert rep.count == len(records)
    text = rep.to_text()
    for key in ("dice", "giou", "ciou", "box_iou", "acc"):
        assert getattr(rep, key) == pytest.approx(100.0)
        assert f"{key}: 100.00" in text


def test_evaluate_samples_report_is_order_independent():
    rng = np.random.default_rng(8)
    samples = []
    for k in range(200):
        gt = rng.uniform(size=(6, 6)) > 0.5
        pred = rng.uniform(size=(6, 6)) > 0.5
        x1, y1 = rng.uniform(0.0, 0.5, 2)
        u1, v1 = rng.uniform(0.0, 0.5, 2)
        gt_box = BBox(x1, y1, x1 + rng.uniform(0.1, 0.5), y1 + rng.uniform(0.1, 0.5))
        pred_box = BBox(u1, v1, u1 + rng.uniform(0.1, 0.5), v1 + rng.uniform(0.1, 0.5))
        samples.append(EvalSample(pred, gt, pred_box, gt_box, category=f"c{k % 3}"))
    ref = evaluate_samples(samples)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(samples))
        assert evaluate_samples([samples[i] for i in order]) == ref
