"""Tests for the loss suite, with naive-loop and rasterization oracles."""

import numpy as np
import pytest

import medsegdet.autodiff as ad
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.decoders import BBox
from medsegdet.losses import (
    DICE_EPS,
    LossReport,
    LossWeights,
    bbox_loss,
    mask_loss,
    sim_loss,
    text_ce_loss,
)

W = LossWeights()


# -- oracles -------------------------------------------------------------------

def naive_ce(logits, targets, mask=None):
    T, V = logits.shape
    mask = np.ones(T) if mask is None else np.asarray(mask, float)
    tot = cnt = 0.0
    for t in range(T):
        x = logits[t]
        lse = np.log(np.sum(np.exp(x - x.max()))) + x.max()
        tot += mask[t] * (lse - x[targets[t]])
        cnt += mask[t]
    return tot / cnt


def naive_js(a, b):
    def sm(x):
        e = np.exp(x - x.max())
        return e / e.sum()

    p, q = sm(a), sm(b)
    m = (p + q) / 2
    kl = lambda u, v: sum(ui * np.log(ui / vi) for ui, vi in zip(u, v) if ui > 0)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def raster_giou(a, b, n=1000):
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs)

    def inside(box):
        x1, y1, x2, y2 = box
        return (X >= x1) & (X <= x2) & (Y >= y1) & (Y <= y2)

    A, B = inside(a), inside(b)
    inter = np.count_nonzero(A & B)
    union = np.count_nonzero(A | B)
    hull = (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))
    hull_n = np.count_nonzero(inside(hull))
    iou = inter / union if union else 0.0
    return iou - (hull_n - union) / hull_n


def rand_box(rng):
    x = np.sort(rng.uniform(0, 1, 2))
    y = np.sort(rng.uniform(0, 1, 2))
    return BBox(x[0], y[0], x[1], y[1])


def rows(*boxes):
    """A (B, 4) corner tensor of predicted boxes."""
    return Tensor([b.as_floats() for b in boxes])


def targets(*boxes):
    """A (B, 4) array of target boxes."""
    return [b.as_floats() for b in boxes]


def one(grid):
    """One sample's (H, W) grid as a batch of one."""
    return np.asarray(grid, dtype=float)[None]


# -- text cross-entropy --------------------------------------------------------

def test_ce_forced_target_near_zero():
    logits = np.zeros((3, 8))
    tgt = [2, 5, 0]
    for t, c in enumerate(tgt):
        logits[t, c] = 50.0
    loss = text_ce_loss(Tensor(logits), Tensor(np.eye(8)), tgt, np.ones(3))  # identity: the rows are the logits
    assert float(loss.data) < 1e-8


def test_ce_uniform_logits_is_log_vocab():
    loss = text_ce_loss(Tensor(np.full((4, 16), 1.3)), Tensor(np.eye(16)), [0, 5, 9, 15], np.ones(4))
    assert float(loss.data) == pytest.approx(np.log(16), abs=1e-12)


def test_ce_matches_naive_oracle():
    rng = np.random.default_rng(0)
    h, out_proj = rng.normal(size=(6, 5)), rng.normal(scale=1.5, size=(11, 5))
    tgt = rng.integers(0, 11, size=6)
    got = float(text_ce_loss(Tensor(h), Tensor(out_proj), tgt, np.ones(6)).data)
    assert got == pytest.approx(naive_ce(h @ out_proj.T, tgt), abs=1e-12)


def test_ce_mask_drops_positions():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 7))
    tgt = [1, 2, 3, 4]
    mask = [1, 0, 0, 1]
    got = float(text_ce_loss(Tensor(logits), Tensor(np.eye(7)), tgt, mask).data)
    assert got == pytest.approx(naive_ce(logits, tgt, mask), abs=1e-12)


def test_ce_rejects_bad_inputs():
    h, out_proj = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="all weights are zero"):
        text_ce_loss(h, out_proj, [0, 1], [0, 0])
    with pytest.raises(ValueError, match="out of vocabulary"):
        text_ce_loss(h, out_proj, [0, 4], [1, 1])
    with pytest.raises(ShapeError):
        text_ce_loss(h, out_proj, [0, 1, 2], [1, 1, 1])
    with pytest.raises(ShapeError):
        text_ce_loss(h, out_proj, [0, 1], [1, 1, 1])
    with pytest.raises(ShapeError, match="do not fit output projection"):
        text_ce_loss(h, Tensor(np.zeros((4, 2))), [0, 1], [1, 1])
    with pytest.raises(ShapeError, match="do not fit output projection"):
        text_ce_loss(Tensor(np.zeros(3)), out_proj, [0], [1])


def test_ce_gradcheck():
    ad.reset_tape()
    rng = np.random.default_rng(2)
    h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out_proj = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    tgt = [4, 0, 2]
    err = ad.finite_difference_check(
        lambda: text_ce_loss(h, out_proj, tgt, [1.0, 0.5, 2.0]), [h, out_proj], max_coords_per_param=24
    )
    assert err < 1e-4


# -- mask loss -------------------------------------------------------------------

def hard_logits(mask, mag=40.0):
    return Tensor(np.where(np.asarray(mask, bool), mag, -mag)[None])


def test_mask_loss_perfect_prediction():
    gt = np.zeros((6, 6))
    gt[1:4, 2:5] = 1
    bce, dice, total = mask_loss(hard_logits(gt), one(gt), W)
    assert float(bce.data) < 1e-12
    assert float(dice.data) < 1e-6
    assert float(total.data) < 1e-5


def test_mask_loss_empty_gt_strong_negative_pred():
    gt = np.zeros((8, 8))
    bce, dice, total = mask_loss(Tensor(np.full((1, 8, 8), -40.0)), one(gt), W)
    assert np.isfinite(float(dice.data))
    assert float(dice.data) < 1e-6
    assert float(bce.data) < 1e-12


def test_mask_loss_half_overlap_dice():
    pred = np.zeros((4, 4))
    pred[:, :2] = 1  # left half
    gt = np.zeros((4, 4))
    gt[:2, :] = 1  # top half
    _, dice, _ = mask_loss(hard_logits(pred), one(gt), W)
    assert float(dice.data) == pytest.approx(0.5, abs=1e-6)


def test_mask_loss_weighted_composition_and_shapes():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(2, 5, 5)))
    gt = (rng.uniform(size=(2, 5, 5)) > 0.5).astype(float)
    bce, dice, total = mask_loss(z, gt, W)
    assert float(total.data) == pytest.approx(
        2.0 * float(bce.data) + 0.5 * float(dice.data), abs=1e-12
    )
    assert float(bce.data) >= 0 and 0 <= float(dice.data) <= 1
    with pytest.raises(ShapeError):
        mask_loss(z, np.zeros((2, 4, 5)), W)
    with pytest.raises(ShapeError):
        mask_loss(Tensor(z.data[0]), gt[0], W)


def test_mask_loss_gradcheck():
    ad.reset_tape()
    rng = np.random.default_rng(4)
    z = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    gt = (rng.uniform(size=(2, 4, 4)) > 0.4).astype(float)
    err = ad.finite_difference_check(
        lambda: mask_loss(z, gt, W)[2], [z], max_coords_per_param=32
    )
    assert err < 1e-4


# -- bbox loss -------------------------------------------------------------------

def test_bbox_loss_identity():
    box = BBox(0.2, 0.2, 0.7, 0.6)
    l1, gl, total = bbox_loss(rows(box), targets(BBox(0.2, 0.2, 0.7, 0.6)), W)
    assert float(l1.data) == 0.0
    assert abs(float(gl.data)) < 1e-9
    assert abs(float(total.data)) < 1e-9


def test_bbox_loss_disjoint_corner_boxes():
    l1, gl, _ = bbox_loss(rows(BBox(0.0, 0.0, 0.5, 0.5)), targets(BBox(0.5, 0.5, 1.0, 1.0)), W)
    assert float(gl.data) == pytest.approx(1.5, abs=1e-9)
    oracle = raster_giou((0, 0, 0.5, 0.5), (0.5, 0.5, 1, 1))
    assert 1.0 - float(gl.data) == pytest.approx(oracle, abs=2e-3)


def test_bbox_loss_matches_raster_oracle_on_random_boxes():
    # boxes with side >= 0.2 keep the raster oracle's quantization error
    # (O(perimeter/n) per area, amplified by small unions) well under tol
    rng = np.random.default_rng(5)
    for _ in range(10):
        def sized_box():
            x1, y1 = rng.uniform(0, 0.45, 2)
            w, h = rng.uniform(0.2, 0.5, 2)
            return BBox(x1, y1, x1 + w, y1 + h)

        a, b = sized_box(), sized_box()
        _, gl, _ = bbox_loss(rows(a), targets(b), W)
        oracle = raster_giou(a.as_floats(), b.as_floats(), n=2000)
        assert 1.0 - float(gl.data) == pytest.approx(oracle, abs=2e-3)


def test_bbox_loss_translation_l1():
    a = BBox(0.2, 0.3, 0.5, 0.6)
    b = BBox(0.3, 0.3, 0.6, 0.6)  # shifted by 0.1 in x
    l1, _, _ = bbox_loss(rows(a), targets(b), W)
    assert float(l1.data) == pytest.approx(0.05, abs=1e-12)


def test_bbox_loss_range_and_composition():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a, b = rand_box(rng), rand_box(rng)
        l1, gl, total = bbox_loss(rows(a), targets(b), W)
        assert 0 <= float(gl.data) <= 2.0 + 1e-9
        assert float(l1.data) >= 0
        assert float(total.data) == pytest.approx(
            float(l1.data) + float(gl.data), abs=1e-12
        )


def test_bbox_loss_rejects_invalid_box():
    with pytest.raises(ValueError):
        bbox_loss(Tensor([[0.5, 0.0, 0.2, 1.0]]), targets(BBox(0, 0, 1, 1)), W)
    with pytest.raises(ValueError):
        bbox_loss(rows(BBox(0, 0, 1, 1)), [[0.0, 0.6, 1.0, 0.5]], W)
    with pytest.raises(ShapeError):
        bbox_loss(rows(BBox(0, 0, 1, 1)), targets(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1)), W)


def test_bbox_loss_gradcheck():
    ad.reset_tape()
    coords = Tensor([[0.21, 0.33, 0.58, 0.74], [0.05, 0.10, 0.45, 0.35]], requires_grad=True)
    gt = [[0.4, 0.2, 0.9, 0.55], [0.10, 0.20, 0.30, 0.60]]

    def f():
        return bbox_loss(coords, gt, W)[2]

    assert ad.finite_difference_check(f, [coords]) < 1e-4


# -- fused nodes against the tape compositions they replaced -----------------------


def taped(fn, vjp, *xs):
    """One local tape node: ``fn`` of the tensors' data, with VJPs ``vjp(g, *data)``."""
    xs = [x if isinstance(x, Tensor) else Tensor(x) for x in xs]
    data = [x.data for x in xs]
    return ad._record(fn(*data), xs, lambda g: vjp(g, *data))


# the tape ops these compositions used, as they were
def mean(x):
    return taped(lambda d: d.sum() / d.size, lambda g, d: (np.broadcast_to(g / d.size, d.shape).copy(),), x)


def div(a, b):
    return taped(np.divide, lambda g, a, b: (g / b, -g * a / (b * b)), a, b)


def log(x):
    return taped(np.log, lambda g, d: (g / d,), x)


def exp(x):
    return taped(np.exp, lambda g, d: (g * np.exp(d),), x)


def sub(a, b):
    return taped(np.subtract, lambda g, a, b: (ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)), a, b)


def sigmoid(x):
    return taped(ad._sigmoid, lambda g, d: (g * ad._sigmoid(d) * (1.0 - ad._sigmoid(d)),), x)


def tsum(x, axis, keepdims=False):
    def vjp(g, d):
        return (np.broadcast_to(g if keepdims else np.expand_dims(g, axis), d.shape).copy(),)

    return taped(lambda d: d.sum(axis=axis, keepdims=keepdims), vjp, x)


def selection(ufunc, prefer_a):
    """An elementwise pick between two operands; the gradient follows the pick."""
    def vjp(g, a, b):
        take_a = prefer_a(a, b)
        return ad._unbroadcast(g * take_a, a.shape), ad._unbroadcast(g * ~take_a, b.shape)

    return lambda a, b: taped(ufunc, vjp, a, b)


maximum = selection(np.maximum, np.greater_equal)  # a tie routes to the first operand
minimum = selection(np.minimum, np.less_equal)


def composed_text_ce(logits, target_ids, weights):
    T, V = logits.shape
    m = Tensor(logits.data.max(axis=1, keepdims=True))
    lse = log(tsum(exp(sub(logits, m)), 1, keepdims=True)) + m
    onehot = np.zeros((T, V))
    onehot[np.arange(T), target_ids] = 1.0
    picked = tsum(logits * onehot, 1, keepdims=True)
    nll = sub(lse, picked).reshape(T)
    return div((nll * weights).sum(), float(weights.sum()))


def composed_mask_loss(z, gt, w):
    softplus = taped(lambda x: np.logaddexp(0.0, x), lambda g, x: (g * ad._sigmoid(x),), z)
    bce = mean(sub(softplus, z * gt))
    p = sigmoid(z)
    inter = tsum(p * gt, (1, 2))
    denom = tsum(p, (1, 2)) + gt.sum(axis=(1, 2))
    dice = mean(sub(1.0, div(inter * 2.0 + DICE_EPS, denom + DICE_EPS)))
    return bce, dice, bce * w.bce + dice * w.dice


def composed_bbox_loss(pred, gt, w):
    l1 = mean(taped(np.abs, lambda g, d: (g * np.sign(d),), sub(pred, gt)))
    lo, hi = pred[:, :2], pred[:, 2:]
    glo, ghi = gt[:, :2], gt[:, 2:]
    iwh = maximum(sub(minimum(hi, ghi), maximum(lo, glo)), 0.0)
    inter = iwh[:, 0] * iwh[:, 1]
    pwh, gwh = sub(hi, lo), ghi - glo
    union = sub(pwh[:, 0] * pwh[:, 1] + gwh[:, 0] * gwh[:, 1], inter)
    hwh = sub(maximum(hi, ghi), minimum(lo, glo))
    hull = hwh[:, 0] * hwh[:, 1]
    giou = sub(div(inter, union + 1e-12), div(sub(hull, union), hull + 1e-12))
    giou_loss = mean(sub(1.0, giou))
    return l1, giou_loss, l1 * w.l1 + giou_loss * w.giou


def composed_sim_loss(pred, ref, w):
    ref = Tensor(ref.data.copy())  # a constant: no gradient reaches the reference

    def log_clamped(x):
        return log(maximum(x, 1e-300))

    p, q = ad.softmax(pred), ad.softmax(ref)
    logm = log_clamped((p + q) * 0.5)
    kl = p * sub(log_clamped(p), logm) + q * sub(log_clamped(q), logm)
    js = mean(tsum(kl, 1)) * 0.5
    diff = sub(pred, ref)
    mse = mean(diff * diff)
    return js, mse, js * w.js + mse * w.mse


def test_each_loss_records_one_tape_node():
    rng = np.random.default_rng(17)
    box = [[0.2, 0.3, 0.6, 0.7], [0.1, 0.1, 0.5, 0.4]]
    cases = [  # text CE forms its logits from the rows and the output projection
        (lambda h, w: text_ce_loss(h, w, [1, 0, 3], np.ones(3)), rng.normal(size=(3, 4)), rng.normal(size=(5, 4))),
        (lambda x: mask_loss(x, rng.uniform(size=(2, 4, 4)) > 0.5, W)[2], rng.normal(size=(2, 4, 4))),
        (lambda x: bbox_loss(x, box[::-1], W)[2], box),
        (lambda x: sim_loss(x, Tensor(rng.normal(size=(2, 6))), W)[2], rng.normal(size=(2, 6))),
    ]
    for loss_fn, *data in cases:
        tape = ad.reset_tape()
        xs = [Tensor(d, requires_grad=True) for d in data]
        loss = loss_fn(*xs)
        assert [n.tensor for n in tape.nodes] == [*xs, loss]
        assert tape.nodes[-1].parent_ids == tuple(range(len(xs)))


def loss_and_grad(loss_fn, x, target, w):
    ad.reset_tape()
    t = Tensor(x, requires_grad=True)
    parts = loss_fn(t, target, w)
    ad.backward(parts[2])
    return [float(part.data) for part in parts], t.grad


def test_mask_loss_matches_its_tape_composition():
    rng = np.random.default_rng(13)
    z = rng.normal(scale=4.0, size=(3, 5, 6))
    z[0, 0, :3] = [0.0, -0.0, 40.0]
    gt = (rng.uniform(size=z.shape) > 0.5).astype(float)
    gt[2] = 0.0  # an empty target
    for w in (W, LossWeights(bce=0.0), LossWeights(dice=0.0)):
        got, got_grad = loss_and_grad(mask_loss, z, gt, w)
        want, want_grad = loss_and_grad(composed_mask_loss, z, gt, w)
        assert got == pytest.approx(want, rel=1e-14)  # softplus: np.logaddexp's formula, vectorized
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-17)


@pytest.mark.parametrize(
    "pred, gt",
    [
        ([0.2, 0.3, 0.6, 0.7], [0.2, 0.3, 0.6, 0.7]),  # identical: every tie, |d| = 0
        ([0.2, 0.3, 0.6, 0.7], [0.2, 0.1, 0.5, 0.7]),  # shared edges
        ([0.1, 0.1, 0.4, 0.4], [0.4, 0.4, 0.9, 0.9]),  # touching corners: zero intersection
        ([0.0, 0.0, 0.3, 0.2], [0.5, 0.6, 1.0, 1.0]),  # disjoint
        ([0.3, 0.3, 0.5, 0.5], [0.1, 0.2, 0.9, 0.8]),  # nested
        ([0.4, 0.4, 0.4, 0.6], [0.1, 0.2, 0.9, 0.8]),  # zero width
    ],
)
def test_bbox_loss_matches_its_tape_composition_at_ties(pred, gt):
    rng = np.random.default_rng(14)
    other_pred, other_gt = rand_box(rng).as_floats(), rand_box(rng).as_floats()
    pred, gt = np.array([pred, other_pred]), np.array([gt, other_gt])
    for w in (W, LossWeights(l1=0.0), LossWeights(giou=0.0)):
        got, got_grad = loss_and_grad(bbox_loss, pred, gt, w)
        want, want_grad = loss_and_grad(composed_bbox_loss, pred, gt, w)
        assert got == want
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-15)


def composed_answer_ce(h, out_proj, target_ids, weights):
    """The answer loss as the tape composed it: logits ``h @ transpose(out_proj)``, then CE."""
    return composed_text_ce(h @ taped(lambda d: d.T.copy(), lambda g, d: (g.T,), out_proj), target_ids, weights)


def test_text_ce_loss_is_bitwise_its_tape_composition():
    # gather -> transpose -> matmul -> CE, as the answer loss ran before it formed its logits in one
    # node; CE itself is bitwise ``composed_text_ce``.  On OpenBLAS, h @ W.T rounds apart from the
    # transpose's copy at 40 rows, and gz.T @ h apart from (h.T @ gz).T at 148
    rng = np.random.default_rng(15)
    for T, d, V, zeros in ((1, 1, 2, False), (3, 2, 5, True), (7, 4, 11, False), (40, 64, 258, True),
                           (40, 64, 258, False), (148, 64, 258, False)):
        hidden_data = rng.normal(size=(T + 3, d))
        proj_data = rng.normal(scale=d**-0.5 * 3, size=(V, d))
        rows = np.sort(rng.choice(T + 3, size=T, replace=False))
        hidden_data[rows[0]] *= 30.0  # logits far apart: exp underflows in that row
        tgt = rng.integers(0, V, size=T)
        weights = rng.uniform(size=T) * (rng.uniform(size=T) > 0.3)
        weights[0] = 0.25
        if zeros:
            weights[1:] = 0.0  # one position left: every other row's gradient is zero
        results = []
        for loss_fn in (text_ce_loss, composed_answer_ce):
            ad.reset_tape()
            hidden, out_proj = Tensor(hidden_data, requires_grad=True), Tensor(proj_data, requires_grad=True)
            loss = loss_fn(hidden[rows], out_proj, tgt, weights)
            ad.backward(loss)
            results.append((float(loss.data), hidden.grad, out_proj.grad))
        (got, *got_grads), (want, *want_grads) = results
        assert got == want, (T, d, V)
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g, w), (T, d, V)


def test_sim_loss_matches_its_tape_composition():
    # the composition's gradient adds the +1 of d(p log p)/dp and the -1 of the
    # log m terms before the softmax VJP, which cancels any constant; the fused
    # VJP never forms them, so some entries round differently: by at most
    # 1.8e-15 times the largest entry over 600 such trials
    rng = np.random.default_rng(16)
    for trial in range(60):
        pred = rng.normal(scale=[[0.5], [3.0], [12.0]], size=(3, 16))
        if trial % 4 == 0:
            pred[0, :2] = [800.0, -800.0]  # softmax entries underflow to 0: the log floor
        ref = Tensor(rng.normal(scale=3.0, size=(3, 16)))
        w = (W, LossWeights(js=0.0), LossWeights(mse=0.0))[trial % 3]
        got, got_grad = loss_and_grad(sim_loss, pred, ref, w)
        want, want_grad = loss_and_grad(composed_sim_loss, pred, ref, w)
        assert got == want
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=4e-15 * np.abs(want_grad).max())


# -- similarity loss -------------------------------------------------------------

def test_sim_loss_identity_is_zero():
    v = Tensor(np.array([[0.3, -1.2, 2.0], [1.0, 0.0, -4.0]]))
    js, mse, total = sim_loss(v, Tensor(v.data.copy()), W)
    assert float(js.data) == 0.0
    assert float(mse.data) == 0.0
    assert float(total.data) == 0.0


def test_sim_loss_opposite_one_hots_reach_ln2():
    a = Tensor(np.array([[50.0, -50.0]]))
    b = Tensor(np.array([[-50.0, 50.0]]))
    js, _, _ = sim_loss(a, b, W)
    assert float(js.data) == pytest.approx(np.log(2), abs=1e-12)
    assert float(js.data) <= np.log(2) + 1e-12


def test_sim_loss_matches_naive_oracle_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(scale=2, size=6)
        b = rng.normal(scale=2, size=6)
        js_ab, mse, _ = sim_loss(Tensor(a[None]), Tensor(b[None]), W)
        js_ba, _, _ = sim_loss(Tensor(b[None]), Tensor(a[None]), W)
        assert float(js_ab.data) == pytest.approx(naive_js(a, b), abs=1e-12)
        assert float(js_ab.data) == pytest.approx(float(js_ba.data), abs=1e-12)
        assert float(js_ab.data) <= np.log(2) + 1e-12
        assert float(mse.data) == pytest.approx(np.mean((a - b) ** 2), abs=1e-12)


def test_sim_loss_reference_is_detached():
    ad.reset_tape()
    pred = Tensor(np.array([[0.5, 1.0, -0.3]]), requires_grad=True)
    ref = Tensor(np.array([[1.0, -1.0, 0.2]]), requires_grad=True)
    _, _, total = sim_loss(pred, ref, W)
    ad.backward(total)
    assert np.any(pred.grad != 0)
    assert np.all(ref.grad == 0)


def test_sim_loss_gradcheck():
    ad.reset_tape()
    pred = Tensor(np.random.default_rng(8).normal(size=(2, 5)), requires_grad=True)
    ref = Tensor(np.random.default_rng(9).normal(size=(2, 5)))
    err = ad.finite_difference_check(lambda: sim_loss(pred, ref, W)[2], [pred])
    assert err < 1e-4


def test_sim_loss_length_mismatch():
    with pytest.raises(ShapeError):
        sim_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), W)
    with pytest.raises(ShapeError):
        sim_loss(Tensor(np.zeros(3)), Tensor(np.zeros(3)), W)


# -- composition ------------------------------------------------------------------

def test_compose_total_gradient_is_sum_of_parts():
    rng = np.random.default_rng(10)
    base = rng.normal(size=4)

    def run(which):
        ad.reset_tape()
        x = Tensor(base.copy(), requires_grad=True)
        txt = (x * x).sum()
        mask = (x * 3.0).sum()
        bbox = ad.relu(x).sum()
        if which == "total":
            ad.backward(txt + mask + bbox)
        else:
            ad.backward({"txt": txt, "mask": mask, "bbox": bbox}[which])
        return x.grad.copy()

    total = run("total")
    parts = run("txt") + run("mask") + run("bbox")
    np.testing.assert_allclose(total, parts, atol=1e-12)


def test_report_scalars_and_weighted_composition():
    rng = np.random.default_rng(11)
    z = Tensor(rng.normal(size=(1, 4, 4)))
    gt = (rng.uniform(size=(1, 4, 4)) > 0.5).astype(float)
    bce, dice, mask_total = mask_loss(z, gt, W)
    l1, gl, bbox_total = bbox_loss(rows(rand_box(rng)), targets(rand_box(rng)), W)
    txt = Tensor(0.37)
    rep = LossReport(txt, bce, dice, l1, gl, mask=mask_total, bbox=bbox_total, total=txt + mask_total + bbox_total)
    s = rep.scalars()
    assert s["total"] == pytest.approx(s["txt"] + s["mask"] + s["bbox"], abs=1e-10)
    assert s["mask"] == pytest.approx(2.0 * s["bce"] + 0.5 * s["dice"], abs=1e-10)
    assert s["bbox"] == pytest.approx(s["l1"] + s["giou"], abs=1e-10)


def test_batch_losses_are_means_of_single_sample_losses():
    rng = np.random.default_rng(12)
    B = 4
    z = rng.normal(size=(B, 5, 6))
    gt = rng.uniform(size=(B, 5, 6)) > 0.5
    pred_boxes = [rand_box(rng) for _ in range(B)]
    gt_boxes = [rand_box(rng) for _ in range(B)]
    sp, sr = rng.normal(size=(B, 7)), rng.normal(size=(B, 7))
    batch = [
        mask_loss(Tensor(z), gt, W),
        bbox_loss(rows(*pred_boxes), targets(*gt_boxes), W),
        sim_loss(Tensor(sp), Tensor(sr), W),
    ]
    single = [
        [mask_loss(Tensor(z[i : i + 1]), gt[i : i + 1], W) for i in range(B)],
        [bbox_loss(rows(pred_boxes[i]), targets(gt_boxes[i]), W) for i in range(B)],
        [sim_loss(Tensor(sp[i : i + 1]), Tensor(sr[i : i + 1]), W) for i in range(B)],
    ]
    for parts, alone in zip(batch, single):
        for k, part in enumerate(parts):
            mean = np.mean([float(a[k].data) for a in alone])
            assert float(part.data) == pytest.approx(mean, rel=1e-13, abs=1e-15)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        LossWeights(bce=-1.0)
