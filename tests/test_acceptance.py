"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 5 and 6 train
real models (three overfit runs plus a fine-tune continuation) and together
take roughly seven minutes on a single core; everything else finishes in
seconds.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from medsegdet import autodiff as ad
from medsegdet.autodiff import Tensor
from medsegdet.cli import _jsonl_bytes, gradcheck_suite
from medsegdet.datagen import (
    MockOracle,
    generate_pipeline,
    split_dataset,
    synth_records,
)
from medsegdet.decoders import BBox
from medsegdet.fusion import (
    CandidateBundle,
    FusionConfig,
    fuse_candidates,
    init_router_params,
    route,
)
from medsegdet.losses import (
    LossWeights,
    bbox_loss,
    mask_loss,
    sim_loss,
)
from medsegdet.metrics import aggregate_seg, box_iou, EvalSample, mask2box
from medsegdet.mllm import (
    EOS_ID,
    build_sequence,
    candidate_bundles,
    encode_image_patches,
    encode_text,
    forward,
    forward_packed,
)
from medsegdet.trainer import (
    _heads,
    TrainConfig,
    TrainSample,
    default_answer,
    evaluate_model,
    init_model,
    init_opt_state,
    load_checkpoint,
    mixed_sampler,
    restore_model,
    run_training,
    save_checkpoint,
    train_step,
)


def report_line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


# -- heavy fixtures --------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_runs():
    """Three seeded overfit runs on 16 synthetic samples; ~2 minutes each."""
    runs = {}
    for seed in (0, 1, 2):
        records = synth_records(16, seed=seed)
        cfg = TrainConfig(seed=seed, lr_max=2e-3, batch_size=10, mix_ratio=(1, 0))
        model = init_model(cfg)
        t0 = time.monotonic()
        _, history = run_training(model, records, records, cfg)
        elapsed = time.monotonic() - t0
        report, _ = evaluate_model(model, records)
        print(
            f"  overfit seed {seed}: dice={report.dice:.2f} box_iou={report.box_iou:.2f}"
            f" ({elapsed:.0f}s)"
        )
        runs[seed] = SimpleNamespace(
            records=records, cfg=cfg, model=model, history=history,
            report=report, elapsed=elapsed,
        )
    return runs


# -- 1: gradient suite ------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    errs = gradcheck_suite(seed=0)
    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    ok = (
        len(errs) >= 12
        and all(np.isfinite(e) and e < 1e-4 for e in errs.values())
        and elapsed < 120.0
    )
    report_line(1, "gradient suite", ok, f"units={len(errs)} worst={worst:.2e} runtime={elapsed:.1f}s")


# -- 2: loss identities ------------------------------------------------------------


def test_criterion_2_loss_identities():
    w = LossWeights()
    rng = np.random.default_rng(2)

    gt = rng.uniform(size=(9, 9)) > 0.5
    gt[4, 4] = True
    perfect = np.where(gt, 40.0, -40.0)
    dice_at_perfect = float(mask_loss(Tensor(perfect[None]), gt[None], w)[1].data)

    box = [0.2, 0.3, 0.7, 0.9]
    giou_at_perfect = float(bbox_loss(Tensor([box]), [box], w)[1].data)

    js_gap = 0.0
    js_max = 0.0
    for _ in range(50):
        a = Tensor(rng.normal(scale=3.0, size=(1, 12)))
        b = Tensor(rng.normal(scale=3.0, size=(1, 12)))
        ab = float(sim_loss(a, b, w)[0].data)
        ba = float(sim_loss(b, a, w)[0].data)
        js_gap = max(js_gap, abs(ab - ba))
        js_max = max(js_max, ab)
    spread = np.zeros((1, 12))
    spread[0, 0] = 60.0
    far = np.zeros((1, 12))
    far[0, -1] = 60.0
    js_max = max(js_max, float(sim_loss(Tensor(spread), Tensor(far), w)[0].data))

    end_total = Tensor(1.25) + Tensor(0.5) + Tensor(0.375)
    sim = Tensor(rng.normal(size=(1, 10)))
    js0, mse0, sim_total = sim_loss(sim, Tensor(sim.data.copy()), w)
    ft_total = end_total + sim_total
    exact_match = (
        float(js0.data) == 0.0
        and float(mse0.data) == 0.0
        and float(ft_total.data) == float(end_total.data)
    )

    ok = (
        dice_at_perfect <= 1e-6
        and giou_at_perfect <= 1e-6
        and js_gap <= 1e-12
        and js_max <= math.log(2.0) + 1e-12
        and exact_match
    )
    report_line(
        2, "loss identities", ok,
        f"dice@perfect={dice_at_perfect:.1e} giou@perfect={giou_at_perfect:.1e} "
        f"js_asym={js_gap:.1e} js_max={js_max:.4f} ft==end={exact_match}",
    )


# -- 3: metric oracles -------------------------------------------------------------


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(3)
    n_grid = 1000
    xs = (np.arange(n_grid) + 0.5) / n_grid
    X, Y = np.meshgrid(xs, xs)
    raster_cache: dict[tuple, np.ndarray] = {}

    def raster(box: BBox) -> np.ndarray:
        key = box.as_floats()
        if key not in raster_cache:
            x1, y1, x2, y2 = key
            raster_cache[key] = (X >= x1) & (X < x2) & (Y >= y1) & (Y < y2)
        return raster_cache[key]

    def nonempty_mask():
        m = rng.uniform(size=(8, 8)) > 0.5
        if not m.any():
            m[rng.integers(8), rng.integers(8)] = True
        return m

    pixel_exact = True
    box_err = 0.0
    for _ in range(1000):
        pred, gt = nonempty_mask(), nonempty_mask()
        dice, iou, _ = aggregate_seg([EvalSample(pred, gt, None, BBox(0, 0, 1, 1))])  # exact for one sample
        inter = int((pred & gt).sum())
        p, g = int(pred.sum()), int(gt.sum())
        union = p + g - inter
        naive_iou = inter / union if union else 1.0
        naive_dice = 2 * inter / (p + g) if p + g else 1.0
        pixel_exact &= iou == naive_iou and dice == naive_dice

        rows = [i for i in range(8) if pred[i].any()]
        cols = [j for j in range(8) if pred[:, j].any()]
        naive_box = BBox(cols[0] / 8, rows[0] / 8, (cols[-1] + 1) / 8, (rows[-1] + 1) / 8)
        pixel_exact &= mask2box(pred).as_floats() == naive_box.as_floats()

        a, b = mask2box(pred), mask2box(gt)
        A, B = raster(a), raster(b)
        u = int(np.count_nonzero(A | B))
        oracle = int(np.count_nonzero(A & B)) / u if u else 0.0
        box_err = max(box_err, abs(box_iou(a, b) - oracle))

    samples = [
        EvalSample(nonempty_mask(), nonempty_mask(), None, BBox(0, 0, 1, 1))
        for _ in range(40)
    ]
    base = aggregate_seg(samples)
    shuffle_exact = True
    for _ in range(100):
        order = rng.permutation(len(samples))
        shuffle_exact &= aggregate_seg([samples[i] for i in order]) == base

    ok = pixel_exact and box_err <= 2e-3 and shuffle_exact
    report_line(
        3, "metric oracles", ok,
        f"pixel_exact={pixel_exact} box_raster_err={box_err:.2e} shuffles_exact={shuffle_exact}",
    )


# -- 4: fusion invariants -----------------------------------------------------------


def _bundle(rng, n, d, requires_grad=False):
    return CandidateBundle(
        candidates=Tensor(rng.normal(size=(1, n, d)), requires_grad=requires_grad),
        h_img=Tensor(rng.normal(size=(1, 5, d))),
    )


def test_criterion_4_fusion_invariants():
    rng = np.random.default_rng(4)
    d = 8
    cfg = FusionConfig(n=3, mode="soft", router_hidden=6)
    params = init_router_params(cfg, d, seed=4)

    simplex_ok = True
    for _ in range(1000):
        w_seg, w_det = route(_bundle(rng, 3, d), params, cfg)
        for wv in (w_seg.data, w_det.data):
            simplex_ok &= abs(float(wv.sum()) - 1.0) <= 1e-6 and bool((wv >= 0.0).all())

    one = FusionConfig(n=1, mode="soft")
    one_params = init_router_params(one, d, seed=5)
    solo_equal = True
    for _ in range(25):
        bundle = _bundle(rng, 1, d)
        soft = fuse_candidates(bundle, one_params, one)
        hard = fuse_candidates(bundle, one_params, FusionConfig(n=1, mode="hard"))
        solo_equal &= np.array_equal(soft.h_seg.data, hard.h_seg.data)
        solo_equal &= np.array_equal(soft.h_det.data, hard.h_det.data)

    hard_cfg = FusionConfig(n=3, mode="hard", router_hidden=6)
    ad.reset_tape()
    for t in params.named().values():
        t.requires_grad = True
    fused = fuse_candidates(_bundle(rng, 3, d, requires_grad=True), params, hard_cfg)
    ad.backward(fused.h_seg.sum() + fused.h_det.sum())
    router_grads_zero = all(
        t.grad is None or not np.any(t.grad) for t in params.named().values()
    )

    ok = simplex_ok and solo_equal and router_grads_zero
    report_line(
        4, "fusion invariants", ok,
        f"simplex={simplex_ok} n1_soft_eq_hard={solo_equal} hard_router_grads_zero={router_grads_zero}",
    )


# -- 5: overfit experiment ----------------------------------------------------------


def test_criterion_5_overfit_experiment(overfit_runs):
    passed = 0
    details = []
    loss_drops = True
    for seed, run in overfit_runs.items():
        hit = run.report.dice >= 90.0 and run.report.box_iou >= 70.0
        passed += hit
        details.append(
            f"seed{seed}: dice={run.report.dice:.1f} box_iou={run.report.box_iou:.1f}"
        )
        first = float(np.mean([h["total"] for h in run.history[:100]]))
        last = float(np.mean([h["total"] for h in run.history[-100:]]))
        loss_drops &= last < first
    total_time = sum(run.elapsed for run in overfit_runs.values())
    ok = passed >= 3 and total_time < 600.0 and loss_drops
    report_line(
        5, "overfit experiment", ok,
        f"{'; '.join(details)}; loss_last100<first100={loss_drops}; runtime={total_time:.0f}s",
    )


# -- 6: fine-tune experiment ---------------------------------------------------------


def test_criterion_6_finetune_experiment(overfit_runs):
    run = overfit_runs[0]  # continues (and mutates) the seed-0 model
    dice_before = run.report.dice
    ft_cfg = replace(run.cfg, mode="finetune", lr_max=3e-5, total_iters=500, warmup_iters=100)
    sampler = mixed_sampler(
        run.records, run.records, ft_cfg.mix_ratio, seed=ft_cfg.seed,
        n_candidates=ft_cfg.fusion.n,
    )
    opt = init_opt_state(run.model.trainable())
    initial = None
    hit_iter = None
    sim = float("inf")
    for it in range(ft_cfg.total_iters):
        batch = [next(sampler) for _ in range(ft_cfg.batch_size)]
        sim = train_step(run.model, batch, it, ft_cfg, opt).scalars()["sim"]
        if initial is None:
            initial = sim
        if sim < 0.1 * initial:
            hit_iter = it
            break
    after, _ = evaluate_model(run.model, run.records)
    ok = hit_iter is not None and after.dice >= dice_before - 2.0
    report_line(
        6, "fine-tune experiment", ok,
        f"sim {initial:.0f}->{sim:.0f} at iter {hit_iter}; "
        f"dice {dice_before:.2f}->{after.dice:.2f}",
    )


# -- 7: box gradient flow -------------------------------------------------------------


def _batch_mask_loss(model, batch, use_box):
    model = replace(model, cfg=replace(model.cfg, use_box_prompt=use_box))
    cfg = model.cfg
    seqs = []
    for sample in batch:
        rec = sample.record
        patches = encode_image_patches(rec.image, cfg.mllm_patch, model.lm.patch_proj)
        q_ids = encode_text(sample.question, model.vocab)
        a_ids = encode_text(sample.answer, model.vocab) + [EOS_ID]
        seqs.append(build_sequence(patches, q_ids, a_ids, model.vocab))
    rows, bundle_of = candidate_bundles(seqs, model.vocab)
    bundle = bundle_of(forward_packed(seqs, model.lm, rows=rows), rows)
    _, _, mlogits = _heads(model, bundle, np.stack([s.record.image for s in batch]))
    return mask_loss(mlogits, np.stack([s.record.mask for s in batch]), cfg.weights)[2]


def test_criterion_7_box_gradient_flow():
    cfg = TrainConfig(d_model=32, n_blocks=1, mllm_patch=32, vision_patch=8, max_seq=192, seed=7)
    model = init_model(cfg)
    records = synth_records(10, seed=7)
    rng = np.random.default_rng(7)

    flows_when_on = True
    zero_when_off = True
    for trial in range(5):
        picks = rng.choice(len(records), size=2, replace=False)
        batch = [
            TrainSample(
                record=records[i],
                question=f"Please segment the {records[i].label}.",
                answer=default_answer(records[i].label, cfg.fusion.n),
                stream="referring",
            )
            for i in picks
        ]
        bbox_params = model.bbox.named().values()

        ad.reset_tape()
        ad.backward(_batch_mask_loss(model, batch, use_box=True))
        norm_on = math.fsum(float(np.sum(t.grad**2)) for t in bbox_params)
        flows_when_on &= norm_on > 0.0

        ad.reset_tape()
        ad.backward(_batch_mask_loss(model, batch, use_box=False))
        norm_off = math.fsum(float(np.abs(t.grad).sum()) for t in bbox_params)
        zero_when_off &= norm_off == 0.0

    ok = flows_when_on and zero_when_off
    report_line(
        7, "box gradient flow", ok,
        f"nonzero_with_box={flows_when_on} zero_without_box={zero_when_off}",
    )


# -- 8: datagen determinism and structure ---------------------------------------------


def test_criterion_8_datagen_determinism():
    def build():
        return generate_pipeline(synth_records(100, seed=11), MockOracle(seed=11))

    first, second = build(), build()
    byte_identical = _jsonl_bytes(first) == _jsonl_bytes(second)

    structure_ok = True
    for rec in first:
        structure_ok &= 0 <= len(rec.qa) <= 8
        for pair in rec.qa:
            structure_ok &= rec.label in pair.answer

    train, val, test = split_dataset(first, seed=11)
    sizes = (len(train), len(val), len(test))
    split_ok = all(abs(s - t) <= 1 for s, t in zip(sizes, (80, 10, 10)))

    ok = byte_identical and structure_ok and split_ok
    report_line(
        8, "datagen determinism and structure", ok,
        f"byte_identical={byte_identical} structure={structure_ok} splits={sizes}",
    )


# -- 9: checkpoint round-trip ----------------------------------------------------------


def test_criterion_9_checkpoint_round_trip(tmp_path):
    cfg = TrainConfig(d_model=16, n_blocks=1, n_heads=2, mllm_patch=32, vision_patch=8,
                      max_seq=160, seed=9)
    model = init_model(cfg)
    opt = init_opt_state(model.trainable())
    path = tmp_path / "round.ckpt"
    save_checkpoint(path, model, opt, iteration=0)
    restored, _ = restore_model(load_checkpoint(path))

    rng = np.random.default_rng(9)
    labels = ("lung", "liver", "tumor", "kidney")

    def logits_of(m, image, text):
        patches = encode_image_patches(image, cfg.mllm_patch, m.lm.patch_proj)
        q_ids = encode_text(text, m.vocab)
        a_ids = encode_text("ok", m.vocab) + [EOS_ID]
        seq = build_sequence(patches, q_ids, a_ids, m.vocab)
        _, logits = forward(seq, m.lm)
        return logits.data

    bitwise = True
    with ad.no_grad():
        for _ in range(100):
            image = rng.uniform(size=(64, 64))
            text = f"Please segment the {labels[int(rng.integers(4))]}."
            bitwise &= np.array_equal(logits_of(model, image, text),
                                      logits_of(restored, image, text))
    report_line(9, "checkpoint round-trip", bitwise, "100 random inputs bitwise equal")
