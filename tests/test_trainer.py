"""Trainer tests: schedule and optimizer algebra, sampling mix, full train
steps on a tiny model, checkpoint round-trips, and evaluation plumbing."""

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsegdet.autodiff as ad
from medsegdet import mllm, trainer
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.cli import PRESETS
from medsegdet.datagen import QAPair, candidate_placeholders, synth_records
from medsegdet.fusion import FusionConfig
from medsegdet.losses import LossWeights
from medsegdet.mllm import build_sequence, encode_image_patches, encode_text, forward
from medsegdet.trainer import (
    REFERRING_TEMPLATES,
    Checkpoint,
    CheckpointError,
    Model,
    NonFiniteTrainingError,
    OptState,
    TrainConfig,
    TrainSample,
    adamw_step,
    default_answer,
    evaluate_model,
    init_model,
    init_opt_state,
    load_checkpoint,
    lr_schedule,
    mixed_sampler,
    restore_model,
    run_training,
    save_checkpoint,
    train_step,
)


def tiny_config(**over):
    base = dict(
        lr_max=1e-3,
        warmup_iters=5,
        total_iters=40,
        batch_size=1,
        d_model=16,
        n_blocks=1,
        n_heads=2,
        mllm_patch=32,
        vision_patch=8,
        vision_dim=8,
        max_seq=128,
        seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


def short_qa_records(count, seed=0):
    """Synth records with one short hand-attached QA pair each."""
    records = synth_records(count, seed=seed)
    for rec in records:
        rec.qa = [
            QAPair(
                question=f"where is the {rec.label}?",
                answer=f"The {rec.label}. {candidate_placeholders(2)}",
                perspective="attribute",
                length="short",
            )
        ]
    return records


# -- learning-rate schedule ---------------------------------------------------------


def test_lr_schedule_warmup_values():
    cfg = TrainConfig(lr_max=3e-4, warmup_iters=100, total_iters=2000)
    assert lr_schedule(0, cfg) == pytest.approx(3e-6, rel=1e-12)
    assert lr_schedule(99, cfg) == pytest.approx(3e-4, rel=1e-12)
    assert lr_schedule(100, cfg) == pytest.approx(3e-4, rel=1e-12)


def test_lr_schedule_final_value():
    cfg = TrainConfig(lr_max=3e-4, warmup_iters=100, total_iters=2000)
    # decay is linear, so the last iterate sits one decay-step above zero
    assert lr_schedule(1999, cfg) == pytest.approx(3e-4 / 1900, rel=1e-12)


def test_lr_schedule_piecewise_linear_and_positive():
    cfg = TrainConfig(lr_max=1e-3, warmup_iters=10, total_iters=50)
    values = [lr_schedule(i, cfg) for i in range(50)]
    assert all(v > 0 for v in values)
    assert values.index(max(values)) in (9, 10)
    diffs_up = np.diff(values[:10])
    diffs_down = np.diff(values[10:])
    assert np.allclose(diffs_up, diffs_up[0])
    assert np.allclose(diffs_down, diffs_down[0])
    assert diffs_down[0] < 0


def test_lr_schedule_rejects_out_of_range():
    cfg = TrainConfig(warmup_iters=10, total_iters=50)
    with pytest.raises(ValueError):
        lr_schedule(-1, cfg)
    with pytest.raises(ValueError):
        lr_schedule(50, cfg)


# -- AdamW ----------------------------------------------------------------------------


def test_adamw_zero_grad_is_pure_weight_decay():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    before = p.data.copy()
    opt = init_opt_state({"p": p})
    skipped = adamw_step({"p": p}, opt, lr=0.1, weight_decay=0.01)
    assert skipped == []
    np.testing.assert_array_equal(p.data, before - 0.1 * 0.01 * before)


def test_adamw_first_step_direction():
    # bias correction makes step 1 exactly -lr * g / (|g| + eps)
    g = np.array([3.0, -0.25, 1e-3])
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = g.copy()
    opt = init_opt_state({"p": p})
    adamw_step({"p": p}, opt, lr=0.01, weight_decay=0.0)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def naive_adamw(params, grads_seq, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Reference loop: plain AdamW over a fixed gradient sequence."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for k in p:
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1**t)
            vhat = v[k] / (1 - b2**t)
            p[k] = p[k] - lr * (mhat / (np.sqrt(vhat) + eps) + wd * p[k])
    return p


def test_adamw_matches_reference_over_many_steps():
    rng = np.random.default_rng(7)
    init = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
    grads_seq = [
        {k: rng.normal(size=v.shape) for k, v in init.items()} for _ in range(50)
    ]
    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt = init_opt_state(tensors)
    for grads in grads_seq:
        for k, t in tensors.items():
            t.grad = grads[k].copy()
        adamw_step(tensors, opt, lr=3e-3, weight_decay=0.02)
    expected = naive_adamw(init, grads_seq, lr=3e-3, wd=0.02)
    for k in init:
        np.testing.assert_allclose(tensors[k].data, expected[k], rtol=1e-10, atol=1e-14)


def test_adamw_is_bitwise_the_unbuffered_formula():
    # the update's earlier form, one temporary per operation, as the oracle
    rng = np.random.default_rng(8)
    init = {"w": rng.normal(size=(6, 5)), "g0": np.array(-0.0), "s": np.array(4.0), "b": np.array([0.0, -0.0, 1e-310, -3.0])}
    grads_seq = [{k: rng.normal(scale=10.0 ** rng.integers(-8, 4), size=v.shape) for k, v in init.items()} for _ in range(30)]
    for grads in grads_seq[::7]:
        grads["b"][:3] = [-0.0, 0.0, 5e-324]
        grads["g0"] = np.array(-0.0)
    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt = init_opt_state(tensors)
    p = {k: v.copy() for k, v in init.items()}
    m = {k: np.zeros_like(v) for k, v in init.items()}
    v = {k: np.zeros_like(a) for k, a in init.items()}
    (b1, b2), eps, lr, wd = trainer.ADAM_BETAS, trainer.ADAM_EPS, 3e-3, 0.02
    for t, grads in enumerate(grads_seq, start=1):
        for k, tensor in tensors.items():
            tensor.grad = grads[k].copy()
            g = grads[k]
            m[k] *= b1
            m[k] += (1 - b1) * g
            v[k] *= b2
            v[k] += (1 - b2) * g * g
            mhat = m[k] / (1 - b1**t)
            vhat = v[k] / (1 - b2**t)
            p[k] -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p[k])
        adamw_step(tensors, opt, lr=lr, weight_decay=wd)
        for k, tensor in tensors.items():
            for got, want in ((tensor.data, p[k]), (opt.m[k], m[k]), (opt.v[k], v[k])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t, k)


def test_adamw_skips_nonfinite_gradients(caplog):
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    a.grad = np.array([1.0, np.nan, 0.0])
    b.grad = np.full(2, 0.5)
    opt = init_opt_state({"a": a, "b": b})
    with caplog.at_level("WARNING"):
        skipped = adamw_step({"a": a, "b": b}, opt, lr=0.01, weight_decay=0.0)
    assert skipped == ["a"]
    np.testing.assert_array_equal(a.data, np.ones(3))  # untouched
    assert not np.array_equal(b.data, np.ones(2))
    assert any("skipping a" in r.message for r in caplog.records)


# -- mixed sampler ---------------------------------------------------------------------


def test_mixed_sampler_ratio_empirical():
    records = short_qa_records(4)
    stream = mixed_sampler(records, records, ratio=(7, 3), seed=11)
    draws = [next(stream).stream for _ in range(10_000)]
    frac = draws.count("referring") / len(draws)
    assert abs(frac - 0.7) < 0.02


def test_mixed_sampler_degenerate_ratios():
    records = short_qa_records(2)
    all_ref = mixed_sampler(records, records, ratio=(1, 0), seed=0)
    assert all(next(all_ref).stream == "referring" for _ in range(200))
    all_rsn = mixed_sampler(records, records, ratio=(0, 1), seed=0)
    assert all(next(all_rsn).stream == "reasoning" for _ in range(200))
    # a pool of share 0 is never drawn, so it may be empty; the draws do not change
    for ratio, pools in (((1, 0), (records, [])), ((0, 1), ([], records))):
        a, b = mixed_sampler(*pools, ratio=ratio, seed=3), mixed_sampler(records, records, ratio=ratio, seed=3)
        for _ in range(200):
            sa, sb = next(a), next(b)
            assert (sa.record is sb.record, sa.question, sa.answer) == (True, sb.question, sb.answer)


def test_mixed_sampler_rejects_empty_pool_and_bad_ratio():
    records = short_qa_records(2)
    with pytest.raises(ValueError):
        mixed_sampler([], records)
    with pytest.raises(ValueError):
        mixed_sampler(records, [])
    with pytest.raises(ValueError):
        next(mixed_sampler(records, records, ratio=(0, 0)))


def test_mixed_sampler_samples_are_well_formed_and_deterministic():
    records = short_qa_records(3)
    a = mixed_sampler(records, records, ratio=(7, 3), seed=5)
    b = mixed_sampler(records, records, ratio=(7, 3), seed=5)
    for _ in range(50):
        sa, sb = next(a), next(b)
        assert (sa.record.id, sa.question, sa.answer, sa.stream) == (
            sb.record.id,
            sb.question,
            sb.answer,
            sb.stream,
        )
        assert sa.record.label in sa.answer
        assert "<c1>" in sa.answer and "<c2>" in sa.answer
        assert sa.x_hat_txt == sa.record.label


# -- config --------------------------------------------------------------------------


def test_config_round_trip_through_dict():
    cfg = tiny_config(mode="finetune", weights=LossWeights(bce=3.5), mix_ratio=(1, 1))
    again = TrainConfig.from_dict(json.loads(json.dumps(asdict(cfg))))  # as a checkpoint stores it
    assert again == cfg


def test_config_rejects_unknown_field_by_name():
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig.from_dict({"learning_rate": 0.1})


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_iters=10, total_iters=5)
    with pytest.raises(ValueError):
        TrainConfig(mode="pretrain")
    with pytest.raises(ValueError):
        TrainConfig(mix_ratio=(0, 0))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# -- train step / run ------------------------------------------------------------------


def build_tiny(mode="end2end", **over):
    cfg = tiny_config(mode=mode, **over)
    model = init_model(cfg)
    records = short_qa_records(2, seed=3)
    return cfg, model, records


def test_train_step_end2end_report_shape():
    cfg, model, records = build_tiny()
    sampler = mixed_sampler(records, records, seed=0)
    batch = [next(sampler) for _ in range(cfg.batch_size)]
    opt = init_opt_state(model.trainable())
    report = train_step(model, batch, 0, cfg, opt)
    scal = report.scalars()
    for key in ("txt", "bce", "dice", "l1", "giou", "mask", "bbox", "total"):
        assert np.isfinite(scal[key])
    assert "sim" not in scal
    assert opt.step == 1


def test_train_step_finetune_adds_sim_terms():
    cfg, model, records = build_tiny(mode="finetune")
    sampler = mixed_sampler(records, records, seed=0)
    batch = [next(sampler) for _ in range(cfg.batch_size)]
    opt = init_opt_state(model.trainable())
    report = train_step(model, batch, 0, cfg, opt)
    scal = report.scalars()
    for key in ("js", "mse", "sim"):
        assert np.isfinite(scal[key])
    assert scal["total"] >= scal["txt"] * 0  # finite composition


@pytest.mark.parametrize("mode", ["end2end", "finetune"])
def test_batch_losses_total_is_the_sum_of_its_parts(mode):
    cfg, model, records = build_tiny(mode=mode)
    sampler = mixed_sampler(records, records, seed=0)
    batch = [next(sampler) for _ in range(2)]
    sim_ref = trainer.reference_maps(model, batch) if mode == "finetune" else None
    report = trainer.batch_losses(model, batch, sim_ref)
    total = report.txt + report.mask + report.bbox
    if mode == "finetune":
        total = total + report.sim
    assert float(report.total.data) == float(total.data)
    assert (report.sim is None) == (mode == "end2end")


def test_train_step_finetune_reference_equals_query_gives_zero_sim():
    # when the reference query is the training query, both passes coincide
    cfg, model, records = build_tiny(mode="finetune")
    rec = records[0]
    sample = TrainSample(
        record=rec,
        question=f"where is the {rec.label}?",
        answer=rec.qa[0].answer,
        stream="reasoning",
        x_hat_txt=f"where is the {rec.label}?",
    )
    opt = init_opt_state(model.trainable())
    report = train_step(model, [sample], 0, cfg, opt)
    scal = report.scalars()
    assert scal["js"] == pytest.approx(0.0, abs=1e-12)
    assert scal["mse"] == pytest.approx(0.0, abs=1e-12)


def test_train_step_finetune_requires_reference_query():
    cfg, model, records = build_tiny(mode="finetune")
    rec = records[0]
    sample = TrainSample(rec, "q?", rec.qa[0].answer, "reasoning", x_hat_txt=None)
    with pytest.raises(ValueError):
        train_step(model, [sample], 0, cfg, init_opt_state(model.trainable()))


def test_train_step_finetune_targets_the_model_it_started_from():
    # the reference maps come from a copy of the model taken at the first
    # fine-tune step, which training never moves
    cfg, model, records = build_tiny(mode="finetune")
    start = {n: t.data.copy() for n, t in model.named().items()}
    sampler = mixed_sampler(records, records, seed=0)
    opt = init_opt_state(model.trainable())
    for it in range(3):
        train_step(model, [next(sampler) for _ in range(cfg.batch_size)], it, cfg, opt)
    assert all(np.array_equal(t.data, start[n]) for n, t in opt.reference.named().items())
    assert not all(np.array_equal(t.data, start[n]) for n, t in model.named().items())

def test_reference_map_of_a_sample_ignores_its_batch_and_the_memo():
    # a sample's map has the same bits computed alone, beside other samples
    # and read from a warm memo; a packed batch would round the router's
    # products differently from a one-sample batch
    cfg = TrainConfig.from_dict({**PRESETS["finetune"], "mix_ratio": [0, 1]})
    model = init_model(cfg)
    records = short_qa_records(4, seed=0)
    samples = [TrainSample(r, r.qa[0].question, r.qa[0].answer, "reasoning", r.label) for r in records]
    alone = [trainer.reference_maps(model, [s]).data[0] for s in samples]
    beside = trainer.reference_maps(model, samples).data
    assert [a.tobytes() for a in alone] == [b.tobytes() for b in beside]
    # the referring sample asks another question, but the reference pass
    # reads the same image, reference query and answer
    rec = records[0]
    referring = TrainSample(rec, f"Segment the {rec.label}.", default_answer(rec.label, 2), "referring", rec.label)
    memo = {}
    trainer.reference_maps(model, samples[:0:-1], memo)
    warm = trainer.reference_maps(model, [referring] + samples, memo).data
    assert len(memo) == len(samples)
    assert [w.tobytes() for w in warm] == [alone[0].tobytes()] + [a.tobytes() for a in alone]


def test_train_step_keeps_frozen_tensors_bitwise():
    cfg, model, records = build_tiny()
    frozen_before = {n: t.data.copy() for n, t in model.frozen().items()}
    assert "mllm.patch_proj" in frozen_before and "vision.proj" in frozen_before
    sampler = mixed_sampler(records, records, seed=0)
    opt = init_opt_state(model.trainable())
    for it in range(3):
        train_step(model, [next(sampler)], it, cfg, opt)
    for name, before in frozen_before.items():
        np.testing.assert_array_equal(model.frozen()[name].data, before)


def test_train_step_updates_trainable_tensors():
    cfg, model, records = build_tiny()
    before = {n: t.data.copy() for n, t in model.trainable().items()}
    sampler = mixed_sampler(records, records, seed=0)
    train_step(model, [next(sampler)], 0, cfg, init_opt_state(model.trainable()))
    changed = [n for n, t in model.trainable().items() if not np.array_equal(t.data, before[n])]
    # weight decay alone changes every nonzero tensor; embeddings move too
    assert "mllm.tok_emb" in changed and "bbox.w3" in changed and "maskdec.w_p" in changed


def test_run_training_is_deterministic():
    h = []
    for _ in range(2):
        cfg, model, records = build_tiny(total_iters=6, warmup_iters=2)
        _, history = run_training(model, records, records, cfg)
        h.append(history)
    assert len(h[0]) == 6
    assert h[0] == h[1]


def test_run_training_stops_at_first_nonfinite_gradient(monkeypatch):
    cfg, model, records = build_tiny(total_iters=6, warmup_iters=2)
    real_backward, calls, logged = ad.backward, [], []

    def poisoned(loss):
        real_backward(loss)
        calls.append(loss)
        if len(calls) == 3:  # iteration 2
            model.lm.tok_emb.grad[0, 0] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)
    with pytest.raises(NonFiniteTrainingError, match=r"iteration 2\b.*mllm\.tok_emb"):
        run_training(model, records, records, cfg, log_fn=logged.append)
    assert len(calls) == 3
    assert [e["iter"] for e in logged] == [0, 1]


def test_run_training_loss_decreases_and_txt_monotone_tail():
    # single fixed sample: text CE must fall almost monotonically once warm
    cfg = tiny_config(total_iters=120, warmup_iters=10, lr_max=2e-3, mix_ratio=(0, 1))
    model = init_model(cfg)
    records = short_qa_records(1, seed=9)
    _, history = run_training(model, records, records, cfg)
    txt = [h["txt"] for h in history]
    assert txt[-1] < txt[0]
    tail = txt[len(txt) // 10 :]
    assert all(b <= a + 1e-3 for a, b in zip(tail, tail[1:]))
    total = [h["total"] for h in history]
    assert total[-1] < total[0]


def test_all_trainable_tensors_receive_gradient():
    cfg, model, records = build_tiny()
    sampler = mixed_sampler(records, records, seed=0)
    batch = [next(sampler) for _ in range(4)]
    opt = init_opt_state(model.trainable())
    train_step(model, batch, 0, cfg, opt)
    for name, t in model.trainable().items():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), name


def test_overfit_step_tape_holds_only_nodes_that_need_grad():
    # constants (masks, targets, frozen features, scalars) get no tape node
    cfg = TrainConfig.from_dict({**PRESETS["overfit"], "seed": 0})
    model = init_model(cfg)
    records = synth_records(16, seed=0)
    sampler = mixed_sampler(records, records, cfg.mix_ratio, seed=0)
    batch = [next(sampler) for _ in range(cfg.batch_size)]
    train_step(model, batch, 0, cfg, init_opt_state(model.trainable()))
    nodes = ad.active_tape().nodes
    assert len(nodes) <= 250
    assert all(n.grad_fn is not None or n.tensor.requires_grad for n in nodes)


@pytest.mark.parametrize("preset", ["overfit", "finetune"])
def test_step_records_as_many_nodes_at_batch_2_as_at_batch_10(preset):
    # the heads and losses run once on (B, ...) tensors, so the tape does not grow with B
    records = short_qa_records(16, seed=0)
    counts = []
    for batch_size in (2, 10):
        cfg = TrainConfig.from_dict({**PRESETS[preset], "mix_ratio": [1, 1], "batch_size": batch_size})
        model = init_model(cfg)
        sampler = mixed_sampler(records, records, cfg.mix_ratio, seed=0)
        train_step(model, [next(sampler) for _ in range(batch_size)], 0, cfg, init_opt_state(model.trainable()))
        counts.append(len(ad.active_tape().nodes))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("preset", ["overfit", "finetune"])
def test_every_op_node_of_a_step_reaches_the_loss(preset):
    # walking parent ids back from the total visits every recorded operation:
    # the step computes nothing that no loss reads
    records = short_qa_records(16, seed=0)
    cfg = TrainConfig.from_dict({**PRESETS[preset], "mix_ratio": [1, 1], "batch_size": 4})
    model = init_model(cfg)
    sampler = mixed_sampler(records, records, cfg.mix_ratio, seed=0)
    report = train_step(model, [next(sampler) for _ in range(4)], 0, cfg, init_opt_state(model.trainable()))
    nodes = ad.active_tape().nodes
    reached, stack = set(), [next(i for i, node in enumerate(nodes) if node.tensor is report.total)]
    while stack:
        i = stack.pop()
        if i != ad.CONSTANT and i not in reached:
            reached.add(i)
            stack.extend(nodes[i].parent_ids)
    dead = [i for i, node in enumerate(nodes) if node.grad_fn is not None and i not in reached]
    assert not dead, f"{len(dead)} of {len(nodes)} nodes never reach the loss, e.g. shapes {[nodes[i].tensor.shape for i in dead[:4]]}"


def test_train_step_rejects_a_batch_of_two_image_shapes():
    cfg, model, _ = build_tiny()
    big, small = synth_records(1, seed=1)[0], synth_records(1, seed=2, hw=(32, 32))[0]
    batch = [
        TrainSample(r, f"Segment the {r.label}.", default_answer(r.label, 2), "referring", r.label)
        for r in (big, small)
    ]
    with pytest.raises(ShapeError, match=r"\(64, 64\) and \(32, 32\)"):
        train_step(model, batch, 0, cfg, init_opt_state(model.trainable()))


# float-hex total losses and per-parameter gradient hashes (sha256 over the
# gradients of every step, first 16 hex digits), recorded when fusion, the
# decoders and their losses first ran once per batch on (B, ...) tensors
# (step-0 loss within 2.3e-16 relative and gradients within 9.1e-15 of the
# per-sample heads before it); the fine-tune entry was re-recorded when its
# reference maps moved to the frozen copy taken at the first step (step 0's
# loss is unchanged, as that copy equals the model there), and again when each
# sample's reference map was computed alone and memoised (losses within
# 8.8e-16 relative and gradients within 9.1e-15 of each tensor's largest
# entry: only the router's one-row products round differently); both were
# re-recorded with BLAS pinned to one thread when the mask head took its dots
# as P·(V·(W_pᵀ h)) and the mask and box losses became one node each (the
# end2end losses unchanged, one fine-tune loss by one unit in the last place)
RECORDED_STEPS = {
    "end2end": (
        ("0x1.ecf4ba88fa221p+2", "0x1.e00fc124b35e4p+2", "0x1.da76c5852f0b8p+2"),
        {
            "mllm.tok_emb": "915a6748eaed03e6",
            "mllm.pos_emb": "9bcd9f8c6becb4d3",
            "mllm.out_proj": "2d5749f20134b2a6",
            "mllm.blocks.0.ln1_g": "53689038dfb1ae50",
            "mllm.blocks.0.ln1_b": "8039265a0ee47d7f",
            "mllm.blocks.0.wq": "5f4443f8a58bbfdb",
            "mllm.blocks.0.wk": "19553aa831d42075",
            "mllm.blocks.0.wv": "f07e20111a9d5219",
            "mllm.blocks.0.wo": "1a984fc2c3f70bcc",
            "mllm.blocks.0.ln2_g": "283b85f47bf69042",
            "mllm.blocks.0.ln2_b": "0937984163f29027",
            "mllm.blocks.0.w1": "f18359e557eb1a5a",
            "mllm.blocks.0.b1": "40a9c8c1f4ccb526",
            "mllm.blocks.0.w2": "0273eb6079774433",
            "mllm.blocks.0.b2": "065c3ab9a32ebae2",
            "mllm.blocks.1.ln1_g": "79f572ac9d9ecc24",
            "mllm.blocks.1.ln1_b": "873cc0578463b4a3",
            "mllm.blocks.1.wq": "85ce61e97dc6de44",
            "mllm.blocks.1.wk": "0739f7eb97824b8d",
            "mllm.blocks.1.wv": "fefbc0503d452fca",
            "mllm.blocks.1.wo": "67659f13415df541",
            "mllm.blocks.1.ln2_g": "784468adc77cf9fa",
            "mllm.blocks.1.ln2_b": "481aa94535e0f121",
            "mllm.blocks.1.w1": "c909c04bda0143a7",
            "mllm.blocks.1.b1": "1ec34d02a7d91379",
            "mllm.blocks.1.w2": "03c6c03db395b9e4",
            "mllm.blocks.1.b2": "4ee4442f42e178c8",
            "router.seg_w1": "b5f5814f0688559f",
            "router.seg_b1": "be4ce7bab7384759",
            "router.seg_w2": "52cd025144e6efe6",
            "router.seg_b2": "7c5f64df45589695",
            "router.det_w1": "0dae5bdfa1f1124d",
            "router.det_b1": "ce5eb5130753c480",
            "router.det_w2": "d585bc07c40dc5c0",
            "router.det_b2": "9b51960d1e3ccb76",
            "bbox.w1": "313740cd3a47376d",
            "bbox.b1": "18248266861d5d85",
            "bbox.w2": "ec88ce87a0c131bb",
            "bbox.b2": "8a3dc5eb57809634",
            "bbox.w3": "aabf38c7345df44b",
            "bbox.b3": "3d0505997140ca29",
            "maskdec.w_p": "31903f0c98d09354",
            "maskdec.gamma": "412cd0246e9704c2",
            "maskdec.b": "5e68126da0b42d85",
        },
    ),
    "finetune": (
        ("0x1.84c1af5aa3d0ap+7", "0x1.04234a028564dp+8"),
        {
            "mllm.tok_emb": "3fbeec1a2f7d83e7",
            "mllm.pos_emb": "5aa6a0cb1889b22a",
            "mllm.out_proj": "b0481d18a701c3a0",
            "mllm.blocks.0.ln1_g": "fbad8b5bf0733a0f",
            "mllm.blocks.0.ln1_b": "cf57ecca11eff627",
            "mllm.blocks.0.wq": "966d3c0b221bda19",
            "mllm.blocks.0.wk": "3c35ac2fe025fae5",
            "mllm.blocks.0.wv": "b61c7ac8b5e3fed2",
            "mllm.blocks.0.wo": "65591e8d63fed440",
            "mllm.blocks.0.ln2_g": "c5ae058e0e0341f0",
            "mllm.blocks.0.ln2_b": "946fd77948127b84",
            "mllm.blocks.0.w1": "0c8667ebae1b6d83",
            "mllm.blocks.0.b1": "8555c2100c57097a",
            "mllm.blocks.0.w2": "690e1c3f83e610d6",
            "mllm.blocks.0.b2": "89011eda1d85f57f",
            "mllm.blocks.1.ln1_g": "46ad4ae1ec54fcd5",
            "mllm.blocks.1.ln1_b": "0fdd627247940a94",
            "mllm.blocks.1.wq": "cbfefddc1e75394c",
            "mllm.blocks.1.wk": "53d9b787c9ba14c5",
            "mllm.blocks.1.wv": "44771529bb76a7c5",
            "mllm.blocks.1.wo": "e7eb3c5c24f0fbe0",
            "mllm.blocks.1.ln2_g": "941b4ff684b89679",
            "mllm.blocks.1.ln2_b": "b8b2a567fe99b838",
            "mllm.blocks.1.w1": "03b902e7d72c4662",
            "mllm.blocks.1.b1": "2ecade9027db9720",
            "mllm.blocks.1.w2": "09d77b0ed3333203",
            "mllm.blocks.1.b2": "b653401edaa2216e",
            "router.seg_w1": "b7eede7ba16d0fc4",
            "router.seg_b1": "1ecaafde2358986c",
            "router.seg_w2": "da5cd962a28b02fc",
            "router.seg_b2": "1cbeaa609c82dabb",
            "router.det_w1": "b8659d33d78aa999",
            "router.det_b1": "ef2f903a2c673103",
            "router.det_w2": "c01912215a1bd4cd",
            "router.det_b2": "f298c9753117be69",
            "bbox.w1": "ea9675cf1ba695ef",
            "bbox.b1": "32b3bf3df32807c1",
            "bbox.w2": "ae82e2e5f06cb30b",
            "bbox.b2": "34964d601acdcbf1",
            "bbox.w3": "d33986e2249e4029",
            "bbox.b3": "034db4f517ec9573",
            "maskdec.w_p": "d20db4476f362244",
            "maskdec.gamma": "a5ef4bc762e1bfe3",
            "maskdec.b": "d089465bfef7e8b7",
        },
    ),
}


def _small_run(mode: str):
    """Config, model, optimizer state and sampler of a batch-2 run on 4 records."""
    if mode == "end2end":
        cfg = TrainConfig.from_dict({**PRESETS["overfit"], "batch_size": 2})
        records = synth_records(4, seed=0)
    else:
        cfg = TrainConfig.from_dict({**PRESETS["finetune"], "mix_ratio": [0, 1], "batch_size": 2})
        records = short_qa_records(4, seed=0)
    model = init_model(cfg)
    return cfg, model, init_opt_state(model.trainable()), mixed_sampler(records, records, cfg.mix_ratio, seed=0)


def _step_fingerprint(mode: str, steps: int):
    cfg, model, opt, sampler = _small_run(mode)
    losses, hashes = [], {name: hashlib.sha256() for name in model.trainable()}
    for it in range(steps):
        report = train_step(model, [next(sampler) for _ in range(2)], it, cfg, opt)
        losses.append(float(report.total.data).hex())
        for name, t in model.trainable().items():
            hashes[name].update(t.grad.tobytes())
    return tuple(losses), {name: h.hexdigest()[:16] for name, h in hashes.items()}


@pytest.mark.parametrize("mode", sorted(RECORDED_STEPS))
def test_train_steps_reproduce_recorded_losses_and_gradients(mode):
    """A few small-batch steps reproduce the recorded values bitwise.

    Changes to the tape that keep the arithmetic must pass unchanged.  A
    change that alters rounding (for example batching the forward pass)
    must regenerate RECORDED_STEPS and say so in CHANGES.md, together with
    the quality gates it re-ran.
    """
    want_losses, want_hashes = RECORDED_STEPS[mode]
    losses, hashes = _step_fingerprint(mode, len(want_losses))
    assert losses == want_losses
    assert [n for n in want_hashes if hashes.get(n) != want_hashes[n]] == []
    assert hashes.keys() == want_hashes.keys()


# every node a step records, leaves included; the count does not depend on the batch size
TAPE_NODES = {"end2end": 126, "finetune": 133}


@pytest.mark.parametrize("mode", sorted(TAPE_NODES))
def test_a_step_records_its_pinned_number_of_tape_nodes(mode):
    """Each loss and each fused kernel is one node: a change that splits one
    back into pieces fails here; one that fuses more lowers the pin."""
    cfg, model, opt, sampler = _small_run(mode)
    train_step(model, [next(sampler) for _ in range(2)], 0, cfg, opt)
    assert len(ad.active_tape().nodes) == TAPE_NODES[mode]


# -- checkpointing --------------------------------------------------------------------


def train_briefly(mode="end2end", iters=4):
    cfg, model, records = build_tiny(mode=mode, total_iters=max(iters, 4), warmup_iters=2)
    sampler = mixed_sampler(records, records, seed=cfg.seed)
    opt = init_opt_state(model.trainable())
    for it in range(iters):
        train_step(model, [next(sampler)], it, cfg, opt)
    return cfg, model, opt, records


def forward_fingerprint(model, record):
    with ad.no_grad():
        patches = encode_image_patches(record.image, model.cfg.mllm_patch, model.lm.patch_proj)
        ids = encode_text(f"probe {record.label}", model.vocab)
        seq = build_sequence(patches, ids, [1, 2, 3], model.vocab)
        _, logits = forward(seq, model.lm)
    return logits.data.copy()


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg, model, opt, records = train_briefly()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt, iteration=4)
    ckpt = load_checkpoint(path)
    assert ckpt.iteration == 4
    assert ckpt.opt_step == opt.step
    assert ckpt.config == cfg
    restored, opt2 = restore_model(ckpt)
    for name, t in model.named().items():
        np.testing.assert_array_equal(t.data, restored.named()[name].data)
    for name in opt.m:
        np.testing.assert_array_equal(opt.m[name], opt2.m[name])
        np.testing.assert_array_equal(opt.v[name], opt2.v[name])
    a = forward_fingerprint(model, records[0])
    b = forward_fingerprint(restored, records[0])
    assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shapes=st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_round_trip_of_random_shapes_is_bitwise(shapes, seed):
    # any rank, 0-d and empty tensors included, and values across the float64 range
    rng = np.random.default_rng(seed)
    arrays = {
        f"t{i}": rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        for i, shape in enumerate(map(tuple, shapes))
    }
    model = SimpleNamespace(cfg=TrainConfig(seed=seed), named=lambda: {n: Tensor(a) for n, a in arrays.items()})
    opt = OptState(step=seed, m={"t0": -arrays["t0"]}, v={"t0": np.abs(arrays["t0"])})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.ckpt"
        save_checkpoint(path, model, opt, iteration=seed + 1)
        ckpt = load_checkpoint(path)
    assert (ckpt.iteration, ckpt.opt_step, ckpt.config) == (seed + 1, seed, model.cfg)
    saved = {**arrays, "opt.m.t0": opt.m["t0"], "opt.v.t0": opt.v["t0"]}
    for name, a in saved.items():
        b = ckpt.tensors[name]
        assert b.dtype == np.float64 and b.shape == a.shape and b.tobytes() == a.tobytes(), name


def test_checkpoint_resume_training_is_bitwise_identical(tmp_path):
    cfg, model, opt, records = train_briefly()
    path = tmp_path / "resume.ckpt"
    save_checkpoint(path, model, opt, iteration=4)
    restored, opt2 = restore_model(load_checkpoint(path))
    sampler_a = mixed_sampler(records, records, seed=99)
    sampler_b = mixed_sampler(records, records, seed=99)
    for it in range(3):
        train_step(model, [next(sampler_a)], it, cfg, opt)
        train_step(restored, [next(sampler_b)], it, cfg, opt2)
    for name, t in model.named().items():
        np.testing.assert_array_equal(t.data, restored.named()[name].data)


def test_checkpoint_resume_finetune_keeps_its_reference(tmp_path):
    # a fine-tune resumes against the reference it began with, not the model it
    # resumes; samples memoised before the save recur after it, where the
    # resumed run recomputes their maps from an empty memo to the same bits
    cfg, model, opt, records = train_briefly(mode="finetune")
    path = tmp_path / "ft.ckpt"
    save_checkpoint(path, model, opt, iteration=4)
    restored, opt2 = restore_model(load_checkpoint(path))
    memoised = set(opt.ref_maps)
    assert memoised and not opt2.ref_maps
    sampler_a = mixed_sampler(records, records, seed=99)
    sampler_b = mixed_sampler(records, records, seed=99)
    for it in range(3):
        a = train_step(model, [next(sampler_a)], it, cfg, opt)
        b = train_step(restored, [next(sampler_b)], it, cfg, opt2)
        assert a.scalars() == b.scalars()
    assert memoised & set(opt2.ref_maps)
    for name, t in model.named().items():
        np.testing.assert_array_equal(t.data, restored.named()[name].data)

def test_checkpoint_rejects_truncation(tmp_path):
    cfg, model, opt, _ = train_briefly()
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, model, opt, iteration=1)
    blob = path.read_bytes()
    for cut in (0, 3, 11, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_magic_and_trailing(tmp_path):
    cfg, model, opt, _ = train_briefly()
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, model, opt, iteration=1)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_restore_rejects_missing_tensor(tmp_path):
    cfg, model, opt, _ = train_briefly()
    path = tmp_path / "missing.ckpt"
    save_checkpoint(path, model, opt, iteration=1)
    ckpt = load_checkpoint(path)
    del ckpt.tensors["bbox.w3"]
    with pytest.raises(CheckpointError, match="bbox.w3"):
        restore_model(ckpt)


@pytest.mark.parametrize("entry", ["opt.m.bbox.w3", "opt.v.mllm.tok_emb"])
def test_restore_rejects_missing_moment(tmp_path, entry):
    cfg, model, opt, _ = train_briefly()
    path = tmp_path / "moments.ckpt"
    save_checkpoint(path, model, opt, iteration=1)
    ckpt = load_checkpoint(path)
    del ckpt.tensors[entry]
    with pytest.raises(CheckpointError, match=entry):
        restore_model(ckpt)


def test_save_checkpoint_leaves_no_tmp_file(tmp_path):
    cfg, model, opt, _ = train_briefly()
    path = tmp_path / "clean.ckpt"
    save_checkpoint(path, model, opt, iteration=1)
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_oracle_mode_is_all_perfect(monkeypatch):
    # evaluate_model fed ground-truth predictions scores every record perfectly
    cfg, model, records = build_tiny()
    monkeypatch.setattr(trainer, "_predict", lambda model, record: (record.mask.copy(), record.box))
    report, samples = evaluate_model(model, records)
    assert report.count == len(records) == len(samples)
    assert report.dice == pytest.approx(100.0)
    assert report.giou == pytest.approx(100.0)
    assert report.ciou == pytest.approx(100.0)
    assert report.box_iou == pytest.approx(100.0)
    assert report.acc == pytest.approx(100.0)


def test_a_record_that_decodes_without_a_candidate_runs_no_lm_pass(monkeypatch, caplog):
    # the zero score is decided from the decoded ids, before any pass that reads hidden states
    cfg, model, records = build_tiny()
    calls, real = [], mllm.forward_packed

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "decode_greedy", lambda prompt, params, max_len: encode_text("no mark", model.vocab))
    for module in (trainer, mllm):  # mllm.forward calls mllm's own forward_packed
        monkeypatch.setattr(module, "forward_packed", counting)
    pred_mask, pred_box = trainer._predict(model, records[0])
    assert calls == [] and pred_box is None and not pred_mask.any()
    assert "scores zero" in caplog.text


def test_evaluate_untrained_model_runs_and_scores_in_range():
    cfg, model, records = build_tiny()
    report, samples = evaluate_model(model, records)
    assert report.count == len(records)
    for value in (report.dice, report.giou, report.ciou, report.box_iou, report.acc):
        assert 0.0 <= value <= 100.0
    for s in samples:
        assert s.gt_mask.shape == s.pred_mask.shape


# decoded ids, report repr and a digest of the predicted masks and boxes of
# evaluate_model on three records, recorded when the LM's last block first
# computed only the rows a loss reads (ids, masks, Dice and accuracy as
# before; boxes moved by <= 2.9e-12 after the 200 training steps), and again
# when the mask head and the mask and box losses changed their rounding
# (ids, Dice and accuracy as before; boxes moved by <= 3.0e-13)
RECORDED_EVAL = (
    [
        [84, 104, 101, 32, 108, 117, 110, 103, 46, 32, 256, 32, 257, 0],
        [84, 104, 101, 32, 104, 101, 97, 114, 116, 46, 32, 256, 32, 257, 0],
        [84, 104, 101, 32, 104, 101, 97, 114, 116, 46, 32, 256, 32, 257, 0],
    ],
    "MetricReport(dice=59.65937513775036, giou=48.477602868023766, ciou=40.9814323607427, "
    "box_iou=71.28942793437658, acc=66.66666666666667, count=3, per_category={'heart': "
    "{'dice': 79.7153024911032, 'giou': 66.27218934911244, 'ciou': 66.27218934911244, "
    "'box_iou': 99.85585926237766, 'acc': 100.0, 'count': 1}, 'liver': {'dice': "
    "16.99867197875166, 'giou': 9.288824383164005, 'ciou': 9.288824383164005, 'box_iou': "
    "14.16249675490156, 'acc': 0.0, 'count': 1}, 'lung': {'dice': 82.26415094339623, 'giou': "
    "69.87179487179486, 'ciou': 69.87179487179486, 'box_iou': 99.84992778585054, 'acc': 100.0, "
    "'count': 1}})",
    "3899caf18e2fb39f",
)


def test_evaluate_reproduces_recorded_report_and_samples(monkeypatch):
    """Two records trained on with the eval prompt, one unseen; bitwise as recorded."""
    cfg = tiny_config(lr_max=3e-3, warmup_iters=10, total_iters=200, batch_size=2, max_gen_len=40)
    records = synth_records(3, seed=3)
    batch = [
        TrainSample(r, REFERRING_TEMPLATES[0].format(label=r.label), default_answer(r.label, 2), "referring", r.label)
        for r in records[:2]
    ]
    model = init_model(cfg)
    opt = init_opt_state(model.trainable())
    for it in range(cfg.total_iters):
        train_step(model, batch, it, cfg, opt)
    generated, real_decode = [], trainer.decode_greedy
    monkeypatch.setattr(trainer, "decode_greedy", lambda *a: generated.append(real_decode(*a)) or generated[-1])
    report, samples = evaluate_model(model, records)
    digest = hashlib.sha256()
    for s in samples:
        digest.update(s.pred_mask.tobytes())
        digest.update(repr(None if s.pred_box is None else s.pred_box.as_floats()).encode())
    assert (generated, repr(report), digest.hexdigest()[:16]) == RECORDED_EVAL


def test_evaluate_logs_why_a_record_scores_zero(monkeypatch, caplog):
    cfg, model, records = build_tiny()
    record = records[0]
    question = record.qa[0].question
    c1, c2 = model.vocab.candidate_ids
    decodes = iter([[84, c1, 0], [84, c1, c2, c1, 0], [84, c1, c2, 0]])
    monkeypatch.setattr(trainer, "decode_greedy", lambda *args: next(decodes))
    with caplog.at_level("WARNING", logger="medsegdet.trainer"):
        report, samples = evaluate_model(model, [record, record])
    absent, duplicate = (r.getMessage() for r in caplog.records)
    for message in (absent, duplicate):
        assert record.id in message and repr(question) in message
    assert f"candidate token {c2} absent" in absent
    assert f"candidate token {c1} occurs 2 times" in duplicate
    # the report is as before: both records score zero
    assert all(s.pred_box is None and not s.pred_mask.any() for s in samples)
    assert report.dice == report.box_iou == report.acc == 0.0
    caplog.clear()
    with caplog.at_level("WARNING", logger="medsegdet.trainer"):
        _, (clean,) = evaluate_model(model, [record])
    assert clean.pred_box is not None and not caplog.records


def test_evaluate_rejects_empty():
    cfg, model, _ = build_tiny()
    with pytest.raises(ValueError):
        evaluate_model(model, [])
