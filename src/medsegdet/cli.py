"""Command-line entry points: datagen, train, eval, gradcheck.

Each subcommand is a batch job binding the library modules into a
reproducible experiment. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure. A nonzero exit leaves no partial artifacts
behind except log files, and no command ever mutates its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .datagen import (
    DataError,
    ImageRecord,
    MockOracle,
    dataset_stats,
    generate_pipeline,
    read_jsonl,
    record_to_json,
    split_dataset,
    synth_records,
    training_ready,
)
from .decoders import (
    bbox_decode,
    init_bbox_params,
    init_mask_decoder_params,
    mask_decode,
    soft_box_raster,
)
from .fusion import CandidateBundle, FusionConfig, fuse_candidates, init_router_params
from .losses import LossWeights, bbox_loss, mask_loss, sim_loss, text_ce_loss
from .metrics import EvalSample
from .mllm import (
    CandidateAbsentError,
    DuplicateCandidateError,
    LmConfig,
    VocabSpec,
    build_sequence,
    encode_image_patches,
    encode_text,
    expand_vocabulary,
    forward,
    forward_packed,
    image_patches,
    init_params,
)
from .trainer import (
    REFERRING_TEMPLATES,
    CheckpointError,
    Model,
    NonFiniteTrainingError,
    TrainConfig,
    TrainSample,
    answer_ce_loss,
    batch_losses,
    default_answer,
    init_model,
    load_checkpoint,
    one_image_shape,
    reference_maps,
    restore_model,
    run_training,
    save_checkpoint,
    evaluate_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# known-good schedules; "overfit" drives a small training set to high Dice,
# "finetune" continues such a run on the similarity objective gently enough
# that segmentation quality is preserved
PRESETS = {
    "overfit": {
        "mode": "end2end",
        "lr_max": 2e-3,
        "total_iters": 2000,
        "warmup_iters": 100,
        "batch_size": 10,
        "mix_ratio": [1, 0],
    },
    "finetune": {
        "mode": "finetune",
        "lr_max": 3e-5,
        "total_iters": 500,
        "warmup_iters": 100,
        "batch_size": 10,
        "mix_ratio": [1, 0],
    },
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# data the model cannot take: an image or prompt that does not fit it, or
# answers without its candidate tokens
MODEL_DATA_ERRORS = (ShapeError, CandidateAbsentError, DuplicateCandidateError)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_split(path: Path) -> list[ImageRecord]:
    """The records of a split file; a DataError names the file if it is malformed or empty."""
    records = read_jsonl(path)
    if not records:
        raise DataError(f"empty split {path}")
    return records


def _read_model(path) -> Model:
    """The model a checkpoint file holds; a CheckpointError names the file."""
    try:
        return restore_model(load_checkpoint(path))[0]
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc


@contextmanager
def _naming(split: Path):
    """Re-raise data the model cannot take as the same error, naming the split it came from."""
    try:
        yield
    except MODEL_DATA_ERRORS as exc:
        raise type(exc)(f"split {split}: {exc}") from exc


def _write_all_or_nothing(writes: list[tuple[Path, bytes]]) -> None:
    """Stage every artifact, then rename into place; cleans up on failure."""
    staged = []
    try:
        for path, payload in writes:
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(payload)
            staged.append((tmp, path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


# -- datagen ---------------------------------------------------------------------


def _jsonl_bytes(records) -> bytes:
    """One JSON line per record, non-ASCII text escaped; ``datagen.read_jsonl`` reads it back."""
    return "".join(json.dumps(record_to_json(r)) + "\n" for r in records).encode()


def cmd_datagen(args) -> int:
    if args.num_samples <= 0:
        return _fail(EXIT_USAGE, "--num-samples must be positive")
    records = synth_records(args.num_samples, args.seed)
    oracle = MockOracle(seed=args.seed)
    records = generate_pipeline(records, oracle)
    try:
        train, val, test = split_dataset(records, seed=args.seed)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats = dataset_stats(records)
    writes = [
        (out / "train.jsonl", _jsonl_bytes(train)),
        (out / "val.jsonl", _jsonl_bytes(val)),
        (out / "test.jsonl", _jsonl_bytes(test)),
        (out / "stats.json", (json.dumps(stats, indent=2, sort_keys=True) + "\n").encode()),
    ]
    _write_all_or_nothing(writes)
    print(f"wrote {len(train)}/{len(val)}/{len(test)} records under {out}")
    return EXIT_OK


# -- train -----------------------------------------------------------------------


def cmd_train(args) -> int:
    merged: dict = {}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        with open(args.config) as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:  # not JSON, or not text
                return _fail(EXIT_USAGE, f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(overrides, dict):
            return _fail(EXIT_USAGE, f"config {args.config} must be a JSON object")
        merged.update(overrides)
    if args.mode:
        merged["mode"] = args.mode
    try:
        cfg = TrainConfig.from_dict(merged)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"bad config: {exc}")

    if cfg.mode == "finetune" and not args.init:
        return _fail(EXIT_USAGE, "finetune mode requires --init with an end2end checkpoint")

    data_file = Path(args.data) / "train.jsonl"
    records = _read_split(data_file)
    with _naming(data_file):
        one_image_shape(records)  # a training batch runs as one (B, H, W) stack
    reasoning = training_ready(records)
    if cfg.mix_ratio[1] > 0 and not reasoning:
        raise DataError(f"split {data_file}: the mix asks for reasoning samples but no record carries QA pairs")

    if args.init:
        model = _read_model(args.init)
        # the config must build the warm start's tensors; n_heads splits d_model but fixes no shape
        have = {name: t.shape for name, t in model.named().items()}
        want = {name: t.shape for name, t in init_model(cfg).named().items()}
        bad = sorted(name for name in have.keys() | want.keys() if have.get(name) != want.get(name))
        if bad:
            return _fail(EXIT_USAGE, f"--init architecture mismatch on tensor {bad[0]}: "
                                     f"checkpoint {have.get(bad[0])} != config {want.get(bad[0])}")
        if model.cfg.n_heads != cfg.n_heads:
            return _fail(EXIT_USAGE, f"--init architecture mismatch on n_heads: {model.cfg.n_heads} != {cfg.n_heads}")
        model = replace(model, cfg=cfg)  # weights warm-started, schedule fresh
    else:
        model = init_model(cfg)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    print(f"blas: {blas['name']} {blas['version']}; {threads}")  # results are bitwise only for one BLAS setup
    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    with open(log_path, "w") as log_file, _naming(data_file):

        def log_fn(scalars):
            log_file.write(json.dumps(scalars, sort_keys=True) + "\n")

        opt, _ = run_training(model, records, reasoning, cfg, log_fn=log_fn)
    save_checkpoint(args.out, model, opt, iteration=cfg.total_iters)
    print(f"wrote {args.out} and {log_path}")
    return EXIT_OK


# -- eval ------------------------------------------------------------------------


def sample_to_json(s: EvalSample) -> dict:
    """Loss-free wire form of one evaluation sample (masks bit-packed)."""
    H, W = s.gt_mask.shape
    return {
        "category": s.category,
        "shape": [H, W],
        "pred_mask": np.packbits(s.pred_mask.astype(bool).reshape(-1)).tobytes().hex(),
        "gt_mask": np.packbits(s.gt_mask.astype(bool).reshape(-1)).tobytes().hex(),
        "pred_box": list(s.pred_box.as_floats()) if s.pred_box is not None else None,
        "gt_box": list(s.gt_box.as_floats()),
    }


def cmd_eval(args) -> int:
    data_file = Path(args.data) / f"{args.split}.jsonl"
    records = _read_split(data_file)
    model = _read_model(args.ckpt)
    with _naming(data_file):
        report, samples = evaluate_model(model, records)
    report_path = Path(args.report)
    dump_path = Path(args.dump) if args.dump else Path(str(args.report) + ".samples.jsonl")
    dump_payload = "".join(json.dumps(sample_to_json(s), sort_keys=True) + "\n" for s in samples)
    _write_all_or_nothing(
        [
            (report_path, (report.to_text() + "\n").encode()),
            (dump_path, dump_payload.encode()),
        ]
    )
    print(report.to_text())
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------


def gradcheck_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference audit of every differentiable unit; name -> max rel err.

    One generator draws each unit's inputs and then the coordinates that
    ``autodiff.finite_difference_check`` probes for that unit.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}
    w = LossWeights()

    def check(scalar_fn, tensors, max_coords=48):
        return ad.finite_difference_check(scalar_fn, tensors, max_coords, rng)

    # losses: text cross-entropy
    logits = Tensor(rng.normal(size=(6, 12)), requires_grad=True)
    targets = [int(t) for t in rng.integers(0, 12, size=6)]
    mask = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    results["loss.text_ce"] = check(lambda: text_ce_loss(logits, targets, mask), [logits])

    # losses: mask BCE and Dice on a batch of two logit grids
    mlogits = Tensor(rng.normal(size=(2, 6, 7)), requires_grad=True)
    gt_mask = rng.uniform(size=(2, 6, 7)) > 0.6
    gt_mask[:, 2, 3] = True  # keep each foreground nonempty
    # each part is checked through the fused total, with the other part's weight 0
    bce_only, dice_only = replace(w, dice=0.0), replace(w, bce=0.0)
    results["loss.bce"] = check(lambda: mask_loss(mlogits, gt_mask, bce_only)[2], [mlogits])
    results["loss.dice"] = check(lambda: mask_loss(mlogits, gt_mask, dice_only)[2], [mlogits])

    # losses: box L1 and GIoU through a batch of two live corner rows
    corners = Tensor([[0.15, 0.25, 0.70, 0.85], [0.05, 0.40, 0.50, 0.60]], requires_grad=True)
    gt_boxes = [[0.30, 0.20, 0.80, 0.75], [0.10, 0.30, 0.60, 0.90]]
    l1_only, giou_only = replace(w, giou=0.0), replace(w, l1=0.0)
    results["loss.l1"] = check(lambda: bbox_loss(corners, gt_boxes, l1_only)[2], [corners])
    results["loss.giou"] = check(lambda: bbox_loss(corners, gt_boxes, giou_only)[2], [corners])

    # losses: similarity JS and MSE over two maps, each through the fused total (reference maps are targets)
    sim_pred = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
    sim_ref = Tensor(rng.normal(size=(2, 16)))
    js_only, mse_only = replace(w, mse=0.0), replace(w, js=0.0)
    results["loss.js"] = check(lambda: sim_loss(sim_pred, sim_ref, js_only)[2], [sim_pred])
    results["loss.mse"] = check(lambda: sim_loss(sim_pred, sim_ref, mse_only)[2], [sim_pred])

    # fusion, soft mode: two samples' candidates and both router MLPs
    fcfg = FusionConfig(n=3, mode="soft", router_hidden=4)
    router = init_router_params(fcfg, d=8, seed=seed + 1)
    cands = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    bundle = CandidateBundle(candidates=cands)
    mix_a = rng.normal(size=(2, 8))
    mix_b = rng.normal(size=(2, 8))

    def fusion_scalar():
        fused = fuse_candidates(bundle, router, fcfg)
        return (fused.h_seg * mix_a).sum() + (fused.h_det * mix_b).sum()

    results["fusion.soft"] = check(fusion_scalar, [cands, *router.named().values()])

    # bbox decoder MLP: a random corner mix catches permuted outputs
    bparams = init_bbox_params(8, hidden=6, seed=seed + 2)
    h_det = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    box_mix = rng.normal(size=(2, 4))
    results["decoder.bbox"] = check(
        lambda: (bbox_decode(h_det, bparams) * box_mix).sum(), [h_det, *bparams.named().values()]
    )

    # soft box rasterization wrt live corners
    rcorners = Tensor([[0.20, 0.30, 0.65, 0.80], [0.10, 0.05, 0.50, 0.45]], requires_grad=True)
    raster_mix = rng.normal(size=(2, 9, 11))

    def raster_scalar():
        return (soft_box_raster(rcorners, 9, 11, sharpness=25.0) * raster_mix).sum()

    results["decoder.raster"] = check(raster_scalar, [rcorners])

    # mask decoder end to end: projection, prompts, box gates, and its own params
    images = rng.uniform(size=(2, 16, 16))
    projection = Tensor(rng.normal(scale=0.5, size=(16, 6)), requires_grad=True)
    mparams = init_mask_decoder_params(feat_dim=6, prompt_dim=5, seed=seed + 3)
    h_seg = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    mcorners = Tensor([[0.10, 0.20, 0.75, 0.90], [0.30, 0.15, 0.85, 0.60]], requires_grad=True)
    mask_mix = rng.normal(size=(2, 16, 16))

    def mask_scalar():
        logits = mask_decode((image_patches(images, 4), projection), h_seg, mcorners, mparams, (16, 16), 50.0)
        return (logits * mask_mix).sum()

    mask_tensors = [projection, h_seg, mcorners, *mparams.named().values()]
    results["decoder.mask"] = check(mask_scalar, mask_tensors)

    # 2-block toy LM: full teacher-forced cross-entropy wrt every trainable tensor
    lm_cfg = LmConfig(d_model=16, n_blocks=2, n_heads=2, patch_size=8, max_seq=64)
    vocab = VocabSpec(256, 2)
    lm = expand_vocabulary(init_params(lm_cfg, seed=seed + 4), 2, seed=seed + 5)
    lm_image = rng.uniform(size=(16, 16))
    prompt_ids = encode_text("seg ab", vocab)
    cand_ids = [vocab.base_size, vocab.base_size + 1]
    gen_ids = encode_text("ok ", vocab) + cand_ids

    def lm_scalar():
        patches = encode_image_patches(lm_image, lm_cfg.patch_size, lm.patch_proj)
        seq = build_sequence(patches, prompt_ids, gen_ids, vocab)
        _, logits = forward(seq, lm)
        T = len(seq.token_ids)
        targets = seq.token_ids[1:]
        ce_mask = [1.0 if t + 1 >= seq.gen_start else 0.0 for t in range(T - 1)]
        return text_ce_loss(logits[0 : T - 1], targets, ce_mask)

    lm_tensors = [t for t in lm.named("lm").values() if t.requires_grad]
    results["mllm.2block"] = check(lm_scalar, lm_tensors, max_coords=24)

    # the same LM over two packed sequences of different lengths, the first
    # with image patches, through the answer cross-entropy's rows only
    no_patches = Tensor(np.zeros((0, lm_cfg.d_model)))
    text_only = (no_patches, encode_text("b?", vocab), encode_text("no", vocab) + cand_ids[::-1])

    def packed_scalar():
        patches = encode_image_patches(lm_image, lm_cfg.patch_size, lm.patch_proj)
        seqs = [build_sequence(patches, prompt_ids, gen_ids, vocab), build_sequence(*text_only, vocab)]
        rows, loss_of = answer_ce_loss(seqs, lm.out_proj)
        return loss_of(forward_packed(seqs, lm, rows=rows), rows)

    results["mllm.packed"] = check(packed_scalar, lm_tensors, max_coords=24)

    # a whole training batch's loss in both modes, through the code that
    # train_step runs; the fine-tune reference maps are computed once and
    # held fixed, as the tape treats them as constants
    tcfg = TrainConfig(
        d_model=16, n_blocks=1, n_heads=2, mllm_patch=8, vision_patch=2, vision_dim=4,
        max_seq=64, batch_size=3, seed=seed + 6,
    )
    model = init_model(tcfg)
    batch = [
        TrainSample(r, REFERRING_TEMPLATES[0].format(label=r.label), default_answer(r.label, 2), "referring", r.label)
        for r in synth_records(3, seed + 7, hw=(16, 16))
    ]
    step_tensors = list(model.trainable().values())
    results["train.step"] = check(lambda: batch_losses(model, batch).total, step_tensors, max_coords=3)
    sim_ref = reference_maps(model, batch)
    results["train.step.ft"] = check(lambda: batch_losses(model, batch, sim_ref).total, step_tensors, max_coords=3)

    return results


def cmd_gradcheck(args) -> int:
    results = gradcheck_suite(args.seed)
    failed = []
    print(f"{'unit':<16} {'max_rel_err':>12}  status")
    for name, err in results.items():
        ok = np.isfinite(err) and err < args.tolerance
        print(f"{name:<16} {err:>12.3e}  {'pass' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"gradcheck failed for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------------


def _seed(text: str) -> int:
    """A seed argument: a nonnegative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="medsegdet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("datagen", help="generate a synthetic QA dataset")
    d.add_argument("--out", required=True)
    d.add_argument("--num-samples", type=int, required=True)
    d.add_argument("--seed", type=_seed, default=0)
    d.set_defaults(func=cmd_datagen)

    t = sub.add_parser("train", help="train a model and write a checkpoint")
    t.add_argument("--data", required=True)
    t.add_argument("--config")
    t.add_argument("--mode", choices=["end2end", "finetune"])
    t.add_argument("--out", required=True)
    t.add_argument("--init", help="checkpoint to warm-start from")
    t.add_argument("--log", help="loss log path (default: <out>.log)")
    t.add_argument("--preset", choices=sorted(PRESETS))
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", choices=["train", "val", "test"], default="val")
    e.add_argument("--report", required=True)
    e.add_argument("--dump", help="per-sample dump path (default: <report>.samples.jsonl)")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--tolerance", type=float, default=1e-4)
    g.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, which here means a data error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:  # the exit code of each error a command lets through
        return args.func(args)
    except NonFiniteTrainingError as exc:
        return _fail(EXIT_NUMERIC, f"training diverged at {exc}")
    except (OSError, DataError, CheckpointError, *MODEL_DATA_ERRORS) as exc:  # a file, or data, it cannot use
        return _fail(EXIT_DATA, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
