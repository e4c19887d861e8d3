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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datagen import (
    MockOracle,
    dataset_stats,
    generate_pipeline,
    read_jsonl,
    split_dataset,
    synth_records,
    training_ready,
)
from .decoders import (
    BBox,
    bbox_decode,
    dense_features,
    init_bbox_params,
    init_mask_decoder_params,
    mask_decode,
    soft_box_raster,
)
from .fusion import CandidateBundle, FusionConfig, fuse_candidates, init_router_params
from .losses import LossWeights, bbox_loss, mask_loss, sim_loss, text_ce_loss
from .metrics import EvalSample
from .mllm import (
    LmConfig,
    VocabSpec,
    build_sequence,
    encode_image_patches,
    encode_text,
    expand_vocabulary,
    init_params,
)
from .trainer import (
    CheckpointError,
    NonFiniteTrainingError,
    TrainConfig,
    init_model,
    load_checkpoint,
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

# fields that fix tensor shapes; a warm start must agree on all of them
ARCH_FIELDS = ("d_model", "n_blocks", "n_heads", "mllm_patch", "vision_patch", "vision_dim", "max_seq")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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
    # canonical serializer, matching write_jsonl byte for byte
    from .datagen import record_to_json

    return "".join(json.dumps(record_to_json(r)) + "\n" for r in records).encode()


def cmd_datagen(args) -> int:
    if args.num_samples <= 0:
        return _fail(EXIT_USAGE, "--num-samples must be positive")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(EXIT_DATA, f"cannot create output directory: {exc}")

    records = synth_records(args.num_samples, args.seed)
    oracle = MockOracle(seed=args.seed)
    records = generate_pipeline(records, oracle)
    try:
        train, val, test = split_dataset(records, seed=args.seed)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    stats = dataset_stats(records)
    writes = [
        (out / "train.jsonl", _jsonl_bytes(train)),
        (out / "val.jsonl", _jsonl_bytes(val)),
        (out / "test.jsonl", _jsonl_bytes(test)),
        (out / "stats.json", (json.dumps(stats, indent=2, sort_keys=True) + "\n").encode()),
    ]
    try:
        _write_all_or_nothing(writes)
    except OSError as exc:
        return _fail(EXIT_DATA, f"cannot write dataset: {exc}")
    print(f"wrote {len(train)}/{len(val)}/{len(test)} records under {out}")
    return EXIT_OK


# -- train -----------------------------------------------------------------------


def cmd_train(args) -> int:
    merged: dict = {}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        try:
            with open(args.config) as fh:
                merged.update(json.load(fh))
        except OSError as exc:
            return _fail(EXIT_DATA, f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            return _fail(EXIT_USAGE, f"config is not valid JSON: {exc}")
    if args.mode:
        merged["mode"] = args.mode
    try:
        cfg = TrainConfig.from_dict(merged)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"bad config: {exc}")

    if cfg.mode == "finetune" and not args.init:
        return _fail(EXIT_USAGE, "finetune mode requires --init with an end2end checkpoint")

    data_file = Path(args.data) / "train.jsonl"
    if not data_file.exists():
        return _fail(EXIT_DATA, f"missing training split {data_file}")
    records = read_jsonl(data_file)
    if not records:
        return _fail(EXIT_DATA, f"empty training split {data_file}")

    referring = records
    reasoning = training_ready(records)
    if cfg.mix_ratio[1] > 0 and not reasoning:
        return _fail(EXIT_DATA, "mix requests reasoning samples but no record carries QA pairs")
    if not reasoning:
        reasoning = referring  # ratio 0: never drawn, sampler still needs a pool

    if args.init:
        try:
            ckpt = load_checkpoint(args.init)
        except (OSError, CheckpointError) as exc:
            return _fail(EXIT_DATA, f"cannot load --init checkpoint: {exc}")
        for field in ARCH_FIELDS:
            have = getattr(ckpt.config, field)
            want = getattr(cfg, field)
            if have != want:
                return _fail(EXIT_USAGE, f"--init architecture mismatch on {field}: {have} != {want}")
        if ckpt.config.fusion.n != cfg.fusion.n:
            return _fail(EXIT_USAGE, "--init architecture mismatch on fusion.n")
        model, _ = restore_model(ckpt)
        model = replace(model, cfg=cfg)  # weights warm-started, schedule fresh
    else:
        model = init_model(cfg)

    log_path = Path(args.log) if args.log else Path(str(args.out) + ".log")
    with open(log_path, "w") as log_file:

        def log_fn(scalars):
            log_file.write(json.dumps(scalars, sort_keys=True) + "\n")

        try:
            opt, _ = run_training(model, referring, reasoning, cfg, log_fn=log_fn)
        except NonFiniteTrainingError as exc:
            return _fail(EXIT_NUMERIC, f"training diverged at {exc}")
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


def sample_from_json(obj: dict) -> EvalSample:
    H, W = obj["shape"]

    def unpack(hexstr):
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8))
        return bits[: H * W].reshape(H, W).astype(bool)

    return EvalSample(
        pred_mask=unpack(obj["pred_mask"]),
        gt_mask=unpack(obj["gt_mask"]),
        pred_box=BBox(*obj["pred_box"]) if obj["pred_box"] is not None else None,
        gt_box=BBox(*obj["gt_box"]),
        category=obj["category"],
    )


def cmd_eval(args) -> int:
    data_file = Path(args.data) / f"{args.split}.jsonl"
    if not data_file.exists():
        return _fail(EXIT_DATA, f"missing split {data_file}")
    records = read_jsonl(data_file)
    if not records:
        return _fail(EXIT_DATA, f"empty split {data_file}")
    try:
        ckpt = load_checkpoint(args.ckpt)
    except (OSError, CheckpointError) as exc:
        return _fail(EXIT_DATA, f"cannot load checkpoint: {exc}")
    model, _ = restore_model(ckpt)

    report, samples = evaluate_model(model, records, oracle_mode=args.oracle_mode)
    report_path = Path(args.report)
    dump_path = Path(args.dump) if args.dump else Path(str(args.report) + ".samples.jsonl")
    dump_payload = "".join(json.dumps(sample_to_json(s), sort_keys=True) + "\n" for s in samples)
    try:
        _write_all_or_nothing(
            [
                (report_path, (report.to_text() + "\n").encode()),
                (dump_path, dump_payload.encode()),
            ]
        )
    except OSError as exc:
        return _fail(EXIT_DATA, f"cannot write report: {exc}")
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

    # losses: mask BCE and Dice on raw logits
    from .decoders import MaskLogits

    mlogits = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    gt_mask = rng.uniform(size=(6, 7)) > 0.6
    gt_mask[2, 3] = True  # keep the foreground nonempty
    results["loss.bce"] = check(lambda: mask_loss(MaskLogits(mlogits), gt_mask, w)[0], [mlogits])
    results["loss.dice"] = check(lambda: mask_loss(MaskLogits(mlogits), gt_mask, w)[1], [mlogits])

    # losses: box L1 and GIoU through live corner tensors
    corners = [Tensor(v, requires_grad=True) for v in (0.15, 0.25, 0.70, 0.85)]
    gt_box = BBox(0.30, 0.20, 0.80, 0.75)
    pred_box = BBox(*corners)
    results["loss.l1"] = check(lambda: bbox_loss(pred_box, gt_box, w)[0], corners)
    results["loss.giou"] = check(lambda: bbox_loss(pred_box, gt_box, w)[1], corners)

    # losses: similarity JS and MSE (reference branch is detached by contract)
    sim_pred = Tensor(rng.normal(size=16), requires_grad=True)
    sim_ref = Tensor(rng.normal(size=16))
    results["loss.js"] = check(lambda: sim_loss(sim_pred, sim_ref, w)[0], [sim_pred])
    results["loss.mse"] = check(lambda: sim_loss(sim_pred, sim_ref, w)[1], [sim_pred])

    # fusion, soft mode: candidates and both router MLPs
    fcfg = FusionConfig(n=3, mode="soft", router_hidden=4)
    router = init_router_params(fcfg, d=8, seed=seed + 1)
    cands = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    bundle = CandidateBundle(
        candidates=cands,
        h_img=Tensor(rng.normal(size=(5, 8))),
        h_txt=Tensor(rng.normal(size=(2, 8))),
    )
    mix_a = Tensor(rng.normal(size=8))
    mix_b = Tensor(rng.normal(size=8))

    def fusion_scalar():
        fused = fuse_candidates(bundle, router, fcfg)
        return (fused.h_seg * mix_a).sum() + (fused.h_det * mix_b).sum()

    results["fusion.soft"] = check(fusion_scalar, [cands, *router.named().values()])

    # bbox decoder MLP: corner mix catches permuted outputs
    bparams = init_bbox_params(8, hidden=6, seed=seed + 2)
    h_det = Tensor(rng.normal(size=8), requires_grad=True)

    def bbox_scalar():
        bx = bbox_decode(h_det, bparams)
        return bx.x1 + bx.y1 * 2.0 + bx.x2 * 3.0 + bx.y2 * 4.0

    results["decoder.bbox"] = check(bbox_scalar, [h_det, *bparams.named().values()])

    # soft box rasterization wrt live corners
    rcorners = [Tensor(v, requires_grad=True) for v in (0.20, 0.30, 0.65, 0.80)]
    raster_mix = Tensor(rng.normal(size=(9, 11)))

    def raster_scalar():
        return (soft_box_raster(BBox(*rcorners), 9, 11, sharpness=25.0) * raster_mix).sum()

    results["decoder.raster"] = check(raster_scalar, rcorners)

    # mask decoder end to end: projection, prompt, box gate, and its own params
    image = rng.uniform(size=(16, 16))
    projection = Tensor(rng.normal(scale=0.5, size=(16, 6)), requires_grad=True)
    mparams = init_mask_decoder_params(feat_dim=6, prompt_dim=5, seed=seed + 3)
    h_seg = Tensor(rng.normal(size=5), requires_grad=True)
    mcorners = [Tensor(v, requires_grad=True) for v in (0.10, 0.20, 0.75, 0.90)]
    mask_mix = Tensor(rng.normal(size=(16, 16)))

    def mask_scalar():
        feats = dense_features(image, 4, projection)
        out = mask_decode(feats, h_seg, BBox(*mcorners), mparams, (16, 16))
        return (out.grid * mask_mix).sum()

    mask_tensors = [projection, h_seg, *mcorners, *mparams.named().values()]
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
        from .mllm import forward

        _, logits = forward(seq, lm)
        T = len(seq.token_ids)
        targets = seq.token_ids[1:]
        ce_mask = [1.0 if t + 1 >= seq.gen_start else 0.0 for t in range(T - 1)]
        return text_ce_loss(logits[0 : T - 1], targets, ce_mask)

    lm_tensors = [t for t in lm.named("lm").values() if t.requires_grad]
    results["mllm.2block"] = check(lm_scalar, lm_tensors, max_coords=24)

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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="medsegdet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("datagen", help="generate a synthetic QA dataset")
    d.add_argument("--out", required=True)
    d.add_argument("--num-samples", type=int, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--oracle", choices=["mock"], default="mock")
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
    e.add_argument("--oracle-mode", action="store_true", help="score ground truth against itself")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tolerance", type=float, default=1e-4)
    g.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
