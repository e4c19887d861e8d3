"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (the
eval-greedy model is trained once, in the constructor), runs one
closed-loop operation per ``op`` call and returns what the operation
produced, and checks that output in ``check_op`` against oracles written
here, not against recorded output. ``check_run`` holds the checks that
speak of a whole run. Every call into the package goes through a module
attribute (``trainer.train_step``, ``cli.main``, ...), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
from pathlib import Path

import numpy as np

from medsegdet import autodiff as ad
from medsegdet import cli, datagen, mllm, trainer

FD_EPS = 1e-6
FD_TOL = 1e-4  # the ROADMAP's gradcheck tolerance, relative to max(|g|, |central|, floor)
FD_FLOOR = 1e-3
FD_PROBES = 3  # smooth probes per parameter group
FD_TRIES = 8  # random candidates per group beyond the largest gradient
PART_RTOL = 1e-9


def _loss_identities(report, weights) -> str | None:
    """Every loss finite; each composite equals the weighted sum of its parts."""
    s = report.scalars()
    bad = [k for k, v in s.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite losses {bad}"
    expect = {
        "total": s["txt"] + s["mask"] + s["bbox"] + s.get("sim", 0.0),
        "mask": weights.bce * s["bce"] + weights.dice * s["dice"],
        "bbox": weights.l1 * s["l1"] + weights.giou * s["giou"],
    }
    if "sim" in s:
        expect["sim"] = weights.js * s["js"] + weights.mse * s["mse"]
    for k, v in expect.items():
        if not math.isclose(s[k], v, rel_tol=PART_RTOL, abs_tol=1e-12):
            return f"{k} = {s[k]!r} but its parts sum to {v!r}"
    return None


def _gradient_check(model, cfg, batch, rng) -> list[str]:
    """Central differences on a few coordinates of each parameter group.

    The loss is ``train_step``'s total with the AdamW update switched off.
    In fine-tune mode the reference similarity map is held at its value
    from the unperturbed pass, as the tape treats it as a constant. On a
    smooth stretch central differences at steps FD_EPS and FD_EPS / 2
    agree to O(FD_EPS ** 2) whatever the curvature; where they disagree,
    a kink (relu, clamp) lies within FD_EPS, central differences say
    nothing there, and the probe is replaced by the next candidate.
    """
    params = model.trainable()
    opt = trainer.init_opt_state(params)
    real_adamw, real_sim = trainer.adamw_step, trainer.sim_loss
    refs: list = []
    replay = iter(())

    def capture_sim(pred, ref, w):
        refs.append(ref)
        return real_sim(pred, ref, w)

    def replay_sim(pred, ref, w):
        return real_sim(pred, next(replay), w)

    def loss() -> float:
        nonlocal replay
        replay = iter(refs)
        return float(trainer.train_step(model, batch, 0, cfg, opt).total.data)

    trainer.adamw_step = lambda *args, **kwargs: []
    try:
        trainer.sim_loss = capture_sim
        mid = float(trainer.train_step(model, batch, 0, cfg, opt).total.data)
        grads = {n: p.grad.copy() for n, p in params.items()}
        trainer.sim_loss = replay_sim
        # below this scale the error is absolute: rounding in a difference
        # of two losses of size |mid| must stay far under FD_TOL * floor
        floor = max(FD_FLOOR, FD_TOL * abs(mid))

        problems = []
        groups: dict[str, list[str]] = {}
        for name in params:
            groups.setdefault(name.split(".")[0], []).append(name)
        for group, names in sorted(groups.items()):
            mags = np.abs(np.concatenate([grads[n].reshape(-1) for n in names]))
            ends = np.cumsum([grads[n].size for n in names])
            # the largest gradient first, then random ones above the floor,
            # so that each probe tests a relative error
            big = np.flatnonzero(mags >= floor)
            candidates = [int(np.argmax(mags))] + [int(j) for j in rng.permutation(big)[:FD_TRIES]]
            tested = 0
            for j in candidates:
                if tested == FD_PROBES:
                    break
                t = int(np.searchsorted(ends, j, side="right"))
                name, i = names[t], j - (int(ends[t - 1]) if t else 0)
                flat = params[name].data.reshape(-1)
                keep = flat[i]
                central = []
                for h in (FD_EPS, FD_EPS / 2):
                    flat[i] = keep + h
                    hi = loss()
                    flat[i] = keep - h
                    lo = loss()
                    central.append((hi - lo) / (2 * h))
                flat[i] = keep
                num, half = central
                g = grads[name].reshape(-1)[i]
                scale = max(floor, abs(g), abs(num))
                if abs(num - half) > FD_TOL * scale / 2:
                    continue
                tested += 1
                if not abs(g - num) <= FD_TOL * scale:
                    problems.append(f"gradient of {name}[{i}]: tape {g!r}, central difference {num!r}")
            if tested == 0:
                problems.append(f"no smooth coordinate found in parameter group {group}")
        return problems
    finally:
        trainer.adamw_step, trainer.sim_loss = real_adamw, real_sim
        ad.reset_tape()


class Workload:
    """Defaults: one operation per round, no per-op counts, no run checks."""

    round_size = 1
    warmup_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def counts(self) -> dict:
        """Per-layer counts of the last operation, for the traced run."""
        return {}

    def check_setup(self) -> list[str]:
        return []

    def check_run(self) -> list[str]:
        return []


class _Train(Workload):
    """Shared body of the two training workloads."""

    warmup_rounds = 2

    def op(self):
        batch = [next(self.sampler) for _ in range(self.cfg.batch_size)]
        report = trainer.train_step(self.model, batch, self.it, self.cfg, self.opt)
        self.it += 1
        return self.cfg.batch_size, report

    def counts(self) -> dict:
        return {"autodiff.tape_nodes": len(ad.active_tape().nodes)}

    def check_op(self, report) -> str | None:
        problem = _loss_identities(report, self.cfg.weights)
        if problem is None and not all(
            np.array_equal(t.data, self.frozen[n]) for n, t in self.model.frozen().items()
        ):
            problem = "a frozen tensor changed"
        self.totals.append(report.scalars()["total"])
        return problem

    def _build(self, cfg, records, reasoning) -> None:
        self.cfg = cfg
        self.model = trainer.init_model(cfg)
        self.opt = trainer.init_opt_state(self.model.trainable())
        self.sampler = trainer.mixed_sampler(
            records, reasoning, cfg.mix_ratio, seed=self.seed, n_candidates=cfg.fusion.n
        )
        self.frozen = {n: t.data.copy() for n, t in self.model.frozen().items()}
        self.it = 0
        self.totals: list[float] = []

    def check_run(self) -> list[str]:
        batch = [next(self.sampler) for _ in range(2)]
        rng = np.random.default_rng(self.seed)
        problems = _gradient_check(self.model, self.cfg, batch, rng)
        if not all(np.array_equal(t.data, self.frozen[n]) for n, t in self.model.frozen().items()):
            problems.append("a frozen tensor changed during the gradient check")
        return problems


class TrainOverfit(_Train):
    """The overfit preset: end2end, referring-only, 16 synthetic 64x64 records."""

    def setup(self, workdir: Path) -> None:
        cfg = trainer.TrainConfig.from_dict({**cli.PRESETS["overfit"], "seed": self.seed})
        records = datagen.synth_records(16, self.seed)
        self._build(cfg, records, records)

    def check_run(self) -> list[str]:
        problems = super().check_run()
        k = 5
        first, last = np.mean(self.totals[:k]), np.mean(self.totals[-k:])
        if len(self.totals) < 2 * k or not last < first:
            problems.append(f"loss did not fall: first {k} steps {first:.4f}, last {k} {last:.4f}")
        return problems


class TrainReasoningFt(_Train):
    """Fine-tune mode on reasoning QA only, 16 records from the datagen pipeline."""

    def setup(self, workdir: Path) -> None:
        cfg = trainer.TrainConfig.from_dict(
            {**cli.PRESETS["finetune"], "mix_ratio": [0, 1], "seed": self.seed}
        )
        records = datagen.synth_records(16, self.seed)
        records = datagen.generate_pipeline(records, datagen.MockOracle(seed=self.seed), threads=1)
        self._build(cfg, records, datagen.training_ready(records))


# Evaluation fixture: every step trains on all records with the prompt that
# evaluation asks. Over seeds 0-9 every record decoded cleanly after at
# most 120 steps; 160 leaves a margin for changes that alter rounding.
EVAL_RECORDS = 8
FIXTURE_STEPS = 160


class EvalGreedy(Workload):
    """``evaluate_model`` one record at a time over the records trained on."""

    round_size = EVAL_RECORDS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records = datagen.synth_records(EVAL_RECORDS, seed)
        cfg = trainer.TrainConfig.from_dict({
            **cli.PRESETS["overfit"], "total_iters": FIXTURE_STEPS, "warmup_iters": 50,
            "batch_size": EVAL_RECORDS, "seed": seed,
        })
        batch = [
            trainer.TrainSample(
                r, trainer.REFERRING_TEMPLATES[0].format(label=r.label),
                trainer.default_answer(r.label, cfg.fusion.n), "referring", r.label,
            )
            for r in self.records
        ]
        self.trained = trainer.init_model(cfg)
        opt = trainer.init_opt_state(self.trained.trainable())
        for it in range(cfg.total_iters):
            trainer.train_step(self.trained, batch, it, cfg, opt)
        self.trained_opt = opt
        self.generated: list = []
        self.first: dict[int, tuple] = {}
        self.next = 0
        # the decoder's output is not part of the eval result; keep a copy
        real_decode = trainer.decode_greedy

        def capture(prompt, params, max_len, *args, **kwargs):
            ids = real_decode(prompt, params, max_len, *args, **kwargs)
            self.generated.append((prompt, list(ids), max_len))
            return ids

        trainer.decode_greedy = capture

    def setup(self, workdir: Path) -> None:
        path = workdir / "eval.ckpt"
        trainer.save_checkpoint(path, self.trained, self.trained_opt, iteration=FIXTURE_STEPS)
        self.model, _ = trainer.restore_model(trainer.load_checkpoint(path))

    def check_setup(self) -> list[str]:
        saved = self.trained.named()
        if all(np.array_equal(t.data, saved[n].data) for n, t in self.model.named().items()):
            return []
        return ["checkpoint round trip changed a tensor"]

    def op(self):
        k = self.next % EVAL_RECORDS
        self.next += 1
        self.generated.clear()
        report, samples = trainer.evaluate_model(self.model, [self.records[k]])
        return 1, (k, report, samples, list(self.generated))

    def check_op(self, out) -> str | None:
        k, report, samples, generated = out
        record = self.records[k]
        if len(generated) != 1 or len(samples) != 1:
            return f"record {k}: expected one decode and one sample"
        prompt, ids, max_len = generated[0]
        vocab = self.model.vocab
        counts = [ids.count(c) for c in vocab.candidate_ids]
        if counts != [1] * len(counts):
            return f"record {k}: candidate tokens occur {counts} times"
        if ids[-1] != mllm.EOS_ID:
            return f"record {k}: no EOS within {max_len} tokens"
        # greedy decoding must agree with one teacher-forced pass
        seq = mllm.build_sequence(prompt.patch_embeddings, prompt.token_ids, ids, vocab)
        with ad.no_grad():
            _, logits = mllm.forward(seq, self.model.lm)
        start = len(prompt.token_ids) - 1
        argmax = np.argmax(logits.data[start : start + len(ids)], axis=1).tolist()
        if argmax != ids:
            return f"record {k}: teacher-forced argmax {argmax} != generated {ids}"
        s = samples[0]
        if s.pred_box is None:
            return f"record {k}: no box"
        x1, y1, x2, y2 = s.pred_box.as_floats()
        if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0):
            return f"record {k}: box {(x1, y1, x2, y2)} out of order"
        problem = _check_report(report, s.pred_mask, record.mask, s.pred_box.as_floats(), record.box.as_floats())
        if problem:
            return f"record {k}: {problem}"
        key = (tuple(ids), s.pred_mask.tobytes(), s.pred_box.as_floats())
        if self.first.setdefault(k, key) != key:
            return f"record {k}: output differs from its first evaluation"
        return None


_GRID = (np.arange(100_000) + 0.5) / 100_000


def _cells(lo: float, hi: float) -> int:
    """Cells of a 100,000-cell unit grid whose centres lie in [lo, hi]."""
    return int(np.count_nonzero((_GRID >= lo) & (_GRID <= hi)))


def _check_report(report, pred, gt, pbox, gbox) -> str | None:
    """Recompute one sample's metrics by counting pixels and grid cells."""
    inter = int(np.sum(pred & gt))
    union = int(np.sum(pred | gt))
    p, g = int(np.sum(pred)), int(np.sum(gt))
    iou = inter / union if union else 1.0
    dice = 2 * inter / (p + g) if p + g else 1.0
    # a box covers the product of its cell counts along x and y
    (px1, py1, px2, py2), (gx1, gy1, gx2, gy2) = pbox, gbox
    box_inter = _cells(max(px1, gx1), min(px2, gx2)) * _cells(max(py1, gy1), min(py2, gy2))
    box_union = _cells(px1, px2) * _cells(py1, py2) + _cells(gx1, gx2) * _cells(gy1, gy2) - box_inter
    box_iou = box_inter / box_union if box_union else 0.0
    want = {"dice": dice, "giou": iou, "ciou": iou, "box_iou": box_iou}
    tol = {"dice": 1e-9, "giou": 1e-9, "ciou": 1e-9, "box_iou": 1e-3}
    for name, v in want.items():
        if abs(getattr(report, name) - 100.0 * v) > 100.0 * tol[name]:
            return f"report {name} {getattr(report, name)!r} != pixel count {100.0 * v!r}"
    acc = 100.0 if box_iou >= 0.5 else 0.0
    if abs(box_iou - 0.5) > 1e-3 and report.acc != acc:
        return f"report acc {report.acc!r} != {acc!r}"
    return None


DATAGEN_RECORDS = 200
_CK = re.compile(r"<c(\d+)>")


class DatagenRoundtrip(Workload):
    """``medsegdet datagen`` into a scratch directory, then read every split back."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first_bytes: dict[str, bytes] | None = None
        self.bytes_written = 0

    def setup(self, workdir: Path) -> None:
        self.out = workdir / "data"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.originals = {r.id: r for r in datagen.synth_records(DATAGEN_RECORDS, self.seed)}

    def op(self):
        argv = ["datagen", "--out", str(self.out), "--num-samples", str(DATAGEN_RECORDS),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        splits = {s: datagen.read_jsonl(self.out / f"{s}.jsonl") for s in ("train", "val", "test")}
        return DATAGEN_RECORDS, (code, splits)

    def counts(self) -> dict:
        return {"datagen.bytes_per_record": self.bytes_written / DATAGEN_RECORDS}

    def check_op(self, out) -> str | None:
        code, splits = out
        if code != 0:
            return f"datagen exited with {code}"
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        self.bytes_written = sum(len(b) for b in files.values())
        if self.first_bytes is None:
            self.first_bytes = files
        elif files != self.first_bytes:
            return "a rerun with the same seed wrote different bytes"
        n = DATAGEN_RECORDS
        for name, share in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            if abs(len(splits[name]) - share * n) > 1:
                return f"split {name} holds {len(splits[name])} of {n} records"
        ids = [r.id for recs in splits.values() for r in recs]
        if sorted(ids) != sorted(self.originals):
            return "the splits do not partition the generated records"
        for recs in splits.values():
            for r in recs:
                problem = self._check_record(r, self.originals[r.id])
                if problem:
                    return f"{r.id}: {problem}"
        return None

    @staticmethod
    def _check_record(r, orig) -> str | None:
        if not np.array_equal(r.mask, orig.mask):
            return "mask differs from the generated one"
        if not np.array_equal(r.image, orig.image.astype(np.float32).astype(np.float64)):
            return "image is not the float32 rounding of the generated one"
        ys, xs = np.nonzero(r.mask)
        H, W = r.mask.shape
        tight = (xs.min() / W, ys.min() / H, (xs.max() + 1) / W, (ys.max() + 1) / H)
        if r.box.as_floats() != tight:
            return f"box {r.box.as_floats()} is not the tightest box {tight}"
        if not 1 <= len(r.qa) <= 8:
            return f"{len(r.qa)} QA pairs"
        for qa in r.qa:
            if r.label not in qa.answer:
                return f"answer {qa.answer!r} does not name {r.label!r}"
            if sorted(_CK.findall(qa.answer)) != ["1", "2"]:
                return f"answer {qa.answer!r} does not hold <c1> and <c2> once each"
        return None


WORKLOADS = {
    "train-overfit": TrainOverfit,
    "train-reasoning-ft": TrainReasoningFt,
    "eval-greedy": EvalGreedy,
    "datagen-roundtrip": DatagenRoundtrip,
}
