"""Optimization and evaluation driver.

Bundles every parameter group into one model container, samples a 7:3
referring/reasoning mix, runs each batch's teacher-forced sequences
through the LM in one packed pass and then fusion, both decoders and
their losses once on (B, …) tensors (``_heads``, which evaluation shares),
applies AdamW with warmup-decay, and round-trips everything through a
binary checkpoint format. The fine-tune mode supervises the similarity
maps against reference maps from the bare-label query, through the model
as the fine-tune began: one gradient-free pass per distinct sample, memoised.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .datagen import ImageRecord, candidate_placeholders
from .decoders import (
    BBox,
    BBoxParams,
    MaskDecoderParams,
    bbox_decode,
    init_bbox_params,
    init_mask_decoder_params,
    mask_decode,
    similarity_map,
)
from .fusion import FusionConfig, FusionOutput, RouterParams, fuse_candidates, init_router_params
from .losses import LossReport, LossWeights, bbox_loss, finite_real, mask_loss, sim_loss, text_ce_loss
from .metrics import EvalSample, MetricReport, evaluate_samples
from .mllm import (
    EOS_ID,
    CandidateAbsentError,
    DuplicateCandidateError,
    LmConfig,
    ModelParams,
    VocabSpec,
    build_sequence,
    candidate_bundles,
    decode_greedy,
    encode_image_patches,
    encode_text,
    expand_vocabulary,
    forward_packed,
    image_patches,
    init_params,
    MultimodalSequence,
)

log = logging.getLogger(__name__)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

REFERRING_TEMPLATES = (
    "Please segment the {label}.",
    "Segment the {label} in this image.",
    "Find the {label} and segment it.",
    "{label}",  # bare-label prompt; keeps the finetune reference query in-distribution
)


class NonFiniteTrainingError(ArithmeticError):
    """A training step gave a non-finite loss or non-finite gradients."""


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 3e-4
    warmup_iters: int = 100
    total_iters: int = 2000
    batch_size: int = 2
    weights: LossWeights = field(default_factory=LossWeights)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    mode: str = "end2end"
    mix_ratio: tuple = (7, 3)
    weight_decay: float = 0.01
    seed: int = 0
    d_model: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    mllm_patch: int = 16
    vision_patch: int = 1
    vision_dim: int = 8
    max_seq: int = 384
    sharpness: float = 50.0
    use_box_prompt: bool = True
    max_gen_len: int = 192

    def __post_init__(self):
        if self.mode not in ("end2end", "finetune"):
            raise ValueError(f"unknown mode {self.mode!r}")
        counts = ("warmup_iters", "total_iters", "batch_size", "seed")
        if any(type(getattr(self, f)) is not int for f in counts):
            raise ValueError(f"{', '.join(counts)} must be integers")
        if not 0 < self.warmup_iters <= self.total_iters:
            raise ValueError("need 0 < warmup_iters <= total_iters")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (finite_real(self.lr_max) and self.lr_max > 0):
            raise ValueError("lr_max must be a positive finite number")
        if not finite_real(self.weight_decay):
            raise ValueError("weight_decay must be a finite number")
        if not (finite_real(self.sharpness) and self.sharpness > 0):
            raise ValueError("sharpness must be a positive finite number")
        if type(self.use_box_prompt) is not bool:
            raise ValueError("use_box_prompt must be true or false")
        r = self.mix_ratio
        if len(r) != 2 or not all(finite_real(v) and v >= 0 for v in r) or r[0] + r[1] <= 0:
            raise ValueError("mix_ratio must be two finite nonnegative numbers with a positive sum")
        sizes = ("d_model", "n_blocks", "n_heads", "mllm_patch", "vision_patch", "vision_dim", "max_seq", "max_gen_len")
        if any(type(getattr(self, f)) is not int or getattr(self, f) < 1 for f in sizes) or self.d_model % self.n_heads:
            raise ValueError(f"{', '.join(sizes)} must be positive integers, d_model a multiple of n_heads")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
        kwargs = dict(data)
        if "weights" in kwargs:
            try:
                kwargs["weights"] = LossWeights(**kwargs["weights"])
            except TypeError as exc:
                raise ValueError(f"bad config field 'weights': {exc}") from exc
        if "fusion" in kwargs:
            try:
                kwargs["fusion"] = FusionConfig(**kwargs["fusion"])
            except TypeError as exc:
                raise ValueError(f"bad config field 'fusion': {exc}") from exc
        if "mix_ratio" in kwargs:
            kwargs["mix_ratio"] = tuple(kwargs["mix_ratio"])
        return cls(**kwargs)


@dataclass
class TrainSample:
    record: ImageRecord
    question: str
    answer: str
    stream: str  # referring | reasoning
    x_hat_txt: str | None = None


@dataclass
class Model:
    """Every parameter group plus the frozen vision projections."""

    cfg: TrainConfig
    vocab: VocabSpec
    lm: ModelParams
    vision_proj: Tensor
    router: RouterParams
    bbox: BBoxParams
    maskdec: MaskDecoderParams

    def named(self) -> dict[str, Tensor]:
        out = self.lm.named("mllm")
        out["vision.proj"] = self.vision_proj
        out.update(self.router.named("router"))
        out.update(self.bbox.named("bbox"))
        out.update(self.maskdec.named("maskdec"))
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named().items() if t.requires_grad}

    def frozen(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named().items() if not t.requires_grad}


def init_model(cfg: TrainConfig) -> Model:
    lm_cfg = LmConfig(
        d_model=cfg.d_model,
        n_blocks=cfg.n_blocks,
        n_heads=cfg.n_heads,
        base_vocab=256,
        patch_size=cfg.mllm_patch,
        max_seq=cfg.max_seq,
    )
    lm = expand_vocabulary(init_params(lm_cfg, seed=cfg.seed), cfg.fusion.n, seed=cfg.seed + 1)
    rng = np.random.default_rng(cfg.seed + 2)
    p2 = cfg.vision_patch * cfg.vision_patch
    return Model(
        cfg=cfg,
        vocab=VocabSpec(256, cfg.fusion.n),
        lm=lm,
        vision_proj=Tensor(rng.normal(scale=p2**-0.5, size=(p2, cfg.vision_dim))),  # frozen
        router=init_router_params(cfg.fusion, cfg.d_model, seed=cfg.seed + 3),
        bbox=init_bbox_params(cfg.d_model, hidden=8, seed=cfg.seed + 4),
        maskdec=init_mask_decoder_params(cfg.vision_dim, cfg.d_model, seed=cfg.seed + 5),
    )


# -- sampling -------------------------------------------------------------------

def default_answer(label: str, n_candidates: int) -> str:
    return f"The {label}. {candidate_placeholders(n_candidates)}"


def mixed_sampler(referring_pool, reasoning_pool, ratio=(7, 3), seed=0, n_candidates=2):
    """Endless TrainSample stream; referring drawn with probability r/(r+s); a pool of share 0 may be empty."""
    r, s = ratio
    if r < 0 or s < 0 or r + s <= 0:
        raise ValueError(f"bad mix ratio {ratio}")
    if (r > 0 and not referring_pool) or (s > 0 and not reasoning_pool):
        raise ValueError("mixed_sampler: a pool with a positive share is empty")
    return _sample_stream(referring_pool, reasoning_pool, r / (r + s), seed, n_candidates)


def _sample_stream(referring_pool, reasoning_pool, p_ref, seed, n_candidates):
    rng = np.random.default_rng(seed)
    while True:
        if rng.uniform() < p_ref:
            rec = referring_pool[int(rng.integers(len(referring_pool)))]
            template = REFERRING_TEMPLATES[int(rng.integers(len(REFERRING_TEMPLATES)))]
            yield TrainSample(
                record=rec,
                question=template.format(label=rec.label),
                answer=default_answer(rec.label, n_candidates),
                stream="referring",
                x_hat_txt=rec.label,
            )
        else:
            rec = reasoning_pool[int(rng.integers(len(reasoning_pool)))]
            qa = rec.qa[int(rng.integers(len(rec.qa)))]
            yield TrainSample(
                record=rec,
                question=qa.question,
                answer=qa.answer,
                stream="reasoning",
                x_hat_txt=rec.label,
            )


# -- schedule and optimizer --------------------------------------------------------

def lr_schedule(it: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, then linear decay to zero at total_iters."""
    if not 0 <= it < cfg.total_iters:
        raise ValueError(f"iteration {it} outside [0, {cfg.total_iters})")
    if it < cfg.warmup_iters:
        return cfg.lr_max * (it + 1) / cfg.warmup_iters
    return cfg.lr_max * (cfg.total_iters - it) / (cfg.total_iters - cfg.warmup_iters)


@dataclass
class OptState:
    """AdamW moments and step count; in fine-tune, also the frozen model the reference
    maps come from and ``ref_maps``, the memo of ``reference_maps`` (not checkpointed)."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    reference: Model | None = None
    ref_maps: dict = field(default_factory=dict)


def init_opt_state(params: dict[str, Tensor]) -> OptState:
    return OptState(
        m={n: np.zeros_like(t.data) for n, t in params.items()},
        v={n: np.zeros_like(t.data) for n, t in params.items()},
    )


def adamw_step(params: dict[str, Tensor], opt: OptState, lr: float, weight_decay: float) -> list[str]:
    """One decoupled-weight-decay update; returns names skipped for bad grads."""
    b1, b2 = ADAM_BETAS
    opt.step += 1
    t = opt.step
    skipped = []
    for name, p in params.items():
        g = p.grad
        if g is None or not np.all(np.isfinite(g)):
            skipped.append(name)
            log.warning("adamw: skipping %s (non-finite or missing gradient)", name)
            continue
        m = opt.m[name]
        v = opt.v[name]
        # m += (1 - b1) g;  v += (1 - b2) g g;
        # p -= lr (m / (1 - b1^t) / (sqrt(v / (1 - b2^t)) + eps) + wd p),
        # in that order, through two scratch buffers
        s1, s2 = np.empty_like(m), np.empty_like(m)
        m *= b1
        m += np.multiply(g, 1 - b1, out=s1)
        v *= b2
        np.multiply(g, 1 - b2, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1 - b1**t, out=s1)
        np.divide(v, 1 - b2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        s1 += np.multiply(p.data, weight_decay, out=s2)
        s1 *= lr
        p.data -= s1
    return skipped


# -- forward / train step -----------------------------------------------------------

def _teacher_forced(model: Model, sample: TrainSample, query: str) -> MultimodalSequence:
    """The image prefix, the query and the answer ending in EOS, as one sequence."""
    patches = encode_image_patches(sample.record.image, model.cfg.mllm_patch, model.lm.patch_proj)
    a_ids = encode_text(sample.answer, model.vocab) + [EOS_ID]
    return build_sequence(patches, encode_text(query, model.vocab), a_ids, model.vocab)


def answer_ce_loss(seqs, out_proj: Tensor) -> tuple[list[int], Callable[[Tensor, np.ndarray], Tensor]]:
    """The packed rows the answer loss reads, and the loss as a function of their hidden states.

    Text row t of a sequence predicts token t + 1; the rows are those that
    predict an answer token (from ``gen_start`` on, never token 0).  Given a
    ``forward_packed`` result holding the packed rows ``held`` (sorted), the
    function returns the mean over sequences of each one's mean answer-token
    cross-entropy: one gather, then ``text_ce_loss`` forms the logits, each
    row weighing 1 / (answer tokens of its sequence).
    """
    rows, targets, weights = [], [], []
    off = 0
    for seq in seqs:
        first, T = max(seq.gen_start, 1), len(seq.token_ids)
        count = T - first
        if count < 1:
            raise ValueError("answer_ce_loss: a sequence has no answer token to predict")
        base = off + seq.num_patches - 1
        rows.extend(range(base + first, base + T))
        targets.extend(seq.token_ids[first:])
        weights.extend([1.0 / count] * count)
        off += seq.num_patches + T
    return rows, lambda hidden, held: text_ce_loss(hidden[np.searchsorted(held, rows)], out_proj, targets, weights)


def one_image_shape(records: list[ImageRecord]) -> tuple[int, int]:
    """The image shape all records share; ShapeError names the first two that differ."""
    shape = records[0].image.shape
    for record in records:
        if record.image.shape != shape:
            raise ShapeError(f"records need one image shape, got {shape} and {record.image.shape}")
    return shape


def _heads(model: Model, candidates: Tensor, images: np.ndarray) -> tuple[FusionOutput, Tensor, Tensor]:
    """Fusion, the box head and the mask head, once over a batch of B samples.

    Reads (B, n, d) ``candidates``; ``images`` is the (B, H, W) stack the mask logits are sized to.
    Returns the fused embeddings, the (B, 4) box corners and the
    (B, H, W) mask logits; training and evaluation both decode through here.
    """
    cfg = model.cfg
    fused = fuse_candidates(candidates, model.router, cfg.fusion)
    box = bbox_decode(fused.h_det, model.bbox)
    mlogits = mask_decode(
        (image_patches(images, cfg.vision_patch), model.vision_proj), fused.h_seg, box, model.maskdec,
        images.shape[1:], sharpness=cfg.sharpness, use_box=cfg.use_box_prompt,
    )
    return fused, box, mlogits


def reference_maps(model: Model, batch: list[TrainSample], memo: dict | None = None) -> Tensor:
    """The fine-tune targets: (B, P) similarity maps of the bare-label queries, without grad.

    ``memo`` maps what ``_teacher_forced`` reads of a sample (image shape and
    SHA-1 of its bytes, reference query, answer) to its (P,) map, for a model
    that does not change.  A sample missing from it goes through the LM and
    fusion alone, so its map's bits never depend on the batch or the memo.
    """
    memo = {} if memo is None else memo
    keys = [
        (s.record.image.shape, hashlib.sha1(np.ascontiguousarray(s.record.image)).digest(), s.x_hat_txt, s.answer)
        for s in batch
    ]
    with ad.no_grad():
        for key, s in zip(keys, batch):
            if key not in memo:
                seqs = [_teacher_forced(model, s, s.x_hat_txt)]
                rows, heads_of = candidate_bundles(seqs, model.vocab, image=True)
                candidates, h_img = heads_of(forward_packed(seqs, model.lm, rows=rows), rows)
                fused = fuse_candidates(candidates, model.router, model.cfg.fusion)
                memo[key] = similarity_map(h_img, fused.h_seg).data[0]
    return Tensor(np.stack([memo[key] for key in keys]))


def batch_losses(model: Model, batch: list[TrainSample], sim_ref: Tensor | None = None) -> LossReport:
    """Every loss of a batch, as batch means: one packed LM pass, then ``_heads`` once.

    The LM's last block computes only the rows a loss reads: answer
    predictors, candidates and, with ``sim_ref`` (the batch's
    ``reference_maps``), image rows for the fine-tune similarity terms.
    """
    w = model.cfg.weights
    seqs = [_teacher_forced(model, s, s.question) for s in batch]
    txt_rows, txt_of = answer_ce_loss(seqs, model.lm.out_proj)
    cand_rows, heads_of = candidate_bundles(seqs, model.vocab, image=sim_ref is not None)
    held = np.union1d(txt_rows, cand_rows)  # candidate rows also predict answer tokens
    hidden = forward_packed(seqs, model.lm, rows=held)
    candidates, h_img = heads_of(hidden, held)
    images = np.stack([s.record.image for s in batch])
    fused, box, mlogits = _heads(model, candidates, images)
    bce, dice, mask_total = mask_loss(mlogits, np.stack([s.record.mask for s in batch]), w)
    l1, giou, bbox_total = bbox_loss(box, [s.record.box.as_floats() for s in batch], w)
    txt = txt_of(hidden, held)
    report = LossReport(txt, bce, dice, l1, giou, mask=mask_total, bbox=bbox_total, total=txt + mask_total + bbox_total)
    if sim_ref is not None:
        report.js, report.mse, report.sim = sim_loss(similarity_map(h_img, fused.h_seg), sim_ref, w)
        report.total = report.total + report.sim
    return report


def train_step(
    model: Model, batch: list[TrainSample], it: int, cfg: TrainConfig, opt: OptState
) -> LossReport:
    """Forward + losses + one AdamW step over the batch mean.

    The batch's sequences go through the LM once, packed row-wise, and
    fusion, the decoders and their losses once on (B, …) tensors, so the
    batch needs one image shape (ShapeError otherwise).  The fine-tune
    reference maps come from ``opt.reference``, a copy of the model taken
    at its first fine-tune step and never trained, so the targets hold
    still while the model learns to meet them; a sample's map is computed
    the first time it is drawn, and then read from ``opt.ref_maps``.  Raises
    NonFiniteTrainingError, naming the iteration and the parameters AdamW
    skipped, at a non-finite loss or gradient.
    """
    if not batch:
        raise ValueError("train_step: empty batch")
    finetune = cfg.mode == "finetune"
    if finetune and not all(s.x_hat_txt for s in batch):
        raise ValueError("finetune sample lacks the non-inference query")
    one_image_shape([s.record for s in batch])
    ad.reset_tape()
    if finetune and opt.reference is None:
        opt.reference, opt.ref_maps = copy.deepcopy(model), {}
    report = batch_losses(model, batch, reference_maps(opt.reference, batch, opt.ref_maps) if finetune else None)
    ad.backward(report.total)
    skipped = adamw_step(model.trainable(), opt, lr_schedule(it, cfg), cfg.weight_decay)
    if skipped or not np.isfinite(report.total.data):
        raise NonFiniteTrainingError(f"iteration {it}: loss {report.total.item()!r}, skipped {skipped}")
    return report


def run_training(
    model: Model, referring_pool, reasoning_pool, cfg: TrainConfig, log_fn=None
) -> tuple[OptState, list[dict]]:
    """Drive total_iters steps from a fresh optimizer; returns its state and the scalar history."""
    opt = init_opt_state(model.trainable())
    sampler = mixed_sampler(
        referring_pool, reasoning_pool, cfg.mix_ratio, seed=cfg.seed,
        n_candidates=cfg.fusion.n,
    )
    history = []
    for it in range(cfg.total_iters):
        batch = [next(sampler) for _ in range(cfg.batch_size)]
        report = train_step(model, batch, it, cfg, opt)
        scalars = {"iter": it, **report.scalars()}
        history.append(scalars)
        if log_fn is not None:
            log_fn(scalars)
    return opt, history


# -- evaluation ----------------------------------------------------------------------

def _predict(model: Model, record: ImageRecord):
    """Greedy-decode a record, then read its candidate rows as training does; absent -> zeros/None."""
    cfg = model.cfg
    question = record.qa[0].question if record.qa else REFERRING_TEMPLATES[0].format(label=record.label)
    with ad.no_grad():
        patches = encode_image_patches(record.image, cfg.mllm_patch, model.lm.patch_proj)
        q_ids = encode_text(question, model.vocab)
        # generation must leave the full sequence within the context window
        budget = cfg.max_seq - patches.data.shape[0] - len(q_ids)
        if budget < 1:
            raise ShapeError(
                f"record {record.id}: {patches.data.shape[0]} image patches and {len(q_ids)} prompt "
                f"tokens leave no room to generate within max_seq {cfg.max_seq}"
            )
        generated = decode_greedy(MultimodalSequence(patches, q_ids), model.lm, min(cfg.max_gen_len, budget))
        seq = build_sequence(patches, q_ids, generated, model.vocab)
        try:
            rows, heads_of = candidate_bundles([seq], model.vocab)
        except (CandidateAbsentError, DuplicateCandidateError) as exc:
            log.warning("record %s scores zero: asked %r, %s", record.id, question, exc)
            return np.zeros_like(record.mask, dtype=bool), None
        candidates, _ = heads_of(forward_packed([seq], model.lm, rows=rows), rows)
        _, box, mlogits = _heads(model, candidates, record.image[None])
    return mlogits.data[0] > 0, BBox(*box.data[0])


def evaluate_model(model: Model, records: list[ImageRecord]) -> tuple[MetricReport, list[EvalSample]]:
    """Greedy-decode every record and score it."""
    if not records:
        raise ValueError("evaluate_model: no records")
    samples = []
    for record in records:
        pred_mask, pred_box = _predict(model, record)
        samples.append(
            EvalSample(
                pred_mask=pred_mask,
                gt_mask=record.mask,
                pred_box=pred_box,
                gt_box=record.box,
                category=record.label,
            )
        )
    return evaluate_samples(samples), samples


# -- checkpointing ---------------------------------------------------------------------

CKPT_MAGIC = b"MDSE"
CKPT_VERSION = 1
_ITER_KEY = "__iteration__"
_STEP_KEY = "__adam_step__"
_CONFIG_KEY = "__config_json__"


class CheckpointError(ValueError):
    """Unreadable or structurally invalid checkpoint file."""


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    iteration: int
    opt_step: int
    config: TrainConfig


def save_checkpoint(path, model: Model, opt: OptState, iteration: int) -> None:
    """Binary dump of all named tensors, moments, the fine-tune reference, counters, and the config."""
    entries: dict[str, np.ndarray] = {n: t.data for n, t in model.named().items()}
    if opt.reference is not None:
        entries.update({f"ref.{n}": t.data for n, t in opt.reference.named().items()})
    for n, arr in opt.m.items():
        entries[f"opt.m.{n}"] = arr
    for n, arr in opt.v.items():
        entries[f"opt.v.{n}"] = arr
    entries[_ITER_KEY] = np.asarray(float(iteration))
    entries[_STEP_KEY] = np.asarray(float(opt.step))
    cfg_bytes = json.dumps(asdict(model.cfg), sort_keys=True).encode("utf-8")
    entries[_CONFIG_KEY] = np.frombuffer(cfg_bytes, dtype=np.uint8).astype(np.float64)

    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<II", CKPT_VERSION, len(entries)))
            for name in sorted(entries):
                arr = np.asarray(entries[name], dtype="<f8")  # keeps rank, incl. 0-d
                nb = name.encode("utf-8")
                fh.write(struct.pack("<I", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    finally:  # a failed write or rename leaves no temp file behind
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, n: int, size: int) -> bytes:
    """The next n bytes of a file of ``size`` bytes; checked first, so no read asks for more than it holds."""
    if n > size - fh.tell():
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, {size - fh.tell()} left")
    return fh.read(n)


def _whole_numbers(values: np.ndarray, top: float) -> bool:
    """Whether every value is an integer in [0, top]; NaN and infinities are not."""
    return bool(np.all((values >= 0) & (values <= top) & (np.floor(values) == values)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, size) != CKPT_MAGIC:
            raise CheckpointError("bad magic: not a checkpoint file")
        version, count = struct.unpack("<II", _read_exact(fh, 8, size))
        if version != CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, size))
            try:
                name = _read_exact(fh, name_len, size).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"tensor name is not UTF-8: {exc}") from exc
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, size))
            if rank > 64:
                raise CheckpointError(f"tensor {name}: rank {rank} above 64")
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, size))
            data = np.frombuffer(_read_exact(fh, 8 * math.prod(dims), size), dtype="<f8")
            try:
                tensors[name] = data.reshape(dims).astype(np.float64)
            except (ValueError, OverflowError) as exc:  # a dimension past what numpy can index
                raise CheckpointError(f"tensor {name}: bad shape {dims}: {exc}") from exc
        if fh.read(1):
            raise CheckpointError("trailing bytes after declared tensor count")
    for key in (_ITER_KEY, _STEP_KEY, _CONFIG_KEY):
        if key not in tensors:
            raise CheckpointError(f"checkpoint lacks required entry {key}")
    for key in (_ITER_KEY, _STEP_KEY):  # float64 holds every integer up to 2**53 exactly
        if tensors[key].size != 1 or not _whole_numbers(tensors[key], 2.0**53):
            raise CheckpointError(f"bad counter entry {key}: not one integer in [0, 2**53]")
    iteration, opt_step = (int(tensors[key].item()) for key in (_ITER_KEY, _STEP_KEY))
    if not _whole_numbers(tensors[_CONFIG_KEY], 255):
        raise CheckpointError("bad config entry: a value is not a byte, an integer in [0, 255]")
    try:
        cfg_json = tensors[_CONFIG_KEY].astype(np.uint8).tobytes().decode("utf-8")
        config = TrainConfig.from_dict(json.loads(cfg_json))
    except (TypeError, ValueError) as exc:  # not UTF-8, not JSON, or not a config
        raise CheckpointError(f"bad config entry: {exc}") from exc
    return Checkpoint(tensors, iteration, opt_step, config)


def _load(ckpt: Checkpoint, prefix: str, arrays: dict[str, np.ndarray]) -> None:
    """Overwrite each array in place with the checkpoint entry ``prefix + name``."""
    for name, arr in arrays.items():
        saved = ckpt.tensors.get(prefix + name)
        if saved is None:
            raise CheckpointError(f"checkpoint lacks tensor {prefix}{name}")
        if saved.shape != arr.shape:
            raise CheckpointError(f"tensor {prefix}{name}: checkpoint shape {saved.shape} != model {arr.shape}")
        arr[...] = saved


def restore_model(ckpt: Checkpoint) -> tuple[Model, OptState]:
    """Rebuild a model and optimizer state that reproduce saved behavior exactly."""
    model = init_model(ckpt.config)
    _load(ckpt, "", {n: t.data for n, t in model.named().items()})
    opt = init_opt_state(model.trainable())
    if any(k.startswith("ref.") for k in ckpt.tensors):
        opt.reference = init_model(ckpt.config)
        _load(ckpt, "ref.", {n: t.data for n, t in opt.reference.named().items()})
    opt.step = ckpt.opt_step
    _load(ckpt, "opt.m.", opt.m)
    _load(ckpt, "opt.v.", opt.v)
    return model, opt
