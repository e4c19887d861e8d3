"""Toy multimodal decoder-only language model.

Embeds image patches as a prefix, runs byte-level text through a small
pre-norm transformer with prefix-causal masking, and exposes the pieces
the perception pipeline needs: last-layer hidden states, logits over an
expandable vocabulary, greedy decoding (each row fed once, through a
per-block key/value cache), and candidate-token extraction.  A batch of
sequences runs as one row matrix (``forward_packed``, no padding): every
layer sees each row once, one attention node per block keeps each
sequence to its own rows, and the last block computes just the rows its
caller reads, named in ascending order (the losses: answer predictors,
candidates, image rows).  Text is UTF-8 bytes plus ``<ck>`` candidate
markers; nothing decodes it back, as the heads read hidden states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .fusion import CandidateBundle

EOS_ID = 0
LN_EPS = 1e-5

_PLACEHOLDER_RE = re.compile(r"(<c\d+>)")


class CandidateAbsentError(ValueError):
    """The generated text contains no occurrence of a required candidate token."""


class DuplicateCandidateError(ValueError):
    """A candidate token occurs more than once in the generated region."""


class CacheGradError(RuntimeError):
    """A KV cache was used while grad is enabled; its plain arrays carry no gradient."""


@dataclass(frozen=True)
class VocabSpec:
    """Byte-level base vocabulary extended by n candidate tokens at the top."""

    base_size: int = 256
    num_candidates: int = 2

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")

    @property
    def total_size(self) -> int:
        return self.base_size + self.num_candidates

    @property
    def candidate_ids(self) -> list[int]:
        return list(range(self.base_size, self.base_size + self.num_candidates))


def encode_text(text: str, vocab: VocabSpec) -> list[int]:
    """UTF-8 bytes, with ``<ck>`` markers mapped to candidate token ids."""
    ids: list[int] = []
    for part in _PLACEHOLDER_RE.split(text):
        if not part:
            continue
        m = _PLACEHOLDER_RE.fullmatch(part)
        if m:
            k = int(part[2:-1])
            if not 1 <= k <= vocab.num_candidates:
                raise ValueError(f"placeholder {part} outside candidate range")
            ids.append(vocab.base_size + k - 1)
        else:
            ids.extend(part.encode("utf-8"))
    return ids


@dataclass(frozen=True)
class LmConfig:
    d_model: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    base_vocab: int = 256
    patch_size: int = 16
    max_seq: int = 512

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


@dataclass
class BlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in vars(self).items()}


@dataclass
class ModelParams:
    """All trainable state of the toy LM plus its frozen patch projection."""

    cfg: LmConfig
    patch_proj: Tensor  # frozen stand-in for the vision tower
    tok_emb: Tensor
    pos_emb: Tensor
    blocks: list[BlockParams]
    out_proj: Tensor  # one row per vocabulary entry

    @property
    def vocab_size(self) -> int:
        return self.tok_emb.shape[0]

    def named(self, prefix: str = "mllm") -> dict[str, Tensor]:
        out = {
            f"{prefix}.patch_proj": self.patch_proj,
            f"{prefix}.tok_emb": self.tok_emb,
            f"{prefix}.pos_emb": self.pos_emb,
            f"{prefix}.out_proj": self.out_proj,
        }
        for i, blk in enumerate(self.blocks):
            out.update(blk.named(f"{prefix}.blocks.{i}"))
        return out


@dataclass
class MultimodalSequence:
    """One image-prefixed token sequence; the generated region starts at ``token_ids[gen_start]``."""

    patch_embeddings: Tensor
    token_ids: list[int]
    gen_start: int = 0

    @property
    def num_patches(self) -> int:
        return self.patch_embeddings.shape[0]


def build_sequence(
    patch_embeddings: Tensor,
    prompt_ids: list[int],
    generated_ids: list[int],
    vocab: VocabSpec,
) -> MultimodalSequence:
    token_ids = list(prompt_ids) + list(generated_ids)
    if token_ids and (min(token_ids) < 0 or max(token_ids) >= vocab.total_size):
        raise ValueError("token id out of vocabulary")
    return MultimodalSequence(patch_embeddings, token_ids, len(prompt_ids))


def init_params(cfg: LmConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    d = cfg.d_model
    p2 = cfg.patch_size * cfg.patch_size

    def w(shape, scale):
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)

    blocks = []
    for _ in range(cfg.n_blocks):
        blocks.append(
            BlockParams(
                ln1_g=Tensor(np.ones(d), requires_grad=True),
                ln1_b=Tensor(np.zeros(d), requires_grad=True),
                wq=w((d, d), d**-0.5),
                wk=w((d, d), d**-0.5),
                wv=w((d, d), d**-0.5),
                wo=w((d, d), d**-0.5),
                ln2_g=Tensor(np.ones(d), requires_grad=True),
                ln2_b=Tensor(np.zeros(d), requires_grad=True),
                w1=w((d, 4 * d), d**-0.5),
                b1=Tensor(np.zeros(4 * d), requires_grad=True),
                w2=w((4 * d, d), (4 * d) ** -0.5),
                b2=Tensor(np.zeros(d), requires_grad=True),
            )
        )
    return ModelParams(
        cfg=cfg,
        # modest scale keeps patch-position hidden norms (and with them the raw
        # similarity-map magnitudes) comparable to the text stream
        patch_proj=Tensor(rng.normal(scale=0.125 * p2**-0.5, size=(p2, d))),  # frozen
        tok_emb=w((cfg.base_vocab, d), 0.02),
        pos_emb=Tensor(np.zeros((cfg.max_seq, d)), requires_grad=True),
        blocks=blocks,
        out_proj=w((cfg.base_vocab, d), 0.02),
    )


def expand_vocabulary(params: ModelParams, n: int, seed: int) -> ModelParams:
    """Append n candidate rows: Gaussian (scale 0.02) embeddings, zero output rows.

    Existing rows are copied byte-identically, so base-token logits are
    unchanged on every input; new-token logits start at exactly 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = params.cfg.d_model
    new_emb = np.concatenate(
        [params.tok_emb.data, rng.normal(scale=0.02, size=(n, d))], axis=0
    )
    new_out = np.concatenate([params.out_proj.data, np.zeros((n, d))], axis=0)
    return ModelParams(
        cfg=params.cfg,
        patch_proj=params.patch_proj,
        tok_emb=Tensor(new_emb, requires_grad=True),
        pos_emb=params.pos_emb,
        blocks=params.blocks,
        out_proj=Tensor(new_out, requires_grad=True),
    )


def image_patches(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Non-overlapping patches, each flattened row-major: (gh, gw, p²) of an
    (H, W) image, (B, gh, gw, p²) of a (B, H, W) stack."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ShapeError(f"image_patches: expected 2-D image or 3-D stack, got {image.shape}")
    *lead, H, W = image.shape
    if H % patch_size or W % patch_size:
        raise ShapeError(f"image_patches: image {image.shape} not divisible by patch {patch_size}")
    gh, gw = H // patch_size, W // patch_size
    return (
        image.reshape(*lead, gh, patch_size, gw, patch_size)
        .swapaxes(-3, -2)
        .reshape(*lead, gh, gw, patch_size * patch_size)
    )


def encode_image_patches(image: np.ndarray, patch_size: int, projection: Tensor) -> Tensor:
    """Project each of ``image_patches`` of an (H, W) image to a d-vector: (patches, d) rows."""
    if np.ndim(image) != 2:
        raise ShapeError(f"encode_image_patches: expected a 2-D image, got {np.shape(image)}")
    patches = image_patches(image, patch_size)
    return Tensor(patches.reshape(-1, patches.shape[-1])) @ projection


class KVCache:
    """Keys and values of every row fed so far, per block, for no-grad decoding."""

    def __init__(self, cfg: LmConfig):
        self.rows = 0
        self.keys = np.empty((cfg.n_blocks, cfg.max_seq, cfg.d_model))
        self.values = np.empty_like(self.keys)

    def extend(self, block: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Store the new rows' keys and values; return those of all rows."""
        end = self.rows + k.shape[0]
        self.keys[block, self.rows : end] = k.data
        self.values[block, self.rows : end] = v.data
        return Tensor(self.keys[block, :end]), Tensor(self.values[block, :end])


def forward_packed(
    seqs: list[MultimodalSequence], params: ModelParams, cache: KVCache | None = None, rows=None
) -> Tensor:
    """Run the transformer over sequences packed row-wise; returns the hidden rows.

    The sequences' rows follow one another in order, each aligned 1:1
    with its positions (image patches, then tokens).  Nothing is padded:
    each layer sees the ΣSᵢ rows once, and the attention node keeps every
    sequence to its own rows, so a sequence's rows do not depend on the
    others.  The result holds every packed row, or just ``rows`` (packed
    indices, sorted and distinct; ShapeError otherwise): the last block
    still takes keys and values from every row, but runs its queries,
    ``wo``, the residual, LN2 and the FFN on those rows only.  With a ``cache`` (one sequence,
    under ``no_grad`` only), ``seqs`` holds just the rows not fed yet, and
    only an empty cache takes image patches.  The new rows take the next
    positions, see every cached row and are causal among themselves;
    their keys and values join the cache.
    """
    cfg = params.cfg
    n = 0 if cache is None else cache.rows
    if not seqs:
        raise ShapeError("forward_packed: no sequences")
    if cache is not None:
        if ad.is_grad_enabled():
            raise CacheGradError("forward: a KV cache carries no gradient; decode under no_grad")
        if len(seqs) != 1:
            raise ShapeError(f"forward_packed: a KV cache holds one sequence, got {len(seqs)}")
    # one gather reads token rows from tok_emb and patch rows from the
    # patches stacked under it
    tokens = [t for seq in seqs for t in seq.token_ids]
    if tokens and (min(tokens) < 0 or max(tokens) >= params.vocab_size):
        raise ValueError("forward: token id out of vocabulary")
    segments, ids, positions, patches = [], [], [], []
    patch_row = params.vocab_size
    for seq in seqs:
        P, T = seq.num_patches, len(seq.token_ids)
        if T == 0 and P == 0:
            raise ShapeError("forward: empty sequence")
        if n and P:
            raise ShapeError(f"forward: {P} image patches after {n} cached rows")
        if n + P + T > cfg.max_seq:
            raise ShapeError(f"forward: sequence length {n + P + T} exceeds max_seq {cfg.max_seq}")
        segments.append((P, T, n))
        ids.extend(range(patch_row, patch_row + P))
        ids.extend(seq.token_ids)
        positions.extend(range(n, n + P + T))
        if P:
            patches.append(seq.patch_embeddings)
            patch_row += P
    table = ad.concat([params.tok_emb, *patches]) if patches else params.tok_emb
    x = table[ids] + params.pos_emb[positions]
    offsets = np.cumsum([0] + [P + T for P, T, _ in segments])
    queries = None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if (np.diff(rows) <= 0).any():  # attention takes each sequence's queries together, in order
            raise ShapeError("forward_packed: rows must be sorted and distinct")
        cut = np.searchsorted(rows, offsets)
        queries = [rows[a:b] - o for a, b, o in zip(cut, cut[1:], offsets)]
    last = len(params.blocks) - 1
    for i, blk in enumerate(params.blocks):
        h = ad.layer_norm(x, blk.ln1_g, blk.ln1_b, LN_EPS)
        k, v = h @ blk.wk, h @ blk.wv
        if cache is not None:
            k, v = cache.extend(i, k, v)
        if i == last and queries is not None:
            x, h = x[rows], h[rows]
        x = x + ad.attention(h @ blk.wq, k, v, segments, cfg.n_heads, queries if i == last else None) @ blk.wo
        h = ad.relu(ad.layer_norm(x, blk.ln2_g, blk.ln2_b, LN_EPS) @ blk.w1 + blk.b1)
        x = x + h @ blk.w2 + blk.b2
    if cache is not None:
        cache.rows = n + int(offsets[-1])
    return x


def forward(seq: MultimodalSequence, params: ModelParams, cache: KVCache | None = None) -> tuple[Tensor, Tensor]:
    """Run the transformer on one sequence; returns (hidden (P+T)×d, logits T×V).

    The one-sequence case of ``forward_packed`` (the cache works as
    there).  Hidden rows align 1:1 with input positions; logits cover text
    positions only.
    """
    hidden = forward_packed([seq], params, cache)
    P = seq.num_patches
    logits = hidden[P : P + len(seq.token_ids)] @ params.out_proj.T
    return hidden, logits


def decode_greedy(prompt: MultimodalSequence, params: ModelParams, max_len: int) -> list[int]:
    """Argmax decoding from the prompt; stops after emitting EOS_ID or max_len tokens.

    Feeds the prompt once, then each new token, through one ``KVCache``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if not prompt.token_ids:
        raise ShapeError("decode_greedy: prompt has no text tokens to predict from")
    cache = KVCache(params.cfg)
    no_patches = Tensor(np.zeros((0, params.cfg.d_model)))
    seq = prompt
    generated: list[int] = []
    with ad.no_grad():
        for _ in range(max_len):
            _, logits = forward(seq, params, cache)
            nxt = int(np.argmax(logits.data[-1]))
            generated.append(nxt)
            if nxt == EOS_ID:
                break
            seq = MultimodalSequence(no_patches, [nxt])
    return generated


def candidate_bundles(
    seqs: list[MultimodalSequence], vocab: VocabSpec, image: bool = False
) -> tuple[np.ndarray, Callable[[Tensor, np.ndarray], CandidateBundle]]:
    """The packed rows the heads read (sorted), and the bundle as a function of their hidden states.

    The rows are each sequence's candidate rows (each id exactly once in
    the generated region) and with ``image`` its image rows, which needs
    one patch count.  The function takes a ``forward_packed`` result
    holding the packed rows ``held`` (sorted) and gathers
    (B, n, d) candidates, in candidate-id order, and (B, P, d) image rows.
    """
    P = seqs[0].num_patches
    cand_rows, img_rows = [], []
    off = 0
    for seq in seqs:
        if image and seq.num_patches != P:
            raise ShapeError(f"candidate_bundles: sequences hold {P} and {seq.num_patches} image patches")
        gen = seq.token_ids[seq.gen_start :]
        for cid in vocab.candidate_ids:
            hits = [i for i, t in enumerate(gen) if t == cid]
            if not hits:
                raise CandidateAbsentError(f"candidate token {cid} absent from the generated region")
            if len(hits) > 1:
                raise DuplicateCandidateError(f"candidate token {cid} occurs {len(hits)} times in the generated region")
            cand_rows.append(off + seq.num_patches + seq.gen_start + hits[0])
        if image:
            img_rows.extend(range(off, off + P))
        off += seq.num_patches + len(seq.token_ids)

    def bundle(hidden: Tensor, held: np.ndarray) -> CandidateBundle:
        def take(rows, n):
            return hidden[np.searchsorted(held, rows)].reshape(len(seqs), n, hidden.shape[1])

        return CandidateBundle(take(cand_rows, vocab.num_candidates), take(img_rows, P) if image else None)

    return np.unique(cand_rows + img_rows), bundle
