"""Toy multimodal decoder-only language model.

Embeds image patches as a prefix, runs byte-level text through a small
pre-norm transformer with prefix-causal masking, and exposes the pieces
the perception pipeline needs: last-layer hidden states, logits over an
expandable vocabulary, greedy decoding (through a per-block key/value
cache; drafts copied from the ids so far are verified several to a
forward, whose rows match one-token decoding's up to last-bit
rounding), and candidate-token extraction.  A batch of
sequences runs as one row matrix (``forward_packed``, no padding): every
layer sees each row once, attention keeps each sequence to its own rows,
and the last block computes just the rows its caller reads, named in
ascending order (the losses: answer predictors, candidates, image rows).
Each block records two tape nodes, its attention and FFN sublayers.
Text is UTF-8 bytes plus ``<ck>`` candidate markers; nothing decodes it
back, as the heads read hidden states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

EOS_ID = 0
LN_EPS = 1e-5

_PLACEHOLDER_RE = re.compile(r"(<c\d+>)")


class PlaceholderRangeError(ValueError):
    """Text holds a ``<ck>`` marker beyond the vocabulary's candidate tokens."""


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
                raise PlaceholderRangeError(f"placeholder {part} outside candidate range 1..{vocab.num_candidates}")
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
    """Keys and values per block of the rows kept so far, for no-grad decoding.

    ``rows`` counts the kept rows.  A forward appends its rows' keys and
    values and counts them; a decoder that rejects some sets ``rows``
    back, and rows past it are scratch the next forward overwrites.
    """

    def __init__(self, cfg: LmConfig):
        self.rows = 0
        self.keys = np.empty((cfg.n_blocks, cfg.max_seq, cfg.d_model))
        self.values = np.empty_like(self.keys)
        self.out_t = None  # forward's contiguous out_proj.T, copied once per decode

    def extend(self, block: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store the new rows' keys and values; return those of all rows."""
        end = self.rows + k.shape[0]
        self.keys[block, self.rows : end] = k
        self.values[block, self.rows : end] = v
        return self.keys[block, :end], self.values[block, :end]


def attention_sublayer(x: Tensor, blk: BlockParams, segments, n_heads: int, cache: KVCache | None = None,
                       block: int = 0, rows=None, queries=None) -> Tensor:
    """``x + attention(LN1(x)·Wq, LN1(x)·Wk, LN1(x)·Wv)·Wo`` over packed rows, one tape node.

    ``segments`` and ``queries`` are as ``autodiff._attention`` takes them;
    only ``rows`` (sorted, distinct) take queries, ``Wo`` and the residual.
    A ``cache`` (no grad) takes the new keys and values at ``block`` and
    gives back every cached row's.  Forward and VJP are the op-by-op
    composition's arithmetic, in its order, so the bits are its bits.
    """
    X, g1, Wq, Wk, Wv, Wo = (t.data for t in (x, blk.ln1_g, blk.wq, blk.wk, blk.wv, blk.wo))
    h, xhat, rstd = ad._layer_norm(X, g1, blk.ln1_b.data, LN_EPS)
    K, V = h @ Wk, h @ Wv
    if cache is not None:
        K, V = cache.extend(block, K, V)
    hq, res = (h, X) if rows is None else (h[rows], X[rows])
    Q = hq @ Wq
    att, spans = ad._attention(Q, K, V, segments, n_heads, queries)
    out = att @ Wo
    out += res

    def grad_fn(g):
        dq, dk, dv = ad._attention_vjp(g @ Wo.T, Q, K, V, spans, n_heads)
        dh, dres = dq @ Wq.T, g
        if rows is not None:  # scattered as the row gather's VJP does (-0.0 becomes +0.0)
            z, dres = np.zeros(h.shape), np.zeros(X.shape)
            z[rows], dres[rows] = dh + 0.0, g + 0.0
            dh = z
        dh += dv @ Wv.T
        dh += dk @ Wk.T
        dx, dg1, db1 = ad._layer_norm_vjp(dh, xhat, rstd, g1)
        dx += dres
        return (dx, dg1, db1, hq.T @ dq, h.T @ dk, h.T @ dv, att.T @ g)

    return ad._record(out, (x, blk.ln1_g, blk.ln1_b, blk.wq, blk.wk, blk.wv, blk.wo), grad_fn)


def ffn_sublayer(x: Tensor, blk: BlockParams) -> Tensor:
    """``x + relu(LN2(x)·W1 + b1)·W2 + b2``, one tape node, with the op-by-op
    composition's arithmetic in its order; the VJP masks in place."""
    X, g2, W1, W2 = (t.data for t in (x, blk.ln2_g, blk.w1, blk.w2))
    ln, xhat, rstd = ad._layer_norm(X, g2, blk.ln2_b.data, LN_EPS)
    h = ln @ W1
    h += blk.b1.data
    np.fmax(h, 0.0, out=h)  # relu: NaN -> 0, as h > 0 is false there
    h += 0.0  # -0.0 -> +0.0
    out = h @ W2
    out += X
    out += blk.b2.data

    def grad_fn(g):
        dh = g @ W2.T
        dh *= h > 0
        dx, dg2, db2 = ad._layer_norm_vjp(dh @ W1.T, xhat, rstd, g2)
        dx += g
        return (dx, dg2, db2, ln.T @ dh, dh.sum(axis=(0,)), h.T @ g, g.sum(axis=(0,)))

    return ad._record(out, (x, blk.ln2_g, blk.ln2_b, blk.w1, blk.b1, blk.w2, blk.b2), grad_fn)


def forward_packed(
    seqs: list[MultimodalSequence], params: ModelParams, cache: KVCache | None = None, rows=None
) -> Tensor:
    """Run the transformer over sequences packed row-wise; returns the hidden rows.

    The sequences' rows follow one another in order, each aligned 1:1
    with its positions (image patches, then tokens).  Nothing is padded:
    each layer sees the ΣSᵢ rows once, and attention keeps every
    sequence to its own rows, so a sequence's rows do not depend on the
    others.  Each block records two nodes, ``attention_sublayer`` and
    ``ffn_sublayer``.  The result holds every packed row, or just
    ``rows`` (packed indices, sorted and distinct; ShapeError otherwise):
    the last block still takes keys and values from every row, but runs
    its queries, ``wo``, the residual and the FFN on those rows only.
    With a ``cache`` (one sequence, under ``no_grad`` only), ``seqs``
    holds just the rows not fed yet, and only an empty cache takes image
    patches.  The new rows take the next positions, see every cached row
    and are causal among themselves; their keys and values join the cache.
    """
    cfg = params.cfg
    n = 0 if cache is None else cache.rows
    if not seqs:
        raise ShapeError("forward_packed: no sequences")
    if cache is not None:
        if ad.is_grad_enabled():
            raise CacheGradError("forward_packed: a KV cache carries no gradient; decode under no_grad")
        if len(seqs) != 1:
            raise ShapeError(f"forward_packed: a KV cache holds one sequence, got {len(seqs)}")
    # one gather reads token rows from tok_emb and patch rows from the
    # patches stacked under it
    tokens = [t for seq in seqs for t in seq.token_ids]
    if tokens and (min(tokens) < 0 or max(tokens) >= params.vocab_size):
        raise ValueError("forward_packed: token id out of vocabulary")
    segments, ids, positions, patches = [], [], [], []
    patch_row = params.vocab_size
    for seq in seqs:
        P, T = seq.num_patches, len(seq.token_ids)
        if T == 0 and P == 0:
            raise ShapeError("forward_packed: empty sequence")
        if n and P:
            raise ShapeError(f"forward_packed: {P} image patches after {n} cached rows")
        if n + P + T > cfg.max_seq:
            raise ShapeError(f"forward_packed: sequence length {n + P + T} exceeds max_seq {cfg.max_seq}")
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
        if (np.diff(rows) <= 0).any() or (rows.size and (rows[0] < 0 or rows[-1] >= offsets[-1])):
            raise ShapeError(f"forward_packed: rows must be sorted and distinct, in 0..{offsets[-1] - 1}")
        cut = np.searchsorted(rows, offsets)  # attention takes each sequence's queries together, in order
        queries = [rows[a:b] - o for a, b, o in zip(cut, cut[1:], offsets)]
        if not params.blocks:
            x = x[rows]
    last = len(params.blocks) - 1
    for i, blk in enumerate(params.blocks):
        subset = (rows, queries) if i == last else (None, None)
        x = attention_sublayer(x, blk, segments, cfg.n_heads, cache, i, *subset)
        x = ffn_sublayer(x, blk)
    if cache is not None:
        cache.rows = n + int(offsets[-1])
    return x


def forward(seq: MultimodalSequence, params: ModelParams, cache: KVCache | None = None) -> tuple[Tensor, Tensor]:
    """Run the transformer on one sequence; returns (hidden (P+T)×d, logits T×V).

    The one-sequence case of ``forward_packed`` (the cache works as
    there).  Hidden rows align 1:1 with input positions; logits, off the
    tape, cover text positions only.  A cache keeps the transposed output
    projection the logits read across a decode.
    """
    hidden = forward_packed([seq], params, cache)
    P = seq.num_patches
    if cache is not None and cache.out_t is None:
        cache.out_t = params.out_proj.data.T.copy()
    wt = params.out_proj.data.T.copy() if cache is None else cache.out_t
    logits = hidden.data[P : P + len(seq.token_ids)] @ wt
    return hidden, Tensor(logits)


DRAFT_LEN = 8  # most draft tokens verified per forward
DRAFT_NGRAM = 3  # longest suffix matched when drafting


def _drafts(ids: list[int], k: int) -> list[int]:
    """Up to k ids that followed the latest earlier occurrence of the longest
    suffix of ``ids`` (of at most DRAFT_NGRAM ids) that occurs earlier; none
    if the last id is new."""
    if k < 1:
        return []
    best, start, last = 0, 0, len(ids) - 1
    for j in range(last - 1, -1, -1):
        m = 0
        while m < DRAFT_NGRAM and m <= j and ids[j - m] == ids[last - m]:
            m += 1
        if m > best:
            best, start = m, j + 1
            if m == DRAFT_NGRAM:
                break
    return ids[start : start + k] if best else []


def decode_greedy(prompt: MultimodalSequence, params: ModelParams, max_len: int) -> list[int]:
    """Argmax decoding from the prompt; stops after emitting EOS_ID or max_len tokens.

    Feeds the prompt through one ``KVCache``, then verifies drafts copied
    from the ids so far (prompt-lookup speculative decoding): each step
    feeds the last token and its drafts as one forward, emits the argmax
    of every row up to the first draft it rejects, and keeps only the
    rows of the tokens it emitted in the cache.  A step that takes every
    draft doubles the next step's draft budget (at least 1, at most
    DRAFT_LEN); one that rejects a draft leaves as many as it took, so
    answers that copy little from the prompt feed few rejected rows.
    Every step emits at least one token.  Each emitted id is the argmax
    after the ids before it, of a row that matches one-token decoding's
    only up to last-bit rounding (a verification forward is a matrix
    product where one token is a vector product): a near tie could flip
    an id.  Identical ids are checked on fixtures, not guaranteed.
    """
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 1:
        raise ValueError(f"decode_greedy: max_len must be a positive int, got {max_len!r}")
    if not prompt.token_ids:
        raise ShapeError("decode_greedy: prompt has no text tokens to predict from")
    cfg = params.cfg
    cache = KVCache(cfg)
    no_patches = Tensor(np.zeros((0, cfg.d_model)))
    ids = list(prompt.token_ids)
    stop = len(ids) + max_len
    seq, drafts, budget = prompt, [], DRAFT_LEN
    with ad.no_grad():
        while True:
            _, logits = forward(seq, params, cache)
            # row r predicts the id after the r-th fed one; drafts[r] was fed after it
            for r, nxt in enumerate(np.argmax(logits.data[-1 - len(drafts) :], axis=1).tolist()):
                ids.append(nxt)
                if nxt == EOS_ID or len(ids) == stop:
                    return ids[len(prompt.token_ids) :]
                if r == len(drafts) or nxt != drafts[r]:
                    break
            cache.rows -= len(drafts) - r  # the rejected drafts' rows
            budget = min(DRAFT_LEN, max(1, 2 * budget)) if r == len(drafts) else r
            drafts = _drafts(ids, min(budget, stop - len(ids) - 1, cfg.max_seq - cache.rows - 1))
            seq = MultimodalSequence(no_patches, [nxt, *drafts])


def candidate_bundles(
    seqs: list[MultimodalSequence], vocab: VocabSpec, image: bool = False
) -> tuple[np.ndarray, Callable[[Tensor, np.ndarray], tuple[Tensor, Tensor | None]]]:
    """The packed rows the heads read (sorted), and the heads' inputs as a function of their hidden states.

    The rows are each sequence's candidate rows (each id exactly once in
    the generated region) and with ``image`` its image rows, which needs
    one patch count.  The function takes a ``forward_packed`` result
    holding the packed rows ``held`` (sorted) and gathers (B, n, d)
    candidates, in candidate-id order, and (B, P, d) image rows or None.
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

    def take(hidden: Tensor, held: np.ndarray) -> tuple[Tensor, Tensor | None]:
        def rows_of(rows, n):
            return hidden[np.searchsorted(held, rows)].reshape(len(seqs), n, hidden.shape[1])

        return rows_of(cand_rows, vocab.num_candidates), rows_of(img_rows, P) if image else None

    return np.unique(cand_rows + img_rows), take
