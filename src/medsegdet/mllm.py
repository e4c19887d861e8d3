"""Toy multimodal decoder-only language model.

Embeds image patches as a prefix, runs byte-level text through a small
pre-norm transformer with prefix-causal masking, and exposes the pieces
the perception pipeline needs: last-layer hidden states, logits over an
expandable vocabulary, greedy decoding (each row fed once, through a
per-block key/value cache), and candidate-token extraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .fusion import CandidateBundle

EOS_ID = 0

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

    def placeholder(self, k: int) -> str:
        """Text marker for the k-th candidate token (1-based)."""
        return f"<c{k}>"

    def placeholder_suffix(self) -> str:
        return " ".join(self.placeholder(k + 1) for k in range(self.num_candidates))


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


def decode_text(ids, vocab: VocabSpec) -> str:
    out: list[str] = []
    buf = bytearray()
    for i in ids:
        if i >= vocab.base_size:
            if buf:
                out.append(buf.decode("utf-8", errors="replace"))
                buf = bytearray()
            out.append(vocab.placeholder(i - vocab.base_size + 1))
        elif i != EOS_ID:
            buf.append(i)
    if buf:
        out.append(buf.decode("utf-8", errors="replace"))
    return "".join(out)


@dataclass(frozen=True)
class LmConfig:
    d_model: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    base_vocab: int = 256
    patch_size: int = 16
    max_seq: int = 512
    ln_eps: float = 1e-5

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
    """One image-prefixed token sequence.

    ``candidate_positions`` are indices into ``token_ids`` (text-relative)
    where candidate tokens occur inside the generated region, which starts
    at ``gen_start``.
    """

    patch_embeddings: Tensor
    token_ids: list[int]
    gen_start: int = 0
    candidate_positions: list[int] = field(default_factory=list)

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
    if any(t < 0 or t >= vocab.total_size for t in token_ids):
        raise ValueError("token id out of vocabulary")
    gen_start = len(prompt_ids)
    positions = [
        gen_start + i for i, t in enumerate(generated_ids) if t >= vocab.base_size
    ]
    return MultimodalSequence(patch_embeddings, token_ids, gen_start, positions)


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


def encode_image_patches(image: np.ndarray, patch_size: int, projection: Tensor) -> Tensor:
    """Flatten non-overlapping patches (row-major) and project each to a d-vector."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"encode_image_patches: expected 2-D image, got {image.shape}")
    H, W = image.shape
    if H % patch_size or W % patch_size:
        raise ShapeError(
            f"encode_image_patches: image {image.shape} not divisible by patch {patch_size}"
        )
    gh, gw = H // patch_size, W // patch_size
    patches = (
        image.reshape(gh, patch_size, gw, patch_size)
        .transpose(0, 2, 1, 3)
        .reshape(gh * gw, patch_size * patch_size)
    )
    return Tensor(patches) @ projection


_MASK_CACHE: dict = {}


def _prefix_causal_mask(P: int, T: int, cached: int = 0) -> np.ndarray:
    """Additive mask: every new row sees the cached rows and the image prefix; text is causal."""
    key = (P, T, cached)
    m = _MASK_CACHE.get(key)
    if m is None:
        S = P + T
        allowed = np.zeros((S, S), dtype=bool)
        allowed[:, :P] = True
        idx = np.arange(S)
        allowed |= idx[None, :] <= idx[:, None]
        m = np.pad(np.where(allowed, 0.0, -1e9), ((0, 0), (cached, 0)))
        _MASK_CACHE[key] = m
    return m


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


def _layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ad.power(var + eps, -0.5) * g + b


def _attention(
    x: Tensor, blk: BlockParams, mask: np.ndarray, n_heads: int, cache: KVCache | None, block: int
) -> Tensor:
    d = x.shape[1]
    dh = d // n_heads
    q = x @ blk.wq
    k = x @ blk.wk
    v = x @ blk.wv
    if cache is not None:
        k, v = cache.extend(block, k, v)
    heads = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
        scores = (qh @ kh.T) * (dh**-0.5) + mask
        heads.append(ad.softmax(scores) @ vh)
    return ad.concat(heads, axis=1) @ blk.wo


def forward(seq: MultimodalSequence, params: ModelParams, cache: KVCache | None = None) -> tuple[Tensor, Tensor]:
    """Run the transformer; returns (hidden (P+T)×d, logits T×V).

    Hidden rows align 1:1 with input positions; logits cover text
    positions only.  With a ``cache`` (under ``no_grad`` only), ``seq``
    holds just the rows not fed yet, and only an empty cache takes image
    patches.  The new rows take the next positions, see every cached row
    and are causal among themselves; their keys and values join the cache.
    """
    cfg = params.cfg
    P = seq.num_patches
    T = len(seq.token_ids)
    n = 0 if cache is None else cache.rows
    if T == 0 and P == 0:
        raise ShapeError("forward: empty sequence")
    if cache is not None and ad.is_grad_enabled():
        raise CacheGradError("forward: a KV cache carries no gradient; decode under no_grad")
    if n and P:
        raise ShapeError(f"forward: {P} image patches after {n} cached rows")
    if any(t < 0 or t >= params.vocab_size for t in seq.token_ids):
        raise ValueError("forward: token id out of vocabulary")
    if n + P + T > cfg.max_seq:
        raise ShapeError(f"forward: sequence length {n + P + T} exceeds max_seq {cfg.max_seq}")

    emb = ad.embedding_lookup(params.tok_emb, seq.token_ids)
    x = ad.concat([seq.patch_embeddings, emb], axis=0) if P else emb
    x = x + params.pos_emb[n : n + P + T]
    mask = _prefix_causal_mask(P, T, n)
    for i, blk in enumerate(params.blocks):
        x = x + _attention(_layer_norm(x, blk.ln1_g, blk.ln1_b, cfg.ln_eps), blk, mask, cfg.n_heads, cache, i)
        h = ad.relu(_layer_norm(x, blk.ln2_g, blk.ln2_b, cfg.ln_eps) @ blk.w1 + blk.b1)
        x = x + h @ blk.w2 + blk.b2
    if cache is not None:
        cache.rows = n + P + T
    hidden = x
    logits = hidden[P : P + T] @ params.out_proj.T
    return hidden, logits


def decode_greedy(
    prompt: MultimodalSequence,
    params: ModelParams,
    max_len: int,
    eos_id: int = EOS_ID,
) -> list[int]:
    """Argmax decoding from the prompt; stops after emitting eos_id or max_len.

    Feeds the prompt once, then each new token, through one ``KVCache``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    cache = KVCache(params.cfg)
    no_patches = Tensor(np.zeros((0, params.cfg.d_model)))
    seq = prompt
    generated: list[int] = []
    with ad.no_grad():
        for _ in range(max_len):
            _, logits = forward(seq, params, cache)
            nxt = int(np.argmax(logits.data[-1]))
            generated.append(nxt)
            if nxt == eos_id:
                break
            seq = MultimodalSequence(no_patches, [nxt])
    return generated


def extract_candidate_embeddings(
    hidden: Tensor, seq: MultimodalSequence, vocab: VocabSpec
) -> CandidateBundle:
    """Pull per-candidate hidden rows (in candidate-id order) plus h_img/h_txt.

    Each candidate id must occur exactly once in the generated region.
    """
    P = seq.num_patches
    gen = seq.token_ids[seq.gen_start :]
    rows = []
    for cid in vocab.candidate_ids:
        hits = [i for i, t in enumerate(gen) if t == cid]
        if not hits:
            raise CandidateAbsentError(
                f"candidate token {cid} absent from the generated region"
            )
        if len(hits) > 1:
            raise DuplicateCandidateError(
                f"candidate token {cid} occurs {len(hits)} times in the generated region"
            )
        rows.append(hidden[P + seq.gen_start + hits[0]])
    candidates = ad.concat([r.reshape(1, -1) for r in rows], axis=0)
    return CandidateBundle(
        candidates=candidates,
        h_img=hidden[:P],
        h_txt=hidden[P:],
    )
