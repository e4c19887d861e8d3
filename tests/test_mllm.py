"""Tests for the toy multimodal language model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import medsegdet.autodiff as ad
from medsegdet import mllm
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.losses import text_ce_loss
from medsegdet.mllm import (
    EOS_ID,
    CacheGradError,
    CandidateAbsentError,
    DuplicateCandidateError,
    LN_EPS,
    KVCache,
    LmConfig,
    ModelParams,
    MultimodalSequence,
    PlaceholderRangeError,
    VocabSpec,
    build_sequence,
    decode_greedy,
    encode_image_patches,
    image_patches,
    encode_text,
    attention_sublayer,
    candidate_bundles,
    expand_vocabulary,
    ffn_sublayer,
    forward,
    forward_packed,
    init_params,
)

SMALL = LmConfig(d_model=8, n_blocks=2, n_heads=2, base_vocab=16, patch_size=2, max_seq=32)


def no_patches(d):
    return Tensor(np.zeros((0, d)))


def rand_patches(p, d, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(p, d)))


# -- tokenizer ----------------------------------------------------------------

def test_encode_text_maps_placeholders_to_candidate_ids():
    vocab = VocabSpec(base_size=256, num_candidates=2)
    ids = encode_text("hi <c1> <c2>", vocab)
    assert ids == [ord("h"), ord("i"), ord(" "), 256, ord(" "), 257]


def test_encode_text_rejects_out_of_range_placeholder():
    with pytest.raises(PlaceholderRangeError, match="placeholder <c3> outside candidate range 1..2"):
        encode_text("<c3>", VocabSpec(base_size=256, num_candidates=2))
    with pytest.raises(PlaceholderRangeError):
        encode_text("a <c0>", VocabSpec(base_size=256, num_candidates=2))


# -- patch encoding -----------------------------------------------------------

def test_encode_image_patches_shape():
    proj = Tensor(np.random.default_rng(0).normal(size=(64, 8)))
    out = encode_image_patches(np.ones((16, 16)), 8, proj)
    assert out.shape == (4, 8)


def test_encode_image_patches_zero_image_gives_zero_rows():
    proj = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
    out = encode_image_patches(np.zeros((4, 4)), 2, proj)
    np.testing.assert_array_equal(out.data, np.zeros((4, 8)))


def test_encode_image_patches_localized_difference():
    rng = np.random.default_rng(2)
    proj = Tensor(rng.normal(size=(4, 8)))
    img1 = rng.normal(size=(4, 4))
    img2 = img1.copy()
    img2[2:4, 0:2] += 1.0  # patch index 2 in row-major patch order
    r1 = encode_image_patches(img1, 2, proj).data
    r2 = encode_image_patches(img2, 2, proj).data
    diff = np.any(r1 != r2, axis=1)
    assert diff.tolist() == [False, False, True, False]


def test_image_patches_grid_shape():
    images = np.random.default_rng(6).normal(size=(2, 8, 6))
    grid = image_patches(images, 2)
    assert grid.shape == (2, 4, 3, 4)
    np.testing.assert_array_equal(grid[1, 2, 1], images[1, 4:6, 2:4].reshape(-1))
    assert image_patches(images[0], 2).shape == (4, 3, 4)
    with pytest.raises(ShapeError):
        image_patches(np.zeros((1, 7, 6)), 2)
    with pytest.raises(ShapeError):
        image_patches(np.zeros(8), 2)


def test_encode_image_patches_rejects_indivisible():
    proj = Tensor(np.zeros((4, 8)))
    with pytest.raises(ShapeError):
        encode_image_patches(np.zeros((5, 4)), 2, proj)
    with pytest.raises(ShapeError):  # one image at a time: a stack is not flattened into rows
        encode_image_patches(np.zeros((2, 4, 4)), 2, proj)


# -- forward ------------------------------------------------------------------

def test_forward_identity_network_returns_embedding_row():
    cfg = LmConfig(d_model=8, n_blocks=0, n_heads=2, base_vocab=16, patch_size=2, max_seq=8)
    params = init_params(cfg, seed=3)
    seq = MultimodalSequence(no_patches(8), [5])
    hidden, logits = forward(seq, params)
    np.testing.assert_array_equal(hidden.data[0], params.tok_emb.data[5])
    assert logits.shape == (1, 16)


def test_forward_shapes_and_determinism():
    params = init_params(SMALL, seed=4)
    seq = MultimodalSequence(rand_patches(4, 8, seed=5), [1, 2, 3])
    h1, l1 = forward(seq, params)
    h2, l2 = forward(seq, params)
    assert h1.shape == (7, 8) and l1.shape == (3, 16)
    np.testing.assert_array_equal(l1.data, l2.data)


def test_forward_causality_last_token_change():
    params = init_params(SMALL, seed=6)
    patches = rand_patches(2, 8, seed=7)
    _, la = forward(MultimodalSequence(patches, [1, 2, 3, 4]), params)
    _, lb = forward(MultimodalSequence(patches, [1, 2, 3, 9]), params)
    np.testing.assert_array_equal(la.data[:3], lb.data[:3])
    assert np.any(la.data[3] != lb.data[3])


def test_forward_causality_prefix_recomputation():
    params = init_params(SMALL, seed=8)
    patches = rand_patches(3, 8, seed=9)
    ids = [4, 1, 15, 2, 7]
    _, full = forward(MultimodalSequence(patches, ids), params)
    for k in range(1, len(ids) + 1):
        _, part = forward(MultimodalSequence(patches, ids[:k]), params)
        np.testing.assert_allclose(part.data, full.data[:k], rtol=0, atol=1e-10)


def test_forward_rejects_bad_tokens_and_lengths():
    params = init_params(SMALL, seed=10)
    with pytest.raises(ValueError, match="forward_packed: token id out of vocabulary"):
        forward(MultimodalSequence(no_patches(8), [99]), params)
    with pytest.raises(ShapeError, match="forward_packed: empty sequence"):
        forward(MultimodalSequence(no_patches(8), []), params)
    with pytest.raises(ShapeError, match="forward_packed: sequence length 40 exceeds max_seq 32"):
        forward(MultimodalSequence(no_patches(8), [1] * 40), params)


def test_forward_gradcheck():
    ad.reset_tape()
    cfg = LmConfig(d_model=8, n_blocks=2, n_heads=2, base_vocab=12, patch_size=2, max_seq=16)
    params = init_params(cfg, seed=11)
    patches = rand_patches(2, 8, seed=12)
    seq = MultimodalSequence(patches, [1, 4, 2])
    rng = np.random.default_rng(13)
    c2 = rng.normal(size=(5, 8))

    targets, weights = [4, 2, 0], [1.0, 0.5, 2.0]

    def f():
        # forward's logits are off the tape: the trained ones form inside text_ce_loss
        hidden, _ = forward(seq, params)
        return text_ce_loss(hidden[2:5], params.out_proj, targets, weights) * 3.0 + (hidden * c2).sum()

    leaves = [t for t in params.named().values() if t.requires_grad]
    err = ad.finite_difference_check(f, leaves, max_coords_per_param=4)
    assert err < 1e-4
    tape = ad.reset_tape()
    hidden, logits = forward(seq, params)
    assert not logits.requires_grad and tape.nodes[-1].tensor is hidden
    np.testing.assert_array_equal(logits.data, hidden.data[2:] @ params.out_proj.data.T.copy())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 6)).filter(lambda pt: sum(pt) > 0),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
def test_packed_rows_equal_per_sample_forward_and_ignore_other_sequences(shapes, seed):
    assume(any(T for _, T in shapes))
    params = random_model(SMALL, 43)
    rng = np.random.default_rng(seed)
    seqs = [
        MultimodalSequence(rand_patches(P, 8, seed=seed + i), rng.integers(0, 18, T).tolist())
        for i, (P, T) in enumerate(shapes)
    ]
    hidden = forward_packed(seqs, params)
    offsets = np.cumsum([0] + [P + T for P, T in shapes]).tolist()
    assert hidden.shape == (offsets[-1], 8)
    for seq, a, b in zip(seqs, offsets, offsets[1:]):
        np.testing.assert_allclose(hidden.data[a:b], forward(seq, params)[0].data, rtol=0, atol=1e-12)

    k = int(rng.choice([i for i, (_, T) in enumerate(shapes) if T]))
    changed = list(seqs)
    changed[k] = MultimodalSequence(seqs[k].patch_embeddings, [(t + 1) % 18 for t in seqs[k].token_ids])
    hidden2 = forward_packed(changed, params)
    for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
        if i != k:
            assert hidden2.data[a:b].tobytes() == hidden.data[a:b].tobytes()
    assert hidden2.data[offsets[k] : offsets[k + 1]].tobytes() != hidden.data[offsets[k] : offsets[k + 1]].tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 6)).filter(lambda pt: sum(pt) > 0),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
def test_forward_packed_rows_equal_the_full_pass_rows(shapes, data):
    params = random_model(SMALL, 45)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    seqs = [
        MultimodalSequence(rand_patches(P, 8, seed=seed + i), rng.integers(0, 18, T).tolist())
        for i, (P, T) in enumerate(shapes)
    ]
    full = forward_packed(seqs, params)
    n = sum(P + T for P, T in shapes)
    assert full.shape == (n, 8)
    single = [data.draw(st.integers(0, n - 1), label="single row")]
    some = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n), label="rows")
    for rows in (single, sorted(set(some))):
        part = forward_packed(seqs, params, rows=rows)
        assert part.shape == (len(rows), 8)
        np.testing.assert_allclose(part.data, full.data[rows], rtol=0, atol=1e-12)
    # the last block's queries go segment by segment, so a request comes sorted and distinct
    for rows in (single * 2, some):
        if rows != sorted(set(rows)):
            with pytest.raises(ShapeError, match="sorted and distinct"):
                forward_packed(seqs, params, rows=rows)


def test_forward_packed_rows_of_a_model_without_blocks_are_the_embedding_rows():
    cfg = LmConfig(d_model=8, n_blocks=0, n_heads=2, max_seq=32)
    params = init_params(cfg, seed=46)
    seq = MultimodalSequence(no_patches(8), [5, 6, 7, 8])
    full = forward_packed([seq], params)
    part = forward_packed([seq], params, rows=[1, 3])
    assert part.shape == (2, 8)
    np.testing.assert_array_equal(part.data, full.data[[1, 3]])


def test_forward_packed_rejects_rows_outside_the_packed_rows():
    params = random_model(SMALL, 47)
    seq = MultimodalSequence(no_patches(8), [1, 2, 3])
    for rows in ([-1, 2], [1, 3]):
        with pytest.raises(ShapeError, match="forward_packed: rows must be sorted and distinct, in 0..2"):
            forward_packed([seq], params, rows=rows)


def test_forward_packed_rejects_no_sequences_and_a_cache_of_several():
    params = random_model(SMALL, 44)
    with pytest.raises(ShapeError, match="no sequences"):
        forward_packed([], params)
    seq = MultimodalSequence(no_patches(8), [1])
    with ad.no_grad(), pytest.raises(ShapeError, match="one sequence"):
        forward_packed([seq, seq], params, KVCache(SMALL))


# -- a block's two sublayer nodes against the op-by-op composition ---------------

def taped_layer_norm(x, g, b):
    """Layer norm as the composition recorded it: one node from the shared kernels."""
    out, xhat, rstd = ad._layer_norm(x.data, g.data, b.data, LN_EPS)
    return ad._record(out, (x, g, b), lambda gout: ad._layer_norm_vjp(gout, xhat, rstd, g.data))


def taped_attention(q, k, v, segments, n_heads, queries):
    out, spans = ad._attention(q.data, k.data, v.data, segments, n_heads, queries)
    return ad._record(out, (q, k, v), lambda g: ad._attention_vjp(g, q.data, k.data, v.data, spans, n_heads))


def composed_attention(x, blk, segments, n_heads, cache=None, block=0, rows=None, queries=None):
    """``attention_sublayer`` as the tape recorded it, op by op."""
    h = taped_layer_norm(x, blk.ln1_g, blk.ln1_b)
    k, v = h @ blk.wk, h @ blk.wv
    if cache is not None:
        k, v = (Tensor(a) for a in cache.extend(block, k.data, v.data))
    if rows is not None:
        x, h = x[rows], h[rows]
    return x + taped_attention(h @ blk.wq, k, v, segments, n_heads, queries) @ blk.wo


def composed_ffn(x, blk):
    """``ffn_sublayer`` as the tape recorded it, op by op."""
    h = ad.relu(taped_layer_norm(x, blk.ln2_g, blk.ln2_b) @ blk.w1 + blk.b1)
    return x + h @ blk.w2 + blk.b2


def random_block(d, seed):
    """A block whose every parameter is random, so that each term of each gradient counts."""
    rng = np.random.default_rng(seed)
    blk = init_params(LmConfig(d_model=d, n_blocks=1, n_heads=2), seed=seed).blocks[0]
    for t in vars(blk).values():
        t.data[...] = rng.normal(scale=0.5, size=t.shape)
    return blk


def same_bits(*arrays):
    return len({(a.shape, np.asarray(a).tobytes()) for a in arrays}) == 1


# three packed sequences (P, T, cached), 15 rows; the last block's subset takes
# rows 1 and 5 of the first, the second's first two and the third's text rows
PACKED = [(3, 4, 0), (0, 5, 0), (2, 1, 0)]
SUBSET = {"rows": np.array([1, 5, 7, 8, 13, 14]), "queries": [np.array([1, 5]), np.array([0, 1]), np.array([1, 2])]}


@pytest.mark.parametrize("subset", [{}, SUBSET], ids=["every-row", "last-block-rows"])
@pytest.mark.parametrize("sublayer", ["attention", "ffn"])
def test_sublayer_node_is_bitwise_its_composition(sublayer, subset):
    blk = random_block(8, 51)
    rng = np.random.default_rng(52)
    x0 = rng.normal(size=(15, 8))
    if sublayer == "attention":
        fused, composed = attention_sublayer, composed_attention
        parents = ["ln1_g", "ln1_b", "wq", "wk", "wv", "wo"]
        args = (PACKED, 2)
        kwargs = subset
    else:  # the FFN is row by row: the subset case feeds it the subset's rows
        fused, composed = ffn_sublayer, composed_ffn
        parents = ["ln2_g", "ln2_b", "w1", "b1", "w2", "b2"]
        x0 = x0[subset["rows"]] if subset else x0
        args, kwargs = (), {}
    wout = rng.normal(size=(len(subset.get("rows", x0)), 8))
    wout[-1] = -0.0  # the last row's keys serve only its own query: its gradients are signed zeros
    results = []
    for fn in (fused, composed):
        tape = ad.reset_tape()
        x = Tensor(x0, requires_grad=True)
        y = fn(x, blk, *args, **kwargs)
        ops = sum(node.grad_fn is not None for node in tape.nodes)
        ad.backward((y * wout).sum())
        results.append([y.data, x.grad, *(getattr(blk, name).grad for name in parents)])
        with ad.no_grad():
            y_nograd = fn(Tensor(x0, requires_grad=True), blk, *args, **kwargs)
        assert not y_nograd.requires_grad and same_bits(y_nograd.data, y.data)
        if fn is fused:
            assert ops == 1 and tape.nodes[-1].grad_fn is not None
    for i, (got, want) in enumerate(zip(*results)):
        assert same_bits(got, want), (["value", "x", *parents][i])


def test_sublayer_nodes_decode_through_a_cache_as_the_composition_does():
    blk = random_block(8, 53)
    rng = np.random.default_rng(54)
    prompt, token = rng.normal(size=(5, 8)), rng.normal(size=(1, 8))
    results = []
    for attention, ffn in ((attention_sublayer, ffn_sublayer), (composed_attention, composed_ffn)):
        cache = KVCache(LmConfig(d_model=8, n_blocks=2, n_heads=2, max_seq=16))
        tape = ad.reset_tape()
        out = []
        with ad.no_grad():
            # the prompt (2 patches, 3 tokens), then one token row after the 5 cached ones
            for x, segment in ((prompt, (2, 3, 0)), (token, (0, 1, 5))):
                y = attention(Tensor(x), blk, [segment], 2, cache, 1)
                out += [y.data, ffn(y, blk).data]
                cache.rows += len(x)
        assert tape.nodes == []
        results.append([*out, cache.keys[1, :6].copy(), cache.values[1, :6].copy()])
    for got, want in zip(*results):
        assert same_bits(got, want)


# -- greedy decoding ----------------------------------------------------------

def forced_model(target: int, vocab_size=16, d=4):
    cfg = LmConfig(d_model=d, n_blocks=0, n_heads=1, base_vocab=vocab_size, patch_size=2, max_seq=64)
    params = init_params(cfg, seed=0)
    params.tok_emb = Tensor(np.ones((vocab_size, d)), requires_grad=True)
    params.pos_emb = Tensor(np.zeros((64, d)), requires_grad=True)
    out = np.zeros((vocab_size, d))
    out[target] = 1.0
    params.out_proj = Tensor(out, requires_grad=True)
    return params


def test_decode_greedy_forced_token():
    params = forced_model(7)
    prompt = MultimodalSequence(no_patches(4), [1, 2])
    assert decode_greedy(prompt, params, max_len=6) == [7] * 6


def test_decode_greedy_stops_at_eos():
    params = forced_model(EOS_ID)
    prompt = MultimodalSequence(no_patches(4), [1, 2])
    assert decode_greedy(prompt, params, max_len=6) == [EOS_ID]


def test_decode_greedy_emits_after_eos_ending_prompt():
    params = forced_model(7)
    prompt = MultimodalSequence(no_patches(4), [1, EOS_ID])
    ids = decode_greedy(prompt, params, max_len=3)
    assert len(ids) >= 1 and ids[0] == 7


def test_decode_greedy_rejects_bad_max_len():
    # 2.5 once raised a bare TypeError and True decoded one token
    for max_len in (0, -1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="max_len must be a positive int"):
            decode_greedy(MultimodalSequence(no_patches(4), [1]), forced_model(7), max_len=max_len)


def test_decode_greedy_rejects_prompt_without_text_tokens():
    prompt = MultimodalSequence(rand_patches(3, 4), [])
    with pytest.raises(ShapeError, match="decode_greedy"):
        decode_greedy(prompt, forced_model(7), max_len=3)


# -- KV cache -----------------------------------------------------------------

def reference_decode(prompt, params, max_len, eos_id=EOS_ID):
    """Greedy decoding without a cache: the whole sequence again for every token."""
    generated = []
    with ad.no_grad():
        for _ in range(max_len):
            _, logits = forward(MultimodalSequence(prompt.patch_embeddings, prompt.token_ids + generated), params)
            generated.append(int(np.argmax(logits.data[-1])))
            if generated[-1] == eos_id:
                break
    return generated


def random_model(cfg, seed):
    """init_params with random position embeddings, so positions matter."""
    params = expand_vocabulary(init_params(cfg, seed=seed), 2, seed=seed + 1)
    params.pos_emb.data[...] = np.random.default_rng(seed + 2).normal(scale=0.5, size=params.pos_emb.shape)
    return params


def successor_model(forced=None, vocab_size=16, max_seq=32):
    """No blocks: the argmax after id t at position p is ``forced[p]`` if
    given, else t + 1 (15 -> 1).  One-hot embeddings make every id and
    position decide alone, so drafts copied from a prompt that counts up
    are accepted, and a cache row count off by one moves a forced id."""
    V, S = vocab_size, max_seq
    params = init_params(LmConfig(d_model=V + S, n_blocks=0, n_heads=1, base_vocab=V, patch_size=2, max_seq=S))
    onehot = np.eye(V + S)
    params.tok_emb = Tensor(onehot[:V], requires_grad=True)
    params.pos_emb = Tensor(onehot[V:], requires_grad=True)
    out = np.zeros((V, V + S))
    out[np.arange(V) % (V - 1) + 1, np.arange(V)] = 1.0
    for p, t in (forced or {}).items():
        out[t, V + p] = 2.0
    params.out_proj = Tensor(out, requires_grad=True)
    return params


def successor_case(forced, prompt_ids, max_len, forwards, max_seq=32):
    params = successor_model(forced, max_seq=max_seq)
    return params, MultimodalSequence(no_patches(params.cfg.d_model), prompt_ids), max_len, forwards


# Each successor prompt starts 1 2 3 and ends 1 2, so the first id (3)
# drafts what follows 1 2 3 in the prompt.  The forced ids come after a
# rollback, so an off-by-one cache row count changes the decoded ids.
# A step that rejects a draft leaves the next step as many drafts as it
# took: after PART's 4 5 (9 rejected for 6), 6 drafts 7 8.
PART = [1, 2, 3, 4, 5, 9, 6, 7, 8, 1, 2]
COUNT_UP = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2]
DECODE_CASES = {  # id: (params, prompt, max_len, LM forwards)
    "forced": (forced_model(7), MultimodalSequence(no_patches(4), [1, 2]), 6, 4),
    "forced-eos": (forced_model(EOS_ID), MultimodalSequence(rand_patches(3, 4), [1, 2]), 6, 1),
    "two-blocks": (random_model(SMALL, 30), MultimodalSequence(rand_patches(4, 8, seed=31), [3, 1, 4, 1, 5]), 20, 16),
    "eos-ending-prompt": (random_model(SMALL, 32), MultimodalSequence(rand_patches(2, 8, seed=33), [9, 2, EOS_ID]), 20, 19),
    "text-only-to-max-seq": (random_model(SMALL, 34), MultimodalSequence(no_patches(8), [7]), 31, 30),
    "no-blocks": (random_model(LmConfig(d_model=8, n_blocks=0, n_heads=2, base_vocab=16, max_seq=32), 36),
                  MultimodalSequence(rand_patches(3, 8, seed=37), [4, 4]), 20, 10),
    # 3 drafts 7 ..., 4 rejects the first, then EOS forced at 7
    "rejected-at-first-draft": successor_case({7: EOS_ID}, [1, 2, 3, 7, 1, 2], 20, 3),
    # 3 drafts 4 5 9 ..., 4 5 accepted, 9 rejected for 6; EOS forced at 14 rejects 7
    "accepted-in-part": successor_case({14: EOS_ID}, PART, 20, 3),
    # 3 drafts 4 ... 11, all accepted, with 12; 12 drafts 1 ..., 13 rejects it; EOS forced at 24
    "accepted-whole": successor_case({24: EOS_ID}, COUNT_UP, 20, 4),
    # 3 drafts 4 5 6 9 ..., 9 rejected for 7; 7 drafts 8 0 5 and EOS forced at 19 accepts the 0
    "eos-inside-accepted-run": successor_case({19: EOS_ID}, [1, 2, 3, 4, 5, 6, 9, 6, 7, 8, 0, 5, 1, 2], 20, 3),
    # after PART's 6 only one draft, 7, fits in max_len; the last id, forced at 15, is 15
    "cut-by-max-len": successor_case({15: 15}, PART, 6, 3),
    # max_seq 17: PART's 6 7 8 fill the last rows, and 8 is forced at 16 to 15
    "accepted-to-max-seq": successor_case({16: 15}, PART, 7, 3, max_seq=17),
    # max_len past max_seq 22: 3 ... 7 accepted, 9 rejected for 8, which may draft
    # 9 10 11 1 but stops at the last row (9 10), where EOS is forced
    "eos-on-the-last-row": successor_case({21: EOS_ID}, [1, 2, 3, 4, 5, 6, 7, 9, 8, 9, 10, 11, 1, 2], 20, 3,
                                          max_seq=22),
    # random two-block models, prompts that repeat a 3-gram
    "two-blocks-repeated-3-gram": (random_model(SMALL, 44), MultimodalSequence(rand_patches(2, 8, seed=45),
                                   [5, 6, 7, 5, 6, 7, 5, 6]), 20, 19),
    "two-blocks-repeated-3-gram-text": (random_model(SMALL, 46),
                                        MultimodalSequence(no_patches(8), [3, 9, 4, 3, 9, 4, 3, 9, 4, 3]), 20, 18),
}


@pytest.mark.parametrize("params, prompt, max_len", [c[:3] for c in DECODE_CASES.values()], ids=list(DECODE_CASES))
def test_cached_decoding_matches_uncached_loop(params, prompt, max_len):
    assert decode_greedy(prompt, params, max_len) == reference_decode(prompt, params, max_len)


@pytest.mark.parametrize("params, prompt, max_len, forwards", list(DECODE_CASES.values()), ids=list(DECODE_CASES))
def test_decoding_runs_at_most_one_lm_forward_per_token(monkeypatch, params, prompt, max_len, forwards):
    calls, real = [], mllm.forward
    monkeypatch.setattr(mllm, "forward", lambda *a, **k: calls.append(1) or real(*a, **k))
    ids = decode_greedy(prompt, params, max_len)
    assert len(calls) == forwards <= len(ids)


@pytest.mark.parametrize("prompt_ids, eos_at, fed", [
    # 4 5 taken, 9 rejected for 6: the next step drafts two (7 8), not eight
    (PART, 14, [11, 9, 3]),
    # 7 rejected at once: the next step drafts none, the one after one (6)
    ([1, 2, 3, 7, 4, 5, 6, 1, 2], 12, [9, 8, 1, 2]),
], ids=["taken-in-part", "rejected-at-once"])
def test_draft_budget_follows_the_drafts_taken(monkeypatch, prompt_ids, eos_at, fed):
    params, prompt, max_len, _ = successor_case({eos_at: EOS_ID}, prompt_ids, 20, None)
    rows, real = [], mllm.forward
    monkeypatch.setattr(mllm, "forward", lambda seq, *a, **k: rows.append(len(seq.token_ids)) or real(seq, *a, **k))
    assert decode_greedy(prompt, params, max_len) == reference_decode(prompt, params, max_len)
    assert rows == fed


def test_decoding_past_max_seq_fails_as_the_uncached_loop_does():
    params = successor_model(max_seq=24)
    prompt = MultimodalSequence(no_patches(params.cfg.d_model), COUNT_UP)
    for decode in (decode_greedy, reference_decode):
        with pytest.raises(ShapeError, match="exceeds max_seq 24"):
            decode(prompt, params, 12)


def test_row_by_row_cache_matches_full_forward():
    params = random_model(SMALL, 38)
    patches = rand_patches(3, 8, seed=39)
    ids = [4, 1, 15, 2, 7, 16, 17, 0]
    full_hidden, full_logits = forward(MultimodalSequence(patches, ids), params)
    cache = KVCache(SMALL)
    with ad.no_grad():
        parts = [forward(MultimodalSequence(patches, ids[:1]), params, cache)]
        parts += [forward(MultimodalSequence(no_patches(8), [t]), params, cache) for t in ids[1:]]
    assert cache.rows == 3 + len(ids)
    hidden = np.concatenate([h.data for h, _ in parts])
    logits = np.concatenate([lg.data for _, lg in parts])
    np.testing.assert_allclose(hidden, full_hidden.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logits, full_logits.data, rtol=0, atol=1e-12)


def test_cache_rejects_patches_after_text():
    params = random_model(SMALL, 40)
    cache = KVCache(SMALL)
    with ad.no_grad():
        forward(MultimodalSequence(rand_patches(2, 8), [1]), params, cache)
        with pytest.raises(ShapeError, match="patches after"):
            forward(MultimodalSequence(rand_patches(1, 8), [2]), params, cache)


def test_cache_under_enabled_grad_is_rejected():
    params = random_model(SMALL, 41)
    with pytest.raises(CacheGradError):
        forward(MultimodalSequence(no_patches(8), [1]), params, KVCache(SMALL))


def test_cache_counts_cached_rows_against_max_seq():
    params = random_model(SMALL, 42)
    cache = KVCache(SMALL)
    with ad.no_grad():
        forward(MultimodalSequence(rand_patches(4, 8), [1] * (SMALL.max_seq - 5)), params, cache)
        forward(MultimodalSequence(no_patches(8), [2]), params, cache)
        assert cache.rows == SMALL.max_seq
        with pytest.raises(ShapeError, match="exceeds max_seq"):
            forward(MultimodalSequence(no_patches(8), [3]), params, cache)


# -- candidate extraction -----------------------------------------------------

def expanded_small(seed=14):
    params = init_params(SMALL, seed=seed)
    return expand_vocabulary(params, 2, seed=seed + 1)


def extract(hidden, seq, vocab):
    """The one-sequence batch of ``candidate_bundles``, (candidates, image rows), from every row."""
    _, heads_of = candidate_bundles([seq], vocab, image=True)
    return heads_of(hidden, np.arange(hidden.shape[0]))


def test_extract_candidate_rows_match_hidden():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small()
    patches = rand_patches(2, 8, seed=15)
    seq = build_sequence(patches, [1, 2, 3], [4, 5, 16, 17, EOS_ID], vocab)
    hidden, _ = forward(seq, params)
    cands, h_img = extract(hidden, seq, vocab)
    np.testing.assert_array_equal(cands.data[0, 0], hidden.data[2 + 5])
    np.testing.assert_array_equal(cands.data[0, 1], hidden.data[2 + 6])
    np.testing.assert_array_equal(h_img.data[0], hidden.data[:2])
    assert cands.shape == (1, 2, 8)


def test_extract_orders_by_candidate_id_not_position():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=16)
    seq = build_sequence(no_patches(8), [1], [17, 9, 16], vocab)
    hidden, _ = forward(seq, params)
    cands, _ = extract(hidden, seq, vocab)
    np.testing.assert_array_equal(cands.data[0, 0], hidden.data[3])  # id 16
    np.testing.assert_array_equal(cands.data[0, 1], hidden.data[1])  # id 17


def test_extract_candidate_absent():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=17)
    seq = build_sequence(no_patches(8), [1], [16, 5], vocab)
    hidden, _ = forward(seq, params)
    with pytest.raises(CandidateAbsentError):
        extract(hidden, seq, vocab)


def test_extract_duplicate_candidate_rejected():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=18)
    seq = build_sequence(no_patches(8), [1], [16, 17, 16], vocab)
    hidden, _ = forward(seq, params)
    with pytest.raises(DuplicateCandidateError):
        extract(hidden, seq, vocab)


def test_prompt_region_candidates_ignored():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=19)
    seq = build_sequence(no_patches(8), [16, 17], [16, 17], vocab)
    hidden, _ = forward(seq, params)
    cands, _ = extract(hidden, seq, vocab)
    np.testing.assert_array_equal(cands.data[0, 0], hidden.data[2])


def test_candidate_bundles_of_packed_sequences_stack_each_ones_rows():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=23)
    seqs = [
        build_sequence(rand_patches(2, 8, seed=24), [1, 2], [16, 3, 17], vocab),
        build_sequence(rand_patches(2, 8, seed=25), [4], [5, 17, 6, 16, EOS_ID], vocab),
    ]
    hidden = forward_packed(seqs, params)
    offsets = np.cumsum([0] + [seq.num_patches + len(seq.token_ids) for seq in seqs])
    rows, heads_of = candidate_bundles(seqs, vocab, image=True)
    assert rows.tolist() == [0, 1, 2 + 2, 2 + 4, offsets[1], offsets[1] + 1, offsets[1] + 2 + 2, offsets[1] + 2 + 4]
    every = np.arange(hidden.shape[0])
    cands, h_img = heads_of(hidden, every)
    assert cands.shape == (2, 2, 8) and h_img.shape == (2, 2, 8)
    for i, seq in enumerate(seqs):
        own = hidden.data[offsets[i] : offsets[i + 1]]
        np.testing.assert_array_equal(cands.data[i], extract(Tensor(own), seq, vocab)[0].data[0])
        np.testing.assert_array_equal(h_img.data[i], own[:2])
    # from a pass that holds just the rows read: the same rows, and no image rows unless asked
    part_cands, part_img = heads_of(forward_packed(seqs, params, rows=rows), rows)
    np.testing.assert_allclose(part_cands.data, cands.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(part_img.data, h_img.data, rtol=0, atol=1e-12)
    cand_rows, cands_of = candidate_bundles(seqs, vocab)
    assert cand_rows.tolist() == rows[[2, 3, 6, 7]].tolist() and cands_of(hidden, every)[1] is None
    mixed = [seqs[0], build_sequence(no_patches(8), [4], [16, 17], vocab)]
    with pytest.raises(ShapeError, match="2 and 0 image patches"):
        candidate_bundles(mixed, vocab, image=True)


# -- vocabulary expansion -----------------------------------------------------

def test_expansion_preserves_base_logits_exactly():
    params = init_params(SMALL, seed=20)
    expanded = expand_vocabulary(params, 2, seed=21)
    patches = rand_patches(2, 8, seed=22)
    seq = MultimodalSequence(patches, [3, 1, 4, 1, 5])
    _, base_logits = forward(seq, params)
    _, exp_logits = forward(seq, expanded)
    assert exp_logits.shape == (5, 18)
    np.testing.assert_array_equal(exp_logits.data[:, :16], base_logits.data)


def test_expansion_new_logits_are_exactly_zero():
    params = expand_vocabulary(init_params(SMALL, seed=23), 2, seed=24)
    _, logits = forward(MultimodalSequence(no_patches(8), [1, 2]), params)
    np.testing.assert_array_equal(logits.data[:, 16:], np.zeros((2, 2)))


def test_expansion_deterministic_and_gaussian_scaled():
    params = init_params(SMALL, seed=25)
    a = expand_vocabulary(params, 2, seed=9)
    b = expand_vocabulary(params, 2, seed=9)
    np.testing.assert_array_equal(a.tok_emb.data, b.tok_emb.data)
    new_rows = a.tok_emb.data[16:]
    assert np.all(np.abs(new_rows) < 0.02 * 6)
    assert np.any(new_rows != 0)


def test_build_sequence_rejects_out_of_vocab():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    with pytest.raises(ValueError):
        build_sequence(no_patches(8), [1], [18], vocab)
