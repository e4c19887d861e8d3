"""Tests for the toy multimodal language model."""

import numpy as np
import pytest

import medsegdet.autodiff as ad
from medsegdet.autodiff import ShapeError, Tensor
from medsegdet.mllm import (
    EOS_ID,
    CacheGradError,
    CandidateAbsentError,
    DuplicateCandidateError,
    KVCache,
    LmConfig,
    ModelParams,
    MultimodalSequence,
    VocabSpec,
    build_sequence,
    decode_greedy,
    decode_text,
    encode_image_patches,
    encode_text,
    expand_vocabulary,
    extract_candidate_embeddings,
    forward,
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
    assert ids[:2] == [ord("h"), ord("i")]
    assert ids[3] == 256 and ids[5] == 257
    assert decode_text(ids, vocab) == "hi <c1> <c2>"


def test_encode_text_rejects_out_of_range_placeholder():
    with pytest.raises(ValueError):
        encode_text("<c3>", VocabSpec(base_size=256, num_candidates=2))


def test_decode_text_drops_eos():
    vocab = VocabSpec()
    assert decode_text([ord("a"), EOS_ID], vocab) == "a"


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


def test_encode_image_patches_rejects_indivisible():
    proj = Tensor(np.zeros((4, 8)))
    with pytest.raises(ShapeError):
        encode_image_patches(np.zeros((5, 4)), 2, proj)


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
    with pytest.raises(ValueError):
        forward(MultimodalSequence(no_patches(8), [99]), params)
    with pytest.raises(ShapeError):
        forward(MultimodalSequence(no_patches(8), []), params)
    with pytest.raises(ShapeError):
        forward(MultimodalSequence(no_patches(8), [1] * 40), params)


def test_forward_gradcheck():
    ad.reset_tape()
    cfg = LmConfig(d_model=8, n_blocks=2, n_heads=2, base_vocab=12, patch_size=2, max_seq=16)
    params = init_params(cfg, seed=11)
    patches = rand_patches(2, 8, seed=12)
    seq = MultimodalSequence(patches, [1, 4, 2])
    rng = np.random.default_rng(13)
    c1 = rng.normal(size=(3, 12))
    c2 = rng.normal(size=(5, 8))

    def f():
        hidden, logits = forward(seq, params)
        return (ad.softmax(logits) * c1).sum() + (hidden * c2).sum()

    leaves = [t for t in params.named().values() if t.requires_grad]
    err = ad.finite_difference_check(f, leaves, max_coords_per_param=4)
    assert err < 1e-4


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
    with pytest.raises(ValueError):
        decode_greedy(MultimodalSequence(no_patches(4), [1]), forced_model(7), max_len=0)


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


@pytest.mark.parametrize(
    "params, prompt, max_len",
    [
        (forced_model(7), MultimodalSequence(no_patches(4), [1, 2]), 6),
        (forced_model(EOS_ID), MultimodalSequence(rand_patches(3, 4), [1, 2]), 6),
        (random_model(SMALL, 30), MultimodalSequence(rand_patches(4, 8, seed=31), [3, 1, 4, 1, 5]), 20),
        (random_model(SMALL, 32), MultimodalSequence(rand_patches(2, 8, seed=33), [9, 2, EOS_ID]), 20),
        (random_model(SMALL, 34), MultimodalSequence(no_patches(8), [7]), 31),
        (random_model(LmConfig(d_model=8, n_blocks=0, n_heads=2, base_vocab=16, max_seq=32), 36),
         MultimodalSequence(rand_patches(3, 8, seed=37), [4, 4]), 20),
    ],
    ids=["forced", "forced-eos", "two-blocks", "eos-ending-prompt", "text-only-to-max-seq", "no-blocks"],
)
def test_cached_decoding_matches_uncached_loop(params, prompt, max_len):
    assert decode_greedy(prompt, params, max_len) == reference_decode(prompt, params, max_len)


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


def test_extract_candidate_rows_match_hidden():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small()
    patches = rand_patches(2, 8, seed=15)
    seq = build_sequence(patches, [1, 2, 3], [4, 5, 16, 17, EOS_ID], vocab)
    assert seq.candidate_positions == [5, 6]
    hidden, _ = forward(seq, params)
    bundle = extract_candidate_embeddings(hidden, seq, vocab)
    np.testing.assert_array_equal(bundle.candidates.data[0], hidden.data[2 + 5])
    np.testing.assert_array_equal(bundle.candidates.data[1], hidden.data[2 + 6])
    assert bundle.h_img.shape == (2, 8)
    assert bundle.h_txt.shape == (8, 8)


def test_extract_orders_by_candidate_id_not_position():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=16)
    seq = build_sequence(no_patches(8), [1], [17, 9, 16], vocab)
    hidden, _ = forward(seq, params)
    bundle = extract_candidate_embeddings(hidden, seq, vocab)
    np.testing.assert_array_equal(bundle.candidates.data[0], hidden.data[3])  # id 16
    np.testing.assert_array_equal(bundle.candidates.data[1], hidden.data[1])  # id 17


def test_extract_candidate_absent():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=17)
    seq = build_sequence(no_patches(8), [1], [16, 5], vocab)
    hidden, _ = forward(seq, params)
    with pytest.raises(CandidateAbsentError):
        extract_candidate_embeddings(hidden, seq, vocab)


def test_extract_duplicate_candidate_rejected():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=18)
    seq = build_sequence(no_patches(8), [1], [16, 17, 16], vocab)
    hidden, _ = forward(seq, params)
    with pytest.raises(DuplicateCandidateError):
        extract_candidate_embeddings(hidden, seq, vocab)


def test_prompt_region_candidates_ignored():
    vocab = VocabSpec(base_size=16, num_candidates=2)
    params = expanded_small(seed=19)
    seq = build_sequence(no_patches(8), [16, 17], [16, 17], vocab)
    hidden, _ = forward(seq, params)
    bundle = extract_candidate_embeddings(hidden, seq, vocab)
    np.testing.assert_array_equal(bundle.candidates.data[0], hidden.data[2])


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
