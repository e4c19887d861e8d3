"""Tests for synthetic records, the QA pipeline, splits, and JSONL round-trips."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from medsegdet.datagen import (
    CATEGORIES,
    DataError,
    ImageRecord,
    MockOracle,
    QAPair,
    candidate_placeholders,
    dataset_stats,
    generate_pipeline,
    read_jsonl,
    record_from_json,
    record_to_json,
    split_dataset,
    synth_records,
    training_ready,
)
from medsegdet.cli import _jsonl_bytes
from medsegdet.metrics import mask2box


def small_set(n=6, seed=3):
    return synth_records(n, seed=seed, hw=(32, 32))


# -- synthetic records ----------------------------------------------------------

def test_synth_records_deterministic():
    a = synth_records(5, seed=11, hw=(32, 32))
    b = synth_records(5, seed=11, hw=(32, 32))
    for ra, rb in zip(a, b):
        assert ra.id == rb.id and ra.label == rb.label and ra.modality == rb.modality
        np.testing.assert_array_equal(ra.image, rb.image)
        np.testing.assert_array_equal(ra.mask, rb.mask)
        assert ra.box.as_floats() == rb.box.as_floats()


def test_synth_records_box_matches_mask():
    for r in synth_records(20, seed=12, hw=(32, 32)):
        assert r.mask.any()
        assert r.box.as_floats() == mask2box(r.mask).as_floats()
        assert r.image.shape == (32, 32) and r.mask.shape == (32, 32)
        assert r.image.min() >= 0.0 and r.image.max() <= 1.0


def test_synth_records_category_balance():
    records = synth_records(1000, seed=13, hw=(16, 16))
    counts = {c: 0 for c in CATEGORIES}
    for r in records:
        counts[r.label] += 1
    for c, n in counts.items():
        assert abs(n / 1000 - 1 / len(CATEGORIES)) < 0.05


def test_synth_records_validation():
    with pytest.raises(ValueError):
        synth_records(0, seed=0)


def test_synth_records_polarity_detectable():
    for r in small_set(10, seed=14):
        inside = r.image[r.mask].mean()
        outside = r.image[~r.mask].mean()
        assert abs(inside - outside) > 0.1


# -- QA pipeline -------------------------------------------------------------------

def test_pipeline_keep_all_yields_eight_pairs():
    records = generate_pipeline(small_set(), MockOracle(), threads=1)
    for r in records:
        assert len(r.qa) == 8
        perspectives = [(p.perspective, p.length) for p in r.qa]
        assert perspectives.count(("attribute", "long")) == 2  # one per phrasing
        for pair in r.qa:
            assert r.label in pair.answer
            assert pair.answer.endswith(candidate_placeholders(2))
            for k in (1, 2):
                assert pair.answer.count(f"<c{k}>") == 1


def test_pipeline_runs_on_one_thread_only():
    records = small_set(2)
    with pytest.raises(ValueError, match="threads=4"):
        generate_pipeline(records, MockOracle(), threads=4)
    assert generate_pipeline(records, MockOracle()) == generate_pipeline(records, MockOracle(), threads=1)


def test_pipeline_byte_identical_reruns():
    def build():
        return generate_pipeline(synth_records(6, seed=5, hw=(32, 32)), MockOracle(seed=1))

    assert _jsonl_bytes(build()) == _jsonl_bytes(build())


# the output of 50 records at seed 5, recorded from the four-step oracle chain
# (caption, describe, evaluate, transform) that MockOracle.qa_pairs replaced
RECORDED_DATAGEN = {
    "jsonl_sha256": "5b8f4449089b7aa80c4eaeaa5228cae92235c136fc8e223fe771fdba0f3aabec",
    "stats": {
        "images": {"aorta": 5, "cyst": 5, "heart": 5, "kidney": 5, "liver": 5,
                   "lung": 5, "nodule": 5, "spleen": 5, "tumor": 5, "vertebra": 5},
        "qa": {"aorta": 40, "cyst": 40, "heart": 40, "kidney": 40, "liver": 40,
               "lung": 40, "nodule": 40, "spleen": 40, "tumor": 40, "vertebra": 40},
        "total_images": 50,
        "total_qa": 400,
    },
}


def test_pipeline_reproduces_recorded_bytes_and_stats():
    records = generate_pipeline(synth_records(50, seed=5), MockOracle(seed=5))
    assert hashlib.sha256(_jsonl_bytes(records)).hexdigest() == RECORDED_DATAGEN["jsonl_sha256"]
    assert dataset_stats(records) == RECORDED_DATAGEN["stats"]


def test_training_ready_filters_empty_qa():
    records = small_set(4)
    records[0] = ImageRecord(**{**vars(records[0]), "qa": [
        QAPair("q", "a lung <c1> <c2>", "attribute", "short")
    ]})
    ready = training_ready(records)
    assert ready == [records[0]]


# -- splits --------------------------------------------------------------------------

def test_split_exact_ratio():
    records = small_set(100, seed=6)
    train, val, test = split_dataset(records, seed=7)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    ids = lambda rs: {r.id for r in rs}
    assert ids(train) | ids(val) | ids(test) == ids(records)
    assert not (ids(train) & ids(val) or ids(train) & ids(test) or ids(val) & ids(test))


def test_split_large_set_within_one():
    records = [
        ImageRecord(f"r{i}", np.ones((1, 1)), np.ones((1, 1), bool),
                    mask2box(np.ones((1, 1), bool)), "lung", "ct")
        for i in range(12652)
    ]
    train, val, test = split_dataset(records, seed=8)
    assert abs(len(train) - 12652 * 0.8) <= 1
    assert abs(len(val) - 12652 * 0.1) <= 1
    assert abs(len(test) - 12652 * 0.1) <= 1
    assert len(train) + len(val) + len(test) == 12652


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 5000),
    weights=st.one_of(st.just((0.8, 0.1, 0.1)), st.tuples(*[st.floats(0.0, 1.0)] * 3)),
    seed=st.integers(0, 2**16),
)
def test_split_sizes_within_one_of_exact_for_any_count(n, weights, seed):
    total = sum(weights)
    assume(total > 0)
    ratios = tuple(w / total for w in weights)
    assume(abs(sum(ratios) - 1.0) <= 1e-9)
    parts = split_dataset(list(range(n)), ratios, seed)
    assert sorted(i for part in parts for i in part) == list(range(n))
    for part, r in zip(parts, ratios):
        assert abs(len(part) - r * n) <= 1


def test_split_deterministic_and_validated():
    records = small_set(10, seed=9)
    a = split_dataset(records, seed=10)
    b = split_dataset(records, seed=10)
    assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]
    with pytest.raises(ValueError):
        split_dataset(records, ratios=(0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        split_dataset(records[:2])


# -- statistics -----------------------------------------------------------------------

def test_dataset_stats_empty():
    stats = dataset_stats([])
    assert stats == {"images": {}, "qa": {}, "total_images": 0, "total_qa": 0}


def test_dataset_stats_recount():
    records = generate_pipeline(synth_records(40, seed=15, hw=(16, 16)), MockOracle(), threads=1)
    stats = dataset_stats(records)
    img_recount: dict = {}
    qa_recount: dict = {}
    for r in records:
        img_recount[r.label] = img_recount.get(r.label, 0) + 1
        qa_recount[r.label] = qa_recount.get(r.label, 0) + len(r.qa)
    assert stats["images"] == img_recount
    assert stats["qa"] == qa_recount
    assert stats["total_images"] == len(records)
    assert stats["total_qa"] == sum(len(r.qa) for r in records)


# -- serialization ----------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    records = generate_pipeline(small_set(5, seed=16), MockOracle(), threads=1)
    path = tmp_path / "data.jsonl"
    path.write_bytes(_jsonl_bytes(records))
    loaded = read_jsonl(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert back.id == orig.id and back.label == orig.label
        np.testing.assert_array_equal(back.mask, orig.mask)
        np.testing.assert_allclose(back.image, orig.image, atol=1e-7)  # float32 storage
        assert back.box.as_floats() == orig.box.as_floats()
        assert back.qa == orig.qa


_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)  # non-ASCII, controls and quotes included


@st.composite
def random_records(draw):
    # a valid record: a nonempty mask and the box read off it
    H, W = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    mask = draw(arrays(np.bool_, (H, W)))
    mask[draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))] = True
    qa = st.builds(QAPair, _TEXT, _TEXT, _TEXT, _TEXT)
    return ImageRecord(
        id=draw(_TEXT),
        image=draw(arrays(np.float32, (H, W), elements=st.floats(width=32, allow_nan=False))).astype(np.float64),
        mask=mask,
        box=mask2box(mask),
        label=draw(_TEXT),
        modality=draw(_TEXT),
        qa=draw(st.lists(qa, max_size=3)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records=st.lists(random_records(), max_size=4))
def test_jsonl_round_trip_of_random_records(records):
    data = _jsonl_bytes(records)
    # non-ASCII text is escaped, so the bytes do not depend on a reader's encoding
    assert data.isascii() and data.count(b"\n") == len(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.jsonl"
        path.write_bytes(data)
        loaded = read_jsonl(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert (back.id, back.label, back.modality, back.qa) == (orig.id, orig.label, orig.modality, orig.qa)
        assert back.image.dtype == np.float64 and back.image.tobytes() == orig.image.tobytes()
        assert back.mask.dtype == bool and np.array_equal(back.mask, orig.mask)
        assert back.box.as_floats() == orig.box.as_floats()


def test_jsonl_schema_fields(tmp_path):
    records = generate_pipeline(small_set(2, seed=17), MockOracle(), threads=1)
    obj = record_to_json(records[0])
    assert set(obj) == {
        "id", "width", "height", "image_b64", "mask_b64", "box", "label", "modality", "qa"
    }
    assert set(obj["qa"][0]) == {"question", "answer", "perspective", "length"}


def test_read_rejects_malformed(tmp_path):
    records = small_set(2, seed=18)
    good = record_to_json(records[0])

    bad_payload = dict(good)
    bad_payload["image_b64"] = good["image_b64"][:16]
    with pytest.raises(DataError):
        record_from_json(bad_payload)

    bad_box = dict(good)
    bad_box["box"] = [0.9, 0.1, 0.1, 0.5]
    with pytest.raises(DataError):
        record_from_json(bad_box)

    mismatched = dict(good)
    mismatched["box"] = [0.0, 0.0, 1.0, 1.0]
    if mask2box(records[0].mask).as_floats() != (0.0, 0.0, 1.0, 1.0):
        with pytest.raises(DataError):
            record_from_json(mismatched)

    path = tmp_path / "broken.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(DataError):
        read_jsonl(path)
