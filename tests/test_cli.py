"""Tests for the command-line entry points: exit codes, artifacts, determinism."""

import inspect
import json
import math
import re
import struct
import sys

import numpy as np
import pytest

from medsegdet import autodiff as ad
from medsegdet import trainer
from medsegdet.cli import _jsonl_bytes, _read_model, _read_split, gradcheck_suite, main
from medsegdet.datagen import DataError, MockOracle, generate_pipeline, read_jsonl, synth_records
from medsegdet.decoders import BBox
from medsegdet.metrics import EvalSample, evaluate_samples
from medsegdet.trainer import CheckpointError, load_checkpoint

TINY = {
    "total_iters": 4,
    "warmup_iters": 2,
    "batch_size": 1,
    "d_model": 16,
    "n_blocks": 1,
    "n_heads": 2,
    "mllm_patch": 32,
    "vision_patch": 8,
    "max_seq": 256,
    "mix_ratio": [1, 1],
    "seed": 5,
}


def run(*argv):
    return main([str(a) for a in argv])


def make_data(tmp_path, n=20, seed=1):
    out = tmp_path / "data"
    assert run("datagen", "--out", out, "--num-samples", n, "--seed", seed) == 0
    return out


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(TINY, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def train_tiny(tmp_path, data, **overrides):
    cfg = write_config(tmp_path, **overrides)
    ckpt = tmp_path / "run.ckpt"
    assert run("train", "--data", data, "--config", cfg, "--out", ckpt) == 0
    return ckpt


def untrained_checkpoint(tmp_path, monkeypatch, drop=None, config_json=None, patch=None):
    """A TINY checkpoint written without the entry ``drop``, with ``config_json`` as its config,
    or with the one occurrence of the bytes ``patch[0]`` replaced by ``patch[1]``."""
    model = trainer.init_model(trainer.TrainConfig.from_dict(TINY))
    opt = trainer.init_opt_state(model.trainable())
    path = tmp_path / "broken.ckpt"
    with monkeypatch.context() as m:
        if drop is not None:
            named = trainer.Model.named
            m.setattr(trainer.Model, "named", lambda self: {k: v for k, v in named(self).items() if k != drop})
        if config_json is not None:
            m.setattr(trainer.json, "dumps", lambda *args, **kwargs: config_json)
        trainer.save_checkpoint(path, model, opt, iteration=0)
    if patch is not None:
        blob = path.read_bytes()
        assert blob.count(patch[0]) == 1
        path.write_bytes(blob.replace(*patch))
    return path


def one_error_line_naming(capsys, path) -> str:
    """The one line a command wrote to stderr, after checking that it is an error naming ``path``."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
    return err[0]


def write_split(tmp_path, records, split="train"):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / f"{split}.jsonl").write_bytes(_jsonl_bytes(records))
    return data


@pytest.mark.parametrize("argv, code", [
    (["train"], 1),
    (["datagen", "--out", "out", "--num-samples", "abc"], 1),
    (["eval", "--data", "d", "--ckpt", "c", "--report", "r", "--split", "bogus"], 1),
    (["bogus"], 1),
    (["--help"], 0),
    (["train", "--help"], 0),
], ids=["train-without-flags", "num-samples-abc", "split-bogus", "unknown-command", "help", "train-help"])
def test_parser_errors_exit_1_and_help_exits_0(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == code
    assert "usage: medsegdet" in capsys.readouterr()[code == 1]
    assert list(tmp_path.iterdir()) == []


# -- datagen -------------------------------------------------------------------------


def test_datagen_writes_splits_and_stats(tmp_path):
    out = make_data(tmp_path, n=20, seed=1)
    train = read_jsonl(out / "train.jsonl")
    val = read_jsonl(out / "val.jsonl")
    test = read_jsonl(out / "test.jsonl")
    assert (len(train), len(val), len(test)) == (16, 2, 2)
    stats = json.loads((out / "stats.json").read_text())
    assert stats["total_images"] == 20
    for rec in train + val + test:
        for pair in rec.qa:
            assert rec.label in pair.answer


def test_datagen_identical_seeds_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("datagen", "--out", a, "--num-samples", 15, "--seed", 7) == 0
    assert run("datagen", "--out", b, "--num-samples", 15, "--seed", 7) == 0
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "stats.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_datagen_zero_samples_is_usage_error(tmp_path):
    out = tmp_path / "data"
    assert run("datagen", "--out", out, "--num-samples", 0) == 1
    assert not out.exists()


def test_datagen_unwritable_out_is_data_error(tmp_path):
    blocker = tmp_path / "plainfile"
    blocker.write_text("not a directory")
    assert run("datagen", "--out", blocker / "sub", "--num-samples", 5) == 2


# -- train ---------------------------------------------------------------------------


def test_train_writes_checkpoint_and_jsonl_log(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    assert ckpt.exists()
    saved = load_checkpoint(ckpt)
    assert saved.iteration == TINY["total_iters"]
    lines = (tmp_path / "run.ckpt.log").read_text().splitlines()
    assert len(lines) == TINY["total_iters"]
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["iter"] == i
        assert {"total", "txt", "mask", "bbox"} <= entry.keys()
        assert "sim" not in entry


def test_train_names_its_blas_and_thread_settings(tmp_path, capsys, monkeypatch):
    # trained bits depend on the BLAS kernel and thread count, so the run says which it had
    data = make_data(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    capsys.readouterr()
    train_tiny(tmp_path, data)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("blas")] == [
        f"blas: {blas['name']} {blas['version']}; OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=unset, MKL_NUM_THREADS=2"
    ]


def test_train_bad_config_field_is_usage_error(tmp_path, capsys):
    data = make_data(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"learning_rate": 1e-3}))
    code = run("train", "--data", data, "--config", cfg, "--out", tmp_path / "x.ckpt")
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_finetune_without_init_is_usage_error(tmp_path):
    data = make_data(tmp_path)
    cfg = write_config(tmp_path)
    code = run("train", "--data", data, "--config", cfg, "--mode", "finetune",
               "--out", tmp_path / "x.ckpt")
    assert code == 1


def test_train_finetune_logs_sim_every_iteration(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    cfg = write_config(tmp_path, name="ft.json", total_iters=3)
    out = tmp_path / "ft.ckpt"
    code = run("train", "--data", data, "--config", cfg, "--mode", "finetune",
               "--init", ckpt, "--out", out)
    assert code == 0
    lines = (tmp_path / "ft.ckpt.log").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert "sim" in json.loads(line)


def test_train_missing_data_is_data_error(tmp_path):
    cfg = write_config(tmp_path)
    code = run("train", "--data", tmp_path / "nope", "--config", cfg,
               "--out", tmp_path / "x.ckpt")
    assert code == 2


def test_train_split_of_two_image_shapes_is_data_error(tmp_path, capsys):
    data = write_split(tmp_path, synth_records(2, seed=3) + synth_records(1, seed=4, hw=(32, 32)))
    out = tmp_path / "m.ckpt"
    assert run("train", "--data", data, "--config", write_config(tmp_path), "--out", out) == 2
    assert "(64, 64) and (32, 32)" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "m.ckpt.log").exists()


@pytest.mark.parametrize("hw, message", [
    ((336, 336), "exceeds max_seq 384"),
    ((40, 40), "(40, 40) not divisible by patch 16"),
], ids=["336x336", "40x40"])
def test_train_on_images_the_model_cannot_take_is_data_error(tmp_path, capsys, hw, message):
    data = write_split(tmp_path, synth_records(2, seed=3, hw=hw))
    cfg = write_config(tmp_path, mllm_patch=16, max_seq=384, mix_ratio=[1, 0])
    out = tmp_path / "x.ckpt"
    assert run("train", "--data", data, "--config", cfg, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_on_answers_without_a_candidate_token_is_data_error(tmp_path, capsys):
    data = make_data(tmp_path)
    cfg = write_config(tmp_path, fusion={"n": 3}, mix_ratio=[0, 1])  # QA answers hold <c1> <c2> only
    out = tmp_path / "x.ckpt"
    assert run("train", "--data", data, "--config", cfg, "--out", out) == 2
    assert "candidate token 258 absent" in capsys.readouterr().err
    assert not out.exists()


def test_train_init_architecture_mismatch_is_usage_error(tmp_path, capsys):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    cfg = write_config(tmp_path, name="wide.json", d_model=24, n_heads=3)
    code = run("train", "--data", data, "--config", cfg, "--init", ckpt,
               "--out", tmp_path / "y.ckpt")
    assert code == 1
    assert "d_model" in capsys.readouterr().err


def test_train_nonfinite_loss_is_numeric_error(tmp_path, capsys, monkeypatch):
    data = make_data(tmp_path)
    real = trainer.text_ce_loss
    monkeypatch.setattr(trainer, "text_ce_loss", lambda *a, **k: real(*a, **k) * float("nan"))
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "nan.ckpt"
    assert run("train", "--data", data, "--config", cfg, "--out", ckpt) == 3
    assert "iteration 0" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_out_that_is_a_directory_is_data_error_and_leaves_no_tmp(tmp_path, capsys):
    data = make_data(tmp_path)
    out = tmp_path / "run.ckpt"
    out.mkdir()
    assert run("train", "--data", data, "--config", write_config(tmp_path), "--out", out) == 2
    one_error_line_naming(capsys, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "data", "run.ckpt", "run.ckpt.log"]


def test_train_on_a_malformed_split_is_data_error(tmp_path, capsys):
    data = write_split(tmp_path, synth_records(2, seed=3))
    with open(data / "train.jsonl", "a") as fh:
        fh.write("{not json\n")
    out = tmp_path / "x.ckpt"
    assert run("train", "--data", data, "--config", write_config(tmp_path), "--out", out) == 2
    one_error_line_naming(capsys, data / "train.jsonl:3")
    assert not out.exists() and not (tmp_path / "x.ckpt.log").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '[["seed", 3]]'], ids=["numbers", "pairs"])
def test_train_config_that_is_not_a_json_object_is_usage_error(tmp_path, capsys, text):
    data = make_data(tmp_path)
    cfg = tmp_path / "list.json"
    cfg.write_text(text)
    out = tmp_path / "x.ckpt"
    assert run("train", "--data", data, "--config", cfg, "--out", out) == 1
    one_error_line_naming(capsys, cfg)
    assert not out.exists()


def test_train_init_from_a_checkpoint_without_a_tensor_is_data_error(tmp_path, capsys, monkeypatch):
    data = make_data(tmp_path)
    ckpt = untrained_checkpoint(tmp_path, monkeypatch, drop="bbox.w3")
    out = tmp_path / "x.ckpt"
    assert run("train", "--data", data, "--config", write_config(tmp_path), "--init", ckpt, "--out", out) == 2
    assert "lacks tensor bbox.w3" in one_error_line_naming(capsys, ckpt)
    assert not out.exists()


# -- eval ----------------------------------------------------------------------------


def test_eval_oracle_mode_scores_everything_100(tmp_path, monkeypatch):
    # a predictor that returns the ground truth: the eval report must read 100 on all five metrics
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    monkeypatch.setattr(trainer, "_predict", lambda model, record: (record.mask.copy(), record.box))
    report = tmp_path / "report.txt"
    code = run("eval", "--data", data, "--ckpt", ckpt, "--split", "val", "--report", report)
    assert code == 0
    text = report.read_text()
    for key in ("dice", "giou", "ciou", "box_iou", "acc"):
        assert f"{key}: 100.00" in text


def test_eval_missing_split_is_data_error(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    (data / "test.jsonl").unlink()
    report = tmp_path / "report.txt"
    code = run("eval", "--data", data, "--ckpt", ckpt, "--split", "test",
               "--report", report)
    assert code == 2
    assert not report.exists()


@pytest.mark.parametrize("hw, message", [
    ((336, 336), "record rec00000: 441 image patches and 24 prompt tokens leave no room"),
    ((40, 40), "(40, 40) not divisible by patch 16"),
], ids=["336x336", "40x40"])
def test_eval_on_images_the_model_cannot_take_is_data_error(tmp_path, capsys, hw, message):
    data = write_split(tmp_path, synth_records(1, seed=3, hw=hw), split="val")
    cfg = trainer.TrainConfig.from_dict(dict(TINY, mllm_patch=16, max_seq=384))
    model = trainer.init_model(cfg)
    ckpt = tmp_path / "untrained.ckpt"
    trainer.save_checkpoint(ckpt, model, trainer.init_opt_state(model.trainable()), iteration=0)
    report = tmp_path / "report.txt"
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", report) == 2
    assert message in capsys.readouterr().err
    assert not report.exists() and not (tmp_path / "report.txt.samples.jsonl").exists()


def test_eval_on_a_split_that_is_not_utf8_is_data_error(tmp_path, capsys, monkeypatch):
    data = write_split(tmp_path, synth_records(2, seed=3), split="val")
    (data / "val.jsonl").write_bytes(b"\xff\xfe" + (data / "val.jsonl").read_bytes())
    report = tmp_path / "report.txt"
    assert run("eval", "--data", data, "--ckpt", untrained_checkpoint(tmp_path, monkeypatch), "--report", report) == 2
    one_error_line_naming(capsys, data / "val.jsonl")
    assert not report.exists() and not (tmp_path / "report.txt.samples.jsonl").exists()


@pytest.mark.parametrize("broken", [
    {"drop": "bbox.w3"},
    {"config_json": "{not json"},
    {"config_json": '["lr_max"]'},
    {"config_json": '{"lr_max": "fast"}'},
    {"patch": (b"__iteration__" + struct.pack("<Id", 0, 0.0), b"__iteration__" + struct.pack("<IQ", 1, 0))},
    {"patch": (struct.pack("<I", 7) + b"bbox.w3", struct.pack("<I", 7) + b"\xffbox.w3")},
    # the config's opening '{"ba' with 256 added to the "{": a cast to uint8 would read it back as "{"
    {"patch": (struct.pack("<4d", *b'{"ba'), struct.pack("<4d", ord("{") + 256, *b'"ba'))},
    {"patch": (b"__iteration__" + struct.pack("<Id", 0, 0.0), b"__iteration__" + struct.pack("<Id", 0, 4.7))},
], ids=["missing-tensor", "config-not-json", "config-a-list", "config-bad-value", "empty-counter", "name-not-utf8",
        "config-byte-out-of-range", "counter-not-integer"])
def test_eval_on_a_broken_checkpoint_is_data_error(tmp_path, capsys, monkeypatch, broken):
    data = write_split(tmp_path, synth_records(2, seed=3), split="val")
    ckpt = untrained_checkpoint(tmp_path, monkeypatch, **broken)
    report = tmp_path / "report.txt"
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", report) == 2
    one_error_line_naming(capsys, ckpt)
    assert not report.exists() and not (tmp_path / "report.txt.samples.jsonl").exists()


def header_offsets(blob: bytes) -> list[int]:
    """Offsets of a checkpoint's header bytes: the file header, each entry's name length, name,
    rank and dimensions, and the values of the counter and config entries."""
    offsets, pos = list(range(12)), 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (n,) = struct.unpack_from("<I", blob, pos)
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + n)
        end = pos + 8 + n + 8 * rank
        values_end = end + 8 * math.prod(struct.unpack_from(f"<{rank}Q", blob, pos + 8 + n))
        offsets += range(pos, values_end if blob[pos + 4 : pos + 6] == b"__" else end)
        pos = values_end
    return offsets


def mutants(blob: bytes, hot: list[int], seed: int = 0):
    """Derandomized corruptions: 60 truncations, half of them at a ``hot`` offset, then 300
    copies with 1-3 bytes changed, two in three of them at ``hot`` offsets only."""
    rng = np.random.default_rng(seed)
    for k in range(60):
        yield blob[: int(rng.choice(hot)) if k % 2 else int(rng.integers(len(blob)))]
    for k in range(300):
        pool = hot if k % 3 else range(len(blob))
        mutant = bytearray(blob)
        for pos in rng.choice(pool, size=1 + k % 3, replace=False):
            mutant[pos] = (mutant[pos] + int(rng.integers(1, 256))) % 256
        yield bytes(mutant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_corrupt_checkpoint_is_always_a_checkpoint_error(tmp_path, capsys, monkeypatch):
    data = write_split(tmp_path, synth_records(2, seed=3), split="val")
    blob = untrained_checkpoint(tmp_path, monkeypatch).read_bytes()
    ckpt, report = tmp_path / "mutant.ckpt", tmp_path / "report.txt"
    escaped, rejected = [], 0
    for i, mutant in enumerate(mutants(blob, header_offsets(blob))):
        ckpt.write_bytes(mutant)
        try:
            _read_model(ckpt)
        except CheckpointError:
            rejected += 1
            assert run("eval", "--data", data, "--ckpt", ckpt, "--report", report) == 2
            one_error_line_naming(capsys, ckpt)
            assert not report.exists()
        except Exception as exc:  # any other type is the failure under test
            escaped.append(f"mutant {i}: {type(exc).__name__}: {exc}"[:200])
    assert not escaped, escaped
    assert rejected >= 200  # header corruption mostly shows; value bytes may still load


def structure_offsets(blob: bytes) -> list[int]:
    """Offsets of a split file's bytes outside its image payloads: the JSON syntax, ids, sizes,
    masks, boxes, labels and QA text."""
    payloads = [m.span(1) for m in re.finditer(rb'"image_b64": "([^"]*)"', blob)]
    starts = [0] + [end for _, end in payloads]
    ends = [start for start, _ in payloads] + [len(blob)]
    return [i for a, b in zip(starts, ends) for i in range(a, b)]


def test_a_corrupt_split_loads_or_is_a_data_error(tmp_path, capsys, monkeypatch):
    records = generate_pipeline(synth_records(4, seed=3), MockOracle(seed=3))
    data = write_split(tmp_path, records, split="val")
    split, report = data / "val.jsonl", tmp_path / "report.txt"
    ckpt = untrained_checkpoint(tmp_path, monkeypatch)
    blob = split.read_bytes()
    escaped, rejected = [], 0
    for i, mutant in enumerate(mutants(blob, structure_offsets(blob))):
        split.write_bytes(mutant)
        try:
            _read_split(split)
        except DataError:
            rejected += 1
            assert run("eval", "--data", data, "--ckpt", ckpt, "--report", report) == 2
            one_error_line_naming(capsys, split)
            assert not report.exists()
        except Exception as exc:  # any other type is the failure under test
            escaped.append(f"mutant {i}: {type(exc).__name__}: {exc}"[:200])
    assert not escaped, escaped
    assert rejected >= 300, rejected  # broken syntax mostly shows; a changed letter or pixel may still load


def test_eval_same_checkpoint_twice_is_byte_identical(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", r1) == 0
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", r2) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert (tmp_path / "r1.txt.samples.jsonl").read_bytes() == \
        (tmp_path / "r2.txt.samples.jsonl").read_bytes()


def sample_from_json(obj: dict) -> EvalSample:
    """Read back one line of the eval dump that ``cli.sample_to_json`` writes."""
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


def test_eval_report_matches_recount_of_sample_dump(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    report = tmp_path / "report.txt"
    assert run("eval", "--data", data, "--ckpt", ckpt, "--split", "train",
               "--report", report) == 0
    dumped = [sample_from_json(json.loads(line))
              for line in (tmp_path / "report.txt.samples.jsonl").read_text().splitlines()]
    recount = evaluate_samples(dumped)
    text = report.read_text()
    assert f"samples: {recount.count}" in text
    for key in ("dice", "giou", "ciou", "box_iou", "acc"):
        assert f"{key}: {getattr(recount, key):.2f}" in text


# -- gradcheck -----------------------------------------------------------------------


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert run("gradcheck", "--seed", 0) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.endswith("pass")]
    assert len(rows) >= 12
    for row in rows:
        assert float(row.split()[1]) < 1e-4


def test_gradcheck_zero_tolerance_is_numeric_failure(capsys):
    assert run("gradcheck", "--tolerance", 0.0) == 3


def test_gradcheck_fixed_seed_gives_identical_table(capsys):
    run("gradcheck", "--seed", 4)
    first = capsys.readouterr().out
    run("gradcheck", "--seed", 4)
    assert capsys.readouterr().out == first


def taped_primitives():
    """Every autodiff function that records tape nodes, i.e. calls ``_record``."""
    return sorted(
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and name != "_record"
        and "_record(" in inspect.getsource(fn)
    )


@pytest.mark.parametrize("primitive", taped_primitives())
def test_gradcheck_catches_a_vjp_off_by_a_tenth_of_a_percent(primitive, monkeypatch):
    # maximum and minimum record through _select, so it stands for both
    record = ad._record

    def skewed_record(out_data, parents, grad_fn):
        if sys._getframe(1).f_code.co_name != primitive:
            return record(out_data, parents, grad_fn)

        def skewed(g):
            return tuple(None if d is None else d * (1.0 + 1e-3) for d in grad_fn(g))

        return record(out_data, parents, skewed)

    monkeypatch.setattr(ad, "_record", skewed_record)
    errs = gradcheck_suite(0)
    assert max(errs.values()) > 1e-4, f"{primitive}: a 0.1 % VJP error passed every unit {errs}"
