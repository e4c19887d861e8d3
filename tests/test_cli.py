"""Tests for the command-line entry points: exit codes, artifacts, determinism."""

import inspect
import json
import sys

import numpy as np
import pytest

from medsegdet import autodiff as ad
from medsegdet import trainer
from medsegdet.cli import gradcheck_suite, main, sample_from_json
from medsegdet.datagen import read_jsonl
from medsegdet.metrics import evaluate_samples
from medsegdet.trainer import load_checkpoint

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


# -- eval ----------------------------------------------------------------------------


def test_eval_oracle_mode_scores_everything_100(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    report = tmp_path / "report.txt"
    code = run("eval", "--data", data, "--ckpt", ckpt, "--split", "val",
               "--report", report, "--oracle-mode")
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


def test_eval_same_checkpoint_twice_is_byte_identical(tmp_path):
    data = make_data(tmp_path)
    ckpt = train_tiny(tmp_path, data)
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", r1) == 0
    assert run("eval", "--data", data, "--ckpt", ckpt, "--report", r2) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert (tmp_path / "r1.txt.samples.jsonl").read_bytes() == \
        (tmp_path / "r2.txt.samples.jsonl").read_bytes()


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
