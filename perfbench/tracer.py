"""Span tracing from outside the package.

The tracer replaces public functions of the medsegdet modules with thin
wrappers that record one span per call: name, start, end, the index of
the enclosing span and an optional detail (rows fed to the LM, tokens
generated). Spans stay in memory and are written out once, at the end of
a run. ``install``/``uninstall`` swap the wrappers in and out, so an
untraced operation runs the original functions exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from medsegdet import autodiff, cli, datagen, mllm, trainer


def _forward_detail(args, out):
    seq = args[0]
    return {"rows": seq.num_patches + len(seq.token_ids), "grad": bool(out[0].requires_grad)}


def _decode_detail(args, out):
    return {"tokens": len(out)}


# (module, attribute, span name, detail). A caller that binds the function
# by name (``from .mllm import forward``) is traced through its own
# module's attribute, so trainer and mllm both appear for the LM forward.
TARGETS = [
    (trainer, "train_step", "trainer.train_step", None),
    (trainer, "evaluate_model", "trainer.evaluate_model", None),
    (trainer, "adamw_step", "trainer.adamw_step", None),
    (trainer, "save_checkpoint", "trainer.checkpoint", None),
    (trainer, "load_checkpoint", "trainer.checkpoint", None),
    (trainer, "restore_model", "trainer.checkpoint", None),
    (trainer, "forward", "mllm.forward", _forward_detail),
    (mllm, "forward", "mllm.forward", _forward_detail),
    (trainer, "decode_greedy", "mllm.decode_greedy", _decode_detail),
    (trainer, "fuse_candidates", "fusion.fuse_candidates", None),
    (trainer, "bbox_decode", "decoders.bbox_decode", None),
    (trainer, "mask_decode", "decoders.mask_decode", None),
    (trainer, "similarity_map", "decoders.similarity_map", None),
    (trainer, "text_ce_loss", "losses.text_ce_loss", None),
    (trainer, "mask_loss", "losses.mask_loss", None),
    (trainer, "bbox_loss", "losses.bbox_loss", None),
    (trainer, "sim_loss", "losses.sim_loss", None),
    (trainer, "evaluate_samples", "metrics.evaluate_samples", None),
    (autodiff, "backward", "autodiff.backward", None),
    (cli, "main", "cli.main", None),
    (cli, "synth_records", "datagen.synth_records", None),
    (cli, "generate_pipeline", "datagen.generate_pipeline", None),
    (cli, "split_dataset", "datagen.split_dataset", None),
    (cli, "_jsonl_bytes", "datagen.serialize", None),
    (cli, "_write_all_or_nothing", "datagen.write", None),
    (datagen, "read_jsonl", "datagen.read_jsonl", None),
]

# every per-layer metric, in BENCHMARK.json order; times are ms per operation
LAYER_METRICS = {
    "mllm.forward_ms": "ms",
    "mllm.nograd_forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes": "count",
    "decoders.bbox_ms": "ms",
    "decoders.mask_ms": "ms",
    "decoders.sim_ms": "ms",
    "losses.text_ms": "ms",
    "losses.mask_ms": "ms",
    "losses.bbox_ms": "ms",
    "losses.sim_ms": "ms",
    "trainer.adamw_ms": "ms",
    "trainer.step_self_ms": "ms",
    "mllm.decode_ms": "ms",
    "mllm.decode_forwards": "count",
    "mllm.decode_rows": "count",
    "mllm.generated_tokens": "count",
    "mllm.reforward_ms": "ms",
    "fusion.fuse_ms": "ms",
    "metrics.report_ms": "ms",
    "trainer.eval_self_ms": "ms",
    "trainer.checkpoint_ms": "ms",
    "datagen.synth_ms": "ms",
    "datagen.oracle_ms": "ms",
    "datagen.split_ms": "ms",
    "datagen.serialize_ms": "ms",
    "datagen.write_ms": "ms",
    "datagen.read_ms": "ms",
    "datagen.bytes_per_record": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}

# span name -> metric, for spans whose time is charged by name alone
_BY_NAME = {
    "autodiff.backward": "autodiff.backward_ms",
    "decoders.bbox_decode": "decoders.bbox_ms",
    "decoders.mask_decode": "decoders.mask_ms",
    "decoders.similarity_map": "decoders.sim_ms",
    "losses.text_ce_loss": "losses.text_ms",
    "losses.mask_loss": "losses.mask_ms",
    "losses.bbox_loss": "losses.bbox_ms",
    "losses.sim_loss": "losses.sim_ms",
    "trainer.adamw_step": "trainer.adamw_ms",
    "mllm.decode_greedy": "mllm.decode_ms",
    "fusion.fuse_candidates": "fusion.fuse_ms",
    "metrics.evaluate_samples": "metrics.report_ms",
    "datagen.synth_records": "datagen.synth_ms",
    "datagen.generate_pipeline": "datagen.oracle_ms",
    "datagen.split_dataset": "datagen.split_ms",
    "datagen.serialize": "datagen.serialize_ms",
    "datagen.write": "datagen.write_ms",
    "datagen.read_jsonl": "datagen.read_ms",
    "trainer.checkpoint": "trainer.checkpoint_ms",
}
_SELF = {
    "trainer.train_step": "trainer.step_self_ms",
    "trainer.evaluate_model": "trainer.eval_self_ms",
    "cli.main": "cli.self_ms",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, detail]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if detail is not None:
                rec[4] = detail(args, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, detail in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:  # a later refactor removed it; its metric reads 0
                if f"{module.__name__}.{attr}" not in self.missing:
                    self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, detail))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_totals(self) -> dict[str, float]:
        """Summed per-layer metrics (ms and counts) over every recorded span."""
        tot: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent, detail in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, parent, detail) in enumerate(self.spans):
            ms = 1000.0 * (t1 - t0)
            pname = self.spans[parent][0] if parent >= 0 else None
            if name in _BY_NAME:
                tot[_BY_NAME[name]] += ms
            elif name in _SELF:
                tot[_SELF[name]] += ms - 1000.0 * child_time[idx]
            elif name == "mllm.forward":
                if pname == "mllm.decode_greedy":
                    tot["mllm.decode_forwards"] += 1
                    tot["mllm.decode_rows"] += detail["rows"]
                elif pname == "trainer.evaluate_model":
                    tot["mllm.reforward_ms"] += ms
                elif detail["grad"]:
                    tot["mllm.forward_ms"] += ms
                else:
                    tot["mllm.nograd_forward_ms"] += ms
            if name == "mllm.decode_greedy":
                tot["mllm.generated_tokens"] += detail["tokens"]
        return tot

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, detail in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "detail": detail}) + "\n")
