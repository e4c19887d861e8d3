"""medsegdet benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Scratch files and the span log go under ``.perfbench/``.
See perfbench/README.md for the workloads and what each metric means.
"""

import os

# BLAS threads burn a second core for no wall-time gain on these small
# matmuls; pin them before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MEDISEE_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SETUP_REPEATS = 15  # the first one or two are cold; the median is warm

# Host-speed calibration. The speed of a shared host drifts by a third or
# more, in phases of seconds to a minute, and fixed code slows with it. A
# fixed kernel of the kinds of work the package does (interpreted Python,
# small numpy calls) is timed before and after every set-up and every
# operation. Each interval is scaled by CAL_REF_S over the median of the
# calibrations nearest it, so the timing metrics read as on a host where the
# kernel takes CAL_REF_S. The kernel is the benchmark's own code: no change
# to the package moves it.
CAL_REF_S = 0.003
CAL_WINDOW = 2  # calibrations counted on each side of an operation
SETUP_CALS = 3  # calibrations before each set-up and after the last
_CAL_M = np.random.default_rng(0).standard_normal((32, 32)) / 8


def _cal_kernel():
    acc: dict[int, int] = {}
    for i in range(8000):
        acc[i & 63] = acc.get(i & 63, 0) + i * 3 // 7
    x = _CAL_M
    for _ in range(100):
        x = np.tanh(x @ _CAL_M) + 0.5 * x
    return acc, x


class HostSpeed:
    """Calibration samples; interval k lies between samples k and k + 1."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(10):
            _cal_kernel()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _cal_kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, k: int | None = None) -> float:
        """Factor for interval k, or for the whole span sampled if k is None."""
        window = self.samples if k is None else self.samples[max(0, k + 1 - CAL_WINDOW) : k + 1 + CAL_WINDOW]
        return CAL_REF_S / statistics.median(window)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "MEDISEE_THREADS")},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import medsegdet from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import medsegdet
    except ImportError as exc:
        sys.exit(f"error: cannot import medsegdet from {src}: {exc}")
    if Path(medsegdet.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: medsegdet was imported from {medsegdet.__file__}, not from {src}")


def run(args) -> dict:
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    clock = time.perf_counter
    setup_tracer, tracer = Tracer(), Tracer()
    problems: list[str] = []
    info: dict = {"workload": args.workload, "seed": args.seed}
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        t0 = clock()
        wl = WORKLOADS[args.workload](args.seed)
        info["fixture_s"] = clock() - t0  # eval-greedy trains its model here

        # the set-ups take a second or less, too short for the host's speed
        # to move: all of them are scaled by the median of all calibrations
        setup_speed = HostSpeed()
        setups_raw = []
        for _ in range(SETUP_REPEATS):
            for _ in range(SETUP_CALS):
                setup_speed.sample()
            if args.trace:
                setup_tracer.install()
            t0 = clock()
            wl.setup(workdir)
            setups_raw.append(clock() - t0)
            setup_tracer.uninstall()
            problems += wl.check_setup()
        for _ in range(SETUP_CALS):
            setup_speed.sample()
        setups = [dt * setup_speed.scale() for dt in setups_raw]

        for _ in range(wl.warmup_rounds * wl.round_size):
            _, out = wl.op()
            problem = wl.check_op(out)
            if problem:
                problems.append(f"warm-up: {problem}")

        # rounds alternate untraced/traced in a traced run, so the two halves
        # see the same inputs and machine state
        timed: list[tuple[bool, float]] = []  # (traced, seconds) per operation
        items = {False: 0, True: 0}
        counts: dict[str, float] = {}
        attempted = failed = 0
        failures: list[str] = []
        speed = HostSpeed()
        gc.collect()
        deadline = clock() + args.seconds
        rounds = 0
        speed.sample()
        while rounds < 2 or clock() < deadline:
            traced = bool(args.trace) and rounds % 2 == 1
            for _ in range(wl.round_size):
                if traced:
                    tracer.install()
                t0 = clock()
                n, out = wl.op()
                dt = clock() - t0
                tracer.uninstall()
                speed.sample()
                attempted += 1
                timed.append((traced, dt))
                problem = wl.check_op(out)
                if problem:
                    failed += 1
                    failures.append(problem)
                    continue
                items[traced] += n
                if traced:
                    for k, v in wl.counts().items():
                        counts[k] = counts.get(k, 0) + v
            rounds += 1
        problems += wl.check_run()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = {False: [], True: []}
    for k, (traced, dt) in enumerate(timed):
        times[traced].append(dt * speed.scale(k))
    plain = times[False]
    raw = [dt for traced, dt in timed if not traced]
    info.update({
        "ops_timed": len(plain),
        "wall_op_ms_p50": 1000 * statistics.median(raw),
        "wall_items_per_s": items[False] / sum(raw),
        "cal_ms_p50": 1000 * statistics.median(speed.samples),
        "wall_setup_runs_s": setups_raw,
        "failures": failures[:5],
        "problems": problems,
    })
    if len(plain) >= 100:  # ten samples beyond the 90th percentile
        info["op_ms_p90"] = 1000 * statistics.quantiles(plain, n=10)[-1]
    print("info " + json.dumps(info))

    if not args.trace:
        metrics = {
            "items_per_s": (items[False] / sum(plain), "1/s"),
            "op_ms_p50": (1000 * statistics.median(plain), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        n_traced = len(times[True])
        per_op = {k: v / n_traced for k, v in tracer.layer_totals().items()}
        per_op.update({k: v / n_traced for k, v in counts.items()})
        ckpt_ms = setup_tracer.layer_totals().get("trainer.checkpoint_ms", 0.0)
        per_op["trainer.checkpoint_ms"] = ckpt_ms / SETUP_REPEATS
        # equal items per operation: the items/s ratio is the op-time ratio
        per_op["trace.overhead_pct"] = 100.0 * (1.0 - statistics.fmean(plain) / statistics.fmean(times[True]))
        metrics = {k: (per_op.get(k, 0.0), unit) for k, unit in LAYER_METRICS.items()}
        missing = sorted(set(setup_tracer.missing + tracer.missing))
        if missing:
            print("trace: not found, reads 0: " + ", ".join(missing))
        for phase, t in (("setup", setup_tracer), ("ops", tracer)):
            path = base / f"trace-{args.workload}-seed{args.seed}-{phase}.jsonl"
            t.write(path)
            print(f"trace: {len(t.spans)} spans written to {path.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    import_package()
    args = parse_args(argv)
    print("env " + json.dumps(environment()))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
