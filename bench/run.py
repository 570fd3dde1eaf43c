"""gridcast benchmark: three workloads, end-to-end metrics, a traced per-layer run.

One workload per process, so ``peak_rss_mb`` is that workload's alone:

    python3 bench/run.py --workload desk_pipeline --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json untraced, its ``per_layer`` metrics with ``--trace 1``. The
lines before it print every metric by name and unit, including the
workload-specific ones BENCHMARK.json cannot gate (see bench/README.md).
``bench/record.py`` runs every workload over several seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "predict_clip_s": "s",
    "peak_rss_mb": "MB",
    "train_step_s": "s",
    "train_step_s.tail": "s",
    "train_clips_per_s": "1/s",
    "val_mse": "mse",
    "clip_load_clips_per_s": "1/s",
    "baseline_clips_per_s": "1/s",
    "eval_clips_per_s": "1/s",
    "ingest_mb_per_s": "MB/s",
    "failed_share": "share",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads():
    """At most one BLAS thread per available core; must run before numpy loads."""
    n = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


def _blas_threads():
    """Thread count the loaded BLAS library reports, or None if unknown."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
            "mkl_get_max_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        1 for p in (ROOT / "src").rglob("*.py") for line in p.read_text().splitlines() if line.strip()
    )
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "src_nonblank_lines": src_lines,
    }


def _tail(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return None
    return s[k - 1], 100 * k // len(s), len(s)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import hooks
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = hooks.Tracer() if trace else None
    clock = hooks.Clock(tracer)
    patcher = hooks.Patcher()
    if tracer is not None:
        tracer.install(patcher)
    clock.install(patcher)  # outermost, so step self time sees the traced sgd_step

    def bucket(value):
        if tracer is not None:
            tracer.bucket = value

    out = workloads.Outcome()
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    w = workloads.WORKLOADS[name](seed, work, out, tracer)
    setup_times, round_times = [], []
    setup_rss = 0.0
    completed = True
    try:
        bucket("setup")
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t0)
        bucket(None)
        setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        w.warm_up()
        bucket("round")
        clock.recording = True
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            w.round()
            w.round_index += 1
            round_times.append(time.perf_counter() - t0)
            # start another round only if one more still fits in the window
            if time.perf_counter() - start + statistics.mean(round_times) > seconds:
                break
        clock.recording = False
        bucket(None)
        out.check(len(set(w.samples["val_mse"])) == 1, f"val_mse differs between rounds: {w.samples['val_mse']}")
    except workloads.OperationFailed as e:
        print(f"operation failed: {e}", file=sys.stderr)
        completed = False
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)
        if (BENCH / ".work").is_dir() and not any((BENCH / ".work").iterdir()):
            (BENCH / ".work").rmdir()

    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} rounds {len(round_times)}")
    print("machine " + json.dumps(machine()))
    if not completed:
        print(json.dumps({"correct": False, "attempted": max(1, out.attempted), "failed": max(1, out.failed),
                          "metrics": {}}))
        return 1

    e2e = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": w.median("pipeline_s"),
        "predict_clip_s": statistics.median(clock.predicts[w.predictor]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if clock.steps:
        e2e["train_step_s"] = statistics.median(clock.steps)
        tail = _tail(clock.steps)
        if tail is not None:
            e2e["train_step_s.tail"] = tail[0]
            print(f"# train_step_s.tail is p{tail[1]} of {tail[2]} steps")
        e2e["train_clips_per_s"] = w.median("train_clips_per_s")
    e2e.update(w.metrics())
    print("# per round: " + " ".join(f"{t:.4g}" for t in w.samples["pipeline_s"]) + " s")
    print(f"# peak RSS was {setup_rss:.1f} MB at the end of set-up")
    e2e["failed_share"] = out.failed / out.attempted
    print(f"# failed_share = {out.failed} failed / {out.attempted} attempted (operations and output checks)")
    for key, value in e2e.items():
        print(f"metric {key} {value!r} {UNITS[key]}")

    if tracer is None:
        wanted = benchmark["end_to_end"]
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        wanted = benchmark["per_layer"]
        values = tracer.per_layer([m["name"] for m in wanted], len(setup_times), len(round_times))
        for m in wanted:
            print(f"layer {m['name']} {values[m['name']]!r} {m['unit']}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["desk_pipeline", "fullgrid_step", "fullgrid_data"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gridcast" / "__init__.py").is_file():
        print(f"error: no gridcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
