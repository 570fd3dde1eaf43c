"""Run every workload over several seeds, one run at a time, and summarise.

    python3 bench/record.py --seeds 10 --seconds 30 --out bench/baseline.json

For each workload it makes one untraced run per seed 1..N and reports, for
every printed end-to-end metric, the median, the quartiles and the quartile
spread as a share of the median (``statistics.quantiles(values, n=4)``).
It then makes two traced runs with seed 1. The first gives the tracing
overhead: traced minus untraced, for each end-to-end metric. The second
checks that the computed counts and ``val_mse`` repeat exactly.
``--seeds 1 --seconds 10`` is a quick check. Exits 1 if any run fails a
check or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("desk_pipeline", "fullgrid_step", "fullgrid_data")

# computed counts that must repeat exactly between two runs with the same seed
EXACT_KEYS = (
    "tensor_nn.conv.calls",
    "tensor_nn.conv.gflop",
    "tensor_nn.conv.bytes",
    "tensor_nn.activation_bytes",
    "movie_store.read_frames.calls",
    "movie_store.read_frames.bytes",
    "movie_store.ingest.bytes",
    "dataset.load_clip.calls",
    "dataset.clip_bytes_held",
    "masks.build_mask.bytes",
)


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its printed metrics and result line."""
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} seed {seed} trace {trace}: no output, exit {proc.returncode}")
    out = {"e2e": {}, "layers": {}, "result": json.loads(lines[-1]), "notes": []}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "layer"):
            key, value, unit = rest.split()
            out["e2e" if kind == "metric" else "layers"][key] = {"value": float(value), "unit": unit}
        elif kind == "machine":
            out["machine"] = json.loads(rest)
        elif kind == "#":
            out["notes"].append(rest)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return out


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for key, first in runs[0]["e2e"].items():
        values = [r["e2e"][key]["value"] for r in runs if key in r["e2e"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[key] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)

    ok = True
    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [run(name, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced, again = (run(name, 1, args.seconds, 1) for _ in range(2))
        record.setdefault("machine", runs[0].get("machine"))
        ok = ok and all(r["result"]["correct"] for r in runs + [traced, again])

        summary = summarise(runs)
        overhead = {
            k: traced["e2e"][k]["value"] - v["value"] for k, v in runs[0]["e2e"].items() if k in traced["e2e"]
        }
        differ = [k for k in EXACT_KEYS if traced["layers"][k]["value"] != again["layers"][k]["value"]]
        mses = sorted({r["e2e"]["val_mse"]["value"] for r in (runs[0], traced, again)})
        repeat_ok = not differ and len(mses) == 1
        ok = ok and repeat_ok

        print(f"\n== {name}: {args.seeds} seeds x {args.seconds} s; correct "
              f"{sum(r['result']['correct'] for r in runs)}/{len(runs)}")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'overhead':>11}  unit")
        for key, s in summary.items():
            print(f"{key:24} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.4f} "
                  f"{overhead.get(key, float('nan')):+11.4g}  {s['unit']}")
        print(f"repeat check: {'PASS' if repeat_ok else 'FAIL'} "
              f"(counts differing: {differ or 'none'}; val_mse: {mses})")
        record["workloads"][name] = {
            "end_to_end": summary,
            "tracing_overhead": overhead,
            "per_layer_seed1": {k: v["value"] for k, v in traced["layers"].items()},
            "repeat_check": {"pass": repeat_ok, "counts_differing": differ, "val_mse": mses},
            "notes": runs[0]["notes"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
