"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed (each a fresh process)
and reports, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. One traced run on the first
seed gives the per-layer numbers. Every run must report ``correct``; the
summary records how long each run took.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> tuple[dict, list[str], float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    start = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], perf_counter() - start


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"seeds": seeds, "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs, durations = [], []
        for seed in seeds:
            result, lines, took = _run(workload, seed, 0)
            ok &= result["correct"]
            runs.append(result)
            durations.append(took)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']}", flush=True)
        entry = {"run_s": durations, "env": json.loads(lines[-1][len("env "):]), "end_to_end": {}}
        for name, bound in bounds.items():
            stats = _summary([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(f"  {name:<12} median {stats['median']:.5g}  spread {stats['spread']:.4f}  values {[round(v, 4) for v in stats['values']]} "
                  f"(bound {bound}, a third is {bound / 3:.4f})", flush=True)
        traced, _, took = _run(workload, seeds[0], 1)
        ok &= traced["correct"]
        print(f"{workload} seed {seeds[0]} traced: {took:.1f} s, correct={traced['correct']}", flush=True)
        entry["per_layer"] = {m["name"]: traced["metrics"][m["name"]]["value"] for m in BENCHMARK["per_layer"]}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
