"""Run the benchmark over several seeds and summarize its steadiness.

    python3 perfbench/prove.py --runs 10 --out perfbench/baseline.json

For each workload of BENCHMARK.json, at its `run_seconds`: `--runs`
untraced runs with seeds 1..runs and one traced run (seed 1), each a
separate `perfbench/run.py` process as the benchmark is meant to be
driven.  Prints, per end-to-end metric, the
median and the spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) next to its
bound from BENCHMARK.json, and writes every run's result and record
(without per-check times) to `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record = json.loads(record_line)["record"]
    record["run_s"] = perf_counter() - start
    return json.loads(result_line), record


def compact(record: dict) -> dict:
    """The record without its per-check time lists."""
    return {k: v for k, v in record.items() if k not in ("check_seconds", "check_wall_seconds", "spin_seconds")}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
               "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 1, seconds, 1)
        metrics = {}
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result, _ in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values), "bound": bound,
                             "values": values}
            flag = "" if name == "setup_s" or metrics[name]["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:15s} {name:14s} median {metrics[name]['median']:10.4f}"
                  f"  spread {metrics[name]['spread']:.3f}  bound {bound}{flag}", flush=True)
        correct = all(result["correct"] for result, _ in runs) and traced[0]["correct"]
        durations = [record["run_s"] for _, record in runs] + [traced[1]["run_s"]]
        print(f"{workload:15s} run time {statistics.median(durations):.1f} s median, {max(durations):.1f} s max",
              flush=True)
        print(f"{workload:15s} correct {correct}; traced: "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in traced[0]["metrics"].items()), flush=True)
        summary["workloads"][workload] = {
            "correct": correct,
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "runs": [{"result": result, "record": compact(record)} for result, record in runs],
            "traced": {"result": traced[0], "record": traced[1]},
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
