"""Closed-loop benchmark of the `ordsym` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time, each in a fresh
`python -m ordsym` process, since that is how users run checks and it
keeps in-process caches from carrying across requests.  Every request runs
once over Q and once with `--field GF:101` (a "check" is one of those
processes).  The workload's request list is run in whole passes.  A new
pass starts only while the time since the run began plus the longest
pass so far stays within `--seconds`; a run makes at least MIN_PASSES
passes, even when they overrun `--seconds`.

Host speed.  A virtual machine's host can slow its vCPUs, one at a time,
by up to ~40% for spells of seconds to minutes (seen on a 2-vCPU guest
with a spin loop pinned on each vCPU).  So before each check the client
times a short reference loop on every vCPU, pins the check to the fastest
one, and scales the check's wall time by REF_SPIN_S / (that loop time):
times read as seconds on an unslowed vCPU.  The raw wall times and loop
times are kept in the run record.  A check's latency is the smallest of
its scaled repeats in the run, since host interference only adds time:
`wall_*` sum these latencies.  `check_p50_ms` and `check_tail_ms` are
nearest-rank percentiles over every scaled check time of the run, so
each is an observed latency.  The tail percentile is fixed per workload:
the highest whole percentile that keeps TAIL_BEYOND samples above it in
a run of MIN_PASSES passes (longer runs keep more).

--trace 0 prints the end-to-end metrics.  --trace 1 runs each check once
untraced and once under perfbench/traced_cli.py, which times every layer
from outside the program, and prints the per-layer metrics (layer times
unscaled).

The last line of stdout is the result; the line before it is the run
record (Python version, nproc, seed, request list, passes, sample count,
tail percentile and every check's time).  Exits 2 without a result when
the checkout holds no `src/ordsym`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

from gate import FIELDS, Check, request_failures, trace_mismatch
from traced_cli import LAYERS, ROOT_SPAN, Tracer
from workloads import WORKLOADS, requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
CPUS = sorted(os.sched_getaffinity(0))

# Reference loop time on an unslowed vCPU of the 2-vCPU host (Python 3.11)
# where the baseline was recorded.
REF_SPIN_S = 0.0012
MIN_PASSES = 3  # best-of-2 left the spread of wall_s across runs twice that of best-of-3
SETUP_REPEATS = 7
CHECK_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env["PYTHONPATH"]]) if env.get("PYTHONPATH") else str(SRC)
    return env


def _spin() -> float:
    start = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return perf_counter() - start


def pin_fastest_cpu() -> float:
    """Pin this process, and so the next child, to the vCPU that spins fastest now.

    Returns that vCPU's reference loop time.
    """
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(5))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return speed[best]


def run_check(argv: list[str], env: dict) -> Check:
    spin = pin_fastest_cpu()
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHECK_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return Check(-1, None, perf_counter() - start, spin)
    seconds = perf_counter() - start
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return Check(proc.returncode, report, seconds, spin)


def scaled(check: Check) -> float:
    """The check's wall time at the reference vCPU speed."""
    return check.seconds * REF_SPIN_S / check.spin


def field_args(field: str) -> list[str]:
    return [] if field == "Q" else ["--field", field]


def measure_setup(env: dict) -> float:
    """Median scaled time of a fresh interpreter importing ordsym.cli.

    One untimed import first writes the bytecode cache, as an installed
    package would already have it.
    """
    argv = [sys.executable, "-c", "import ordsym.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        check = run_check(argv, env)
        if check.code != 0:
            raise SystemExit("ordsym.cli does not import")
        if i:
            times.append(scaled(check))
    return statistics.median(times)


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with TAIL_BEYOND of min_samples above it."""
    return 100 * (min_samples - TAIL_BEYOND) // min_samples


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def end_to_end(reqs: list[dict], seconds: int, started: float, env: dict) -> tuple[dict, dict, int]:
    setup_s = measure_setup(env)
    times = {field: [[] for _ in reqs] for field in FIELDS}
    raw = {field: [[] for _ in reqs] for field in FIELDS}
    spins = {field: [[] for _ in reqs] for field in FIELDS}
    failures = []
    passes, longest = 0, 0.0
    while passes < MIN_PASSES or perf_counter() - started + longest <= seconds:
        pass_start = perf_counter()
        for i, req in enumerate(reqs):
            by_field = {}
            for field in FIELDS:
                check = run_check([sys.executable, "-m", "ordsym", *req["argv"], *field_args(field)], env)
                times[field][i].append(scaled(check))
                raw[field][i].append(check.seconds)
                spins[field][i].append(check.spin)
                by_field[field] = check
            reasons = request_failures(by_field, req["expect"])
            if reasons:
                failures.append(f"{' '.join(req['argv'])}: {'; '.join(reasons)}")
        passes += 1
        longest = max(longest, perf_counter() - pass_start)
    best = {field: [min(ts) for ts in times[field]] for field in FIELDS}
    wall = {field: sum(best[field]) for field in FIELDS}
    samples = [t for field in FIELDS for ts in times[field] for t in ts]
    tail_pct = tail_percentile(MIN_PASSES * len(FIELDS) * len(reqs))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall["Q"] + wall["GF:101"], "s"),
        "wall_q_s": (wall["Q"], "s"),
        "wall_gf_s": (wall["GF:101"], "s"),
        "check_p50_ms": (percentile(samples, 50) * 1000, "ms"),
        "check_tail_ms": (percentile(samples, tail_pct) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    record = {
        "passes": passes,
        "check_samples": len(samples),
        "check_tail_percentile": tail_pct,
        "fail_share": len(failures) / (passes * len(reqs)),
        "failures": failures,
        "check_seconds": times,
        "check_wall_seconds": raw,
        "spin_seconds": spins,
    }
    return metrics, record, passes * len(reqs)


def field_op_ns(kind: str, a, b, loops: int = 2000, repeats: int = 15) -> float:
    """Median ns of one `a*b + a` on Scalars; stands in for tracing scalar calls."""
    from ordsym.fields import Scalar, field_make

    field = field_make(kind)
    x, y = Scalar(field, a), Scalar(field, b)
    per_op = []
    for _ in range(repeats):
        start = perf_counter_ns()
        for _ in range(loops):
            x * y + x
        per_op.append((perf_counter_ns() - start) / loops)
    return statistics.median(per_op)


def per_layer(reqs: list[dict], spans_dir: Path, env: dict) -> tuple[dict, dict, int]:
    """One untraced and one traced run of every check, back to back.

    A traced check that leaves no spans file (it timed out or crashed)
    fails its request, and its spans are skipped.
    """
    plain_s = traced_s = 0.0
    totals = Tracer().summary()  # every layer and counter, at zero
    layers = {name: {"calls": 0, "self_s": 0.0} for name in totals["layers"]}
    counters = totals["counters"]
    filtration_inputs = 0
    failures = []
    for i, req in enumerate(reqs):
        by_field = {}
        reasons = []
        for field in FIELDS:
            args = [*req["argv"], *field_args(field)]
            plain = run_check([sys.executable, "-m", "ordsym", *args], env)
            spans_path = spans_dir / f"{i}-{field.replace(':', '')}.json"
            traced = run_check([sys.executable, str(TRACED_CLI), str(spans_path), *args], env)
            plain_s += scaled(plain)
            traced_s += scaled(traced)
            by_field[field] = plain
            mismatch = trace_mismatch(plain, traced)
            if mismatch:
                reasons.append(f"{field}: {mismatch}")
            if not spans_path.is_file():
                reasons.append(f"{field}: traced run left no spans (exit code {traced.code})")
                continue
            spans = json.loads(spans_path.read_text())
            for name, stats in spans["layers"].items():
                acc = layers[name]
                acc["calls"] += stats["calls"]
                acc["self_s"] += stats["self_s"]
            for name, value in spans["counters"].items():
                counters[name] += value
            filtration_inputs += spans["layers"]["graded.validate_filtration"]["calls"] > 0
        reasons += request_failures(by_field, req["expect"])
        if reasons:
            failures.append(f"{' '.join(req['argv'])}: {'; '.join(reasons)}")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{name}_s": (layers[name]["self_s"], "s") for name in LAYERS}
    metrics["cli.self_s"] = (layers[ROOT_SPAN]["self_s"], "s")
    for name in ("algebra.multiply_coords", "algebra.validate", "linalg.contains", "algebra.span", "linalg.rref"):
        metrics[f"{name}_calls"] = (layers[name]["calls"], "count")
    metrics["algebra.validate_calls_per_object"] = (
        ratio(layers["algebra.validate"]["calls"], counters["validated_objects"]), "ratio")
    metrics["graded.validate_filtration_calls_per_input"] = (
        ratio(layers["graded.validate_filtration"]["calls"], filtration_inputs), "ratio")
    metrics["linalg.rref_cells"] = (counters["rref_cells"], "count")
    metrics["linalg.rref_rank_per_row"] = (ratio(counters["rref_rank"], counters["rref_rows"]), "ratio")
    metrics["fields.q_op_ns"] = (field_op_ns("Q", Fraction(3, 7), Fraction(-5, 11)), "ns")
    metrics["fields.gf_op_ns"] = (field_op_ns("GF:101", 37, 58), "ns")
    metrics["trace.overhead_share"] = (ratio(traced_s, plain_s) - 1.0, "ratio")
    record = {
        "passes": 1,
        "fail_share": len(failures) / len(reqs),
        "failures": failures,
        "layers": layers,
        "counters": counters,
    }
    return metrics, record, len(reqs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (SRC / "ordsym" / "cli.py").is_file():
        print(f"no ordsym sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the dense-basis generator and field probes use the library
    # exit through Python on SIGTERM, so subprocess.run kills and reaps a running check
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = child_env()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        input_dir = Path(tmp) / "inputs"
        reqs = requests(args.workload, args.seed, input_dir)
        if args.trace:
            metrics, details, attempted = per_layer(reqs, Path(tmp), env)
        else:
            metrics, details, attempted = end_to_end(reqs, args.seconds, started, env)
        # the inputs' directory is temporary; the record names them by file
        shown = [[a.replace(str(input_dir), "inputs") for a in req["argv"]] for req in reqs]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(CPUS),
        "requests": shown,
        "fields": list(FIELDS),
        **details,
    }
    print(json.dumps({"record": record}))
    failed = len(details["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
