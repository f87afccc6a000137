"""Pinned CLI reports: every run below must reproduce its recorded report.

The fixture `fixtures/report_pins.json` holds, per run, the argument list,
the exit code and the JSON report without its `timing_ms` field.  Input
files are written fresh into a temporary directory; `{name}` in an
argument list stands for the file of that name.  To re-record after an
intended change in report contents:

    PYTHONPATH=src python tests/test_report_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from ordsym.catalog import builtin_example
from ordsym.cli import main
from ordsym.io import dump_description

FIXTURE = Path(__file__).parent / "fixtures" / "report_pins.json"

README_EXAMPLES = [
    ["sym-poly", "--md", "2,2"],
    ["span-dim", "--n", "2", "--m", "2"],
    ["nil-index", "--builtin", "strictly-upper-triangular:3"],
    ["nil-index", "--builtin", "strictly-upper-triangular:3", "--field", "GF:5"],
    ["verify-my1", "--builtin", "upper-triangular:4", "--p", "1", "--q", "3"],
    ["rees-integrality", "--builtin", "truncated-polynomial:4", "--nmax", "4"],
    ["iso-check", "--builtin", "exterior-algebra:3", "--maxdeg", "4"],
]
# Exact solves pinned by value: Rees elements with fractional coefficients,
# whose multipliers are fractional over Q, and the word-coordinate spans of
# span-dim.
REES_COEFFS = {
    "truncated-polynomial:4": [[0, 0, 0, 0], ["1/2", 2, 0, 0], [-2, "1/3", 2, 0], [2, 1, "-3/2", 1]],
    "upper-triangular:3": [[0] * 6, ["1/2", 2, -2, 1, "2/3", 0], [2, "-1/3", 2, 1, -1, "3/4"]],
}
SPAN_DIMS = [("6", "3"), ("8", "2")]
# The first-letter level walk, algebra products and growing spans, each run
# with the fields it is pinned over; over GF(3), nil-index on
# strictly-upper-triangular:4 is cross-checked by brute force.
SPAN_CERTIFY = [
    (["nil-index", "--builtin", "strictly-upper-triangular:6"], ("Q", "GF:101")),
    (["nil-index", "--builtin", "strictly-upper-triangular:4"], ("GF:3",)),
    (["verify-my1", "--builtin", "truncated-polynomial:6", "--seed", "7"], ("Q", "GF:101", "GF:3")),
    (["verify-my1", "--builtin", "exterior-algebra:4", "--seed", "7"], ("GF:2",)),
    (["alg-bound", "--builtin", "strictly-upper-triangular:4", "--seed", "7"], ("Q", "GF:101")),
]
# The largest integrality systems over Q, where the intermediate entries of
# an elimination can grow far beyond those of its echelon form.
GROWTH = [(["rees-integrality", "--builtin", "truncated-polynomial:6", "--nmax", "6"], ("Q", "GF:101"))]
# Failing verify-my1 reports: a pinned --d below the algebraic degree gives
# a bound N at which every tested symmetric span is still nonzero.
FAILING_VERIFY = [
    (["verify-my1", "--builtin", "upper-triangular:4", "--d", "1"], ("Q", "GF:101")),
    (["verify-my1", "--builtin", "truncated-polynomial:6", "--d", "2", "--q", "2"], ("Q", "GF:101")),
]
# Per-element algebraic degrees of the basis, in the non-unital and the
# unital convention.
ALG_DEGREE = [
    (["alg-degree", "--builtin", "upper-triangular:4"], ("Q", "GF:101")),
    (["alg-degree", "--builtin", "upper-triangular:4", "--unital"], ("Q", "GF:101")),
]
FILTRATION_COMMANDS = ["check-filtration", "gr", "verify-my1", "rees-integrality", "iso-check"]
CORRUPTED_COMMANDS = ["gr", "verify-my1", "iso-check", "rees-integrality", "nil-index"]


def write_inputs(directory: Path) -> dict[str, Path]:
    """Two broken descriptions of upper-triangular:3 (basis E11 E22 E33 E12 E23 E13).

    `bad-assoc` sets E11*E11 = 7*E11, which breaks associativity.  In
    `bad-mult`, F_0 holds E12 and E23, whose product E13 lies outside F_0.
    """
    A, F = builtin_example("upper-triangular", 3)
    assoc = dump_description(A, F)
    assoc["mul"][0][2] = [[1, "7"]]
    mult = dump_description(A, F)
    e = [["1" if k == i else "0" for k in range(A.dim)] for i in range(A.dim)]
    mult["filtration"] = [[e[3], e[4]], [e[0], e[1], e[2], e[3], e[4]], e]
    paths = {}
    for name, doc in (("bad-assoc", assoc), ("bad-mult", mult)):
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def pinned_runs() -> list[list[str]]:
    runs = [list(argv) for argv in README_EXAMPLES]
    for command in FILTRATION_COMMANDS:
        for field in ("Q", "GF:101"):
            runs.append([command, "--builtin", "upper-triangular:3", "--field", field])
    for name in ("bad-assoc", "bad-mult"):
        for command in CORRUPTED_COMMANDS:
            runs.append([command, "--input", "{%s}" % name])
    for field in ("Q", "GF:101"):
        for builtin, coeffs in REES_COEFFS.items():
            runs.append(["rees-integrality", "--builtin", builtin, "--nmax", builtin.split(":")[1],
                         "--coeffs", json.dumps(coeffs), "--field", field])
        for n, m in SPAN_DIMS:
            runs.append(["span-dim", "--n", n, "--m", m, "--field", field])
            runs.append(["span-dim", "--n", n, "--m", m, "--include-zero", "--field", field])
    for argv, fields in SPAN_CERTIFY + GROWTH + FAILING_VERIFY + ALG_DEGREE:
        runs.extend([*argv, "--field", field] for field in fields)
    return runs


def run_pinned(argv: list[str], paths: dict[str, Path]) -> dict:
    """Exit code and report, without timing_ms, of one CLI run."""
    real = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        report.pop("timing_ms")
    return {"argv": argv, "exit": code, "report": report}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        return [run_pinned(argv, paths) for argv in pinned_runs()]


def test_reports_match_pinned_fixture(tmp_path):
    pinned = json.loads(FIXTURE.read_text())
    assert [p["argv"] for p in pinned] == pinned_runs()
    paths = write_inputs(tmp_path)
    for expected in pinned:
        assert run_pinned(expected["argv"], paths) == expected, expected["argv"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
    sys.exit(0)
