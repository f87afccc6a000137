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
