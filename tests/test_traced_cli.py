"""perfbench/traced_cli.py still traces every command layer by layer.

The tracer resolves each of its layer functions by module and name, so a
name moved out of the module it names would stop every traced check
before it writes its spans.  Each test runs one command untraced and under
the tracer, in fresh processes, and compares the two.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

# command line -> the layers it runs
COMMANDS = {
    "gr --builtin upper-triangular:3": [
        "catalog.builtin", "algebra.validate", "graded.validate_filtration", "graded.associated_graded",
    ],
    "verify-my1 --builtin upper-triangular:3": [
        "catalog.builtin", "algebra.validate", "graded.validate_filtration", "graded.associated_graded",
        "graded.verify", "algebra.span", "algebra.algebraic_degree",
    ],
    "nil-index --builtin strictly-upper-triangular:4": ["algebra.validate", "algebra.span"],
    "alg-bound --builtin upper-triangular:3": ["algebra.validate", "algebra.span", "algebra.algebraic_degree"],
    "rees-integrality --builtin truncated-polynomial:3 --nmax 3": [
        "catalog.builtin", "algebra.validate", "graded.validate_filtration", "rees.integral_witness",
        "rees.power_in_x_ideal",
    ],
    "iso-check --builtin upper-triangular:3 --maxdeg 2": [
        "catalog.builtin", "algebra.validate", "graded.validate_filtration", "graded.associated_graded",
        "rees.iso_check",
    ],
    "span-dim --n 2 --m 2": ["freealg.span"],
}


def run(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def without_timing(report: str) -> str:
    return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": null', report)


@pytest.mark.parametrize("line", list(COMMANDS))
def test_traced_run_reports_as_the_untraced_one_and_spans_every_layer(line, tmp_path):
    spans = tmp_path / "spans.json"
    untraced = run("-m", "ordsym", *line.split())
    traced = run(str(TRACED_CLI), str(spans), *line.split())
    assert traced.returncode == untraced.returncode == 0, traced.stderr
    assert without_timing(traced.stdout) == without_timing(untraced.stdout)
    layers = json.loads(spans.read_text())["layers"]
    assert [layer for layer in COMMANDS[line] if not layers[layer]["calls"]] == []
