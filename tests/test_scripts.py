"""Smoke test of the builtin sweep script on two small builtins."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_builtin_checks.py"


def test_run_builtin_checks_passes(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_builtin_checks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CASES", [("upper-triangular", 3), ("exterior-algebra", 2)])
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    assert script.main() == 0
    assert "all cases passed" in capsys.readouterr().out
