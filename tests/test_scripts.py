"""Smoke tests of the scripts: the builtin sweep and the plateau probe."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_builtin_checks_passes(monkeypatch, capsys):
    script = load("run_builtin_checks")
    monkeypatch.setattr(script, "CASES", [("upper-triangular", 3), ("exterior-algebra", 2)])
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "run_builtin_checks.py")])
    assert script.main() == 0
    assert "all cases passed" in capsys.readouterr().out


def test_plateau_probe_finds_no_failure_over_q(monkeypatch, capsys):
    script = load("plateau_probe")
    monkeypatch.setattr(script, "CASES", [("upper-triangular", 2), ("truncated-polynomial", 3)])
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "plateau_probe.py"), "--trials", "2"])
    assert script.main() == 0
    assert "Q: 0 plateau failures" in capsys.readouterr().out


def test_scripts_find_the_package_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for name in ("plateau_probe", "run_builtin_checks"):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / f"{name}.py"), "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
