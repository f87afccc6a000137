"""The process entry: `python -m ordsym` and the `ordsym` script run cli.run.

run is main followed by gc.freeze(), so that the interpreter's shutdown
collections skip the heap left at exit.  These tests pin that the entry
freezes, that in-process main does not, that a report written through the
entry is the one main writes, that the rest of shutdown (atexit) still
runs, and that the installed script and `python -m ordsym` share the entry.
"""

from __future__ import annotations

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

from ordsym.cli import main

ROOT = Path(__file__).resolve().parent.parent
SYM_POLY = ["sym-poly", "--md", "4,3,3"]


def python(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def without_timing(report: str) -> str:
    return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": null', report)


def test_run_freezes_the_heap(tmp_path):
    probe = (
        "import gc, sys\n"
        "from ordsym.cli import run\n"
        "before = gc.get_freeze_count()\n"
        "code = run(sys.argv[1:])\n"
        "print(code, before, gc.get_freeze_count() > 0)\n"
    )
    done = python("-c", probe, "span-dim", "--n", "2", "--m", "2", "--out", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0 True\n"


def test_main_in_process_leaves_collection_alone(capsys):
    state = gc.get_freeze_count(), gc.isenabled()
    assert main(["span-dim", "--n", "2", "--m", "2"]) == 0
    assert main(["gr", "--bogus"]) == 2
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == state


def test_the_entry_writes_what_main_writes(capsys):
    assert main(SYM_POLY) == 0
    expected = capsys.readouterr().out
    assert len(expected) > 700_000
    done = python("-m", "ordsym", *SYM_POLY)
    assert (done.returncode, done.stderr) == (0, "")
    assert without_timing(done.stdout) == without_timing(expected)


def test_the_entry_writes_to_out_what_main_writes(tmp_path, capsys):
    assert main([*SYM_POLY, "--out", str(tmp_path / "main.json")]) == 0
    done = python("-m", "ordsym", *SYM_POLY, "--out", str(tmp_path / "entry.json"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert capsys.readouterr().out == ""
    expected = (tmp_path / "main.json").read_text(encoding="utf-8")
    assert without_timing((tmp_path / "entry.json").read_text(encoding="utf-8")) == without_timing(expected)


def test_shutdown_still_runs_atexit_handlers():
    """The entry returns to the interpreter, which still runs atexit: a profiler's or coverage's output is kept."""
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['ordsym', *sys.argv[1:]]\n"
        "runpy.run_module('ordsym', run_name='__main__', alter_sys=True)\n"
    )
    done = python("-c", probe, "gr", "--builtin", "upper-triangular:2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("}\natexit True\n")


def test_the_script_and_python_m_share_the_entry():
    """[project.scripts] names the function that __main__ calls (read as text: Python 3.10 has no tomllib)."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
    assert scripts.split() == ["ordsym", "=", '"ordsym.cli:run"']
    entry = (ROOT / "src" / "ordsym" / "__main__.py").read_text(encoding="utf-8")
    assert "from .cli import run\n" in entry
    assert entry.endswith('if __name__ == "__main__":\n    sys.exit(run())\n')
