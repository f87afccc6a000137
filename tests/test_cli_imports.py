"""Each command imports only the modules it runs.

A check is its own process, so every module a command imports but does
not run is start-up time.  Each test runs one command in a fresh
interpreter and lists the modules it loaded: those in sys.modules after
`ordsym.cli.main` returned that were not there before `ordsym` was
imported (so modules the interpreter loads at start-up do not count).
The probe imports json only after that, to print the list, so that a
check that loads no json is seen not to.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from ordsym.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "loaded": loaded}))
"""

ALGEBRA_MODULES = {"ordsym.structure", "ordsym.algebra", "ordsym.graded", "ordsym.nilbound", "ordsym.catalog", "ordsym.rees"}


def loaded_by(*argv: str, code: int = 0) -> set[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == code, done.stderr
    return set(result["loaded"])


@pytest.mark.parametrize("argv", [("span-dim", "--n", "3", "--m", "2"), ("sym-poly", "--md", "2,1")])
def test_word_commands_load_no_algebra(argv):
    loaded = loaded_by(*argv)
    assert {"ordsym.cli", "ordsym.freealg", "ordsym.linalg"} <= loaded
    assert not loaded & (ALGEBRA_MODULES | {"dataclasses"})


@pytest.mark.parametrize("command", ["gr", "nil-index", "alg-degree", "verify-my1", "alg-bound", "check-filtration"])
def test_algebra_commands_load_no_rees(command):
    loaded = loaded_by(command, "--builtin", "upper-triangular:3")
    assert {"ordsym.structure", "ordsym.catalog"} <= loaded
    assert not loaded & {"ordsym.rees", "ordsym.freealg", "dataclasses"}


@pytest.mark.parametrize("command", ["rees-integrality", "iso-check"])
def test_rees_commands_load_rees_without_dataclasses(command):
    loaded = loaded_by(command, "--builtin", "upper-triangular:3")
    assert "ordsym.rees" in loaded
    assert not loaded & {"ordsym.freealg", "dataclasses"}


@pytest.mark.parametrize("command", ["nil-index", "alg-degree", "alg-bound"])
def test_builtin_without_filtration_loads_no_graded(command):
    """These commands read no filtration, so a builtin's is never built."""
    loaded = loaded_by(command, "--builtin", "upper-triangular:3")
    assert {"ordsym.structure", "ordsym.algebra", "ordsym.catalog", "ordsym.linalg"} <= loaded
    assert not loaded & {"ordsym.graded", "ordsym.nilbound", "ordsym.freealg"}


def source(flag: str, tmp_path) -> tuple[str, str]:
    """--builtin upper-triangular:3, or --input a description file of it."""
    if flag == "--builtin":
        return flag, "upper-triangular:3"
    from ordsym.catalog import builtin_example
    from ordsym.io import dump_description

    path = tmp_path / "upper-triangular-3.json"
    path.write_text(json.dumps(dump_description(*builtin_example("upper-triangular", 3))))
    return flag, str(path)


@pytest.mark.parametrize("command", ["nil-index", "alg-degree", "alg-bound"])
def test_input_without_filtration_loads_no_graded(command, tmp_path):
    """A description's stages come back from io as a plain Chain, so no Filtration is built."""
    loaded = loaded_by(command, *source("--input", tmp_path))
    assert {"ordsym.structure", "ordsym.algebra", "ordsym.io", "ordsym.linalg"} <= loaded
    assert not loaded & {"ordsym.graded", "ordsym.nilbound", "ordsym.catalog", "ordsym.freealg"}


@pytest.mark.parametrize("flag", ["--builtin", "--input"])
@pytest.mark.parametrize("command", ["gr", "check-filtration", "iso-check", "rees-integrality"])
def test_filtration_commands_load_neither_the_level_walk_nor_the_my1_pipeline(command, flag, tmp_path):
    """They read an algebra and its filtration through structure and graded alone."""
    loaded = loaded_by(command, *source(flag, tmp_path))
    assert {"ordsym.structure", "ordsym.graded", "ordsym.linalg"} <= loaded
    assert not loaded & {"ordsym.algebra", "ordsym.nilbound", "ordsym.freealg"}
    assert ("ordsym.rees" in loaded) == (command in ("iso-check", "rees-integrality"))


@pytest.mark.parametrize("flag", ["--builtin", "--input"])
def test_verify_my1_loads_the_level_walk_and_the_my1_pipeline(flag, tmp_path):
    loaded = loaded_by("verify-my1", *source(flag, tmp_path))
    assert {"ordsym.structure", "ordsym.algebra", "ordsym.graded", "ordsym.nilbound"} <= loaded
    assert not loaded & {"ordsym.rees", "ordsym.freealg"}


PARSER_AND_JSON = {"argparse", "json", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ("gr", "--builtin", "upper-triangular:3"),
    ("nil-index", "--builtin", "upper-triangular:3"),
    ("verify-my1", "--builtin", "upper-triangular:3"),
    ("span-dim", "--n", "3", "--m", "2"),
    ("sym-poly", "--md", "2,1"),
])
def test_a_well_formed_check_loads_no_parser_no_json_and_no_other_command(argv):
    """main reads the line and writes the report itself, and imports its own command's module alone."""
    loaded = loaded_by(*argv)
    assert not loaded & PARSER_AND_JSON
    assert {m for m in loaded if m.startswith("ordsym.commands")} == {
        "ordsym.commands", f"ordsym.commands.{argv[0].replace('-', '_')}"}


@pytest.mark.parametrize("argv, code", [(("gr", "--help"), 0), (("gr", "--bogus"), 2), (("--help",), 0)])
def test_help_and_usage_errors_go_through_argparse(argv, code):
    loaded = loaded_by(*argv, code=code)
    assert "argparse" in loaded
    assert "json" not in loaded
    assert not any(m.startswith("ordsym.commands.") for m in loaded)


def test_reading_json_loads_json(tmp_path):
    assert "json" in loaded_by("nil-index", *source("--input", tmp_path))
    loaded = loaded_by("rees-integrality", "--builtin", "truncated-polynomial:3", "--coeffs", "[[0, 0, 0], [0, 1, 0]]")
    assert "json" in loaded
    assert "argparse" not in loaded


ALGEBRA_COMMANDS = ["nil-index", "alg-degree", "alg-bound", "check-filtration", "gr", "verify-my1",
                    "rees-integrality", "iso-check"]
ROUTE = "ordsym.evaluation"  # evaluate, sym_values, the weight check and Vandermonde recovery


@pytest.mark.parametrize("argv", [
    *[(command, "--builtin", "upper-triangular:3") for command in ALGEBRA_COMMANDS],
    ("span-dim", "--n", "3", "--m", "2"),
    ("sym-poly", "--md", "2,1"),
])
def test_a_check_that_reads_no_json_loads_neither_io_nor_the_evaluation_route(argv):
    """The error classes come from errors, so io loads only to read a description or a vector flag."""
    loaded = loaded_by(*argv)
    assert "ordsym.errors" in loaded
    assert not loaded & {"ordsym.io", ROUTE}


@pytest.mark.parametrize("command", ALGEBRA_COMMANDS)
def test_a_check_on_a_description_file_loads_io_and_not_the_evaluation_route(command, tmp_path):
    loaded = loaded_by(command, *source("--input", tmp_path))
    assert "ordsym.io" in loaded and ROUTE not in loaded


@pytest.mark.parametrize("argv", [
    ("nil-index", "--builtin", "upper-triangular:2", "--elements", "[[0, 1, 0]]"),
    ("alg-degree", "--builtin", "upper-triangular:2", "--elements", "[[1, 1, 0]]"),
    ("alg-bound", "--builtin", "upper-triangular:2", "--elements", "[[1, 0, 0], [0, 1, 0]]"),
    ("rees-integrality", "--builtin", "truncated-polynomial:3", "--coeffs", "[[0, 0, 0], [0, 1, 0]]"),
])
def test_a_vector_flag_loads_json_and_neither_io_nor_the_evaluation_route(argv):
    """The one vector reader, read_vector, lives in fields, so io loads only for a description file."""
    loaded = loaded_by(*argv)
    assert "json" in loaded
    assert not loaded & {"ordsym.io", ROUTE}


FRACTIONS = {"fractions", "decimal"}  # fractions imports decimal
EVERY_COMMAND = [
    ("gr", "--builtin", "upper-triangular:3"),
    ("check-filtration", "--builtin", "upper-triangular:3"),
    ("iso-check", "--builtin", "upper-triangular:3"),
    ("nil-index", "--builtin", "strictly-upper-triangular:3"),
    ("alg-degree", "--builtin", "upper-triangular:3"),
    ("alg-bound", "--builtin", "upper-triangular:3"),
    ("verify-my1", "--builtin", "upper-triangular:3"),
    ("rees-integrality", "--builtin", "upper-triangular:3"),
    ("rees-integrality", "--builtin", "truncated-polynomial:4", "--nmax", "4",
     "--coeffs", "[[0, 0, 0, 0], [2, -1, 0, 0], [1, 1, -2, 0]]"),
    ("span-dim", "--n", "3", "--m", "2"),
    ("sym-poly", "--md", "2,1"),
]


def test_importing_the_command_line_loads_no_fractions():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ordsym.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_no_check_over_a_prime_field_loads_fractions(argv):
    """A residue is an int: GF(p) makes no Fraction, so it never loads fractions."""
    assert not loaded_by(*argv, "--field", "GF:101") & FRACTIONS


@pytest.mark.parametrize("argv", [
    ("gr", "--builtin", "upper-triangular:3"),
    ("check-filtration", "--builtin", "upper-triangular:3"),
    ("iso-check", "--builtin", "upper-triangular:3"),
    ("nil-index", "--builtin", "strictly-upper-triangular:3"),
    ("alg-degree", "--builtin", "upper-triangular:3"),
    ("verify-my1", "--builtin", "truncated-polynomial:4"),
    ("span-dim", "--n", "3", "--m", "2"),
    ("sym-poly", "--md", "2,1"),
    # a -1 pivot is scaled by the int -1, and "-1" in JSON reads as an int
    ("alg-degree", "--builtin", "upper-triangular:2", "--elements", '[["-1", 0, 0]]'),
])
def test_a_rational_check_that_makes_only_integers_loads_no_fractions(argv):
    assert not loaded_by(*argv) & FRACTIONS


@pytest.mark.parametrize("argv", [
    # the powers 2 E11 and 4 E11: the pivot 2 is scaled by the Fraction 1/2
    ("alg-degree", "--builtin", "upper-triangular:2", "--elements", "[[2, 0, 0]]"),
    ("alg-degree", "--builtin", "upper-triangular:2", "--elements", '[["1/2", 0, 0]]'),
])
def test_a_rational_check_that_makes_a_fraction_loads_fractions(argv):
    assert FRACTIONS <= loaded_by(*argv)
