"""No CLI command runs Scalar arithmetic: every kernel works on raw field values.

Products, sums, scalar multiples, eliminations and validation read Scalars
through a field check and wrap their results, but never add, multiply,
negate, divide or invert a Scalar.  Each Scalar arithmetic operator is
wrapped with a counter, and every command runs on every builtin at a small
size over Q, GF(3) and GF(101), and on one description file read with
--input; the count must stay 0.
"""

from __future__ import annotations

import json

import pytest

from ordsym.catalog import builtin_example
from ordsym.cli import main
from ordsym.fields import QQ, Scalar
from ordsym.io import dump_description

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__truediv__", "inv", "__pow__")
BUILTINS = ("upper-triangular:3", "strictly-upper-triangular:3", "truncated-polynomial:3", "exterior-algebra:2")
COMMANDS = ("nil-index", "alg-degree", "alg-bound", "check-filtration", "gr", "verify-my1",
            "rees-integrality", "iso-check")


@pytest.fixture
def operator_calls(monkeypatch):
    calls = []

    def counted(name, op):
        def wrapper(*args):
            calls.append(name)
            return op(*args)
        return wrapper

    for name in OPERATORS:
        monkeypatch.setattr(Scalar, name, counted(name, getattr(Scalar, name)))
    return calls


def test_the_counter_sees_scalar_arithmetic(operator_calls):
    one = QQ.one()
    one + one * one - one
    assert operator_calls == ["__mul__", "__add__", "__sub__"]


@pytest.mark.parametrize("field", ["Q", "GF:3", "GF:101"])
def test_no_cli_command_calls_a_scalar_operator(field, operator_calls, tmp_path, capsys):
    # a description whose filtration stages are given by non-echelon spanning vectors
    algebra, filtration = builtin_example("upper-triangular", 2)
    doc = dump_description(algebra, filtration)
    doc["filtration"] = [[[1, 1, 0], [0, 1, 0]], [[1, 1, 1], [1, 0, 0], [0, 1, 0]]]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    runs = [["sym-poly", "--md", "2,1"], ["span-dim", "--n", "3", "--m", "2"]]
    runs += [[cmd, "--builtin", name] for name in BUILTINS for cmd in COMMANDS]
    runs += [[cmd, "--input", str(path)] for cmd in COMMANDS]
    for argv in runs:
        code = main(argv + ["--field", field])
        assert code in (0, 1), argv
    capsys.readouterr()
    assert len(operator_calls) == 0
