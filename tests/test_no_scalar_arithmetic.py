"""No library function runs Scalar arithmetic: every kernel works on raw field values.

Products, sums, scalar multiples, eliminations and validation read Scalars
through a field check and wrap their results, but never add, multiply,
negate, divide or invert a Scalar.  Free polynomials are held raw too, so
their arithmetic, the symmetric sums and powers of linear forms, the
power-grid span, evaluation in an algebra and Vandermonde recovery run no
Scalar operator either.  Each Scalar arithmetic operator is wrapped with a
counter.  Every command runs on every builtin at a small size over Q,
GF(3) and GF(101), and on one description file read with --input; the
free-polynomial and recovery functions run over Q, GF(2), GF(7) and
GF(101), and their results are compared afterwards with the Scalar
references of tests/oracle.py.  The count must stay 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import pytest

from ordsym.algebra import evaluate, sym_values
from ordsym.catalog import builtin_example
from ordsym.cli import main
from ordsym.fields import QQ, Field, Scalar
from ordsym.freealg import FreePoly, linear_power, multidegrees, power_span_grid, sym_poly, sym_span
from ordsym.graded import sym_degree_check
from ordsym.io import dump_description
from ordsym.linalg import multi_vandermonde_recover, vandermonde_recover
from oracle import (evaluate_oracle, expand_power_oracle, forward_grid, forward_vandermonde, product_oracle, sum_oracle,
                    words_with_profile)

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


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 7), Field("GF", 101)], ids=repr)
def test_free_polynomials_and_recovery_call_no_scalar_operator(field, operator_calls):
    s = field.scalar
    p = FreePoly(field, 2, {(): 3, (1,): 1, (2, 1): Fraction(5, 3), (1, 2, 2): -1})
    q = FreePoly(field, 2, {(1,): 2, (1, 2): -1, (2, 2, 1): 4})
    coeffs = [s(2), s(3)]
    sample = list(field.elements())[:3] if field.is_finite else [s(0), s(1), s(2)]
    n = len(sample) - 1
    A, F = builtin_example("upper-triangular", 4, field)
    elts = [A.element(c) for c in ([1, 2, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 3, 1, 0, 0, 1, 0])]
    e12, e23, e13 = (A.basis_element(A.names.index(name)) for name in ("E12", "E23", "E13"))
    vs = [[s(i + k) for k in range(3)] for i in range(n + 1)]
    ws = forward_vandermonde(sample, vs)
    family = {mu: [s(3 * mu[0] + 1), s(mu[1] - 2)] for mu in multidegrees(n, 2)}
    evaluations = forward_grid(2, n, family, list(product(sample, repeat=2)))
    operator_calls.clear()

    got = {
        "add": p + q, "sub": p - q, "neg": -p, "mul": p * q, "pow": p**3, "pow0": q**0,
        "scale_scalar": p.scale(s(3)), "mul_scalar": p * s(3), "scale_int": p.scale(-4), "mul_int": p * -4,
        "scale_fraction": p.scale(Fraction(2, 3)), "mul_fraction": Fraction(2, 3) * p,
        "sym": sym_poly((2, 1, 1), field), "linear_power": linear_power(coeffs, 3),
        "grid": power_span_grid(n, 2, sample),
        "evaluate": evaluate(p * q, elts), "evaluate_power": evaluate(linear_power(coeffs, 3), elts),
        "sym_values": sym_values(elts, 3),
        "degree_check": sym_degree_check(F, [e12 + e23, e13], 1, (1, 1)),
        "vandermonde": vandermonde_recover(sample, ws),
        "multi": multi_vandermonde_recover(2, n, evaluations, sample),
    }
    assert operator_calls == []

    assert got["add"] == sum_oracle(field, 2, [(s(1), p), (s(1), q)])
    assert got["sub"] == sum_oracle(field, 2, [(s(1), p), (s(-1), q)])
    assert got["neg"] == sum_oracle(field, 2, [(s(-1), p)])
    assert got["mul"] == product_oracle(field, 2, p, q)
    assert got["pow"] == product_oracle(field, 2, product_oracle(field, 2, p, p), p)
    assert got["pow0"] == FreePoly.one(field, 2)
    assert got["scale_scalar"] == got["mul_scalar"] == sum_oracle(field, 2, [(s(3), p)])
    assert got["scale_int"] == got["mul_int"] == sum_oracle(field, 2, [(s(-4), p)])
    assert got["scale_fraction"] == got["mul_fraction"] == sum_oracle(field, 2, [(s(Fraction(2, 3)), p)])
    assert [w for w, _ in got["sym"].terms()] == words_with_profile((2, 1, 1))
    assert all(c == field.one() for _, c in got["sym"].terms())
    assert got["linear_power"] == expand_power_oracle(coeffs, 3)
    space, complete = got["grid"]
    assert complete and space == sym_span(n, 2, field)
    assert got["evaluate"] == evaluate_oracle(p * q, elts)
    assert got["evaluate_power"] == (coeffs[0] * elts[0] + coeffs[1] * elts[1]) ** 3
    for md, value in got["sym_values"].items():
        assert value == evaluate_oracle(sym_poly(md, field), elts), md
    report = got["degree_check"]
    assert report.ok and report.weight == 3 and report.in_stage and report.graded_match
    assert [list(v) for v in got["vandermonde"]] == vs
    assert {mu: list(w) for mu, w in got["multi"].items()} == family
