"""Differential tests: the basis-level validators against the dense-vector ones.

`StructureAlgebra.validate` reads associativity off the structure
constants and `validate_filtration` checks multiplicativity on adapted
pairs only.  The reference validators below are the scans they replaced:
associativity by dense products of basis vectors, nesting row by row, and
multiplicativity on every pair of echelon rows.  Both sides must return
the same failure list (law, where, witness, lhs, rhs) on seeded
corruptions of every builtin, over Q, GF(5) and GF(101).
"""

from __future__ import annotations

import random

import pytest

from ordsym.algebra import StructureAlgebra, ValidationReport
from ordsym.catalog import builtin_example, builtin_names
from ordsym.fields import Field, Scalar
from ordsym.graded import validate_filtration
from ordsym.linalg import Subspace, invert_matrix

FIELDS = [Field("Q"), Field("GF", 5), Field("GF", 101)]
ALGEBRA_SIZES = {"upper-triangular": 3, "strictly-upper-triangular": 4,
                 "truncated-polynomial": 4, "exterior-algebra": 3}
FILTRATION_SIZES = {"upper-triangular": 4, "strictly-upper-triangular": 4,
                    "truncated-polynomial": 5, "exterior-algebra": 3}


def reference_validate(algebra: StructureAlgebra) -> ValidationReport:
    """Associativity and unit laws by dense products of basis vectors."""
    basis = [algebra.basis_element(i).coords for i in range(algebra.dim)]
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            ij = algebra.multiply_coords(basis[i], basis[j])
            for k in range(algebra.dim):
                lhs = algebra.multiply_coords(ij, basis[k])
                rhs = algebra.multiply_coords(basis[i], algebra.multiply_coords(basis[j], basis[k]))
                if lhs != rhs:
                    return ValidationReport(False, [
                        {"law": "associativity", "where": (i, j, k), "lhs": lhs, "rhs": rhs}
                    ])
    if algebra.unit is not None:
        for i in range(algebra.dim):
            left = algebra.multiply_coords(algebra.unit, basis[i])
            right = algebra.multiply_coords(basis[i], algebra.unit)
            if left != basis[i] or right != basis[i]:
                return ValidationReport(False, [{"law": "unit", "where": i}])
    return ValidationReport(True)


def reference_validate_filtration(algebra: StructureAlgebra, stages) -> ValidationReport:
    """Nesting row by row, multiplicativity on every pair of echelon rows."""
    if not stages:
        return ValidationReport(False, [{"law": "exhaustion", "where": "empty chain"}])
    t = len(stages) - 1
    for i, s in enumerate(stages):
        if s.field != algebra.field or s.ambient != algebra.dim:
            return ValidationReport(False, [{"law": "ambient", "where": i}])
    for i in range(1, t + 1):
        if not all(stages[i].contains(r) for r in stages[i - 1].rows):
            return ValidationReport(False, [{"law": "nesting", "where": (i - 1, i)}])
    if stages[t].dim != algebra.dim:
        return ValidationReport(False, [{"law": "exhaustion", "where": t, "dim": stages[t].dim}])
    for i in range(t + 1):
        for j in range(t + 1):
            target = stages[min(i + j, t)]
            for u in stages[i].rows:
                for v in stages[j].rows:
                    prod = algebra.multiply_coords(u, v)
                    if not target.contains(prod):
                        return ValidationReport(False, [
                            {"law": "multiplicativity", "where": (i, j), "witness": prod}
                        ])
    return ValidationReport(True)


def rebased(algebra: StructureAlgebra, stages, rng: random.Random):
    """The algebra and stages in the basis b_i = sum_j P[i][j] e_j.

    P is a seeded product of unit lower and upper bidiagonal integer
    matrices, so it is invertible over every field with an integer inverse.
    Stage vectors stop being coordinate prefixes, so echelon rows and
    adapted vectors differ, and most structure constants become nonzero.
    """
    f, n = algebra.field, algebra.dim
    lower = [[int(i == j) or (rng.choice((-1, 1)) if i - j == 1 else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.choice((-1, 1)) if j - i == 1 else 0) for j in range(n)] for i in range(n)]
    p = [[Scalar(f, sum(lower[i][k] * upper[k][j] for k in range(n))) for j in range(n)] for i in range(n)]
    p_inv = invert_matrix(f, p)

    def to_new(x):
        return tuple(sum((x[a] * p_inv[a][j] for a in range(n)), f.zero()) for j in range(n))

    mul = {
        (i, j): dict(enumerate(to_new(algebra.multiply_coords(p[i], p[j]))))
        for i in range(n) for j in range(n)
    }
    unit = to_new(algebra.unit) if algebra.is_unital else None
    new = StructureAlgebra(f, [f"b{i}" for i in range(n)], mul, unit=unit, check=False)
    return new, [Subspace(f, n, [to_new(r) for r in s.rows]) for s in stages]


def seeded_inputs(name: str, size: int, field: Field, seed: int):
    """A builtin, rebased on odd seeds, with its stages as a list."""
    rng = random.Random(seed)
    algebra, filtration = builtin_example(name, size, field)
    stages = list(filtration.stages)
    if seed % 2:
        algebra, stages = rebased(algebra, stages, rng)
    return algebra, stages, rng


def corrupt_algebra(algebra: StructureAlgebra, rng: random.Random) -> StructureAlgebra:
    """One or two structure constants overwritten, or a unit coordinate moved."""
    f, n = algebra.field, algebra.dim
    mul = {key: dict(row) for key, row in algebra.mul.items()}
    unit = algebra.unit
    if unit is not None and rng.random() < 0.2:
        unit = list(unit)
        unit[rng.randrange(n)] += Scalar(f, rng.choice((-1, 1)))
    else:
        for _ in range(rng.randint(1, 2)):
            i, j, k = (rng.randrange(n) for _ in range(3))
            mul.setdefault((i, j), {})[k] = rng.randint(-3, 3)
    return StructureAlgebra(f, algebra.names, mul, unit=unit, check=False)


def _combination(f: Field, rows, rng: random.Random):
    out = [f.zero()] * len(rows[0])
    for row in rows:
        c = Scalar(f, rng.randint(-2, 2))
        out = [a + c * b for a, b in zip(out, row)]
    return out


def corrupt_stages(algebra: StructureAlgebra, stages, rng: random.Random) -> list[Subspace]:
    """One stage below the top grown, shrunk, or replaced by random vectors."""
    f, n, t = algebra.field, algebra.dim, len(stages) - 1
    full = Subspace.full(f, n).rows
    i = rng.randrange(t)
    rows = list(stages[i].rows)
    kind = rng.choice(("grow", "grow", "shrink", "replace"))
    if kind == "grow":
        source = stages[min(i + rng.randint(1, 2), t)].rows
        rows.append(_combination(f, source, rng))
    elif kind == "shrink" and rows:
        below = list(stages[i - 1].rows) if i else []
        keep = max(len(rows) - len(below) - 1, 0)
        rows = below + [_combination(f, rows, rng) for _ in range(keep)]
    else:
        rows = [_combination(f, full, rng) for _ in range(len(rows))]
    out = list(stages)
    out[i] = Subspace(f, n, rows)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_associativity_matches_dense_reference(field):
    laws = set()
    for name in builtin_names():
        for seed in range(12):
            algebra, _, rng = seeded_inputs(name, ALGEBRA_SIZES[name], field, seed)
            if seed:
                algebra = corrupt_algebra(algebra, rng)
            expected = reference_validate(algebra)
            assert algebra.validate() == expected, (name, seed)
            laws.update(fail["law"] for fail in expected.failures)
    assert laws == {"associativity", "unit"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_filtration_laws_match_all_rows_reference(field):
    wheres = set()
    for name in builtin_names():
        for seed in range(16):
            algebra, stages, rng = seeded_inputs(name, FILTRATION_SIZES[name], field, seed)
            if seed:
                stages = corrupt_stages(algebra, stages, rng)
            expected = reference_validate_filtration(algebra, stages)
            assert validate_filtration(algebra, stages) == expected, (name, seed)
            wheres.update((fail["law"], fail["where"]) for fail in expected.failures)
    mult = {where for law, where in wheres if law == "multiplicativity"}
    assert mult - {(0, 0)}, wheres
    assert any(law == "nesting" for law, _ in wheres), wheres
