"""Differential tests: the basis-level validators against the dense-vector ones.

`StructureAlgebra.validate` reads associativity off the structure
constants and `validate_filtration` checks multiplicativity on adapted
pairs only.  The reference validators, in tests/oracle.py, are the scans
they replaced: associativity by dense products of basis vectors, nesting
row by row, and multiplicativity on every pair of echelon rows, each
product by the oracle's dense product rather than the `multiply_coords`
that the associativity check reads.  Both sides must return
the same failure list (law, where, witness, lhs, rhs) on seeded
corruptions of every builtin, over Q, GF(5) and GF(101).
"""

from __future__ import annotations

import random

import pytest

from ordsym.catalog import builtin_example, builtin_names
from ordsym.fields import Field
from ordsym.graded import validate_filtration
from oracle import SIZES, corrupt_algebra, corrupt_stages, rebased, reference_validate, reference_validate_filtration

FIELDS = [Field("Q"), Field("GF", 5), Field("GF", 101)]
FILTRATION_SIZES = {"upper-triangular": 4, "strictly-upper-triangular": 4,
                    "truncated-polynomial": 5, "exterior-algebra": 3}


def seeded_inputs(name: str, size: int, field: Field, seed: int):
    """A builtin, rebased on odd seeds, with its stages as a list."""
    rng = random.Random(seed)
    algebra, filtration = builtin_example(name, size, field)
    stages = list(filtration.stages)
    if seed % 2:
        algebra, stages = rebased(algebra, stages, rng)
    return algebra, stages, rng


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_associativity_matches_dense_reference(field):
    laws = set()
    for name in builtin_names():
        for seed in range(12):
            algebra, _, rng = seeded_inputs(name, SIZES[name], field, seed)
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
