"""Differential tests: the growing spans against the re-eliminating ones.

`sym_span_chain`, `algebraic_degree` and `_adapted_basis` grow one span
with `Subspace.insert`, and `sym_span_in`, `sym_span_chain` and
`uniform_nil_index` share one first-letter level walk, which pushes each
nonzero value into the profiles above it.  The references, in
tests/oracle.py, are the versions they replaced: each added vector
re-eliminates the whole basis through `contains` and `+ Subspace(...)`,
each function runs its own level loop with its own exit, and each level
is pulled, every profile of the degree summing the products of its
parents.  Both sides must give the same whole results on seeded tuples
in every builtin over Q, GF(2), GF(3), GF(5) and GF(101), and the same
adapted bases on rebased and corrupted filtrations.
"""

from __future__ import annotations

import random

import pytest

from ordsym.algebra import (
    _nonzero_levels,
    algebraic_degree,
    sym_span_chain,
    sym_span_in,
    uniform_nil_index,
)
from ordsym.catalog import builtin_example, builtin_names, matrix_unit_algebra
from ordsym.fields import Field, read_sparse
from ordsym.graded import _adapted_basis
from oracle import (SIZES, corrupt_stages, outcome, pull_levels, rebased, reference_adapted_basis,
                    reference_algebraic_degree, reference_sym_span_chain, reference_sym_span_in,
                    reference_uniform_nil_index, unit_elt)

FIELDS = [Field("Q"), Field("GF", 2), Field("GF", 3), Field("GF", 5), Field("GF", 101)]


def seeded_tuples(name: str, algebra, rng: random.Random):
    """Tuples of m = 1..3 elements: dense, sparse (zero levels and plateaus) and basis elements.

    In truncated-polynomial, (t^2, t) is added: over GF(2) its degree-2
    values add nothing and its degree-3 values grow the span again.
    """
    for m in (1, 2, 3):
        yield [algebra.element([rng.randint(-1, 1) for _ in range(algebra.dim)]) for _ in range(m)]
        yield [algebra.element([rng.choice((0, 0, 0, 1, -1)) for _ in range(algebra.dim)]) for _ in range(m)]
        yield [algebra.basis_element(i) for i in rng.sample(range(algebra.dim), m)]
    if name == "truncated-polynomial":
        yield [algebra.basis_element(2), algebra.basis_element(1)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_spans_and_walks_match_references(field):
    seen = set()
    for name in builtin_names():
        algebra = builtin_example(name, SIZES[name], field)[0]
        rng = random.Random(f"{name}/{field}")
        for elts in seeded_tuples(name, algebra, rng):
            for include_degree_zero in (False, True):
                for stop_at_plateau in (True, False):
                    for max_degree in (None, 2, algebra.dim + 3):
                        kw = dict(include_degree_zero=include_degree_zero,
                                  stop_at_plateau=stop_at_plateau, max_degree=max_degree)
                        expected = outcome(lambda: reference_sym_span_chain(elts, **kw))
                        got = outcome(lambda: sym_span_chain(elts, **kw))
                        if isinstance(expected, str):
                            assert got == expected, (name, kw)
                            seen.add("raises")
                            continue
                        growth, cumulative, stabilized_at = expected
                        assert got.growth == growth, (name, kw)
                        assert got.cumulative.rows == cumulative.rows, (name, kw)
                        assert got.cumulative.pivots == cumulative.pivots, (name, kw)
                        assert got.stabilized_at == stabilized_at, (name, kw)
                        assert got.includes_degree_zero == include_degree_zero
                        if 0 in growth and any(growth[growth.index(0):]):
                            seen.add("regrowth after a plateau")
                        if cumulative.dim == algebra.dim and len(growth) > 1:
                            seen.add("whole algebra")
            for n in (1, 2, 3, algebra.dim + 2):
                assert sym_span_in(elts, n).rows == reference_sym_span_in(elts, n).rows, (name, n)
            for cutoff in (None, 1, 2, 3):
                index = reference_uniform_nil_index(elts, cutoff)
                assert uniform_nil_index(elts, cutoff) == index, (name, cutoff)
                if index is not None:
                    seen.add("zero level")
            for e in elts:
                for unital in (False, True) if algebra.is_unital else (False,):
                    assert algebraic_degree(e, unital) == reference_algebraic_degree(e, unital), name
    expected_paths = {"raises", "whole algebra", "zero level"}
    if field.is_finite and field.p == 2:
        expected_paths.add("regrowth after a plateau")
    assert expected_paths <= seen, seen


def walk_tuples(name: str, algebra, rng: random.Random):
    """The seeded tuples, plus one with a zero element, an anticommuting pair
    (e1 e2 + e2 e1 = 0 in the exterior algebra) and repeats of one element,
    whose values in a commutative algebra are multinomial multiples of its
    powers and so cancel mod small p."""
    yield from seeded_tuples(name, algebra, rng)
    x, y = algebra.basis_element(1), algebra.basis_element(2)
    yield [algebra.zero_element(), x]
    yield [x, y]
    yield [x, x]
    yield [x, x, x]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_push_walk_matches_pull_levels(field):
    """Each pushed level is the nonzero part of the pulled one, and both walks end together."""
    seen = set()
    for name in builtin_names():
        algebra = builtin_example(name, SIZES[name], field)[0]
        rng = random.Random(f"walk/{name}/{field}")
        for elts in walk_tuples(name, algebra, rng):
            if any(e.is_zero() for e in elts):
                seen.add("zero element")
            pushed = _nonzero_levels(elts)
            levels = pull_levels(elts)
            pulled = next(levels)
            for degree in range(1, algebra.dim + 3):
                nonzero = {md: v for md, v in pulled.items() if not v.is_zero()}
                assert next(pushed, {}) == nonzero, (name, degree)
                if not nonzero:
                    seen.add("walk ends")
                    break
                pulled = next(levels)
                for md, v in nonzero.items():
                    for j, a in enumerate(elts):
                        child = (*md[:j], md[j] + 1, *md[j + 1:])
                        if pulled[child].is_zero() and not (a * v).is_zero():
                            seen.add(("cancelled", name))
    expected = {"zero element", "walk ends", ("cancelled", "exterior-algebra")}
    if field.is_finite and field.p in (2, 3):
        expected.add(("cancelled", "truncated-polynomial"))
    assert expected <= seen, seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_adapted_basis_matches_reference(field):
    for name in builtin_names():
        algebra, filtration = builtin_example(name, SIZES[name], field)
        for seed in range(4):
            rng = random.Random(seed)
            base, stages = rebased(algebra, list(filtration.stages), rng) if seed else (algebra, filtration.stages)
            cases = [stages, corrupt_stages(base, stages, rng)]
            for case in cases:
                # the adapted basis holds sparse raw rows; the reference's dense rows are read into that form
                adapted, dims = reference_adapted_basis(base, case)
                expected = [(p, read_sparse(field, row)) for p, row in adapted], dims
                assert _adapted_basis(base, case) == expected, (name, seed)


def nilpotent_matrix_tuples(n: int, algebra, rng: random.Random):
    """Tuples of nilpotent members of M_n: some span a nilpotent algebra and
    vanish, and some (E12 with E21) generate all of M_n and never vanish."""
    e = {(a, b): unit_elt(algebra, f"E{a}{b}") for a in range(1, n + 1) for b in range(1, n + 1)}

    def strict(upper: bool):
        return sum((rng.randint(-2, 2) * v for (a, b), v in e.items() if (a < b if upper else a > b)),
                   algebra.zero_element())

    yield [e[1, 2]]
    yield [e[1, 2], e[2, 1]]
    yield [e[1, n], e[n, 1], e[1, 2]]
    yield [strict(True), strict(True)]
    yield [strict(True), strict(False)]
    if n > 2:
        yield [e[1, 2], e[2, 3]]
        yield [e[1, 2] + e[2, 3], e[1, 3]]


@pytest.mark.parametrize("field", [Field("Q"), Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=str)
def test_nil_index_matches_the_walk_to_the_cutoff(field):
    """uniform_nil_index walks no further than degree dim + 1; the reference walks
    every level up to the cutoff.  GF(2) and GF(3) have at most dim + 1 elements
    here, so a combination that is not nilpotent may need the algebraic closure."""
    cases = [(name, builtin_example(name, SIZES[name], field)[0]) for name in builtin_names()]
    for n in (2, 3):
        cases.append((f"M_{n}", matrix_unit_algebra(field, [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)],
                                                   unital=True)))
    seen = set()
    for name, algebra in cases:
        rng = random.Random(f"cutoff/{name}/{field}")
        tuples = seeded_tuples(name, algebra, rng) if name in SIZES else nilpotent_matrix_tuples(int(name[2:]), algebra, rng)
        for elts in tuples:
            for cutoff in range(1, 3 * algebra.dim + 1):
                index = reference_uniform_nil_index(elts, cutoff)
                assert uniform_nil_index(elts, cutoff) == index, (name, cutoff)
                if cutoff == 3 * algebra.dim:
                    nilpotent = all(e.nil_index(algebra.dim + 1) is not None for e in elts)
                    seen.add("vanishes" if index is not None else "nilpotent members, never vanishes" if nilpotent
                             else "non-nilpotent member")
    assert seen == {"vanishes", "nilpotent members, never vanishes", "non-nilpotent member"}, seen
