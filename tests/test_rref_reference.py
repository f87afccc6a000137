"""Differential tests: the raw-value `rref` against the Scalar-based one it replaced.

`rref` reads each entry's value once into a sparse raw row (over Q an int
when whole and a reduced Fraction otherwise, a residue mod p over GF(p)),
eliminates on the nonzero entries only, and wraps only the rows it
returns back into Scalars.  The oracle's reference is the version it
replaced, which ran every cell update through Scalar arithmetic.  Both
must give the same rows, the same pivots and the same raw values, with
their types, for `rref`, `Subspace`, the raw solve `solve_raw` and the
raw inverse `inverse_rows` over Q, GF(2), GF(7) and GF(101): on general,
sparse, rank-deficient, duplicated and zero-row matrices, on inconsistent
systems, and on wide 0/1 word-coordinate rows like `sym_span_upto`'s.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.fields import QQ, Field, Scalar, dense_scalars, read_sparse
from ordsym.freealg import multidegrees, sym_poly, sym_span_upto, word_basis
from ordsym.linalg import Subspace, inverse_rows, rref, solve_raw
from oracle import (FIELDS, dense_sum, entries, eye, matrices, outcome, raw, raw_row, reference_rref,
                    reference_solve_consistent, reference_solve_square)


def wide_01_rows(field, rng, nrows, ncols):
    return [[field.one() if rng.random() < 0.15 else field.zero() for _ in range(ncols)]
            for _ in range(nrows)]


def assert_rref_matches(field, rows):
    red, piv = rref(field, rows)
    ref_red, ref_piv = reference_rref(field, rows)
    assert piv == ref_piv
    assert raw(red) == raw(ref_red)
    if rows:
        space = Subspace(field, len(rows[0]), rows)
        assert space.pivots == tuple(ref_piv)
        assert raw(space.rows) == raw(ref_red)
    return len(piv)


def assert_solve_matches(field, a, b):
    got = solve_raw(field, len(a[0]), [read_sparse(field, (*ra, rb)) for ra, rb in zip(a, b)])
    expected = reference_solve_consistent(field, a, b)
    if expected is None:
        assert got is None
    else:
        assert raw_row(got) == raw_row(expected)
    return expected is not None


def assert_inverse_matches(field, a):
    """inverse_rows on the sparse rows of a square matrix, against the reference solve of [A | I]."""
    expected = outcome(lambda: [raw_row(r) for r in reference_solve_square(field, a, eye(field, len(a)))])
    rows = [read_sparse(field, r) for r in a]
    assert outcome(lambda: [raw_row(r) for r in inverse_rows(field, rows)]) == expected
    return expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_and_subspace_match_reference(field, data):
    assert_rref_matches(field, data.draw(matrices(field)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_consistent_matches_reference(field, data):
    a = data.draw(matrices(field, min_rows=1))
    b = [Scalar(field, c) for c in data.draw(
        st.lists(entries(field), min_size=len(a), max_size=len(a)))]
    assert_solve_matches(field, a, b)
    # A right-hand side inside the column space is always consistent.
    xs = [Scalar(field, c) for c in data.draw(
        st.lists(entries(field), min_size=len(a[0]), max_size=len(a[0])))]
    inside = list(dense_sum(field, len(a), zip(xs, zip(*a))))
    assert assert_solve_matches(field, a, inside)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_square_and_invert_match_reference(field, data):
    n = data.draw(st.integers(1, 5))
    a = [[Scalar(field, c) for c in data.draw(st.lists(entries(field), min_size=n, max_size=n))]
         for _ in range(n)]
    assert_inverse_matches(field, a)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_seeded_systems_cover_every_case(field):
    """Seeded sweep that also asserts each kind of system really occurs."""
    rng = random.Random(str(field))
    seen = set()
    for trial in range(120):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        a = [[Scalar(field, rng.randint(-4, 4)) if rng.random() < density else field.zero()
              for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 0:
            a += [list(a[0]), [field.zero()] * ncols]
            seen.add("duplicate and zero rows")
        rank = assert_rref_matches(field, a)
        if rank < min(len(a), ncols):
            seen.add("rank-deficient")
        b = [Scalar(field, rng.randint(-4, 4)) for _ in a]
        seen.add("consistent" if assert_solve_matches(field, a, b) else "inconsistent")
        if len(a) >= ncols:
            expected = assert_inverse_matches(field, a[:ncols])
            seen.add("singular" if isinstance(expected, str) else "invertible")
    for nrows, ncols in ((12, 40), (30, 25)):
        assert_rref_matches(field, wide_01_rows(field, rng, nrows, ncols))
    assert seen == {"duplicate and zero rows", "rank-deficient", "consistent",
                    "inconsistent", "singular", "invertible"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r,m", [(3, 2), (2, 3), (4, 2)])
def test_word_coordinate_spans_match_reference(field, r, m):
    """The wide 0/1 rows `sym_span_upto` eliminates, in the columns of `word_basis`."""
    basis = word_basis(m, range(r + 1))
    column = {w: i for i, w in enumerate(basis)}
    vecs = [dense_scalars(field, len(basis), {column[w]: c for w, c in sym_poly(md, field).raw_terms()})
            for n in range(r + 1) for md in multidegrees(n, m)]
    assert_rref_matches(field, vecs)
    assert sym_span_upto(r, m, field, include_degree_zero=True) == Subspace(field, len(basis), vecs)


def test_equal_field_instances_share_one_kernel():
    """Entries of an equal but distinct Field object are read through the coercing path."""
    a, b = Field("GF", 7), Field("GF", 7)
    rows = [[Scalar(a, 3), Scalar(a, 5)], [Scalar(a, 1), Scalar(a, 6)]]
    assert raw(rref(b, rows)[0]) == raw(reference_rref(b, rows)[0])
    assert rref(b, rows)[0][0][0].field is b


def test_int_and_fraction_entries_are_coerced():
    red, piv = rref(QQ, [[2, Fraction(1, 2)], [0, 3]])
    assert piv == [0, 1]
    assert raw(red) == raw([[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]])


@pytest.mark.parametrize("foreign", [Field("GF", 7), QQ], ids=str)
def test_foreign_field_scalar_raises(foreign):
    field = Field("GF", 5) if foreign == QQ else QQ
    good, bad = field.one(), Scalar(foreign, 3)
    with pytest.raises(ValueError):
        rref(field, [[good, good], [good, bad]])
    with pytest.raises(ValueError):
        Subspace(field, 2, [[bad, good]])


def test_ragged_input_raises():
    one = QQ.one()
    with pytest.raises(ValueError, match="ragged"):
        rref(QQ, [[one, one], [one]])
    with pytest.raises(ValueError, match="ragged"):
        Subspace(QQ, 2, [[one, one], [one]])
