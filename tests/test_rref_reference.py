"""Differential tests: the raw-value `rref` against the Scalar-based one it replaced.

`rref` reads each entry's value once into a sparse raw row (over Q an int
when whole and a reduced Fraction otherwise, a residue mod p over GF(p)),
eliminates on the nonzero entries only, and wraps only the rows it
returns back into Scalars.  The reference below is the version it
replaced, which ran every cell update through Scalar arithmetic.  Both
must give the same rows, the same pivots and the same raw values, with
their types, for `rref`, `Subspace`,
`solve_consistent`, `solve_square` and `invert_matrix` over Q, GF(2),
GF(7) and GF(101): on general, sparse, rank-deficient, duplicated and
zero-row matrices, on inconsistent systems, and on wide 0/1 word-coordinate
rows like `sym_span_upto`'s.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.fields import QQ, Field, Scalar
from ordsym.freealg import multidegrees, poly_vector, sym_poly, word_basis
from ordsym.linalg import Subspace, invert_matrix, rref, solve_consistent, solve_square

FIELDS = [QQ, Field("GF", 2), Field("GF", 7), Field("GF", 101)]


def reference_rref(field, rows):
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged input: rows of unequal length")
    pivots = []
    col = 0
    rix = 0
    while rix < len(work) and col < ncols:
        piv = next((i for i in range(rix, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rix], work[piv] = work[piv], work[rix]
        inv = work[rix][col].inv()
        work[rix] = [x * inv for x in work[rix]]
        for i in range(len(work)):
            if i != rix and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rix])]
        pivots.append(col)
        rix += 1
        col += 1
    return work[: len(pivots)], pivots


def reference_solve_consistent(field, a, b):
    if not a:
        return []
    ncols = len(a[0])
    red, piv = reference_rref(field, [list(ra) + [rb] for ra, rb in zip(a, b)])
    x = [field.zero()] * ncols
    for row, p in zip(red, piv):
        if p == ncols:
            return None
        x[p] = row[-1]
    return x


def reference_solve_square(field, a, b):
    n = len(a)
    red, piv = reference_rref(field, [list(ra) + list(rb) for ra, rb in zip(a, b)])
    if len(red) != n or piv != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def raw(rows):
    """Rows as (field, value type, value) triples: Scalar equality alone
    would not tell an int from a whole Fraction over Q."""
    return [[(x.field, type(x.value), x.value) for x in r] for r in rows]


def outcome(call):
    """A call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as e:
        return f"ValueError: {e}"


def entries(field):
    if field.is_finite:
        return st.integers(-3 * field.p, 3 * field.p)
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, field, min_rows=0, max_rows=7, max_cols=7):
    """A matrix of Scalars: general, sparse, rank-deficient, with duplicate and zero rows."""
    ncols = draw(st.integers(1, max_cols))
    base = draw(st.lists(st.lists(entries(field), min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=max_rows))
    rows = [[Scalar(field, c) for c in r] for r in base]
    kind = draw(st.sampled_from(["plain", "sparse", "deficient", "duplicates"]))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=len(rows) * ncols, max_size=len(rows) * ncols))
        rows = [[c if keep[i * ncols + k] else field.zero() for k, c in enumerate(r)] for i, r in enumerate(rows)]
    elif kind == "deficient" and rows:
        coeffs = draw(st.lists(st.lists(entries(field), min_size=len(rows), max_size=len(rows)),
                               min_size=1, max_size=4))
        rows += [[sum((Scalar(field, c) * r[k] for c, r in zip(cs, rows)), field.zero())
                  for k in range(ncols)] for cs in coeffs]
    elif kind == "duplicates" and rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
        rows += [list(rows[i]) for i in picks] + [[field.zero()] * ncols]
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


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
    got = solve_consistent(field, a, b)
    expected = reference_solve_consistent(field, a, b)
    if expected is None:
        assert got is None
    else:
        assert raw([got]) == raw([expected])
    return expected is not None


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
    inside = [sum((r[k] * xs[k] for k in range(len(xs))), field.zero()) for r in a]
    assert assert_solve_matches(field, a, inside)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_square_and_invert_match_reference(field, data):
    n = data.draw(st.integers(1, 5))
    a = [[Scalar(field, c) for c in data.draw(st.lists(entries(field), min_size=n, max_size=n))]
         for _ in range(n)]
    width = data.draw(st.integers(1, 3))
    b = [[Scalar(field, c) for c in data.draw(st.lists(entries(field), min_size=width, max_size=width))]
         for _ in range(n)]
    expected = outcome(lambda: raw(reference_solve_square(field, a, b)))
    assert outcome(lambda: raw(solve_square(field, a, b))) == expected
    eye = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    expected = outcome(lambda: raw(reference_solve_square(field, a, eye)))
    assert outcome(lambda: raw(invert_matrix(field, a))) == expected


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
            square = a[:ncols]
            eye = [[field.one() if i == j else field.zero() for j in range(ncols)] for i in range(ncols)]
            expected = outcome(lambda: raw(reference_solve_square(field, square, eye)))
            assert outcome(lambda: raw(invert_matrix(field, square))) == expected
            seen.add("singular" if isinstance(expected, str) else "invertible")
    for nrows, ncols in ((12, 40), (30, 25)):
        assert_rref_matches(field, wide_01_rows(field, rng, nrows, ncols))
    assert seen == {"duplicate and zero rows", "rank-deficient", "consistent",
                    "inconsistent", "singular", "invertible"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("r,m", [(3, 2), (2, 3), (4, 2)])
def test_word_coordinate_spans_match_reference(field, r, m):
    """The wide 0/1 (and multinomial) rows `sym_span_upto` eliminates."""
    basis = word_basis(m, range(r + 1))
    vecs = [poly_vector(sym_poly(md, field), basis) for n in range(r + 1) for md in multidegrees(n, m)]
    assert_rref_matches(field, vecs)


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
    with pytest.raises(ValueError):
        solve_consistent(field, [[good], [good]], [good, bad])
    with pytest.raises(ValueError):
        solve_square(field, [[bad]], [[good]])
    with pytest.raises(ValueError):
        invert_matrix(field, [[good, bad], [bad, good]])


def test_ragged_input_raises():
    one = QQ.one()
    with pytest.raises(ValueError, match="ragged"):
        rref(QQ, [[one, one], [one]])
    with pytest.raises(ValueError, match="ragged"):
        Subspace(QQ, 2, [[one, one], [one]])
    with pytest.raises(ValueError, match="square"):
        solve_square(QQ, [[one, one], [one]], [[one], [one]])
