import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.fields import QQ, Field, dense_scalars, read_sparse
from ordsym.freealg import multidegrees
from ordsym.linalg import (
    Subspace,
    multi_vandermonde_recover,
    rref,
    solve_raw,
    vandermonde_recover,
)
from oracle import FIELDS, dense_sum, forward_grid, forward_vandermonde, matrices, raw


def vecs(field, rows):
    return [[field.scalar(c) for c in r] for r in rows]


def test_span_basic():
    s = Subspace.span(QQ, 2, [[1, 0], [1, 1]])
    assert s.dim == 2


def test_span_empty_is_zero():
    s = Subspace.span(QQ, 3, [])
    assert s.dim == 0 and s.is_zero()


def test_span_normalizes():
    s = Subspace.span(QQ, 2, [[2, 4]])
    assert s.rows == ((QQ.one(), QQ.scalar(2)),)


def test_contains():
    s = Subspace.span(QQ, 2, [[1, 0]])
    assert s.contains([QQ.scalar(2), QQ.zero()])
    assert not s.contains([QQ.zero(), QQ.one()])


def test_sum_dim():
    a = Subspace.span(QQ, 2, [[1, 0]])
    b = Subspace.span(QQ, 2, [[0, 1]])
    assert (a + b).dim == 2


def test_zero_equals_empty_span():
    assert Subspace.zero(QQ, 4) == Subspace.span(QQ, 4, [])


def test_equality_is_basis_independent():
    a = Subspace.span(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(QQ, 3, [[1, 0, -1], [0, 1, 1], [1, 2, 1]])
    assert a == b


def test_ragged_input_rejected():
    with pytest.raises(ValueError, match="ragged|length"):
        Subspace.span(QQ, 2, [[1, 0], [1]])


def test_rows_are_read_once():
    """Rows given as a generator span what a list of them spans, and a ragged one is still named."""
    assert Subspace(QQ, 2, (r for r in [[1, 0], [0, 1]])).dim == 2
    with pytest.raises(ValueError, match="ragged"):
        Subspace(QQ, 2, (r for r in [[1, 0], [1]]))


small_matrix = st.lists(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=5), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(small_matrix)
def test_echelon_idempotence(rows):
    mat = vecs(QQ, rows)
    red, piv = rref(QQ, mat)
    again, piv2 = rref(QQ, red)
    assert [list(r) for r in again] == [list(r) for r in red]
    assert piv == piv2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, Field("GF", 7)]), st.integers(min_value=1, max_value=5), st.data())
def test_insert_one_at_a_time_matches_batch_echelon(field, ncols, data):
    rows = data.draw(st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=ncols, max_size=ncols),
        max_size=7,
    ))
    grown = Subspace.zero(field, ncols)
    for k, row in enumerate(vecs(field, rows)):
        before = grown.dim
        assert grown.insert(row) == (grown.dim == before + 1)
        assert grown.dim in (before, before + 1)
        batch = Subspace(field, ncols, vecs(field, rows[: k + 1]))
        assert (grown.rows, grown.pivots) == (batch.rows, batch.pivots)
        assert grown == batch


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_basis_is_independent_of_row_order(field, data):
    """rref, a batch Subspace and a grown one read rows one at a time; every
    order of the same rows (with duplicate, zero and dependent rows among
    them) must give the same rows, pivots and hash."""
    rows = data.draw(matrices(field, min_rows=1))
    n = len(rows[0])
    red, piv = rref(field, rows)
    space = Subspace(field, n, rows)
    for _ in range(3):
        order = data.draw(st.permutations(rows))
        got, got_piv = rref(field, order)
        assert raw(got) == raw(red) and got_piv == piv
        batch = Subspace(field, n, order)
        grown = Subspace.zero(field, n)
        for r in data.draw(st.permutations(rows)):
            grown.insert(r)
        for other in (batch, grown):
            assert raw(other.rows) == raw(red) and other.pivots == tuple(piv)
            assert other == space and hash(other) == hash(space)


@given(small_matrix, st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3), min_size=3, max_size=3))
def test_contains_agrees_with_solvability(rows, target):
    mat = vecs(QQ, rows)
    v = [QQ.scalar(c) for c in target]
    s = Subspace(QQ, 3, mat)
    # v in span(rows)  <=>  the system (columns = rows) is consistent
    cols = [[mat[r][c] for r in range(len(mat))] for c in range(3)]
    sol = solve_raw(QQ, len(mat), [read_sparse(QQ, (*col, c)) for col, c in zip(cols, v)])
    assert s.contains(v) == (sol is not None)


def test_vandermonde_d0_identity():
    w = [QQ.scalar(3), QQ.scalar(4)]
    got = vandermonde_recover([QQ.scalar(5)], [w])
    assert list(got[0]) == w


def test_vandermonde_roundtrip_exact():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(0, 6)
        xis = [QQ.scalar(i) for i in range(d + 1)]
        vs = [
            [QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(3)]
            for _ in range(d + 1)
        ]
        ws = forward_vandermonde(xis, vs)
        got = vandermonde_recover(xis, ws)
        assert [list(v) for v in got] == vs


def test_vandermonde_repeated_points_rejected():
    with pytest.raises(ValueError, match="repeated"):
        vandermonde_recover([QQ.one(), QQ.one()], [[QQ.one()], [QQ.one()]])


def test_membership_transport():
    # If every evaluation lies in W, so does every recovered vector.
    rng = random.Random(11)
    for _ in range(20):
        ambient = 4
        w_basis = [[QQ.scalar(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(2)]
        W = Subspace(QQ, ambient, w_basis)
        d = rng.randint(1, 4)
        vs = [dense_sum(QQ, ambient, ((rng.randint(-3, 3), row) for row in W.rows)) for _ in range(d + 1)]
        xis = [QQ.scalar(i) for i in range(d + 1)]
        ws = forward_vandermonde(xis, vs)
        assert all(W.contains(w) for w in ws)
        for rec in vandermonde_recover(xis, ws):
            assert W.contains(rec)


def _full_grid(sample, m):
    grid = [()]
    for _ in range(m):
        grid = [t + (x,) for t in grid for x in sample]
    return grid


def test_multi_vandermonde_m1_matches_single():
    rng = random.Random(3)
    n = 3
    sample = [QQ.scalar(i) for i in range(n + 1)]
    family = {
        (mu,): [QQ.scalar(rng.randint(-5, 5)) for _ in range(2)]
        for mu in range(n + 1)
        if mu == n
    }
    evaluations = forward_grid(1, n, family, _full_grid(sample, 1))
    got = multi_vandermonde_recover(1, n, evaluations, sample)
    assert got.keys() == family.keys()
    assert [list(got[(n,)])] == [family[(n,)]]
    # and the same data through the one-variable path
    ws = [evaluations[(x,)] for x in sample]
    single = vandermonde_recover(sample, ws)
    assert list(single[n]) == family[(n,)]


def test_multi_vandermonde_m2_exact_recovery():
    rng = random.Random(5)
    n = 2
    sample = [QQ.scalar(i) for i in range(3)]
    family = {
        mu: [QQ.scalar(rng.randint(-4, 4)) for _ in range(3)]
        for mu in multidegrees(n, 2)
    }
    evaluations = forward_grid(2, n, family, _full_grid(sample, 2))
    got = multi_vandermonde_recover(2, n, evaluations, sample)
    assert set(got) == set(family)
    for mu, w in family.items():
        assert list(got[mu]) == w


def test_multi_vandermonde_insufficient_sample():
    sample = [QQ.scalar(i) for i in range(2)]
    with pytest.raises(ValueError, match="insufficient"):
        multi_vandermonde_recover(2, 2, {}, sample)


def test_multi_vandermonde_three_variables():
    rng = random.Random(31)
    n = 2
    sample = [QQ.scalar(i) for i in range(n + 1)]
    family = {
        mu: [QQ.scalar(rng.randint(-5, 5)) for _ in range(2)]
        for mu in multidegrees(n, 3)
    }
    evaluations = forward_grid(3, n, family, _full_grid(sample, 3))
    got = multi_vandermonde_recover(3, n, evaluations, sample)
    assert set(got) == set(family)
    for mu, w in family.items():
        assert list(got[mu]) == w


def test_multi_vandermonde_over_prime_field():
    f = Field("GF", 7)
    rng = random.Random(9)
    n = 2
    sample = [f.scalar(i) for i in range(n + 1)]
    family = {mu: [f.scalar(rng.randint(0, 6))] for mu in multidegrees(n, 2)}
    evaluations = forward_grid(2, n, family, _full_grid(sample, 2))
    got = multi_vandermonde_recover(2, n, evaluations, sample)
    for mu, w in family.items():
        assert list(got[mu]) == w


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_solve_consistent_agrees_with_substitution(ncols, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=4,
        )
    )
    x = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    mat = vecs(QQ, rows)
    xs = [QQ.scalar(c) for c in x]
    b = [sum((r[j] * xs[j] for j in range(ncols)), QQ.zero()) for r in mat]
    x = solve_raw(QQ, ncols, [read_sparse(QQ, (*r, rb)) for r, rb in zip(mat, b)])
    assert x is not None
    sol = dense_scalars(QQ, ncols, x)
    for r, rb in zip(mat, b):
        assert sum((r[j] * sol[j] for j in range(ncols)), QQ.zero()) == rb
