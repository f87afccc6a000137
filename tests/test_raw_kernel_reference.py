"""Differential tests: the raw-value products, sums and growing spans against the Scalar-based ones.

`StructureAlgebra.multiply_coords` multiplies on sparse raw field values
against structure constants cached by left factor, `linalg.combine` sums
c * v over (coefficient, sparse raw row) pairs, and `Subspace.reduce`,
`contains` and `insert` eliminate against a sparse raw basis, the only
form a Subspace stores; `rows` wraps it when read.  The references, in
tests/oracle.py, are the versions they replaced, which ran every cell
through Scalar arithmetic; the oracle's one dense sum checks `combine`
(through the oracle's adapter, which reads dense vectors and returns the
kernel's raw row unwrapped), the `AlgElement` sum, difference,
negation and scalar multiple, and the adapted coordinates of the
associated graded algebra (a transposed inverse times the vector).
Over Q, GF(2), GF(7) and GF(101), both must give the same products,
sums and residuals with the same raw values, and a sequence of inserts
must leave the same rows and pivots as the batch reference RREF of the
vectors so far, growing exactly when its rank grows, and as the batch
`Subspace(...)` of every vector, with the same hash.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.algebra import AlgElement
from ordsym.catalog import builtin_example
from ordsym.fields import QQ, Field, Scalar
from ordsym.graded import Filtration, associated_graded
from ordsym.linalg import Subspace
from oracle import (FIELDS, algebras, combine, dense_sum, entries, eye, matrices, raw, raw_row,
                    reference_multiply_coords, reference_reduce, reference_rref, reference_solve_square, sparse_vectors,
                    vectors)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_match_reference(field, data):
    algebra = data.draw(algebras(field))
    a, b = (data.draw(sparse_vectors(field, algebra.dim)) for _ in range(2))
    assert raw([algebra.multiply_coords(a, b)]) == raw([reference_multiply_coords(algebra, a, b)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_builtin_products_match_reference(field):
    for name, size in (("upper-triangular", 3), ("exterior-algebra", 3), ("truncated-polynomial", 4)):
        algebra = builtin_example(name, size, field)[0]
        basis = [e.coords for e in algebra.basis_elements()]
        dense = tuple(Scalar(field, i - 2) for i in range(algebra.dim))
        for a in basis + [dense]:
            for b in basis + [dense]:
                assert raw([algebra.multiply_coords(a, b)]) == raw([reference_multiply_coords(algebra, a, b)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_residuals_match_reference(field, data):
    rows = data.draw(matrices(field, min_rows=1))
    n = len(rows[0])
    space = Subspace(field, n, rows)
    v = data.draw(st.one_of(sparse_vectors(field, n), st.sampled_from(rows).map(tuple)))
    expected = reference_reduce(space.rows, space.pivots, v)
    assert raw([space.reduce(v)]) == raw([expected])
    assert space.contains(v) == (not any(expected))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inserts_match_reference_and_batch(field, data):
    seed = data.draw(matrices(field, max_rows=3))
    n = len(seed[0]) if seed else data.draw(st.integers(1, 6))
    space = Subspace(field, n, seed)
    pivots = reference_rref(field, seed)[1]
    added = []
    for _ in range(data.draw(st.integers(1, 8))):
        # fresh vectors, vectors already in the span, and the zero vector
        pool = [tuple(r) for r in seed + added] + [(field.zero(),) * n]
        v = data.draw(st.one_of(sparse_vectors(field, n), vectors(field, n), st.sampled_from(pool)))
        # the RREF is canonical: inserting v must give the batch reference of the prefix,
        # and v grew the span when the reference rank grew
        rank = len(pivots)
        rows, pivots = reference_rref(field, [*seed, *added, v])
        assert space.insert(v) == (len(pivots) > rank)
        assert raw(space.rows) == raw(rows)
        assert space.pivots == tuple(pivots)
        # the raw basis holds each row's nonzero entries right of its pivot, with their types
        stored = {c: {k: (type(x), x) for k, x in row.items()} for c, row in space._basis.items()}
        assert stored == {c: {k: (type(x.value), x.value) for k, x in enumerate(r) if x and k != c}
                          for c, r in zip(space.pivots, space.rows)}
        added.append(v)
    batch = Subspace(field, n, seed + added)
    assert raw(space.rows) == raw(batch.rows)
    assert space.pivots == batch.pivots
    assert space == batch and hash(space) == hash(batch)


@pytest.mark.parametrize("foreign", [Field("GF", 7), QQ], ids=str)
def test_foreign_field_scalar_raises(foreign):
    field = Field("GF", 5) if foreign == QQ else QQ
    algebra = builtin_example("upper-triangular", 2, field)[0]
    good = algebra.basis_element(0).coords
    # a foreign zero is rejected too, not only one that meets a nonzero entry
    for bad in (Scalar(foreign, 3), Scalar(foreign, 0)):
        mixed = (bad, *good[1:])
        with pytest.raises(ValueError):
            algebra.multiply_coords(good, mixed)
        with pytest.raises(ValueError):
            algebra.multiply_coords(mixed, good)
        space = Subspace(field, algebra.dim, [good])
        for method in (space.reduce, space.contains, space.insert):
            with pytest.raises(ValueError):
                method(mixed)
        assert space.rows == Subspace(field, algebra.dim, [good]).rows


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_int_and_fraction_entries_are_coerced(field):
    algebra = builtin_example("upper-triangular", 2, field)[0]
    plain = [2, Fraction(1, 2), 3]
    scalars = tuple(Scalar(field, c) for c in plain)
    e = algebra.basis_element(0).coords
    assert raw([algebra.multiply_coords(plain, plain)]) == raw([algebra.multiply_coords(scalars, scalars)])
    assert raw([algebra.multiply_coords(e, plain)]) == raw([algebra.multiply_coords(e, scalars)])
    space = Subspace(field, algebra.dim, [e])
    assert raw([space.reduce(plain)]) == raw([space.reduce(scalars)])
    assert space.contains([5, 0, 0]) and not space.contains(plain)
    grown = Subspace(field, algebra.dim, [e])
    assert space.insert(plain) and grown.insert(scalars)
    assert raw(space.rows) == raw(grown.rows)
    with pytest.raises(ValueError, match="length"):
        algebra.multiply_coords(e, e[:-1])


def coefficients(field):
    """Coefficients as Scalars, ints or Fractions, with zero and one drawn often."""
    return st.one_of(st.sampled_from([0, 1, -1]), entries(field),
                     entries(field).map(lambda c: Scalar(field, c)))


@st.composite
def combine_terms(draw, field):
    """Terms whose vectors are sparse, dense or zero, and some of which cancel."""
    n = draw(st.integers(1, 6))
    terms = draw(st.lists(st.tuples(coefficients(field), st.one_of(sparse_vectors(field, n), vectors(field, n))),
                          max_size=5))
    for c, v in draw(st.lists(st.sampled_from(terms), max_size=2)) if terms else ():
        # the same vector again with the opposite coefficient, or the negated vector
        terms.append(draw(st.sampled_from([(-Scalar(field, c).value, v), (c, tuple(-x for x in v))])))
    return n, draw(st.permutations(terms))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_combine_matches_reference(field, data):
    n, terms = data.draw(combine_terms(field))
    got = combine(field, n, terms)
    expected = dense_sum(field, n, terms)
    assert raw_row(got) == raw_row(expected)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_arithmetic_matches_reference(field, data):
    algebra = data.draw(algebras(field))
    a, b = (AlgElement(algebra, data.draw(sparse_vectors(field, algebra.dim))) for _ in range(2))
    c = data.draw(coefficients(field).filter(lambda c: isinstance(c, (int, Scalar))))
    got = [(a + b).coords, (a - b).coords, (-a).coords, (c * a).coords]
    n, x, y = algebra.dim, a.coords, b.coords
    expected = [dense_sum(field, n, [(1, x), (1, y)]), dense_sum(field, n, [(1, x), (-1, y)]),
                dense_sum(field, n, [(-1, x)]), dense_sum(field, n, [(c, x)])]
    assert raw(got) == raw(expected)
    assert (a * c).coords == (c * a).coords


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_adapted_coordinates_match_reference(field, data):
    """A middle stage of general vectors in upper-triangular:3, so the adapted basis is no unit basis."""
    algebra = builtin_example("upper-triangular", 3, field)[0]
    middle = data.draw(st.lists(vectors(field, algebra.dim), max_size=4))
    stages = [Subspace(field, algebra.dim, [algebra.unit]), Subspace(field, algebra.dim, [algebra.unit, *middle]),
              Subspace.full(field, algebra.dim)]
    gr = associated_graded(Filtration(algebra, stages))
    vecs = [v for _, v in gr.adapted]
    # the columns of the inverse of the matrix whose columns are the adapted vectors
    cols = [[v[r] for v in vecs] for r in range(algebra.dim)]
    to_adapted = list(zip(*reference_solve_square(field, cols, eye(field, algebra.dim))))
    ws = [algebra.multiply_coords(u, v) for u in vecs for v in vecs]
    ws.append(data.draw(vectors(field, algebra.dim)))
    for w in ws:
        assert raw([gr.adapted_coords(w)]) == raw([dense_sum(field, algebra.dim, zip(w, to_adapted))])
    # the graded products are the top components of the reference adapted coordinates
    degs = gr.slot_degrees()
    for (i, pi), (j, pj) in ((x, y) for x in enumerate(degs) for y in enumerate(degs)):
        if pi + pj <= 2:
            coords = dense_sum(field, algebra.dim, zip(algebra.multiply_coords(vecs[i], vecs[j]), to_adapted))
            expected = {k: c for k, c in enumerate(coords) if degs[k] == pi + pj and c}
            assert gr.algebra.mul.get((i, j), {}) == expected
    elt = gr.algebra.element(data.draw(vectors(field, algebra.dim)))
    expected = dense_sum(field, algebra.dim, zip(elt.coords, vecs))
    assert raw([gr.representative(elt).coords]) == raw([expected])


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_combine_reads_through_the_field_check(field):
    foreign = Field("GF", 5) if field == QQ else QQ
    v = (Scalar(field, 1), Scalar(field, 2), Scalar(field, 0))
    assert raw_row(combine(field, 3, [(Fraction(1, 2), [2, Fraction(1, 2), 3]), (3, v)])) == raw_row(
        dense_sum(field, 3, [(Fraction(1, 2), [2, Fraction(1, 2), 3]), (3, v)]))
    assert combine(field, 3, []) == {}
    for terms in ([(Scalar(foreign, 2), v)], [(1, (Scalar(foreign, 1), *v[1:]))], [(1, (Scalar(foreign, 0), *v[1:]))]):
        with pytest.raises(ValueError):
            combine(field, 3, terms)
    for c in (1, 0):
        with pytest.raises(ValueError, match="length"):
            combine(field, 3, [(c, v[:2])])
