"""The raw form of an exact value is decided once, and the kernels compute only on it.

Over Q a raw value is an int when whole and a reduced Fraction otherwise;
over GF(p) it is a residue in [0, p).  Scalar construction produces that
form, and the kernels keep it: the entries a Subspace stores and the
values multiply_coords and combine return.  A Subspace wraps its rows into
Scalars only when they are read, and again only after the span grew.  From
a builtin or a description file to an integrality witness, the library
builds no Scalar but the multipliers it returns, and an element is the
same, by == and by hash, whichever route reached it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym import rees
from ordsym.algebra import AlgElement, algebraic_degree, brute_force_nil_index, uniform_nil_index
from ordsym.catalog import builtin_example
from ordsym.fields import QQ, Field, Scalar, read_sparse
from ordsym.graded import Filtration, GradedAlgebra, associated_graded, verify_graded_nil_index
from ordsym.io import dump_description, load_description
from ordsym.linalg import Subspace, solve_raw
from oracle import FIELDS, algebras, combine, entries, raw_row, reference_solve_consistent, sparse_vectors


def test_whole_rational_is_an_int():
    value = Scalar(QQ, Fraction(4, 2)).value
    assert type(value) is int and value == 2
    assert type(Scalar(QQ, 2).value) is int
    assert type(Scalar(QQ, True).value) is int


def test_inverse_of_a_whole_rational_is_a_fraction():
    value = Scalar(QQ, 2).inv().value
    assert type(value) is Fraction and value == Fraction(1, 2)
    assert type(Scalar(QQ, Fraction(1, 2)).inv().value) is int


def test_subspace_stores_canonical_raw_entries():
    assert Subspace(QQ, 2, [[2, 1]])._basis == {0: {1: Fraction(1, 2)}}
    assert type(Subspace(QQ, 2, [[2, 1]])._basis[0][1]) is Fraction
    # whole entries that Fraction arithmetic produced: a scaled new row, a
    # new entry of an old row, and an updated entry of an old row
    for rows, basis in (
        ([[Fraction(1, 2), 1, Fraction(3, 2)]], {0: {1: 2, 2: 3}}),
        ([[1, 2, 0], [0, 2, 1]], {0: {2: -1}, 1: {2: Fraction(1, 2)}}),
        ([[1, 1, Fraction(3, 2)], [0, 2, 1]], {0: {2: 1}, 1: {2: Fraction(1, 2)}}),
    ):
        stored = Subspace(QQ, 3, rows)._basis
        assert stored == basis
        assert {c: {k: type(x) for k, x in row.items()} for c, row in stored.items()} == {
            c: {k: type(x) for k, x in row.items()} for c, row in basis.items()}


def test_kernels_give_ints_on_whole_inputs():
    algebra = builtin_example("upper-triangular", 3)[0]
    a = tuple(Scalar(QQ, i - 2) for i in range(algebra.dim))
    b = tuple(Scalar(QQ, 3 - i) for i in range(algebra.dim))
    product = algebra.multiply_coords(a, b)
    assert any(product) and all(type(x.value) is int for x in product)
    # whole inputs, and Fraction coefficients whose sums are whole
    for terms, expected in (
        ([(2, [1, 2, 3]), (Scalar(QQ, -1), [0, 1, 1])], (2, 3, 5)),
        ([(Fraction(1, 2), [2, 4, 1]), (Fraction(1, 2), [0, 0, 1]), (3, [1, 0, 0])], (4, 2, 1)),
    ):
        total = combine(QQ, 3, terms)
        assert raw_row(total) == {k: (int, c) for k, c in enumerate(expected)}


@pytest.fixture
def scalars_built(monkeypatch):
    built = []
    init = Scalar.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted)
    return built


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_rows_are_wrapped_when_first_read(field, scalars_built):
    vectors = [tuple(Scalar(field, c) for c in r) for r in ([1, 2, 0, 3], [2, 1, 5, 0], [0, 3, 1, 1])]
    del scalars_built[:]
    space = Subspace(field, 4, vectors[:1])
    for v in vectors[1:]:
        assert space.insert(v)
    assert not space.insert(vectors[0])
    batch = Subspace(field, 4, vectors)
    assert (space.dim, space.pivots, space.contains(vectors[2]), space == batch) == (3, (0, 1, 2), True, True)
    assert scalars_built == []
    rows = space.rows
    assert scalars_built
    assert rows == batch.rows
    del scalars_built[:]
    assert space.rows is rows and scalars_built == []
    assert space.insert(tuple(Scalar(field, c) for c in (0, 0, 0, 1)))
    assert space.rows != rows


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_walk_and_graded_check_build_no_scalar(field, scalars_built, monkeypatch):
    """From a builtin or a description to an integrality witness, every step runs on raw values only.

    Building and validating algebras and filtrations, writing and reading a
    description, the graded algebra, the level walk, the graded nil check, the gr = R/xR
    check and the integrality solve build no Scalar; the multipliers that a
    witness returns are the one Scalar-valued result.
    """
    source = builtin_example("exterior-algebra", 3)
    multipliers = []
    init = rees.ScalarPoly.__init__

    def returned(self, *args):
        before = len(scalars_built)
        init(self, *args)
        del scalars_built[before:]
        multipliers.append(self)

    monkeypatch.setattr(rees.ScalarPoly, "__init__", returned)
    del scalars_built[:]
    doc = dump_description(*source)
    elts = builtin_example("strictly-upper-triangular", 6, field)[0].basis_elements()
    filtration = builtin_example("upper-triangular", 4, field)[1]
    loaded, stages = load_description(doc, field_override=field)
    assert loaded.validate().ok
    loaded_filtration = Filtration(loaded, stages.stages)
    gr = associated_graded(filtration)
    assert uniform_nil_index(elts) == 6
    assert verify_graded_nil_index(filtration, gr=gr).ok
    assert rees.check_graded_rees_isomorphism(filtration, 4, gr=gr).ok
    assert rees.check_graded_rees_isomorphism(loaded_filtration, 3).ok
    for name, coeffs in (("truncated-polynomial", [[0] * 4, [1, 2, 0, 0], [3, -1, 1, 0]]),
                         ("strictly-upper-triangular", [[0] * 6, [1, -2, 1, 0, 0, 0], [0, 0, 0, 2, 1, 0]])):
        element = rees.ReesElement.make(builtin_example(name, 4, field)[1], coeffs)
        assert rees.integral_witness(element, n_max=4) is not None
    assert multipliers
    assert scalars_built == []


@pytest.fixture
def elements_built(monkeypatch):
    built = []
    from_raw = AlgElement.from_raw.__func__

    def counted(cls, algebra, raw):
        built.append(raw)
        return from_raw(cls, algebra, raw)

    monkeypatch.setattr(AlgElement, "from_raw", classmethod(counted))
    return built


def test_walk_and_power_searches_build_no_wrapper(elements_built, scalars_built):
    """The level walk and the power searches step on raw rows.

    The walk of uniform_nil_index and its member pre-check, and the powers
    of algebraic_degree, build no AlgElement (247 and 11 of them when each
    value was wrapped).  Brute force enumerates residues, not the field's
    Scalars, and takes the nil index of each combination on its raw row
    (27 AlgElements on this input when each combination was wrapped).
    """
    elts = builtin_example("strictly-upper-triangular", 8)[0].basis_elements()
    t = builtin_example("truncated-polynomial", 12)[0].basis_element(1)
    small = builtin_example("strictly-upper-triangular", 3, Field("GF", 3))[0].basis_elements()
    del elements_built[:], scalars_built[:]
    assert uniform_nil_index(elts) == 8
    assert algebraic_degree(t) == 12
    assert brute_force_nil_index(small) == 3
    assert elements_built == []
    assert scalars_built == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_elements_from_every_route_are_equal_and_hash_alike(field, data):
    """A product, read back through the dense constructor, reached by a sum and by a scalar multiple."""
    algebra = data.draw(algebras(field))
    a, b, y = (AlgElement(algebra, data.draw(sparse_vectors(field, algebra.dim))) for _ in range(3))
    c = Scalar(field, data.draw(entries(field).filter(lambda x: Scalar(field, x))))
    product = a * b
    # the same values in a non-canonical spelling: a residue plus p, a whole rational as a Fraction
    spelled = [x.value + field.p if field.p else Fraction(2 * x.value, 2) for x in product.coords]
    routes = [product, AlgElement(algebra, spelled), (product - y) + y, (product * c) * c.inv()]
    for e in routes:
        assert e == product and hash(e) == hash(product)
    assert (product + y == y) == product.is_zero()


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_views_are_read_only_and_wrapped_once(field):
    """mul, unit and adapted wrap the one raw copy on first read; the dense GradedAlgebra reads it back."""
    algebra, filtration = builtin_example("upper-triangular", 3, field)
    assert algebra.mul is algebra.mul and algebra.unit is algebra.unit
    assert algebra.mul[(0, 0)] == {0: Scalar(field, 1)} and sum(c.value for c in algebra.unit) == 3
    gr = associated_graded(filtration)
    assert gr.adapted is gr.adapted
    for owner, name in ((algebra, "mul"), (algebra, "unit"), (gr, "adapted")):
        with pytest.raises(AttributeError):
            setattr(owner, name, None)
    dense = GradedAlgebra(filtration, gr.adapted, gr.component_dims, gr.algebra, gr._to_adapted)
    assert dense == gr
    assert (dense._degrees, dense._vectors) == (gr._degrees, gr._vectors)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_solve_ignores_row_order_and_zero_rows(field, data):
    """solve_raw reads x off the canonical basis, so shuffled and padded rows give the reference solution."""
    ncols = data.draw(st.integers(0, 4))
    a = data.draw(st.lists(sparse_vectors(field, ncols), min_size=1, max_size=6))
    b = data.draw(sparse_vectors(field, len(a)))
    x = reference_solve_consistent(field, a, b)
    rows = [read_sparse(field, (*r, c)) for r, c in zip(a, b)] + [{}] * data.draw(st.integers(0, 2))
    shuffled = data.draw(st.permutations(rows))
    assert solve_raw(field, ncols, shuffled) == (None if x is None else read_sparse(field, x))
