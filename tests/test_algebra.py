import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.algebra import (
    InvalidAlgebraError,
    StructureAlgebra,
    algebraic_degree,
    brute_force_nil_index,
    evaluate,
    sym_span_chain,
    sym_span_in,
    sym_values,
    uniform_algebraic_bound,
    uniform_nil_index,
)
from ordsym.catalog import builtin_example, matrix_unit_algebra
from ordsym.fields import QQ, Field, Scalar
from ordsym.freealg import FreePoly, multidegrees, sym_poly
from ordsym.linalg import Subspace
from oracle import unit_elt


def ut3(field=QQ):
    return builtin_example("upper-triangular", 3, field)[0]


def test_ut3_validates():
    report = ut3().validate()
    assert report.ok


def test_reprs_show_sizes_and_terms():
    A, F = builtin_example("upper-triangular", 3)
    assert repr(A) == "StructureAlgebra(dim=6, field=Q)"
    assert repr(A.element([1, 0, 0, 2, 0, Fraction(1, 3)])) == "(1)*E11 + (2)*E12 + (1/3)*E13"
    assert repr(A.zero_element()) == "0"
    assert repr(F.stage(1)) == "Subspace(dim=5, ambient=6, field=Q)"


def test_corrupted_tensor_names_triple():
    A = ut3()
    mul = {k: dict(v) for k, v in A.mul.items()}
    i12, i23 = A.names.index("E12"), A.names.index("E23")
    mul[(i12, i23)] = {A.names.index("E12"): A.field.one()}  # E12*E23 := E12
    bad = StructureAlgebra(A.field, A.names, mul, unit=A.unit, check=False)
    report = bad.validate()
    assert not report.ok
    assert report.failures[0]["law"] in ("associativity", "unit")
    assert "where" in report.failures[0]


def test_eager_validation_raises():
    mul = {(0, 0): {1: 1}, (0, 1): {0: 1}}  # e0^2 = e1 but e0*(e0*e0) != (e0*e0)*e0
    with pytest.raises(InvalidAlgebraError):
        StructureAlgebra(QQ, ["a", "b"], mul)


def test_zero_multiplication_validates():
    A = StructureAlgebra(QQ, ["a", "b"], {})
    assert A.validate().ok


def test_evaluate_word_product():
    A = ut3()
    p = FreePoly.generator(QQ, 2, 1) * FreePoly.generator(QQ, 2, 2)
    got = evaluate(p, [unit_elt(A, "E12"), unit_elt(A, "E23")])
    assert got == unit_elt(A, "E13")


def test_evaluate_symmetric_sum():
    A = ut3()
    got = evaluate(sym_poly((1, 1), QQ), [unit_elt(A, "E12"), unit_elt(A, "E23")])
    assert got == unit_elt(A, "E13")  # E12*E23 + E23*E12 = E13 + 0


def test_evaluate_empty_word_needs_unit():
    A = builtin_example("strictly-upper-triangular", 3)[0]
    with pytest.raises(ValueError, match="unit"):
        evaluate(FreePoly.one(QQ, 1), [A.basis_element(0)])


def test_sym_values_match_direct_evaluation():
    A = ut3()
    rng = random.Random(2)
    for m in (1, 2, 3):
        elts = [
            A.element([rng.randint(-2, 2) for _ in range(A.dim)]) for _ in range(m)
        ]
        vals = sym_values(elts, 4)
        for total in range(1, 5):
            for md in multidegrees(total, m):
                assert vals[md] == evaluate(sym_poly(md, QQ), elts), md


def test_sym_values_keep_every_profile_in_multidegrees_order():
    """The level walk keeps only nonzero values; sym_values fills the rest with zeros."""
    A = builtin_example("strictly-upper-triangular", 3)[0]
    x, y = A.basis_element(0), A.basis_element(1)  # E12, E23: only E12 E23 = E13 is nonzero
    for elts, nonzero in (([x, y], {(1, 0), (0, 1), (1, 1)}),
                          ([A.zero_element(), x, y], {(0, 1, 0), (0, 0, 1), (0, 1, 1)})):
        m = len(elts)
        vals = sym_values(elts, 4)
        assert list(vals) == [md for total in range(1, 5) for md in multidegrees(total, m)]
        assert {md for md, v in vals.items() if not v.is_zero()} == nonzero
        for md, v in vals.items():
            assert v == evaluate(sym_poly(md, QQ), elts), md
    assert sym_values([x, y], 2)[(1, 1)] == A.basis_element(2)
    with pytest.raises(ValueError):
        sym_values([], 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_evaluate_is_multiplicative(data):
    A = ut3()
    m = 2
    words = st.lists(st.integers(1, m), min_size=0, max_size=3).map(tuple)
    polys = []
    for _ in range(2):
        terms = data.draw(
            st.dictionaries(words, st.integers(-3, 3), min_size=1, max_size=3)
        )
        polys.append(FreePoly(QQ, m, {w: QQ.scalar(c) for w, c in terms.items()}))
    elts = [unit_elt(A, "E12") + unit_elt(A, "E11"), unit_elt(A, "E23")]
    p, q = polys
    assert evaluate(p * q, elts) == evaluate(p, elts) * evaluate(q, elts)
    assert evaluate(p + q, elts) == evaluate(p, elts) + evaluate(q, elts)


def test_degree_two_span_of_e12_e23():
    A = ut3()
    span = sym_span_in([unit_elt(A, "E12"), unit_elt(A, "E23")], 2)
    assert span == Subspace(QQ, A.dim, [unit_elt(A, "E13").coords])


def test_degree_three_span_vanishes():
    A = ut3()
    assert sym_span_in([unit_elt(A, "E12"), unit_elt(A, "E23")], 3).is_zero()


def test_degree_one_span_is_elements():
    A = ut3()
    elts = [unit_elt(A, "E12"), unit_elt(A, "E23")]
    assert sym_span_in(elts, 1) == Subspace(QQ, A.dim, [e.coords for e in elts])


def test_chain_e12_e23():
    A = ut3()
    chain = sym_span_chain([unit_elt(A, "E12"), unit_elt(A, "E23")])
    assert chain.growth == [2, 1, 0]
    assert chain.cumulative.dim == 3
    assert chain.stabilized_at == 3


def test_chain_single_idempotent():
    A = ut3()
    chain = sym_span_chain([unit_elt(A, "E11")])
    assert chain.growth == [1, 0]
    assert chain.cumulative.dim == 1
    assert chain.stabilized_at == 2


def test_chain_single_nilpotent_hits_zero():
    A = ut3()
    a = unit_elt(A, "E12") + unit_elt(A, "E23")  # a^2 = E13, a^3 = 0
    chain = sym_span_chain([a])
    assert chain.growth == [1, 1, 0]
    assert chain.cumulative.dim == 2


def test_chain_degree_zero_component():
    A = ut3()
    chain = sym_span_chain([unit_elt(A, "E11")], include_degree_zero=True)
    assert chain.includes_degree_zero
    assert chain.cumulative.contains(A.unit)


@pytest.mark.parametrize(
    "walk",
    [lambda elts: sym_span_in(elts, 2), sym_span_chain, uniform_nil_index],
    ids=["sym_span_in", "sym_span_chain", "uniform_nil_index"],
)
def test_level_walks_reject_an_empty_tuple(walk):
    with pytest.raises(ValueError, match="need at least one element"):
        walk([])


def test_nil_index_pair():
    A = ut3()
    assert uniform_nil_index([unit_elt(A, "E12"), unit_elt(A, "E23")]) == 3


def test_nil_index_single_square_zero():
    A = ut3()
    assert uniform_nil_index([unit_elt(A, "E12")]) == 2


def test_nil_index_idempotent_is_none():
    A = ut3()
    assert uniform_nil_index([unit_elt(A, "E11")]) is None


def test_nil_index_stops_at_dim_plus_one_when_the_members_generate_a_non_nilpotent_algebra():
    """E12 and E21 are nilpotent, but E12 + E21 squares to the unit of M_2(Q),
    so no level vanishes, and the walk stops at degree 5 instead of the cutoff."""
    A = matrix_unit_algebra(QQ, [(1, 1), (1, 2), (2, 1), (2, 2)], unital=True)
    start = time.perf_counter()
    assert uniform_nil_index([unit_elt(A, "E12"), unit_elt(A, "E21")], cutoff=10**8) is None
    assert time.perf_counter() - start < 1.0


def test_brute_force_matches_on_gf5():
    f = Field("GF", 5)
    A = ut3(f)
    elts = [unit_elt(A, "E12"), unit_elt(A, "E23")]
    assert brute_force_nil_index(elts) == 3
    assert uniform_nil_index(elts) == 3


def test_brute_force_zero_element():
    f = Field("GF", 3)
    A = ut3(f)
    assert brute_force_nil_index([A.zero_element()]) == 1


def test_brute_force_idempotent_none():
    f = Field("GF", 2)
    A = ut3(f)
    assert brute_force_nil_index([unit_elt(A, "E11")]) is None


def test_brute_force_budget():
    f = Field("GF", 7)
    A = ut3(f)
    elts = [A.basis_element(i % A.dim) for i in range(8)]
    with pytest.raises(ValueError, match="budget"):
        brute_force_nil_index(elts, budget=1000)


def test_brute_force_needs_finite_field():
    A = ut3()
    with pytest.raises(ValueError, match="finite"):
        brute_force_nil_index([unit_elt(A, "E12")])


def test_oracle_equivalence_on_strictly_upper():
    # both routes agree over fields with more than dim+1 elements
    for p in (5, 7):
        f = Field("GF", p)
        A = builtin_example("strictly-upper-triangular", 3, f)[0]
        elts = A.basis_elements()
        sub = uniform_nil_index(elts)
        bru = brute_force_nil_index(elts)
        assert sub == bru == 3


def test_one_directional_guarantee_small_field():
    # Over GF(2) the certificate direction still holds: a zero span at n
    # forces every combination's n-th power to vanish.
    f = Field("GF", 2)
    A = builtin_example("strictly-upper-triangular", 4, f)[0]
    elts = A.basis_elements()
    n = uniform_nil_index(elts)
    assert n is not None
    for coeffs in itertools.product(range(2), repeat=len(elts)):
        v = A.zero_element()
        for c, e in zip(coeffs, elts):
            v = v + c * e
        assert (v ** n).is_zero()


def test_algebraic_degree_idempotent():
    A = ut3()
    assert algebraic_degree(unit_elt(A, "E11")) == 2  # a^2 = a


def test_algebraic_degree_nilpotent():
    A = ut3()
    assert algebraic_degree(unit_elt(A, "E12")) == 2  # a^2 = 0


def test_algebraic_degree_diagonal():
    D = matrix_unit_algebra(QQ, [(1, 1), (2, 2)], unital=True)
    a = D.element([1, 2])
    # a and a^2 independent; a^3 = 3a^2 - 2a
    assert (a**3) == 3 * (a**2) + (-2) * a
    assert algebraic_degree(a) == 3
    assert algebraic_degree(a, unital=True) == 2  # a^2 = 3a - 2*1


def test_algebraic_degree_zero_element():
    A = ut3()
    assert algebraic_degree(A.zero_element()) == 1


def test_uniform_bound_strictly_upper_triple():
    A = ut3()
    elts = [unit_elt(A, "E12"), unit_elt(A, "E23"), unit_elt(A, "E13")]
    result = uniform_algebraic_bound(elts)
    assert result.d == 2  # the whole span collapses into degree 1
    assert result.bound == 4  # C(2+3-1, 3)
    assert result.d <= 3
    assert all(deg <= result.bound for deg in result.sampled_degrees)
    assert uniform_nil_index(elts) == 3  # every combination cubes to zero


def test_uniform_bound_diagonal_pair():
    A = ut3()
    result = uniform_algebraic_bound([unit_elt(A, "E11"), unit_elt(A, "E22")])
    assert result.d == 2 and result.bound == 3  # C(3, 2)
    assert all(deg <= 3 for deg in result.sampled_degrees)


def test_bound_formula_value():
    from math import comb

    assert comb(2 + 2 - 1, 2) == 3  # the d=2, m=2 instance of the bound table


def test_uniform_bound_survives_gf2_regrowth():
    # Over GF(2) the span chain can plateau and regrow; the certificate
    # routine must keep extending and still cap the sampled degrees.
    f = Field("GF", 2)
    A = builtin_example("truncated-polynomial", 4, f)[0]
    a = A.element([0, 0, 1, 1])
    b = A.element([1, 1, 0, 1])
    chain = sym_span_chain([a, b], stop_at_plateau=False, max_degree=8)
    assert chain.growth[:4] == [2, 1, 0, 1]  # plateau then regrowth
    result = uniform_algebraic_bound([a, b])
    assert result.chain.cumulative.dim == 4
    assert result.d == 5 and result.bound == 15
    assert all(deg <= result.bound for deg in result.sampled_degrees)


def test_grid_power_span_matches_symmetric_span_in_algebra():
    # algebra-side analogue of the grid statement, with the grid as oracle
    rng = random.Random(6)
    A = ut3()
    for m in (1, 2):
        for n in (1, 2, 3):
            elts = [
                A.element([rng.randint(-2, 2) for _ in range(A.dim)])
                for _ in range(m)
            ]
            sample = [QQ.scalar(i) for i in range(n + 1)]
            grid = [()]
            for _ in range(m):
                grid = [t + (x,) for t in grid for x in sample]
            powers = []
            for pt in grid:
                v = A.zero_element()
                for c, e in zip(pt, elts):
                    v = v + c * e
                powers.append((v**n).coords)
            grid_span = Subspace(QQ, A.dim, powers)
            assert grid_span == sym_span_in(elts, n)


def test_bounded_degree_iff_finite_cumulative_span():
    # finite-dimensional desk version: the chain stabilizes, the cumulative
    # span is P_{<=d-1}, and its dimension stays under the C(d+m-1, m) cap
    # (strictly, since degree 0 is excluded)
    rng = random.Random(4)
    for name, param in [("upper-triangular", 3), ("truncated-polynomial", 4)]:
        A = builtin_example(name, param)[0]
        elts = [A.element([rng.randint(-2, 2) for _ in range(A.dim)]) for _ in range(2)]
        result = uniform_algebraic_bound(elts)
        assert result.chain.cumulative.dim <= result.bound - 1
        prefix = sum(result.chain.growth[: result.d - 1])
        assert prefix == result.chain.cumulative.dim


def test_degree_bound_pins_high_symmetric_spans():
    # when every combination is algebraic of degree <= d, each span of
    # degree D >= d collapses into the spans of degree < d
    A = ut3()
    cases = [
        ([unit_elt(A, "E12"), unit_elt(A, "E23"), unit_elt(A, "E13")], 3),
        ([unit_elt(A, "E11"), unit_elt(A, "E22")], 3),
    ]
    for elts, d in cases:
        rng = random.Random(d)
        for _ in range(20):
            v = A.zero_element()
            for e in elts:
                v = v + rng.randint(-3, 3) * e
            assert algebraic_degree(v) <= d
        low = Subspace.zero(QQ, A.dim)
        for n in range(1, d):
            low = low + sym_span_in(elts, n)
        for big in range(d, d + 4):
            span = sym_span_in(elts, big)
            assert all(low.contains(r) for r in span.rows), (d, big)


def test_unit_laws_checked():
    mul = {(0, 0): {0: 1}}
    bad = StructureAlgebra(QQ, ["e"], mul, unit=[2], check=False)
    report = bad.validate()
    assert not report.ok and report.failures[0]["law"] == "unit"


def cyclic_group_algebra(order, field=QQ):
    """Group algebra of Z/order: basis g^0..g^(order-1), g^i g^j = g^(i+j)."""
    mul = {
        (i, j): {(i + j) % order: 1} for i in range(order) for j in range(order)
    }
    unit = [1] + [0] * (order - 1)
    names = [f"g{i}" for i in range(order)]
    return StructureAlgebra(field, names, mul, unit=unit)


def test_group_algebra_validates_and_bounds():
    A = cyclic_group_algebra(3)
    assert A.validate().ok
    g = A.basis_element(1)
    # g, g^2, g^3 = 1 are independent vectors; g^4 = g closes the cycle
    assert algebraic_degree(g) == 4
    assert algebraic_degree(g, unital=True) == 3  # g^3 = 1
    assert uniform_nil_index([g]) is None  # invertible, never nilpotent
    result = uniform_algebraic_bound([g, A.basis_element(2)])
    assert all(deg <= result.bound for deg in result.sampled_degrees)


def test_group_algebra_over_prime_field():
    f = Field("GF", 5)
    A = cyclic_group_algebra(4, f)
    assert A.validate().ok
    g = A.basis_element(1)
    assert uniform_nil_index([g]) is None
    assert brute_force_nil_index([g]) is None


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=str)
def test_fraction_scales_an_element_from_either_side(field):
    """A Fraction coefficient is read like any other, through the field check."""
    A = builtin_example("upper-triangular", 3, field)[0]
    e = A.element([1, 2, 0, 3, 0, 1])
    half = Fraction(1, 2)
    assert e * half == half * e == e * Scalar(field, half)
    assert (e * half) * 2 == e == 2 * (half * e)
    assert (Fraction(-3, 6) * e).coords == tuple(Scalar(field, Fraction(-1, 2)) * c for c in e.coords)
    if field.is_finite:
        with pytest.raises(ZeroDivisionError):
            e * Fraction(1, 7)
        with pytest.raises(ZeroDivisionError):
            Fraction(3, 14) * e


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=repr)
def test_power_of_a_sum_is_the_sum_of_its_symmetric_values(field):
    """(a_1 + ... + a_m)^N is the sum of the values of every profile of total N.

    So once the degree-N symmetric span is zero, so is the N-th power of
    every sum of the elements: what verify_graded_nil_index relies on.
    """
    rng = random.Random(47)
    for name, param in [("upper-triangular", 3), ("truncated-polynomial", 5), ("exterior-algebra", 3)]:
        A = builtin_example(name, param, field)[0]
        for _ in range(3):
            elts = [A.element([rng.randint(-3, 3) for _ in range(A.dim)]) for _ in range(rng.randint(1, 3))]
            total = A.zero_element()
            for e in elts:
                total = total + e
            values = sym_values(elts, 4)
            power = total
            for n in range(1, 5):
                expected = A.zero_element()
                for md in multidegrees(n, len(elts)):
                    expected = expected + values[md]
                assert power == expected, (name, n)
                power = power * total
