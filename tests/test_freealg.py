from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.fields import QQ, Field, distinct_scalars
from ordsym.freealg import (
    FreePoly,
    linear_power,
    monomial_count,
    multidegrees,
    power_span_grid,
    sym_poly,
    sym_span,
    sym_span_upto,
    word_basis,
    word_multidegree,
)
from oracle import expand_power_oracle, words_with_profile


def test_sym_poly_2_2_exact_terms():
    p = sym_poly((2, 2), QQ)
    expected = [
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
        (2, 1, 1, 2),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]
    assert [w for w, _ in p.terms()] == expected
    assert all(c == QQ.one() for _, c in p.terms())


def test_sym_poly_zero_profile_is_one():
    assert sym_poly((0, 0), QQ) == FreePoly.one(QQ, 2)


def test_sym_poly_1_1():
    p = sym_poly((1, 1), QQ)
    assert [w for w, _ in p.terms()] == [(1, 2), (2, 1)]


@pytest.mark.parametrize("profile", [(2, 2), (2, 1), (3, 0), (1, 1, 1), (0, 2, 1), (4,)])
def test_sym_poly_matches_permutation_oracle(profile):
    p = sym_poly(profile, QQ)
    assert [w for w, _ in p.terms()] == words_with_profile(profile)
    assert all(c == QQ.one() for _, c in p.terms())
    assert all(word_multidegree(w, len(profile)) == tuple(profile) for w, _ in p.terms())


def test_monomial_count_2_2():
    assert monomial_count((2, 2)) == 6


def test_monomial_count_pure_power():
    assert monomial_count((5, 0, 0)) == 1


def test_monomial_count_2_1_by_enumeration():
    assert monomial_count((2, 1)) == len(words_with_profile((2, 1))) == 3


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
def test_monomial_count_matches_term_count(profile):
    assert monomial_count(profile) == len(sym_poly(tuple(profile), QQ).terms())


def test_poly_mul_concatenates():
    x1 = FreePoly.generator(QQ, 2, 1)
    x2 = FreePoly.generator(QQ, 2, 2)
    assert [w for w, _ in (x1 * x2).terms()] == [(1, 2)]


def test_poly_distributes():
    x1 = FreePoly.generator(QQ, 2, 1)
    x2 = FreePoly.generator(QQ, 2, 2)
    assert (x1 + x2) * x1 == FreePoly(QQ, 2, {(1, 1): QQ.one(), (2, 1): QQ.one()})


def test_poly_cancellation():
    p = sym_poly((1, 1), QQ)
    assert (p + p.scale(-1)).is_zero()


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity|field"):
        FreePoly.generator(QQ, 2, 1) * FreePoly.generator(QQ, 3, 1)


def test_linear_power_all_ones():
    p = linear_power([QQ.one(), QQ.one()], 2)
    assert [w for w, _ in p.terms()] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(c == QQ.one() for _, c in p.terms())


def test_linear_power_single_variable():
    alpha = QQ.scalar(3)
    p = linear_power([alpha, QQ.zero()], 4)
    assert p == FreePoly(QQ, 2, {(1, 1, 1, 1): alpha**4})


def test_linear_power_2_3_squared():
    coeffs = [QQ.scalar(2), QQ.scalar(3)]
    p = linear_power(coeffs, 2)
    assert p == expand_power_oracle(coeffs, 2)
    assert p.coeff((1, 1)) == QQ.scalar(4)
    assert p.coeff((1, 2)) == QQ.scalar(6)
    assert p.coeff((2, 1)) == QQ.scalar(6)
    assert p.coeff((2, 2)) == QQ.scalar(9)


@settings(max_examples=40)
@given(st.data())
def test_power_identity_against_symmetric_sums(data):
    m = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=0, max_value=5))
    coeffs = [QQ.scalar(data.draw(st.integers(-3, 3))) for _ in range(m)]
    lhs = linear_power(coeffs, n)
    rhs = FreePoly.zero(QQ, m)
    for md in multidegrees(n, m):
        c = QQ.one()
        for a, e in zip(coeffs, md):
            c = c * a**e
        rhs = rhs + sym_poly(md, QQ).scale(c)
    assert lhs == rhs


def test_first_letter_recursion():
    # s[profile] = sum_j x_j * s[profile - e_j], for every profile
    for m in (1, 2, 3):
        for total in range(1, 7 if m < 3 else 5):
            for md in multidegrees(total, m):
                lhs = sym_poly(md, QQ)
                rhs = FreePoly.zero(QQ, m)
                for j in range(m):
                    if md[j]:
                        parent = tuple(md[t] - (1 if t == j else 0) for t in range(m))
                        rhs = rhs + FreePoly.generator(QQ, m, j + 1) * sym_poly(parent, QQ)
                assert lhs == rhs, md


def test_last_letter_recursion_also_holds():
    for md in multidegrees(4, 2):
        lhs = sym_poly(md, QQ)
        rhs = FreePoly.zero(QQ, 2)
        for j in range(2):
            if md[j]:
                parent = tuple(md[t] - (1 if t == j else 0) for t in range(2))
                rhs = rhs + sym_poly(parent, QQ) * FreePoly.generator(QQ, 2, j + 1)
        assert lhs == rhs


def test_span_dimension_formula():
    for m in (1, 2, 3):
        for n in range(7):
            assert sym_span(n, m, QQ).dim == comb(m + n - 1, m - 1)


def test_span_dim_2_2_is_3():
    assert sym_span(2, 2, QQ).dim == 3


def test_span_single_generator_always_dim_1():
    for n in range(6):
        assert sym_span(n, 1, QQ).dim == 1


def test_cumulative_span_dims():
    # with the degree-0 component: C(n+m, m); without: one less
    assert sym_span_upto(3, 2, QQ, include_degree_zero=True).dim == comb(5, 2) == 10
    assert sym_span_upto(3, 2, QQ).dim == 9
    for m in (1, 2, 3):
        for r in range(1, 6):
            full = sym_span_upto(r, m, QQ, include_degree_zero=True).dim
            assert full == comb(r + m, m)
            assert sym_span_upto(r, m, QQ).dim == full - 1


def test_grid_span_equals_symmetric_span_over_q():
    for m in (1, 2):
        for n in range(5):
            sample = distinct_scalars(QQ, n + 1)
            space, complete = power_span_grid(n, m, sample)
            assert complete
            assert space == sym_span(n, m, QQ)


def test_grid_span_small_sample_flagged_incomplete():
    space, complete = power_span_grid(3, 2, distinct_scalars(QQ, 2))
    assert not complete
    assert space.dim <= sym_span(3, 2, QQ).dim


def test_grid_span_exhaustive_gf5():
    f = Field("GF", 5)
    sample = list(f.elements())
    space, complete = power_span_grid(3, 2, sample)
    assert complete
    assert space == sym_span(3, 2, f)


def test_grid_span_m1_single_point():
    space, complete = power_span_grid(3, 1, [QQ.one()])
    assert space.dim == 1


def test_grid_span_repeated_sample_rejected():
    with pytest.raises(ValueError, match="distinct"):
        power_span_grid(2, 2, [QQ.one(), QQ.one()])


def test_word_basis_canonical_order():
    basis = word_basis(2, range(3))
    assert basis[0] == ()
    assert basis[1:3] == [(1,), (2,)]
    assert basis[3:] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_degrees_reports_word_lengths():
    p = sym_poly((1, 1), QQ) + FreePoly.one(QQ, 2)
    assert p.degrees() == {0, 2}


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=repr)
def test_fraction_scales_a_polynomial_from_either_side(field):
    p = sym_poly((1, 1), field) + FreePoly.one(field, 2)
    half = field.scalar(Fraction(1, 2))
    expected = FreePoly(field, 2, {w: half for w, _ in p.terms()})
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == p.scale(half) == expected
    assert (p * Fraction(-3, 6)).coeff(()) == -half
    if field.is_finite:
        with pytest.raises(ZeroDivisionError):
            p * Fraction(1, 7)
        with pytest.raises(ZeroDivisionError):
            Fraction(3, 14) * p
