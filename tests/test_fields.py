import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ordsym.fields import (
    QQ,
    Field,
    Scalar,
    _is_prime,
    distinct_scalars,
    field_make,
    raw_from_json,
    raw_to_json,
    raw_value,
    scalar_from_json,
    scalar_to_json,
)


def test_field_make_rationals():
    assert field_make({"kind": "Q"}) == QQ
    assert field_make("Q") == QQ


def test_field_make_prime_field():
    f = field_make({"kind": "GF", "p": 7})
    assert f.kind == "GF" and f.p == 7
    assert field_make("GF:7") == f


@pytest.mark.parametrize("descriptor", ["GF:1_01", "GF: 7", "GF:\u0663", "GF:+7", "GF:-7"])
def test_field_make_reads_a_string_modulus_as_ascii_digits_only(descriptor):
    """int() would read these as 101, 7, 3, 7 and -7."""
    with pytest.raises(ValueError, match=f"^unknown field descriptor {re.escape(repr(descriptor))}$"):
        field_make(descriptor)


def test_field_make_names_a_missing_modulus():
    with pytest.raises(ValueError, match='^a GF field needs its integer modulus "p"$'):
        field_make({"kind": "GF"})


def test_field_make_rejects_composite_with_factor():
    with pytest.raises(ValueError, match=r"6 = 2\*3"):
        field_make({"kind": "GF", "p": 6})
    with pytest.raises(ValueError, match=r"not prime"):
        Field("GF", 91)  # 7 * 13


def test_field_make_accepts_large_prime():
    f = Field("GF", (1 << 61) - 1)
    assert f.p == (1 << 61) - 1


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
# psi_1 .. psi_11: the least strong pseudoprime to the first k prime bases
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
                       3825123056546413051]


def _rejected_within_a_second(modulus, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        Field("GF", modulus)
    assert time.perf_counter() - start < 1.0


# psi_12; a 31-digit semiprime, which Pollard rho took over 10 s to split;
# and the Mersenne prime 2^89 - 1, prime but past the certified range
@pytest.mark.parametrize("modulus", [PSI_12, 2000000000000095000000000000777, (1 << 89) - 1])
def test_a_modulus_at_or_above_psi_12_is_rejected_on_the_bound(modulus):
    _rejected_within_a_second(modulus, rf"^prime-field modulus {modulus} is too large: "
                                       rf"primality is certified only below {PSI_12}$")


def test_a_composite_without_a_factor_up_to_37_is_rejected_fast_and_named_as_such():
    n = 500000000023 * 600000000031
    _rejected_within_a_second(n, rf"^{n} is not prime$")
    _rejected_within_a_second(43 * 41, r"^1763 is not prime$")


def test_is_prime_agrees_with_a_sieve_below_2e5():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_the_strong_pseudoprimes_below_psi_12(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("x", [2.5, "1/2", None, 1.0])
@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=repr)
def test_only_exact_numbers_are_scalars(x, field):
    with pytest.raises(TypeError, match="expected a Scalar, an int or a Fraction"):
        raw_value(field, x)
    with pytest.raises(TypeError, match="expected a Scalar, an int or a Fraction"):
        Scalar(field, x)


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=repr)
def test_a_bool_reads_as_an_int(field):
    assert type(raw_value(field, True)) is int and raw_value(field, True) == 1
    assert Scalar(field, False) == field.zero()


def test_rational_add():
    assert QQ.scalar(Fraction(1, 2)) + QQ.scalar(Fraction(1, 3)) == QQ.scalar(Fraction(5, 6))


def test_gf7_mul():
    f = Field("GF", 7)
    assert f.scalar(3) * f.scalar(5) == f.scalar(1)


def test_a_number_minus_a_scalar():
    assert 3 - Field("GF", 7).scalar(5) == Field("GF", 7).scalar(5)
    assert Fraction(1, 2) - QQ.scalar(2) == QQ.scalar(Fraction(-3, 2))


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inv()
    with pytest.raises(ZeroDivisionError):
        Field("GF", 5).zero().inv()


def test_field_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        QQ.one() + Field("GF", 5).one()


def test_distinct_scalars_rationals():
    assert distinct_scalars(QQ, 5) == [QQ.scalar(i) for i in range(5)]


def test_distinct_scalars_all_of_gf7():
    f = Field("GF", 7)
    got = distinct_scalars(f, 7)
    assert len(set(got)) == 7


def test_distinct_scalars_overflow():
    with pytest.raises(ValueError, match="only 3 elements"):
        distinct_scalars(Field("GF", 3), 4)


def test_distinct_scalars_reproducible():
    f = Field("GF", 11)
    assert distinct_scalars(f, 6) == distinct_scalars(f, 6)


def test_canonical_form_idempotence():
    a = QQ.scalar(Fraction(2, 4))
    b = QQ.scalar(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    f = Field("GF", 5)
    assert f.scalar(7) == f.scalar(2) == f.scalar(-3)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    a, b, c = (QQ.scalar(v) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inv() == QQ.one()


@given(st.sampled_from([2, 5, 7, 31]), st.data())
def test_prime_field_axioms(p, data):
    f = Field("GF", p)
    pick = st.integers(min_value=0, max_value=p - 1)
    a, b, c = (f.scalar(data.draw(pick)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inv() == f.one()


@given(rationals)
def test_rational_serialization_roundtrip(x):
    s = QQ.scalar(x)
    assert scalar_from_json(QQ, scalar_to_json(s)) == s


@given(st.integers(min_value=-50, max_value=50))
def test_gf_serialization_roundtrip(n):
    f = Field("GF", 13)
    s = f.scalar(n)
    assert scalar_from_json(f, scalar_to_json(s)) == s


def test_serialization_formats():
    assert scalar_to_json(QQ.scalar(Fraction(5, 6))) == "5/6"
    assert scalar_to_json(QQ.scalar(3)) == "3"
    assert scalar_to_json(Field("GF", 7).scalar(4)) == 4
    assert raw_to_json(QQ, Fraction(-5, 6)) == "-5/6"
    assert raw_to_json(QQ, 3) == "3"
    assert raw_to_json(Field("GF", 7), 4) == 4
    assert scalar_from_json(QQ, "-2/3") == QQ.scalar(Fraction(-2, 3))
    assert scalar_from_json(QQ, 7) == QQ.scalar(7)


@pytest.mark.parametrize("raw", ["x", "1/", "", "1.5.2", None, True, 1.5])
def test_an_unparsable_scalar_is_a_bad_scalar(raw):
    """Every value that names no element is worded one way, never by Fraction's parser."""
    for field in (QQ, Field("GF", 7)):
        with pytest.raises(ValueError, match=rf"^bad scalar {re.escape(repr(raw))}$"):
            raw_from_json(field, raw)


@pytest.mark.parametrize("text", ["3", "+3", "-3", "-0", "007", " 3", "3_0", "1e3", "6/3", "-4/2", "1/2", "\u0663", "9" * 5000])
def test_a_json_string_reads_as_fraction_reads_it(text):
    """A signed run of ASCII digits reads as an int, every other string through Fraction, to the same raw value."""
    for field in (QQ, Field("GF", 7)):
        try:
            expected = raw_value(field, Fraction(text))
        except ValueError:  # more digits than int() converts
            with pytest.raises(ValueError, match=rf"^bad scalar {re.escape(repr(text))}$"):
                raw_from_json(field, text)
            continue
        got = raw_from_json(field, text)
        assert (type(got), got) == (type(expected), expected)


def test_pow_and_div():
    assert QQ.scalar(Fraction(2, 3)) ** 3 == QQ.scalar(Fraction(8, 27))
    f = Field("GF", 7)
    assert f.scalar(3) ** -1 == f.scalar(5)
    assert f.scalar(6) / f.scalar(2) == f.scalar(3)
