"""Exact field arithmetic over Q and prime fields GF(p).

Every scalar is canonical, and so is its raw value, the form the kernels
compute on: a rational is an ``int`` when whole and a reduced ``Fraction``
(coprime numerator/denominator, positive denominator) otherwise, and a
prime-field element is a residue in ``[0, p)``.  Two scalars are equal iff
their representations are identical, so subspace equality downstream
reduces to plain comparison.  Whole rationals compute as ints, and ``/``
is never applied to a raw value, since ``1 / 2`` is a float.  No floating
point anywhere.  Inside the kernels a vector has one form, sparse raw:
{index: raw value} over its nonzero entries; each object stores its values
once, raw.  Scalar is the boundary form: raw_from_json and read_sparse
field-check input once, dense_scalars wraps what a caller reads and
raw_to_json writes; no library function runs Scalar arithmetic.
raw_value lets in only exact numbers: a Scalar, an int or a Fraction.  A
GF(p) modulus is proven prime, so it must lie below psi_12 =
318665857834031151167461, the least strong pseudoprime to the bases 2..37.

fractions (and decimal with it) loads only where a non-whole rational is
made or recognised, through fraction().  read_vector, the one reader of a
JSON vector, lives here, so a vector flag loads no io.
"""

from __future__ import annotations

from typing import Iterator, Union

from .errors import InputError

__all__ = [
    "Field",
    "Scalar",
    "field_make",
    "distinct_scalars",
    "scalar_to_json",
    "scalar_from_json",
    "field_to_json",
]

# Miller-Rabin over the first twelve primes proves n prime for every n below
# psi_12, the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 2017); psi_12 = 399165290221 * 798330580441 passes them all.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_CERTIFIED_BELOW = 318665857834031151167461


Fraction = None  # fractions.Fraction, bound by fraction() on first use


def fraction():
    """The Fraction class, imported on first use and bound as this module's Fraction: most checks make none."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


def is_rational(x) -> bool:
    """Whether x is an int or a Fraction; the int test comes first, so an int loads nothing."""
    return isinstance(x, int) or isinstance(x, fraction())


def _too_large(n) -> ValueError:
    return ValueError(f"prime-field modulus {n} is too large: primality is certified only below {_CERTIFIED_BELOW}")


def _is_prime(n: int) -> bool:
    """Whether n is prime, proven by Miller-Rabin over _BASES; ValueError when n >= psi_12."""
    if n >= _CERTIFIED_BELOW:
        raise _too_large(n)
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals, or GF(p) for a prime modulus p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "GF"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "GF":
            if p.__class__ is not int or p < 2:
                raise ValueError("prime-field modulus must be an integer >= 2")
            if not _is_prime(p):
                f = next((a for a in _BASES if p % a == 0), None)
                raise ValueError(f"{p} = {f}*{p // f} is not prime" if f else f"{p} is not prime")
        else:
            p = None
        self.kind = kind
        self.p = p

    @property
    def is_finite(self) -> bool:
        return self.kind == "GF"

    def scalar(self, value) -> "Scalar":
        return Scalar(self, value)

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def elements(self) -> Iterator["Scalar"]:
        if not self.is_finite:
            raise ValueError("cannot enumerate the rationals")
        return (Scalar(self, r) for r in range(self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"


#: The rational field, shared default for everything downstream.
QQ = Field("Q")


class Scalar:
    """An exact element of a Field, canonical by construction."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.value = raw_value(field, value)
        self.field = field

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError(f"field mismatch: {self.field} vs {other.field}")
            return other
        if is_rational(other):
            return Scalar(self.field, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value - other.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def inv(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError(f"inversion of zero in {self.field}")
        if self.field.kind == "Q":
            return Scalar(self.field, fraction()(1, self.value))
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        if self.field.kind == "GF":
            return Scalar(self.field, pow(self.value, n, self.field.p))
        return Scalar(self.field, self.value**n)

    def __bool__(self) -> bool:
        return self.value.numerator != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar) and is_rational(other):
            other = Scalar(self.field, other)
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return str(self.value)


def raw_value(field: Field, x):
    """The canonical raw value of x, a Scalar of field, an int or a Fraction.

    TypeError on anything else, such as a float, a str or None (a bool is
    an int).  ValueError on a Scalar of another field; ZeroDivisionError on
    a Fraction whose denominator vanishes mod p.
    """
    cls = x.__class__
    if cls is Scalar:
        if x.field is not field and x.field != field:
            raise ValueError(f"scalar of {x.field} used in {field}")
        return x.value
    p = field.p
    if isinstance(x, int):
        return x % p if p else int(x)
    if cls is not Fraction and not isinstance(x, fraction()):
        raise TypeError(f"{x!r} is not a scalar of {field}: expected a Scalar, an int or a Fraction")
    if p is None:
        return canonical_rational(x if cls is Fraction else Fraction(x))
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def canonical_rational(v):
    """The raw form of a rational that Fraction arithmetic produced: an int when whole."""
    return v.numerator if v.denominator == 1 else v


def read_sparse(field: Field, entries) -> dict:
    """The sparse raw form {index: value} of a dense vector, each entry through raw_value once."""
    return {k: v for k, x in enumerate(entries) if (v := raw_value(field, x))}


def dense_scalars(field: Field, size: int, raw: dict) -> tuple:
    """A sparse raw vector wrapped as `size` Scalars, every zero entry one shared Scalar."""
    out = [field.zero()] * size
    for k, v in raw.items():
        out[k] = Scalar(field, v)
    return tuple(out)


Descriptor = Union[Field, str, dict]


def field_make(descriptor: Descriptor) -> Field:
    """Build a Field from {"kind":"Q"}, {"kind":"GF","p":7}, "Q", or "GF:7".

    A dict's modulus must be a JSON integer, not a float, string or bool,
    and a string's must be ASCII decimal digits only (no sign, space or _).
    Rejects a composite modulus, naming a factor when one is at most 37,
    and any modulus from psi_12 = 318665857834031151167461 up, uncertified;
    a string with more significant digits than psi_12 is rejected unread.
    """
    if isinstance(descriptor, Field):
        return descriptor
    if isinstance(descriptor, str):
        if descriptor == "Q":
            return QQ
        modulus = descriptor[3:]
        if descriptor.startswith("GF:") and _ascii_digits(modulus):
            digits = modulus.lstrip("0") or "0"
            # int() refuses more than sys.get_int_max_str_digits() digits
            if len(digits) > len(str(_CERTIFIED_BELOW)):
                raise _too_large(digits)
            return Field("GF", int(digits))
        raise ValueError(f"unknown field descriptor {descriptor!r}")
    if isinstance(descriptor, dict):
        kind = descriptor.get("kind")
        if kind == "Q":
            return QQ
        if kind == "GF":
            if "p" not in descriptor:
                raise ValueError('a GF field needs its integer modulus "p"')
            return Field("GF", descriptor["p"])
    raise ValueError(f"unknown field descriptor {descriptor!r}")


def distinct_scalars(field: Field, count: int) -> list[Scalar]:
    """The first `count` elements 0, 1, 2, ... of the field, pairwise distinct.

    Deterministic by design so Vandermonde grids and fixtures reproduce.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if field.is_finite and count > field.p:
        raise ValueError(f"field has only {field.p} elements, cannot supply {count}")
    return [Scalar(field, r) for r in range(count)]


def field_to_json(field: Field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "GF", "p": field.p}


def raw_to_json(field: Field, raw):
    """The one JSON writer: rationals as "num/den" strings (plain "num" when integral), residues as ints."""
    return raw if field.p else str(raw)


def scalar_to_json(s: Scalar):
    """raw_to_json of a Scalar's value."""
    return raw_to_json(s.field, s.value)


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def raw_from_json(field: Field, raw):
    """The raw value of an int or a "num/den" string; ValueError when it names no element of field.

    A string is an optional sign and ASCII digits, then optionally "/" and
    ASCII digits; any other string (a space, "_", an exponent, a decimal
    point, a non-ASCII digit) is a bad scalar.  Without "/" it reads as the
    int that Fraction would make.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"bad scalar {raw!r}")
    try:
        x = raw
        if isinstance(raw, str):
            num, slash, den = raw.partition("/")
            digits = num[1:] if num[:1] in ("+", "-") else num
            if not _ascii_digits(digits) or slash and not _ascii_digits(den):
                raise ValueError
            x = fraction()(raw) if slash else int(raw)
        return raw_value(field, x)
    except ZeroDivisionError:
        raise ValueError(f"bad scalar {raw!r}: zero denominator in {field}") from None
    except ValueError:
        raise ValueError(f"bad scalar {raw!r}") from None


def _fail(where: str, msg: str) -> None:
    raise InputError(f"{where}: {msg}")


def _value(field: Field, raw, where: str):
    try:
        return raw_from_json(field, raw)
    except ValueError as e:
        _fail(where, str(e))


def read_vector(field: Field, dim: int, raw, where: str) -> list:
    """The raw values of a JSON coordinate vector of length dim; InputError names where, and which entry."""
    if not isinstance(raw, list) or len(raw) != dim:
        _fail(where, f"expected a vector of length {dim}")
    return [_value(field, c, f"{where}[{i}]") for i, c in enumerate(raw)]


def scalar_from_json(field: Field, raw) -> Scalar:
    """raw_from_json, wrapped."""
    return Scalar(field, raw_from_json(field, raw))
