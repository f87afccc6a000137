"""The free associative algebra on m generators, with order-symmetric sums.

Words are tuples of 1-based generator indices; the empty tuple is the
monomial 1.  Canonical word order is by length, then lexicographically,
which fixes echelon coordinates and serialization.  A polynomial is held
once, as {word: nonzero raw value}; its arithmetic is linalg.combine over
word-keyed rows, and terms and coeff wrap what they return.

The central construction is ``sym_poly(profile)``: the coefficient-one sum
S_mu of every word with exactly mu[j] occurrences of generator j+1.  A
power (c_1 x_1 + ... + c_m x_m)^n is the sum of c^mu S_mu over the
profiles mu of total n, the identity the span machinery below exploits.
One first-letter recursion reads off every S_mu: a word of mu is a letter
j+1 before a word of mu - e_j.  sym_poly keeps words as tuples, the spans
as columns: the base-m numeral of the letters less one (word_basis(m,
[n])), or the bijective base-m numeral of the letters (word_basis(m,
range(r + 1))).
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from .fields import Field, Scalar, is_rational, raw_value
from .linalg import Subspace, combine

__all__ = [
    "Word",
    "FreePoly",
    "word_multidegree",
    "multidegrees",
    "monomial_count",
    "sym_poly",
    "linear_power",
    "word_basis",
    "sym_span",
    "sym_span_upto",
    "power_span_grid",
]

Word = tuple[int, ...]


def word_multidegree(word: Word, m: int) -> tuple[int, ...]:
    """Occurrence counts (i_1, ..., i_m) of each generator in a word."""
    out = [0] * m
    for letter in word:
        out[letter - 1] += 1
    return tuple(out)


def multidegrees(total: int, m: int) -> Iterator[tuple[int, ...]]:
    """All exponent profiles of length m with the given total, lexicographic."""
    if m < 1:
        raise ValueError("need at least one generator")
    if total < 0:
        return
    md = [0] * (m - 1) + [total]
    while True:
        yield tuple(md)
        # The successor carries a unit from the last nonzero entry md[r],
        # r >= 1, to md[r - 1], and moves what is left of md[r] to the end.
        r = m - 1
        while r and not md[r]:
            r -= 1
        if not r:
            return
        rest, md[r] = md[r] - 1, 0
        md[r - 1] += 1
        md[-1] = rest


def monomial_count(profile: Sequence[int]) -> int:
    """Number of distinct words with the given occurrence profile (multinomial)."""
    total = sum(profile)
    out = factorial(total)
    for i in profile:
        out //= factorial(i)
    return out


class FreePoly:
    """Sparse noncommutative polynomial in m generators over a Field, held as {word: raw}."""

    __slots__ = ("field", "ngens", "_terms")

    def __init__(self, field: Field, ngens: int, terms: dict[Word, object] | None = None):
        if ngens < 1:
            raise ValueError("need at least one generator")
        clean: dict[Word, object] = {}
        for word, coeff in (terms or {}).items():
            if any(not (1 <= letter <= ngens) for letter in word):
                raise ValueError(f"word {word} uses a generator outside 1..{ngens}")
            if c := raw_value(field, coeff):
                clean[tuple(word)] = c
        self.field = field
        self.ngens = ngens
        self._terms = clean

    @classmethod
    def from_raw(cls, field: Field, ngens: int, terms: dict[Word, object]) -> "FreePoly":
        """The polynomial with canonical raw terms {word: raw}, taken as they are."""
        p = cls.__new__(cls)
        p.field, p.ngens, p._terms = field, ngens, terms
        return p

    @classmethod
    def zero(cls, field: Field, ngens: int) -> "FreePoly":
        return cls(field, ngens)

    @classmethod
    def one(cls, field: Field, ngens: int) -> "FreePoly":
        return cls(field, ngens, {(): 1})

    @classmethod
    def generator(cls, field: Field, ngens: int, j: int) -> "FreePoly":
        if not (1 <= j <= ngens):
            raise ValueError(f"generator index {j} outside 1..{ngens}")
        return cls(field, ngens, {(j,): 1})

    @classmethod
    def monomial(cls, field: Field, ngens: int, word: Iterable[int], coeff) -> "FreePoly":
        return cls(field, ngens, {tuple(word): coeff})

    def raw_terms(self) -> list[tuple[Word, object]]:
        """(word, raw) terms in canonical order: by word length, then lexicographic."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def terms(self) -> list[tuple[Word, Scalar]]:
        """raw_terms, wrapped."""
        return [(w, Scalar(self.field, c)) for w, c in self.raw_terms()]

    def coeff(self, word: Iterable[int]) -> Scalar:
        return Scalar(self.field, self._terms.get(tuple(word), 0))

    def degrees(self) -> set[int]:
        """Set of word lengths present."""
        return {len(w) for w in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def _check_compatible(self, other: "FreePoly") -> None:
        if self.field != other.field or self.ngens != other.ngens:
            raise ValueError("mixing polynomials of different field or arity")

    def _combine(self, terms) -> "FreePoly":
        return FreePoly.from_raw(self.field, self.ngens, combine(self.field, terms))

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self._check_compatible(other)
        return self._combine(((1, self._terms), (1, other._terms)))

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        self._check_compatible(other)
        return self._combine(((1, self._terms), (-1, other._terms)))

    def __neg__(self) -> "FreePoly":
        return self._combine(((-1, self._terms),))

    def __mul__(self, other):
        if isinstance(other, Scalar) or is_rational(other):
            return self.scale(other)
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check_compatible(other)
        right = other._terms.items()
        return self._combine((c, {w + v: d for v, d in right}) for w, c in self._terms.items())

    __rmul__ = __mul__  # scalars are central

    def scale(self, coeff) -> "FreePoly":
        return self._combine(((raw_value(self.field, coeff), self._terms),))

    def __pow__(self, n: int) -> "FreePoly":
        if n < 0:
            raise ValueError("negative power of a free polynomial")
        out = FreePoly.one(self.field, self.ngens)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreePoly)
            and self.field == other.field
            and self.ngens == other.ngens
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ngens, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for w, c in self.raw_terms():
            mono = "1" if not w else "*".join(f"x{i}" for i in w)
            parts.append(f"({c})*{mono}" if c != 1 or not w else mono)
        return " + ".join(parts)


def sym_poly(profile: Sequence[int], field: Field) -> FreePoly:
    """Sum, coefficient one, of all words matching an occurrence profile.

    The all-zero profile yields the empty-word monomial 1.  The words come
    from the first-letter recursion, one level per letter, in lexicographic
    order, so raw_terms sorts them in linear time.
    """
    m = len(profile)
    if m < 1:
        raise ValueError("profile must have at least one entry")
    if any(i < 0 for i in profile):
        raise ValueError("profile entries must be nonnegative")
    *_, top = _levels(profile, sum(profile), (), lambda j, k: (j + 1,))
    return FreePoly.from_raw(field, m, dict.fromkeys(top[tuple(profile)], 1))


def _levels(bound: Sequence[int], top: int, empty, letter) -> Iterator[dict[tuple[int, ...], list]]:
    """Levels k = 0..top of the first-letter recursion: {profile: its words}.

    Level k holds each profile mu of total k at most bound entrywise; its
    words are letter(j, k - 1) + w for j with mu[j] > 0 and w a word of
    mu - e_j.  Sorted parents come j ascending, so every word list stays
    lexicographic; each parent's list is dropped once it is used.
    """
    level = {(0,) * len(bound): [empty]}
    yield level
    for k in range(top):
        below, level = level, {}
        for mu in sorted(below):
            words = below.pop(mu)
            for j, i in enumerate(mu):
                if i < bound[j]:
                    a = letter(j, k)
                    level.setdefault(mu[:j] + (i + 1,) + mu[j + 1 :], []).extend([a + w for w in words])
        yield level


def _sym_rows(n: int, m: int) -> list[tuple[tuple[int, ...], dict[int, int]]]:
    """(mu, S_mu) for each profile mu of total n, in order, in the columns of word_basis(m, [n])."""
    *_, level = _levels((n,) * m, n, 0, lambda j, k: j * m**k)
    return [(mu, dict.fromkeys(words, 1)) for mu, words in sorted(level.items())]


def linear_power(coeffs: Sequence[Scalar], n: int) -> FreePoly:
    """(coeffs[0]*x1 + ... + coeffs[m-1]*xm) ** n, expanded."""
    if not coeffs:
        raise ValueError("need at least one coefficient")
    return FreePoly(coeffs[0].field, len(coeffs), {(j,): c for j, c in enumerate(coeffs, start=1)}) ** n


def word_basis(m: int, lengths: Iterable[int]) -> list[Word]:
    """All words over 1..m with the given lengths, in canonical order."""
    out: list[Word] = []
    for n in sorted(set(lengths)):
        if n < 0:
            raise ValueError("word length must be nonnegative")
        out.extend(product(range(1, m + 1), repeat=n))
    return out


def sym_span(n: int, m: int, field: Field) -> Subspace:
    """Span of all order-symmetric sums of total degree n, in word coordinates."""
    return Subspace.from_raw(field, m**n, (row for _, row in _sym_rows(n, m)))


def sym_span_upto(r: int, m: int, field: Field, include_degree_zero: bool = False) -> Subspace:
    """Cumulative span of the order-symmetric sums of degrees 1..r.

    Coordinates run over all words of length 0..r, in the columns of
    word_basis(m, range(r + 1)).  The degree-0 sum (the constant 1) joins
    only when `include_degree_zero` is set; the default starts at degree 1.
    """
    levels = _levels((r,) * m, r, 0, lambda j, k: (j + 1) * m**k)
    if not include_degree_zero:
        next(levels)
    rows = (dict.fromkeys(words, 1) for level in levels for _, words in sorted(level.items()))
    return Subspace.from_raw(field, sum(m**k for k in range(r + 1)), rows)


def power_span_grid(n: int, m: int, sample: Sequence[Scalar]) -> tuple[Subspace, bool]:
    """Span of all n-th powers of linear forms with coefficients in sample^m.

    Returns (span, complete): when the sample holds at least n+1 distinct
    values the span provably equals sym_span(n, m); with fewer values the
    span is still returned but flagged incomplete.  The power at a point c
    is one combine of sym_span's rows, sum over mu of c^mu S_mu.
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    if len(set(sample)) != len(sample):
        raise ValueError("sample values must be distinct")
    field = sample[0].field
    values = [raw_value(field, s) for s in sample]
    sums = _sym_rows(n, m)
    powers = (combine(field, ((prod(x**i for x, i in zip(c, mu)), row) for mu, row in sums))
              for c in product(values, repeat=m))
    return Subspace.from_raw(field, m**n, powers), len(sample) >= n + 1


def sym_span_dim_formula(n: int, m: int) -> int:
    """Predicted dimension of sym_span(n, m): C(m+n-1, m-1)."""
    return comb(m + n - 1, m - 1)


def sym_span_upto_dim_formula(n: int, m: int) -> int:
    """Predicted dimension of the degree-0-inclusive cumulative span: C(n+m, m)."""
    return comb(n + m, m)
