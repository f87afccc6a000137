"""The free associative algebra on m generators, with order-symmetric sums.

Words are tuples of 1-based generator indices; the empty tuple is the
monomial 1.  Canonical word order is by length, then lexicographically,
which fixes echelon coordinates and serialization.  A polynomial is held
once, as {word: nonzero raw value}; its arithmetic is linalg.combine over
word-keyed rows, and terms and coeff wrap what they return.

The central construction is ``sym_poly(profile)``: the coefficient-one sum
of every word containing exactly profile[j] occurrences of generator j+1.
Expanding a power of a linear combination of the generators collects
exactly these sums, weighted by monomials in the coefficients; that
identity is what the span machinery below exploits.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial
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
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multidegrees(total - head, m - 1):
            yield (head,) + rest


def monomial_count(profile: Sequence[int]) -> int:
    """Number of distinct words with the given occurrence profile (multinomial)."""
    total = sum(profile)
    out = factorial(total)
    for i in profile:
        out //= factorial(i)
    return out


def _next_permutation(seq: list[int]) -> bool:
    """Advance to the next lexicographic permutation in place; False at the end."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = reversed(seq[i + 1 :])
    return True


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

    The all-zero profile yields the empty-word monomial 1.  Enumeration is
    iterative next-permutation over the letter multiset: the term count is
    multinomial in the profile, so recursion depth and per-word allocation
    are kept out of the hot path.
    """
    m = len(profile)
    if m < 1:
        raise ValueError("profile must have at least one entry")
    if any(i < 0 for i in profile):
        raise ValueError("profile entries must be nonnegative")
    return FreePoly.from_raw(field, m, dict.fromkeys(_profile_words(profile), 1))


def _profile_words(profile: Sequence[int]) -> Iterator[Word]:
    """Every word with the given occurrence profile, in lexicographic order."""
    letters: list[int] = []
    for j, count in enumerate(profile, start=1):
        letters.extend([j] * count)
    while True:
        yield tuple(letters)
        if not _next_permutation(letters):
            return


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


def _word_rows(m: int, lengths: Iterable[int], field: Field, rows: Iterable[dict[Word, object]]) -> Subspace:
    """The span of rows {word: raw value}, in the columns of word_basis(m, lengths).

    word_basis orders a length's words as the base-m numerals of their
    letters less one, so a word's column is the count of shorter words
    plus that numeral.
    """
    offset, size = {}, 0
    for n in sorted(set(lengths)):
        offset[n] = size
        size += m**n
    space = Subspace(field, size)
    for terms in rows:
        row = {}
        for w, c in terms.items():
            col = 0
            for letter in w:
                col = col * m + letter - 1
            row[offset[len(w)] + col] = c
        space.insert_raw(row)
    return space


def sym_span(n: int, m: int, field: Field) -> Subspace:
    """Span of all order-symmetric sums of total degree n, in word coordinates."""
    return _word_rows(m, [n], field, (dict.fromkeys(_profile_words(md), 1) for md in multidegrees(n, m)))


def sym_span_upto(r: int, m: int, field: Field, include_degree_zero: bool = False) -> Subspace:
    """Cumulative span of the order-symmetric sums of degrees 1..r.

    Coordinates run over all words of length 0..r.  The degree-0 sum (the
    constant 1) joins only when `include_degree_zero` is set; the default
    starts the cumulative span at degree 1.
    """
    lo = 0 if include_degree_zero else 1
    sums = (dict.fromkeys(_profile_words(md), 1) for k in range(lo, r + 1) for md in multidegrees(k, m))
    return _word_rows(m, range(r + 1), field, sums)


def power_span_grid(
    n: int, m: int, sample: Sequence[Scalar]
) -> tuple[Subspace, bool]:
    """Span of all n-th powers of linear forms with coefficients in sample^m.

    Returns (span, complete): when the sample holds at least n+1 distinct
    values the span provably equals sym_span(n, m); with fewer values the
    span is still returned but flagged incomplete.
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    if len(set(sample)) != len(sample):
        raise ValueError("sample values must be distinct")
    space = _word_rows(m, [n], sample[0].field, (linear_power(pt, n)._terms for pt in product(sample, repeat=m)))
    return space, len(sample) >= n + 1


def sym_span_dim_formula(n: int, m: int) -> int:
    """Predicted dimension of sym_span(n, m): C(m+n-1, m-1)."""
    return comb(m + n - 1, m - 1)


def sym_span_upto_dim_formula(n: int, m: int) -> int:
    """Predicted dimension of the degree-0-inclusive cumulative span: C(n+m, m)."""
    return comb(n + m, m)
