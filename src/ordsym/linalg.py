"""Exact linear algebra over a Field: echelon bases, spans, and the raw solvers.

A Subspace is held as its reduced row-echelon basis, which is a canonical
form: two subspaces are equal iff their bases are identical.  Plain
Gaussian elimination with exact arithmetic; no pivoting heuristics are
needed because nothing here is approximate.

Vectors are sparse raw rows {index: raw value} (see fields).  There is one
sum of them, combine, which element arithmetic, the graded and Rees layers
and elimination use, and one elimination: a Subspace takes rows one at a
time into its basis, pivot column -> that row's non-pivot entries, the
canonical form of the rows read so far.  rref and the raw solvers
inverse_rows and solve_raw build a Subspace.  The dense entry points, rref
and the Subspace methods that take a vector of Scalars, are adapters: they
read Scalars through fields.read_sparse and wrap what they return.

The Vandermonde recovery, which no command runs, lives in evaluation and
is resolved here on first use (PEP 562), so ordsym.linalg names it still.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field, Scalar, canonical_rational, dense_scalars, fraction, read_sparse

__all__ = [
    "Subspace",
    "rref",
    "vandermonde_recover",
    "multi_vandermonde_recover",
]

Vector = tuple[Scalar, ...]
Raw = dict  # sparse raw row {index: nonzero canonical raw value}


def __getattr__(name: str):
    """vandermonde_recover or multi_vandermonde_recover (no other name reaches here), loaded from evaluation on first use."""
    if name not in ("vandermonde_recover", "multi_vandermonde_recover"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


def combine(field: Field, terms: Iterable[tuple[object, Raw]]) -> Raw:
    """sum c * v over (raw coefficient, sparse raw row) pairs: the one sparse sum.

    A coefficient may be any int over GF(p).  The result is a new canonical
    sparse raw row.
    """
    out: dict = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    p = field.p
    if p:
        return {k: y for k, x in out.items() if (y := x % p)}
    return {k: x if x.__class__ is int else canonical_rational(x) for k, x in out.items() if x}


def times(field: Field, w: Raw, rows: Sequence[Raw]) -> Raw:
    """The sparse raw row w times the matrix with these rows: sum_k w_k * rows[k]."""
    return combine(field, ((x, rows[k]) for k, x in w.items()))


def rref(field: Field, rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows are the basis of the Subspace they span, which reads them one
    at a time, so no entry grows beyond those of an echelon form.
    """
    space = Subspace(field, len(rows[0]) if rows else 0, rows)
    return [list(r) for r in space.rows], list(space.pivots)


class Subspace:
    """A subspace of field^ambient with canonical reduced-echelon basis.

    The basis is held once, as sparse raw rows; rows wraps it into Scalars
    when it is first read and keeps them until the span next grows.
    """

    __slots__ = ("field", "ambient", "_basis", "_rows")

    def __init__(self, field: Field, ambient: int, rows: Iterable[Sequence[Scalar]] = ()):
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        self.field = field
        self.ambient = ambient
        # pivot column -> canonical raw values {column: value} of the
        # non-pivot nonzero entries of its basis row (its pivot entry is one)
        self._basis: dict[int, Raw] = {}
        self._rows: tuple[Vector, ...] | None = None
        for r in rows:
            self.insert(r)

    @classmethod
    def span(cls, field: Field, ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        return cls(field, ambient, (tuple(v) for v in vectors))

    @classmethod
    def from_raw(cls, field: Field, ambient: int, rows: Iterable[Raw]) -> "Subspace":
        """The span of sparse raw rows, taken as they are and read one at a time."""
        space = cls(field, ambient)
        for r in rows:
            space.insert_raw(r)
        return space

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls.from_raw(field, ambient, ({c: 1} for c in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self._basis)

    def is_zero(self) -> bool:
        return not self._basis

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._basis))

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The basis rows as Scalars in pivot order, every zero entry one shared Scalar."""
        if self._rows is None:
            self._rows = tuple(dense_scalars(self.field, self.ambient, r) for r in self.raw_rows())
        return self._rows

    def raw_rows(self) -> list[Raw]:
        """The basis rows as sparse raw rows in pivot order."""
        return [{c: 1, **self._basis[c]} for c in self.pivots]

    def _read(self, vector: Sequence) -> Raw:
        if len(vector) != self.ambient:
            raise ValueError("ragged input: vector length != ambient dimension")
        return read_sparse(self.field, vector)

    def reduce_raw(self, v: Raw) -> Raw:
        """The residual of a sparse raw row after elimination against the basis.

        Basis rows hold only non-pivot columns, so one pass over v subtracts
        the row of each pivot it hits, and no subtraction lands on a pivot.
        """
        basis = self._basis
        free: dict = {}
        terms = [(1, free)]
        for k, f in v.items():
            row = basis.get(k)
            if row is None:
                free[k] = f
            else:
                terms.append((-f, row))
        return combine(self.field, terms) if len(terms) > 1 else free

    def contains_raw(self, v: Raw) -> bool:
        return not self.reduce_raw(v)

    def insert_raw(self, v: Raw) -> bool:
        """Grow the span by one sparse raw row in place; True when the dimension grew.

        The residual, scaled to a leading one, is the new basis row (its
        pivot comes first) and clears its pivot column from the other rows.
        Only for a span its caller owns: it changes the hash.
        """
        new = self.reduce_raw(v)
        if not new:
            return False
        c = min(new)
        lead = new.pop(c)
        if lead != 1:
            # over Q a -1 pivot scales by the int -1: only other pivots make a Fraction
            p = self.field.p
            inverse = pow(lead, -1, p) if p else -1 if lead == -1 else fraction()(1, lead)
            new = combine(self.field, ((inverse, new),))
        basis = self._basis
        for pivot, row in basis.items():
            b = row.pop(c, None)
            if b is not None:
                basis[pivot] = combine(self.field, ((1, row), (-b, new)))
        basis[c] = new
        self._rows = None
        return True

    def reduce(self, vector: Sequence) -> Vector:
        """Residual of a vector after elimination against the basis."""
        return dense_scalars(self.field, self.ambient, self.reduce_raw(self._read(vector)))

    def contains(self, vector: Sequence) -> bool:
        return self.contains_raw(self._read(vector))

    def insert(self, vector: Sequence) -> bool:
        """insert_raw for a dense vector of field elements."""
        return self.insert_raw(self._read(vector))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_raw(self.field, self.ambient, self.raw_rows() + other.raw_rows())

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch between subspaces")
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._basis == other._basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, frozenset((c, frozenset(r.items())) for c, r in self._basis.items())))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, field={self.field})"


def inverse_rows(field: Field, rows: Sequence[Raw]) -> list[Raw]:
    """The inverse of the square matrix with these sparse raw rows, as sparse raw rows."""
    n = len(rows)
    return _solution(Subspace.from_raw(field, 2 * n, ({**r, n + i: 1} for i, r in enumerate(rows))), n)


def _solution(space: Subspace, n: int) -> list[Raw]:
    """X from the span of [A | B], A n x n: the basis rows right of column n; ValueError when A is singular."""
    if space.pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return [{k - n: x for k, x in space._basis[c].items()} for c in range(n)]


def solve_raw(field: Field, n: int, rows: Iterable[Raw]) -> Raw | None:
    """One solution x of A x = b from the sparse raw rows of [A | b], b in column n; None when inconsistent.

    Free variables are set to zero, so x is read off the canonical basis
    and depends neither on the order of the rows nor on zero rows.
    """
    basis = Subspace.from_raw(field, n + 1, rows)._basis
    if n in basis:
        return None
    return {c: x for c, row in basis.items() if (x := row.get(n))}
