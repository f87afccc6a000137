"""Exact linear algebra over a Field: echelon bases, spans, Vandermonde recovery.

A Subspace is held as its reduced row-echelon basis, which is a canonical
form: two subspaces are equal iff their bases are identical tuples.  Plain
Gaussian elimination with exact arithmetic; no pivoting heuristics are
needed because nothing here is approximate.  There is one elimination: a
Subspace takes vectors one at a time into a sparse basis of raw field
values (over Q ints when whole, Fractions otherwise; residues mod p over
GF(p)), which stays the canonical form of the vectors read so far and is
all a Subspace stores: it wraps its rows into Scalars when they are first
read.  rref, the solvers and every batch span build a Subspace.  Dense
sums c_1 v_1 + ... + c_r v_r have one routine too, combine, which element
arithmetic and the graded and Rees layers use.  Scalar appears only at
the boundary, where entries are read after a field check and results are
wrapped back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .fields import Field, Scalar, canonical_rational, raw_values

__all__ = [
    "Subspace",
    "rref",
    "solve_square",
    "invert_matrix",
    "solve_consistent",
    "vandermonde_recover",
    "multi_vandermonde_recover",
]

Vector = tuple[Scalar, ...]


def combine(field: Field, ambient: int, terms: Iterable[tuple[object, Sequence]]) -> Vector:
    """sum c * v over (coefficient, vector) pairs, computed on raw field values.

    Coefficients and entries pass the field check of raw_values, and a vector
    of the wrong length raises ValueError.  Zero coefficients and entries add
    nothing, a coefficient of one multiplies nothing, and only the nonzero
    sums are wrapped back into Scalars.
    """
    p = field.p
    out: list = [None] * ambient
    for c, v in terms:
        if len(v) != ambient:
            raise ValueError("vector length != ambient dimension")
        c = (c if c.__class__ is Scalar and c.field is field else Scalar(field, c)).value
        if not c:
            continue
        scale = c != 1
        for k, x in enumerate(raw_values(field, v)):
            if x:
                if scale:
                    x = c * x
                y = out[k]
                out[k] = x if y is None else y + x
    zero = field.zero()
    if p:
        out = [y and y % p for y in out]
    return tuple(Scalar(field, y) if y else zero for y in out)


def rref(field: Field, rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows are the basis of the Subspace they span, which reads them one
    at a time, so no entry grows beyond those of an echelon form.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged input: rows of unequal length")
    space = Subspace(field, ncols, rows)
    return [list(r) for r in space.rows], list(space.pivots)


class Subspace:
    """A subspace of field^ambient with canonical reduced-echelon basis.

    The basis is held once, as raw values; rows wraps it into Scalars when
    it is first read and keeps them until the span next grows.
    """

    __slots__ = ("field", "ambient", "_basis", "_rows")

    def __init__(self, field: Field, ambient: int, rows: Sequence[Sequence[Scalar]] = ()):
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        for r in rows:
            if len(r) != ambient:
                raise ValueError("ragged input: vector length != ambient dimension")
        self.field = field
        self.ambient = ambient
        # pivot column -> canonical raw values {column: value} of the other
        # nonzero entries of its basis row
        self._basis: dict[int, dict] = {}
        self._rows: tuple[Vector, ...] | None = None
        for r in rows:
            self.insert(r)

    @classmethod
    def span(cls, field: Field, ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        return cls(field, ambient, [tuple(v) for v in vectors])

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        one, zer = field.one(), field.zero()
        rows = [[one if i == j else zer for j in range(ambient)] for i in range(ambient)]
        return cls(field, ambient, rows)

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
            field = self.field
            zero, one = field.zero(), field.one()
            rows = []
            for c in self.pivots:
                row = [zero] * self.ambient
                row[c] = one
                for k, x in self._basis[c].items():
                    row[k] = Scalar(field, x)
                rows.append(tuple(row))
            self._rows = tuple(rows)
        return self._rows

    def _residual(self, vector: Iterable) -> tuple[list, list[int]]:
        """Raw values of a vector eliminated against the basis, and its support.

        One pass from the left, testing each entry for zero once: basis rows
        only hold entries right of their pivots, so an entry is final when
        the pass reaches it.  Its row clears a nonzero pivot entry; any other
        nonzero entry joins the support.  Entries off the support are stale.
        """
        v = raw_values(self.field, vector)
        if len(v) != self.ambient:
            raise ValueError("vector length != ambient dimension")
        basis, p = self._basis, self.field.p
        support = []
        for k, f in enumerate(v):
            if f:
                row = basis.get(k)
                if row is None:
                    support.append(k)
                elif p:
                    for j, b in row.items():
                        v[j] = (v[j] - f * b) % p
                else:
                    for j, b in row.items():
                        v[j] -= f * b
        return v, support

    def reduce(self, vector: Iterable) -> Vector:
        """Residual of a vector after elimination against the basis."""
        v, support = self._residual(vector)
        out = [self.field.zero()] * self.ambient
        for k in support:
            out[k] = Scalar(self.field, v[k])
        return tuple(out)

    def contains(self, vector: Iterable) -> bool:
        return not self._residual(vector)[1]

    def insert(self, vector: Iterable) -> bool:
        """Grow the span by one vector in place; True when the dimension grew.

        The residual, scaled to a leading one, is the new basis row (its
        pivot comes first) and clears its pivot column from the other rows.
        Only for a span its caller owns: it changes the hash.
        """
        v, support = self._residual(vector)
        if not support:
            return False
        p = self.field.p
        c, *rest = support
        if v[c] != 1:
            inv = pow(v[c], -1, p) if p else Fraction(1, v[c])
            for k in rest:
                v[k] = v[k] * inv % p if p else v[k] * inv
        new = {k: v[k] for k in rest} if p else {k: canonical_rational(v[k]) for k in rest}
        for row in self._basis.values():
            b = row.pop(c, None)
            if b is None:
                continue
            for k, x in new.items():
                y = row.get(k)
                if y is None:
                    row[k] = -b * x % p if p else canonical_rational(-b * x)
                else:
                    y = (y - b * x) % p if p else canonical_rational(y - b * x)
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        self._basis[c] = new
        self._rows = None
        return True

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, list(self.rows) + list(other.rows))

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
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, field={self.field})"


def solve_square(field: Field, a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Solve A X = B exactly for square invertible A; B given row-wise.

    Rows of B correspond to rows of A, so X[i] has the width of B's rows.
    Raises ValueError if A is singular.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if len(b) != n:
        raise ValueError("right-hand side has wrong height")
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    red, piv = rref(field, aug)
    if len(red) != n or piv != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def invert_matrix(field: Field, a: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    return solve_square(field, a, Subspace.full(field, len(a)).rows)


def solve_consistent(field: Field, a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]):
    """One exact solution x of A x = b, or None when inconsistent.

    Free variables are set to zero, so solutions are deterministic.
    """
    if len(a) != len(b):
        raise ValueError("right-hand side has wrong height")
    if not a:
        return []
    ncols = len(a[0])
    aug = [list(ra) + [rb] for ra, rb in zip(a, b)]
    red, piv = rref(field, aug)
    zer = field.zero()
    x = [zer] * ncols
    for row, p in zip(red, piv):
        if p == ncols:
            return None
        x[p] = row[-1]
    return x


def vandermonde_recover(xis: Sequence[Scalar], ws: Sequence[Sequence[Scalar]]) -> list[Vector]:
    """Invert the evaluation map sum_i xi_j^i v_i = w_j at d+1 distinct points.

    Given the d+1 evaluations ws, returns the coefficient vectors v_0..v_d.
    The matrix (xi_j^i) is Vandermonde, invertible exactly when the points
    are distinct; repeated points are rejected up front.
    """
    if not xis:
        raise ValueError("need at least one evaluation point")
    if len(set(xis)) != len(xis):
        raise ValueError("repeated evaluation points: Vandermonde matrix singular")
    if len(ws) != len(xis):
        raise ValueError("one evaluation vector required per point")
    field = xis[0].field
    d1 = len(xis)
    mat = [[xi**i for i in range(d1)] for xi in xis]
    sol = solve_square(field, mat, [list(w) for w in ws])
    return [tuple(row) for row in sol]


def multi_vandermonde_recover(
    m: int,
    n: int,
    evaluations,
    sample: Sequence[Scalar],
) -> dict[tuple[int, ...], Vector]:
    """Recover the degree-n coefficient family from grid evaluations.

    `evaluations` maps each point of the grid sample^m (a length-m tuple of
    scalars) to the vector sum over exponent profiles mu of total n of
    alpha_1^mu_1 ... alpha_m^mu_m w_mu.  Peels one variable per level: for
    each fixed tail, a one-variable recovery in the head variable yields the
    per-exponent partial sums, and recursion on the remaining m-1 variables
    finishes the job.  Needs at least n+1 distinct sample values.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    if len(set(sample)) != len(sample):
        raise ValueError("sample values must be distinct")
    if len(sample) < n + 1:
        raise ValueError(
            f"insufficient sample: need {n + 1} distinct values, got {len(sample)}"
        )

    def peel(vars_left: int, total: int, eval_at) -> dict[tuple[int, ...], Vector]:
        pts = list(sample[: total + 1])
        if vars_left == 1:
            ws = [eval_at((x,)) for x in pts]
            vs = vandermonde_recover(pts, ws)
            return {(total,): vs[total]}
        partial: dict[int, dict[tuple, Vector]] = {r: {} for r in range(total + 1)}
        for tail in product(sample, repeat=vars_left - 1):
            ws = [eval_at((x,) + tail) for x in pts]
            vs = vandermonde_recover(pts, ws)
            for r in range(total + 1):
                partial[r][tail] = vs[r]
        out: dict[tuple[int, ...], Vector] = {}
        for r in range(total + 1):
            sub = peel(vars_left - 1, total - r, lambda tail, _r=r: partial[_r][tail])
            for exp, vec in sub.items():
                out[(r,) + exp] = vec
        return out

    return peel(m, n, lambda pt: evaluations[pt])
