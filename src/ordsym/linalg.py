"""Exact linear algebra over a Field: echelon bases, spans, Vandermonde recovery.

A Subspace is held as its reduced row-echelon basis, which is a canonical
form: two subspaces are equal iff their bases are identical tuples.  Plain
Gaussian elimination with exact arithmetic; no pivoting heuristics are
needed because nothing here is approximate.  Elimination runs on raw field
values (bare Fractions over Q, residues mod p over GF(p)) and skips zero
entries; Scalar appears only at the boundary, where entries are read after
a field check and result rows are wrapped back.  rref is the one batch
kernel, under Subspace, the solvers and every batch span.  A Subspace keeps
its basis as raw rows too, so reduce and contains eliminate one vector
against them, and insert grows a span one vector at a time and keeps the
canonical form without eliminating the whole basis again, wrapping only
the rows it changes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .fields import Field, Scalar, raw_values

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


def as_vector(field: Field, coords: Iterable) -> Vector:
    return tuple(Scalar(field, c) for c in coords)


def rref(field: Field, rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Each entry's raw value is read once, after a field check: a reduced
    Fraction over Q, a residue in [0, p) over GF(p).  Elimination runs on
    those values and skips zero entries, and only the rows it returns are
    wrapped back into Scalars, all zero entries sharing one.  The pivot of
    each column is the first nonzero row at or below the current one.
    """
    ncols = len(rows[0]) if rows else 0
    work = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged input: rows of unequal length")
        work.append(raw_values(field, r))
    p = field.p
    pivots: list[int] = []
    col = 0
    rix = 0
    while rix < len(work) and col < ncols:
        piv = next((i for i in range(rix, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rix], work[piv] = work[piv], work[rix]
        prow = work[rix]
        # Rows at or below rix are zero left of col, so the pivot row's
        # nonzero entries all sit at col or later.
        nz = [(k, prow[k]) for k in range(col, ncols) if prow[k]]
        lead = prow[col]
        if lead != 1:
            inv = pow(lead, -1, p) if p else 1 / lead
            nz = [(k, b * inv % p if p else b * inv) for k, b in nz]
            for k, b in nz:
                prow[k] = b
        for i, row in enumerate(work):
            f = row[col]
            if f and i != rix:
                if p:
                    for k, b in nz:
                        row[k] = (row[k] - f * b) % p
                else:
                    for k, b in nz:
                        row[k] -= f * b
        pivots.append(col)
        rix += 1
        col += 1
    # Pivot rows sit in positions 0..rank-1 and later pivots have already
    # cleared their columns in the earlier rows, so this slice is reduced.
    zero = field.zero()
    return [[Scalar(field, x) if x else zero for x in r] for r in work[: len(pivots)]], pivots


class Subspace:
    """A subspace of field^ambient with canonical reduced-echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_raw")

    def __init__(self, field: Field, ambient: int, rows: Sequence[Sequence[Scalar]] = ()):
        if ambient < 0:
            raise ValueError("ambient dimension must be >= 0")
        for r in rows:
            if len(r) != ambient:
                raise ValueError("ragged input: vector length != ambient dimension")
        red, piv = rref(field, rows)
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in red)
        self.pivots = tuple(piv)
        # the basis as raw values, for reduce, contains and insert
        self._raw = [[x.value for x in r] for r in red]

    @classmethod
    def span(cls, field: Field, ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        vecs = [as_vector(field, v) for v in vectors]
        return cls(field, ambient, vecs)

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
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _residual(self, vector: Iterable) -> list:
        """Raw values of a vector after elimination against the basis."""
        v = raw_values(self.field, vector)
        if len(v) != self.ambient:
            raise ValueError("vector length != ambient dimension")
        p = self.field.p
        for row, c in zip(self._raw, self.pivots):
            if v[c]:
                v = _sub_multiple(v, v[c], row, p)
        return v

    def reduce(self, vector: Iterable) -> Vector:
        """Residual of a vector after elimination against the basis."""
        return _wrap(self.field, self._residual(vector), self.field.zero())

    def contains(self, vector: Iterable) -> bool:
        return not any(self._residual(vector))

    def insert(self, vector: Iterable) -> bool:
        """Grow the span by one vector in place; True when the dimension grew.

        The residual is scaled to a leading one and its pivot column is
        cleared from the other rows, so the basis stays the canonical
        reduced one; only the rows that change are wrapped into Scalars
        again.  Only for a span its caller owns: it changes the hash.
        """
        v = self._residual(vector)
        c = next((k for k, x in enumerate(v) if x), None)
        if c is None:
            return False
        field, p = self.field, self.field.p
        lead = v[c]
        if lead != 1:
            inv = pow(lead, -1, p) if p else 1 / lead
            v = [x * inv % p if p else x * inv for x in v]
        zero = field.zero()
        raw, rows = self._raw, list(self.rows)
        for i, r in enumerate(raw):
            if r[c]:
                raw[i] = r = _sub_multiple(r, r[c], v, p)
                rows[i] = _wrap(field, r, zero)
        at = bisect_left(self.pivots, c)
        raw.insert(at, v)
        rows.insert(at, _wrap(field, v, zero))
        self.rows = tuple(rows)
        self.pivots = (*self.pivots[:at], c, *self.pivots[at:])
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
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, field={self.field})"


def _wrap(field: Field, values: list, zero: Scalar) -> Vector:
    """Canonical raw values as Scalars, every zero entry the one given."""
    return tuple(Scalar(field, x) if x else zero for x in values)


def _sub_multiple(v: list, f, row: list, p) -> list:
    """v - f * row on raw values, reduced mod p over GF(p); zero entries of row are skipped."""
    if p:
        return [(a - f * b) % p if b else a for a, b in zip(v, row)]
    return [a - f * b if b else a for a, b in zip(v, row)]


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
    n = len(a)
    one, zer = field.one(), field.zero()
    eye = [[one if i == j else zer for j in range(n)] for i in range(n)]
    return solve_square(field, a, eye)


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
        tails = _grid(sample, vars_left - 1)
        partial: dict[int, dict[tuple, Vector]] = {r: {} for r in range(total + 1)}
        for tail in tails:
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


def _grid(sample: Sequence[Scalar], m: int) -> list[tuple[Scalar, ...]]:
    out: list[tuple[Scalar, ...]] = [()]
    for _ in range(m):
        out = [t + (x,) for t in out for x in sample]
    return out
