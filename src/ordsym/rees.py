"""Rees elements, integrality over scalar polynomials, and the gr = R/xR check.

For a filtered algebra A with chain F_0 <= ... <= F_t, the Rees algebra R
collects the polynomials sum_n a_n x^n with a_n in F_n (stages clamp at
the top).  Everything here works with finite coefficient sequences of
sparse raw elements, never formal series; F_{-1} is the zero stage.

An element a(x) of A[x] is integral of degree n over the scalar
polynomials when a^n = q_{n-1} a^{n-1} + ... + q_1 a + q_0 with scalar
polynomials q_i; q_0 multiplies the identity and is forced to zero in a
non-unital algebra.  A witness is one exact solve, linalg.solve_raw, on the
sparse raw rows of the system; only the q_i it returns are Scalars.  The
search skips every n below the algebraic degree in A of a(x0), x0 = 1, 2, 3
(those nonzero in the field): a witness specialises to a relation of
degree n there, so no smaller n has one.  That degree comes from
structure, so the search loads no algebra.

When a Rees element with zero constant coefficient and top x-degree m is
integral of degree n, its power N = m*(n-1)+1 lands in xR, which makes the
graded class nilpotent.  x is central, so xR is a two-sided ideal and the
power check stops at the least power in it.  xR asks the x^e-coefficient
to lie one stage lower, a condition only for e <= t, so the check
truncates at t.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import Field, Scalar, raw_value
from .graded import Filtration, GradedAlgebra, associated_graded
from .linalg import Subspace, combine, solve_raw
from .structure import AlgElement, Record, StructureAlgebra, algebraic_degree

__all__ = [
    "ScalarPoly",
    "ReesElement",
    "IntegralWitness",
    "integral_witness",
    "PowerMembership",
    "integral_power_in_x_ideal",
    "IsoReport",
    "check_graded_rees_isomorphism",
]


class ScalarPoly:
    """Polynomial in the central variable x with exact scalar coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence = ()):
        vals = [raw_value(field, c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self.field = field
        self.coeffs = tuple(Scalar(field, v) for v in vals)

    @classmethod
    def x(cls, field: Field) -> "ScalarPoly":
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Scalar:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else self.field.zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(f"{c}")
            elif j == 1:
                parts.append(f"{c}*x" if c.value != 1 else "x")
            else:
                parts.append(f"{c}*x^{j}" if c.value != 1 else f"x^{j}")
        return " + ".join(parts)


def _ax_trim(coeffs: list[AlgElement]) -> tuple[AlgElement, ...]:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def _ax_mul(u: Sequence[AlgElement], v: Sequence[AlgElement], algebra: StructureAlgebra, size=None) -> tuple:
    """The product of two coefficient sequences below x-degree size (whole by default): one combine per x-degree."""
    terms: list[list] = [[] for _ in range(len(u) + len(v) - 1)][:size]
    for i, a in enumerate(u[:len(terms)]):
        for j, b in enumerate(v[:len(terms) - i]):
            terms[i + j].extend(algebra.products(a._raw, b._raw))
    return _ax_trim([AlgElement.from_raw(algebra, combine(algebra.field, t)) for t in terms])


class ReesElement:
    """Polynomial sum a_n x^n with each coefficient inside stage n."""

    __slots__ = ("filtration", "coeffs")

    def __init__(self, filtration: Filtration, coeffs: Sequence[AlgElement]):
        trimmed = _ax_trim(coeffs)
        for n, a in enumerate(trimmed):
            if not filtration.stage(n).contains_raw(a._raw):
                raise ValueError(
                    f"coefficient of x^{n} lies outside stage {min(n, filtration.top)}"
                )
        self.filtration = filtration
        self.coeffs = trimmed

    @classmethod
    def make(cls, filtration: Filtration, coeff_vectors: Sequence[Sequence]) -> "ReesElement":
        base = filtration.algebra
        return cls(filtration, [base.element(v) for v in coeff_vectors])

    @property
    def degree(self) -> int:
        """Top x-degree, or -1 for the zero element."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> AlgElement:
        base = self.filtration.algebra
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else base.zero_element()

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "ReesElement") -> None:
        if self.filtration is not other.filtration:
            raise ValueError("elements over different filtrations")

    def __add__(self, other: "ReesElement") -> "ReesElement":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ReesElement(
            self.filtration, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __mul__(self, other: "ReesElement") -> "ReesElement":
        self._check(other)
        prod = _ax_mul(self.coeffs, other.coeffs, self.filtration.algebra)
        # Closure is guaranteed (stage products climb stages); revalidate anyway.
        return ReesElement(self.filtration, prod)

    def __pow__(self, n: int) -> "ReesElement":
        if n < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReesElement)
            and self.filtration is other.filtration
            and self.coeffs == other.coeffs
        )

    def in_x_ideal(self) -> bool:
        """Membership in xR: x^n-coefficient in stage n-1, so zero constant term (F_{-1} = 0)."""
        return all(self.filtration.stage(n - 1).contains_raw(a._raw) for n, a in enumerate(self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({a})*x^{n}" for n, a in enumerate(self.coeffs) if not a.is_zero())


class IntegralWitness(Record):
    def __init__(self, degree: int, multipliers: list[ScalarPoly]):
        self.degree = degree
        self.multipliers = multipliers  # q_0, ..., q_{degree-1}


def _specialised_degree(a: ReesElement) -> int:
    """The largest algebraic degree in A of a(x0), over x0 = 1, 2, 3 nonzero in the field.

    A witness a^n = sum q_i(x) a^i specialises at x = x0 to a relation of
    degree n in A (x is central), so no n below this degree has a witness,
    whatever the cap on the q_i.  The unit joins the span exactly when A
    has one, as the q_0 slot does.  Over GF(2) only x0 = 1 is left.
    """
    base = a.filtration.algebra
    f = base.field
    points = {x0 % f.p if f.p else x0 for x0 in (1, 2, 3)} - {0}
    return max(
        algebraic_degree(AlgElement.from_raw(base, combine(f, ((x0**n, c._raw) for n, c in enumerate(a.coeffs)))),
                         unital=base.is_unital)
        for x0 in points
    )


def integral_witness(
    a: ReesElement, n_max: int, deg_max: Optional[int] = None
) -> Optional[IntegralWitness]:
    """Least n <= n_max with a^n a scalar-polynomial combination of lower powers.

    Solves one exact linear system per candidate n from _specialised_degree
    on (the n below it have no witness); the unknowns are all coefficients
    of the multiplier polynomials q_i up to deg_max, which defaults to the
    x-degree of a^n (the smallest cap that cannot exclude a witness on
    degree grounds).  The q_0 slot multiplies the identity and only exists
    in a unital algebra.  None when no witness exists.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if deg_max is not None and deg_max < 0:
        raise ValueError("deg_max must be >= 0")
    filtration = a.filtration
    base = filtration.algebra
    f = base.field
    m_top = max(a.degree, 0)
    start = _specialised_degree(a)
    if start > n_max:
        return None
    # powers[0] backs the q_0 column and only exists in a unital algebra.
    powers: list[tuple[AlgElement, ...]] = [
        (base.unit_element(),) if base.is_unital else ()
    ]
    cur: tuple[AlgElement, ...] = ()
    for n in range(1, n_max + 1):
        cur = a.coeffs if n == 1 else _ax_mul(cur, a.coeffs, base)
        powers.append(cur)  # the columns of every later system
        if n < start:
            continue
        cap = deg_max if deg_max is not None else m_top * n
        lo = 0 if base.is_unital else 1
        unknowns = [(i, j) for i in range(lo, n) for j in range(cap + 1)]
        # Row (e, c) of [A | b] is coordinate c of the x^e-coefficient: column
        # (i, j) reads it off powers[i] shifted by j, and b off a^n.
        rows: dict[tuple[int, int], dict] = {}
        for col, (pw, j) in enumerate([(powers[i], j) for i, j in unknowns] + [(powers[n], 0)]):
            for shift, coeff in enumerate(pw):
                for c, x in coeff._raw.items():
                    rows.setdefault((j + shift, c), {})[col] = x
        sol = solve_raw(f, len(unknowns), (rows[ec] for ec in sorted(rows)))
        if sol is not None:
            # q_i has the coefficients of columns (i, 0..cap); q_0 is zero without a unit
            x = [0] * (cap + 1) * lo + [sol.get(col, 0) for col in range(len(unknowns))]
            return IntegralWitness(n, [ScalarPoly(f, x[i * (cap + 1):(i + 1) * (cap + 1)]) for i in range(n)])
    return None


class PowerMembership(Record):
    def __init__(
        self, ok: bool, exponent: int, least_exponent: Optional[int], witness: Optional[dict] = None
    ):
        self.ok = ok
        self.exponent = exponent  # m*(n-1)+1 from the integrality degree
        self.least_exponent = least_exponent  # least power already inside xR
        self.witness = witness


def integral_power_in_x_ideal(a: ReesElement, n: int) -> PowerMembership:
    """Certify a^(m*(n-1)+1) in xR for a constant-term-free integral element.

    m is the top x-degree of a and n its integrality degree; raises when a
    has a nonzero constant coefficient.  As xR is an ideal, powers are
    multiplied out only up to the first in xR, the least exponent, each one
    scanned once for its first x^e-coefficient outside F_{e-1}, the witness.
    Powers stop at x^t, t the top of the filtration, exactly: the x^e-terms
    for e <= t read only factors of x-degree <= t, and F_{e-1} = F_t beyond.
    """
    if not a.coeff(0).is_zero():
        raise ValueError("element has a nonzero constant coefficient")
    if n < 1:
        raise ValueError("integrality degree must be >= 1")
    exponent = max(a.degree, 1) * (n - 1) + 1
    filtration = a.filtration
    size = filtration.top + 1
    power = factor = a.coeffs[:size]
    for k in range(1, exponent + 1):
        bad = next((e for e, c in enumerate(power) if not filtration.stage(e - 1).contains_raw(c._raw)), None)
        if bad is None:
            return PowerMembership(ok=True, exponent=exponent, least_exponent=k)
        if k < exponent:
            power = _ax_mul(power, factor, filtration.algebra, size)
    return PowerMembership(ok=False, exponent=exponent, least_exponent=None,
                           witness={"power": exponent, "x_degree": bad})


class IsoReport(Record):
    """Comparison of gr(A) with R/xR on adapted classes up to a degree cap."""

    def __init__(
        self,
        ok: bool,
        max_degree: int,
        checked_pairs: int,
        ledger: Optional[list[dict]] = None,
        failures: Optional[list[dict]] = None,
    ):
        self.ok = ok
        self.max_degree = max_degree
        self.checked_pairs = checked_pairs
        self.ledger = [] if ledger is None else ledger
        self.failures = [] if failures is None else failures


def check_graded_rees_isomorphism(
    filtration: Filtration, max_degree: int, gr: Optional[GradedAlgebra] = None
) -> IsoReport:
    """Verify that degree-i classes map to x^i-multiples compatibly with xR.

    The map sends the class of an adapted representative v at degree i to
    v x^i + xR.  Checked: (a) products of adapted classes match modulo
    x-degree-(i+j) membership of the difference in stage i+j-1, i.e. the
    graded tensor reproduces representative products up to xR; (b) no
    nonzero class maps into xR (its representative sits outside stage
    i-1); (c) per degree, the graded component dimension equals both the
    stage-dimension difference and the directly computed dimension of
    (x^i F_i + xR) / xR.
    """
    graded = gr if gr is not None else associated_graded(filtration)
    base = filtration.algebra
    f = base.field
    t = filtration.top
    failures: list[dict] = []
    checked = 0
    adapted = list(zip(graded._degrees, graded._vectors))
    for i, (pi, vi) in enumerate(adapted):
        if filtration.stage(pi - 1).contains_raw(vi):
            failures.append({"kind": "injectivity", "slot": i, "degree": pi})
    for i, (pi, vi) in enumerate(adapted):
        for j, (pj, vj) in enumerate(adapted):
            if pi + pj > max_degree:
                continue
            checked += 1
            w = base.product(vi, vj)
            rep = graded.representative(
                graded.algebra.basis_element(i) * graded.algebra.basis_element(j)
            )
            diff = combine(f, ((1, w), (-1, rep._raw)))
            if not filtration.stage(pi + pj - 1).contains_raw(diff):
                failures.append(
                    {"kind": "multiplicativity", "slots": (i, j), "degrees": (pi, pj)}
                )
    ledger: list[dict] = []
    for i in range(min(max_degree, t) + 1):
        gr_dim = graded.component_dims[i]
        below = filtration.stage(i - 1)
        stage_diff = filtration.stage(i).dim - below.dim
        residuals = (below.reduce_raw(r) for r in filtration.stage(i).raw_rows())
        quotient_dim = Subspace.from_raw(f, base.dim, residuals).dim
        entry = {
            "degree": i,
            "gr_dim": gr_dim,
            "stage_difference": stage_diff,
            "quotient_dim": quotient_dim,
        }
        ledger.append(entry)
        if not (gr_dim == stage_diff == quotient_dim):
            failures.append({"kind": "dimension", "degree": i, **entry})
    return IsoReport(
        ok=not failures,
        max_degree=max_degree,
        checked_pairs=checked,
        ledger=ledger,
        failures=failures,
    )
