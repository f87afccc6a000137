"""Rees elements, integrality over scalar polynomials, and the gr = R/xR check.

For a filtered algebra A with chain F_0 <= ... <= F_t, the Rees algebra R
collects the polynomials sum_n a_n x^n with a_n in F_n (stages clamp at
the top).  Everything here works with finite coefficient sequences, never
formal series.

An element a(x) of A[x] is integral of degree n over the scalar
polynomials when a^n = q_{n-1} a^{n-1} + ... + q_1 a + q_0 with scalar
polynomials q_i; q_0 multiplies the identity and is forced to zero in a
non-unital algebra.  Witnesses are found by exact linear solving.  When a
Rees element with zero constant coefficient and top x-degree m is integral
of degree n, its power N = m*(n-1)+1 lands in the ideal xR, whose
x^e-coefficients live one stage lower; that membership is what makes the
corresponding graded class nilpotent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import AlgElement, Record, StructureAlgebra
from .fields import Field, Scalar
from .graded import Filtration, GradedAlgebra, associated_graded
from .linalg import Subspace, combine, solve_consistent

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
        vals = [Scalar(field, c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

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
                parts.append(f"{c}*x" if c != self.field.one() else "x")
            else:
                parts.append(f"{c}*x^{j}" if c != self.field.one() else f"x^{j}")
        return " + ".join(parts)


def _ax_trim(coeffs: list[AlgElement]) -> tuple[AlgElement, ...]:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def _ax_mul(u: Sequence[AlgElement], v: Sequence[AlgElement], algebra: StructureAlgebra) -> tuple[AlgElement, ...]:
    """The product of two coefficient sequences: one combine of product terms per x-degree."""
    if not u or not v:
        return ()
    terms: list[list] = [[] for _ in range(len(u) + len(v) - 1)]
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            terms[i + j].extend(algebra.products(a._raw, b._raw))
    return _ax_trim([AlgElement.from_raw(algebra, combine(algebra.field, t)) for t in terms])


class ReesElement:
    """Polynomial sum a_n x^n with each coefficient inside stage n."""

    __slots__ = ("filtration", "coeffs")

    def __init__(self, filtration: Filtration, coeffs: Sequence[AlgElement]):
        trimmed = _ax_trim(list(coeffs))
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
        """Membership in xR: zero constant term, x^n-coefficient in stage n-1."""
        if self.is_zero():
            return True
        if not self.coeffs[0].is_zero():
            return False
        return all(
            self.filtration.stage(n - 1).contains_raw(a._raw)
            for n, a in enumerate(self.coeffs)
            if n >= 1
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({a})*x^{n}" for n, a in enumerate(self.coeffs) if not a.is_zero())


class IntegralWitness(Record):
    def __init__(self, degree: int, multipliers: list[ScalarPoly]):
        self.degree = degree
        self.multipliers = multipliers  # q_0, ..., q_{degree-1}


def integral_witness(
    a: ReesElement, n_max: int, deg_max: Optional[int] = None
) -> Optional[IntegralWitness]:
    """Least n <= n_max with a^n a scalar-polynomial combination of lower powers.

    Solves one exact linear system per candidate n; the unknowns are all
    coefficients of the multiplier polynomials q_i up to deg_max, which
    defaults to the x-degree of a^n (the smallest cap that cannot exclude
    a witness on degree grounds).  The q_0 slot multiplies the identity
    and only exists in a unital algebra.  None when no witness exists.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if deg_max is not None and deg_max < 0:
        raise ValueError("deg_max must be >= 0")
    filtration = a.filtration
    base = filtration.algebra
    f = base.field
    m_top = max(a.degree, 0)
    # powers[0] backs the q_0 column and only exists in a unital algebra.
    powers: list[tuple[AlgElement, ...]] = [
        (base.unit_element(),) if base.is_unital else ()
    ]
    cur: tuple[AlgElement, ...] = ()
    zero, zero_element = f.zero(), base.zero_element()
    for n in range(1, n_max + 1):
        cur = a.coeffs if n == 1 else _ax_mul(cur, a.coeffs, base)
        powers.append(cur)
        cap = deg_max if deg_max is not None else m_top * n
        lo = 0 if base.is_unital else 1
        unknowns = [(i, j) for i in range(lo, n) for j in range(cap + 1)]
        e_max = max(
            [m_top * n] + [j + max(len(powers[i]) - 1, 0) for i, j in unknowns]
        )
        rows = []
        rhs = []
        target = powers[n]
        for e in range(e_max + 1):
            t_coeff = target[e] if e < len(target) else zero_element
            for c in range(base.dim):
                row = []
                for i, j in unknowns:
                    pw = powers[i]
                    shift = e - j
                    if 0 <= shift < len(pw):
                        row.append(pw[shift].coords[c])
                    else:
                        row.append(zero)
                rows.append(row)
                rhs.append(t_coeff.coords[c])
        if not unknowns:
            sol = [] if all(not v for v in rhs) else None
        else:
            sol = solve_consistent(f, rows, rhs)
        if sol is not None:
            multipliers = []
            for i in range(n):
                coeffs = [zero] * (cap + 1)
                for col, (ui, uj) in enumerate(unknowns):
                    if ui == i:
                        coeffs[uj] = sol[col]
                multipliers.append(ScalarPoly(f, coeffs))
            return IntegralWitness(n, multipliers)
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

    m is the top x-degree of a and n its integrality degree.  Also reports
    the least exponent that already lies in xR.  Raises when a has a
    nonzero constant coefficient.
    """
    if not a.is_zero() and not a.coeff(0).is_zero():
        raise ValueError("element has a nonzero constant coefficient")
    if n < 1:
        raise ValueError("integrality degree must be >= 1")
    m_top = max(a.degree, 1)
    exponent = m_top * (n - 1) + 1
    least: Optional[int] = None
    p = a
    for k in range(1, exponent + 1):
        if least is None and p.in_x_ideal():
            least = k
        if k < exponent:
            p = p * a
    ok = p.in_x_ideal() if exponent >= 1 else True
    witness = None
    if not ok:
        bad = next(
            (e for e, c in enumerate(p.coeffs)
             if (e == 0 and not c.is_zero())
             or (e >= 1 and not a.filtration.stage(e - 1).contains_raw(c._raw))),
            None,
        )
        witness = {"power": exponent, "x_degree": bad}
    return PowerMembership(ok=ok, exponent=exponent, least_exponent=least, witness=witness)


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
    degs = graded.slot_degrees()
    adapted = list(zip(degs, graded._vectors))
    for i, (pi, vi) in enumerate(adapted):
        if pi >= 1 and filtration.stage(pi - 1).contains_raw(vi):
            failures.append({"kind": "injectivity", "slot": i, "degree": pi})
        elif pi == 0 and not vi:
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
            modulus = (
                filtration.stage(pi + pj - 1)
                if pi + pj >= 1
                else Subspace.zero(f, base.dim)
            )
            if not modulus.contains_raw(diff):
                failures.append(
                    {"kind": "multiplicativity", "slots": (i, j), "degrees": (pi, pj)}
                )
    ledger: list[dict] = []
    for i in range(min(max_degree, t) + 1):
        gr_dim = graded.component_dims[i]
        below = filtration.stage(i - 1)
        stage_diff = filtration.stage(i).dim - below.dim
        residuals = [below.reduce(r) for r in filtration.stage(i).rows]
        quotient_dim = Subspace(f, base.dim, residuals).dim
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
