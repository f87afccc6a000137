"""The evaluation-at-distinct-points route: evaluate, sym_values, the weight check and Vandermonde recovery.

The paper's Amitsur argument reads the order-symmetric values of
elements off their linear combinations: (sum t_j a_j)^n, evaluated at
enough distinct points t, determines every degree-n symmetric value by
Vandermonde inversion (vandermonde_recover, one variable, and
multi_vandermonde_recover, one variable peeled per level, which need more
distinct field elements than the degree).  evaluate maps a free
polynomial into an algebra, sym_values reads every symmetric value off
the first-letter level walk of algebra (whose levels hold sparse raw rows,
so it wraps each value it returns in an AlgElement), and sym_degree_check
is the paper's weight lemma for one symmetric value of a filtered algebra.

No command runs this route.  Every check computes the symmetric spans it
needs exactly, by the level walk, over any field and without evaluating
at points, so the route is library API and a reference for the tests.
The modules its names come from (algebra, nilbound, linalg) resolve them
here on first use (PEP 562), so a check never compiles this module.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Optional, Sequence

from . import graded
from .algebra import _nonzero_levels
from .fields import Scalar, dense_scalars, raw_value
from .linalg import Subspace, Vector, _solution, combine
from .structure import AlgElement, Record

if TYPE_CHECKING:
    from .freealg import FreePoly
    from .graded import Filtration, GradedAlgebra

__all__ = [
    "evaluate",
    "sym_values",
    "HomogeneityReport",
    "sym_degree_check",
    "vandermonde_recover",
    "multi_vandermonde_recover",
]


def evaluate(p: FreePoly, assignment: Sequence[AlgElement]) -> AlgElement:
    """Image of a free polynomial under generator j -> assignment[j-1]: one combine of (coefficient, word value)."""
    if not assignment:
        raise ValueError("empty assignment")
    if len(assignment) != p.ngens:
        raise ValueError(f"assignment length {len(assignment)} != arity {p.ngens}")
    algebra = assignment[0].algebra
    if any(e.algebra is not algebra for e in assignment):
        raise ValueError("assignment mixes algebras")
    if p.field != algebra.field:
        raise ValueError("polynomial and algebra fields differ")
    terms = []
    for word, c in p._terms.items():
        v = assignment[word[0] - 1]._raw if word else algebra.unit_element()._raw  # raises without a unit
        for letter in word[1:]:
            v = algebra.product(v, assignment[letter - 1]._raw)
        terms.append((c, v))
    return AlgElement.from_raw(algebra, combine(algebra.field, terms))


def sym_values(elts: Sequence[AlgElement], max_total: int) -> dict[tuple[int, ...], AlgElement]:
    """Values of every order-symmetric sum of total degree 1..max_total.

    Computed by the first-letter recursion, one algebra multiplication per
    lattice edge out of a nonzero value; agrees with
    evaluate(sym_poly(profile), elts) everywhere (tested), but stays
    polynomial in the degree.  Every profile is returned, degree by degree
    in multidegrees order, the ones the walk leaves out as zero.
    """
    from .freealg import multidegrees

    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    zero = algebra.zero_element()
    vals: dict[tuple[int, ...], AlgElement] = {}
    for total in range(1, max_total + 1):
        level = next(levels, {})
        for md in multidegrees(total, len(elts)):
            raw = level.get(md)
            vals[md] = zero if raw is None else AlgElement.from_raw(algebra, raw)
    return vals


class HomogeneityReport(Record):
    def __init__(
        self, ok: bool, weight: int, in_stage: bool, graded_match: Optional[bool], skipped: bool = False
    ):
        self.ok = ok
        self.weight = weight
        self.in_stage = in_stage
        self.graded_match = graded_match
        self.skipped = skipped


def sym_degree_check(
    filtration: Filtration,
    elements: Sequence[AlgElement],
    start_degree: int,
    profile: Sequence[int],
    gr: Optional[GradedAlgebra] = None,
) -> HomogeneityReport:
    """Check the weight of a symmetric value against the filtration.

    elements[i] must lie in stage start_degree + i.  The symmetric sum for
    `profile` then lands in the stage of weight sum_i (start_degree+i) *
    profile[i], and its graded class equals the symmetric sum of the
    classes.  Both values are read off the first-letter level walk of
    sym_values.  The all-zero profile is a statement about the constant 1
    and is only meaningful in a unital algebra; it is reported as skipped
    otherwise.
    """
    m = len(elements)
    if len(profile) != m:
        raise ValueError("profile length must match element count")
    t = filtration.top
    degrees = [start_degree + i for i in range(m)]
    if degrees[-1] > t:
        raise ValueError("element degrees exceed the top of the chain")
    for a, degv in zip(elements, degrees):
        if not filtration.stage(degv).contains_raw(a._raw):
            raise ValueError(f"element not in stage {degv}")
    base = filtration.algebra
    if not any(profile) and not base.is_unital:
        return HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None, skipped=True)
    if any(i < 0 for i in profile):
        raise ValueError("profile entries must be nonnegative")
    algebra = elements[0].algebra
    if any(a.algebra is not algebra for a in elements):
        raise ValueError("assignment mixes algebras")
    if algebra.field != base.field:
        raise ValueError("polynomial and algebra fields differ")
    n = sum(profile)
    used = [j for j, i in enumerate(profile) if i]  # the letters the words use: the walk needs no others
    key = tuple(profile[j] for j in used)
    weight = sum(degv * i for degv, i in zip(degrees, profile))
    value = sym_values([elements[j] for j in used], n)[key] if n else algebra.unit_element()
    in_stage = filtration.stage(weight).contains_raw(value._raw)
    if gr is None:
        gr = graded.associated_graded(filtration)
    classes = [gr._class_of(a._raw, degv) for a, degv in zip(elements, degrees)]
    gval = sym_values([classes[j] for j in used], n)[key] if n else gr.algebra.unit_element()
    if weight > t:
        expected = gr.algebra.zero_element()
    else:
        expected = gr._class_of(value._raw, weight) if in_stage else None
    graded_match = expected is not None and gval == expected
    return HomogeneityReport(ok=in_stage and bool(graded_match), weight=weight, in_stage=in_stage,
                             graded_match=graded_match)


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
    d1, width = len(xis), len(ws[0])
    read = Subspace(field, width)._read
    # row j of [V | W]: the raw powers of xi_j, canonicalized by combine, then w_j
    rows = ({**combine(field, ((raw_value(field, xi) ** i, {i: 1}) for i in range(d1))),
             **{d1 + k: v for k, v in read(w).items()}} for xi, w in zip(xis, ws))
    return [dense_scalars(field, width, r) for r in _solution(Subspace.from_raw(field, d1 + width, rows), d1)]


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
