"""The first-letter level walk, and the nil and algebraicity searches on it.

The algebra core (StructureAlgebra, AlgElement, ValidationReport, Record)
lives in structure and is imported back here, so ordsym.algebra names it
too; a check that reads only a filtration loads structure and not this
module.

The degreewise spans of order-symmetric values, nil-index and
algebraicity-degree searches all live here.  The degreewise spans are
computed by the first-letter recursion

    s[profile] = sum_j  a_j * s[profile - e_j]

(proved and property-tested in the free algebra, transported here by the
evaluation homomorphism), which is exponentially cheaper than expanding
the symmetric sums word by word.  One level walk, _nonzero_levels, runs it
for sym_span_in, sym_span_chain and uniform_nil_index, and for
evaluation.sym_values.  It pushes each nonzero value of a level into the
profiles above it, so a level holds only its nonzero values, and the walk
ends at the first empty level.  Each value of the walk is one
linalg.combine of the product terms that StructureAlgebra.products lists.

evaluate and sym_values, which no command runs, live in evaluation and
are resolved here on first use (PEP 562), so ordsym.algebra.evaluate is
still the same object and a check compiles neither.  Nothing here reads
the free algebra, so no command that reads an algebra loads freealg.
"""

from __future__ import annotations

import random
from itertools import islice, product
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import InvalidAlgebraError
from .linalg import Subspace, combine
from .structure import AlgElement, Record, StructureAlgebra, ValidationReport

__all__ = [
    "ValidationReport",
    "InvalidAlgebraError",
    "StructureAlgebra",
    "AlgElement",
    "evaluate",
    "sym_values",
    "sym_span_in",
    "ChainResult",
    "sym_span_chain",
    "uniform_nil_index",
    "brute_force_nil_index",
    "algebraic_degree",
    "BoundResult",
    "uniform_algebraic_bound",
]


def __getattr__(name: str):
    """evaluate or sym_values (no other name reaches here), loaded from evaluation on first use."""
    if name not in ("evaluate", "sym_values"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


def _level_values(
    elts: Sequence[AlgElement], level: dict[tuple[int, ...], AlgElement]
) -> dict[tuple[int, ...], AlgElement]:
    """One step of the first-letter recursion, pushed from the nonzero values of a level.

    s[profile] = sum_j a_j * s[profile - e_j], so each value s[md] adds
    the product terms of a_j * s[md] into the profile md + e_j, and each
    profile's terms are summed by one combine.  Sums that cancel are
    dropped, so the next level holds only its nonzero values too.
    """
    algebra = elts[0].algebra
    by_left = algebra._by_left
    # a_j * v is zero unless v meets a right factor of some entry of a_j
    factors = [(a._raw, {k for i in a._raw for k in by_left[i]}) for a in elts]
    terms: dict[tuple[int, ...], list] = {}
    for md, v in level.items():
        v = v._raw
        for j, (a, right) in enumerate(factors):
            if right.isdisjoint(v):
                continue
            t = algebra.products(a, v)
            if t:
                terms.setdefault((*md[:j], md[j] + 1, *md[j + 1:]), []).extend(t)
    field = algebra.field
    return {md: AlgElement.from_raw(algebra, raw) for md, t in terms.items() if (raw := combine(field, t))}


def _first_level(elts: Sequence[AlgElement]) -> dict[tuple[int, ...], AlgElement]:
    """The nonzero degree-1 values: a_j at the profile e_j."""
    m = len(elts)
    return {
        tuple(1 if t == j else 0 for t in range(m)): e
        for j, e in enumerate(elts)
        if not e.is_zero()
    }


def _nonzero_levels(elts: Sequence[AlgElement]) -> Iterator[dict[tuple[int, ...], AlgElement]]:
    """The levels of degree 1, 2, ... of the first-letter recursion, up to an empty one.

    A level maps each profile with a nonzero value to that value.  Each
    level is pushed from the one before, so an empty level forces every
    later level to be empty: the walk ends there, without yielding it.  A
    level is computed only when it is asked for, and an empty tuple raises
    at the call rather than at the first step.
    """
    if not elts:
        raise ValueError("need at least one element")

    def walk(level):
        while level:
            yield level
            level = _level_values(elts, level)

    return walk(_first_level(elts))


def sym_span_in(elts: Sequence[AlgElement], n: int) -> Subspace:
    """Span of all degree-n order-symmetric values, in algebra coordinates.

    The level walk ends at the first empty level, so degree-N checks with
    N far above the nilpotency degree cost nothing extra: a walk that ends
    before degree n leaves the zero subspace.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    span = Subspace(algebra.field, algebra.dim)
    for degree, level in enumerate(islice(levels, n), start=1):
        if degree == n:
            for v in level.values():
                span.insert_raw(v._raw)
    return span


class ChainResult(Record):
    """Degreewise growth of the cumulative span of order-symmetric values.

    growth[i] is the dimension added at degree i+1; cumulative is the span
    of every degree computed; stabilized_at is the first degree that added
    nothing (the stopping point), or None if the hard cap hit first.
    includes_degree_zero records whether the unit seeded the span.
    """

    def __init__(
        self,
        growth: list[int],
        cumulative: Subspace,
        stabilized_at: Optional[int],
        includes_degree_zero: bool,
    ):
        self.growth = growth
        self.cumulative = cumulative
        self.stabilized_at = stabilized_at
        self.includes_degree_zero = includes_degree_zero


def sym_span_chain(
    elts: Sequence[AlgElement],
    include_degree_zero: bool = False,
    stop_at_plateau: bool = True,
    max_degree: Optional[int] = None,
) -> ChainResult:
    """Cumulative spans of order-symmetric values, degree by degree.

    Stops at the first degree whose values add nothing to the span, capped
    at the algebra dimension.  Over a field with more elements than the
    cap, the cap is provably exhaustive (every element is algebraic of
    degree at most dim+1, which pins all higher symmetric spans inside the
    cumulative one).  Over small prime fields a plateau can be deceptive:
    symmetric sums may vanish for a few degrees because the characteristic
    divides their multinomial coefficients, and reappear later, so pass
    stop_at_plateau=False (and a taller max_degree) when the tail matters;
    uniform_algebraic_bound does exactly that for its certificate.
    """
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    cap = max(algebra.dim if max_degree is None else max_degree, 1)
    cum = Subspace.zero(algebra.field, algebra.dim)
    if include_degree_zero:
        if not algebra.is_unital:
            raise ValueError("degree-zero component needs a unital algebra")
        cum.insert_raw(algebra._unit)
    growth: list[int] = []
    for level in islice(levels, cap):
        before = cum.dim
        for v in level.values():
            cum.insert_raw(v._raw)
        growth.append(cum.dim - before)
        if cum.dim == algebra.dim or (stop_at_plateau and not growth[-1]):
            break
    # Every degree the walk did not reach adds nothing: the span is already
    # the whole algebra, or a level vanished and all later ones with it.
    if not stop_at_plateau:
        growth.extend([0] * (cap - len(growth)))
    elif 0 not in growth and len(growth) < cap:
        growth.append(0)
    stabilized_at = growth.index(0) + 1 if 0 in growth else None
    return ChainResult(growth, cum, stabilized_at, include_degree_zero)


def uniform_nil_index(elts: Sequence[AlgElement], cutoff: Optional[int] = None) -> Optional[int]:
    """Least n with the whole degree-n symmetric span zero, or None up to cutoff.

    A zero span at degree n certifies that every linear combination of the
    elements has n-th power zero, over any field (no field-size hypothesis
    for this direction).  Once some degree's values all vanish, so do all
    later ones, by the first-letter recursion, so the first empty level
    is exactly the certificate degree.  The walk stops at degree dim + 1
    whatever the cutoff: a nonzero level there proves that no level
    vanishes.
    """
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    cap = algebra.dim + 1 if cutoff is None else cutoff
    # A nilpotent element has index at most dim + 1.  So a nonzero level at
    # degree dim + 1, which makes (sum t_j a_j)^(dim+1) a nonzero polynomial
    # in the t_j, proves that no level vanishes: at a non-root t over the
    # algebraic closure of the field (over the field itself when it has
    # more than dim + 1 elements), x = sum t_j a_j is not nilpotent.  A
    # member whose walk-th power is nonzero decides it at once.
    walk = min(cap, algebra.dim + 1)
    if any(e.nil_index(walk) is None for e in elts):
        return None
    nonzero = sum(1 for _ in islice(levels, walk))
    return nonzero + 1 if nonzero < walk else None


BRUTE_FORCE_BUDGET = 200_000  # most coefficient tuples brute_force_nil_index enumerates


def brute_force_nil_index(
    elts: Sequence[AlgElement], budget: int = BRUTE_FORCE_BUDGET
) -> Optional[int]:
    """Exhaustive oracle: max nilpotence index over every field combination.

    Only for finite fields; enumerates all |field|^m coefficient tuples and
    powers each combination directly.  None if any combination fails to
    vanish within dim+1.
    """
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    f = algebra.field
    if not f.is_finite:
        raise ValueError("brute-force enumeration needs a finite field")
    total = f.p ** len(elts)
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {total} > {budget}")
    cap = algebra.dim + 1
    worst = 1
    for coeffs in product(f.elements(), repeat=len(elts)):
        v = AlgElement.from_raw(algebra, combine(f, ((c.value, e._raw) for c, e in zip(coeffs, elts))))
        idx = v.nil_index(cap)
        if idx is None:
            return None
        worst = max(worst, idx)
    return worst


def algebraic_degree(a: AlgElement, unital: bool = False) -> int:
    """Least d >= 1 with a**d in the span of lower powers.

    Non-unital by default: the span runs over a, ..., a**(d-1) only.  With
    unital=True the identity joins the span (the algebra must have one).
    Always terminates: powers live in a space of dimension at most dim, so
    d never exceeds dim + 1 (dim + 2 in the seeded-unit case).
    """
    algebra = a.algebra
    spanned = Subspace(algebra.field, algebra.dim)
    if unital:
        spanned.insert_raw(algebra.unit_element()._raw)  # raises if no unit
    p = a
    for d in range(1, algebra.dim + 3):
        if not spanned.insert_raw(p._raw):
            return d
        p = p * a
    raise RuntimeError("unreachable: powers span a bounded space")


class BoundResult(Record):
    """Uniform algebraicity certificate from the stabilized span chain.

    d is the least degree with the cumulative span equal to the span of
    degrees < d; bound = C(d+m-1, m) then caps the algebraic degree of
    every linear combination of the elements.  sampled_degrees are seeded
    spot checks, each necessarily <= bound.
    """

    def __init__(self, d: int, bound: int, chain: ChainResult, sampled_degrees: list[int]):
        self.d = d
        self.bound = bound
        self.chain = chain
        self.sampled_degrees = sampled_degrees


def _least_collapse_degree(chain: ChainResult) -> int:
    """Least d with the cumulative span already reached by degree d-1."""
    final = chain.cumulative.dim
    d, acc = 1, 0
    for g in chain.growth:
        if acc == final:
            break
        acc += g
        d += 1
    return d


def uniform_algebraic_bound(
    elts: Sequence[AlgElement], samples: int = 8, seed: int = 0
) -> BoundResult:
    """Certified bound on the algebraic degree of every combination of elts.

    Finds the least d with the whole symmetric span collapsed into degrees
    < d, then verifies the collapse literally up to degree C(d+m-1, m): the
    cumulative span through that degree has dimension below the bound, so
    the powers 1..bound of any combination are linearly dependent.  That
    hypothesis-checking loop makes the certificate valid over any field;
    a plateau alone is not sufficient evidence on small prime fields,
    where symmetric sums can vanish for several degrees (binomial
    coefficients divisible by the characteristic) and then reappear.
    """
    m = len(elts)
    algebra = elts[0].algebra
    horizon = algebra.dim
    while True:
        chain = sym_span_chain(elts, stop_at_plateau=False, max_degree=horizon)
        d = _least_collapse_degree(chain)
        bound = comb(d + m - 1, m)
        if chain.cumulative.dim == algebra.dim:
            break  # the span is the whole algebra; nothing can escape it
        if horizon >= bound:
            break
        horizon = bound
    rng = random.Random(seed)
    degrees: list[int] = []
    for _ in range(samples):
        v = combine(algebra.field, ((rng.randint(-3, 3), e._raw) for e in elts))
        degrees.append(algebraic_degree(AlgElement.from_raw(algebra, v)))
    if any(deg > bound for deg in degrees):
        raise RuntimeError("algebraicity bound violated by a sampled element")
    return BoundResult(d, bound, chain, degrees)
