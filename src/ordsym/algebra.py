"""The first-letter level walk, and the nil and algebraicity searches on it.

The algebra core (StructureAlgebra, AlgElement, ValidationReport, Record)
and the power searches algebraic_degree and raw_nil_index live in
structure and are imported back here, so ordsym.algebra names them too; a
check that reads only a filtration, the Rees integrality search included,
loads structure and not this module.

The degreewise spans of order-symmetric values, nil-index and
algebraicity-degree searches all live here.  The degreewise spans are
computed by the first-letter recursion

    s[profile] = sum_j  a_j * s[profile - e_j]

(proved and property-tested in the free algebra, transported here by the
evaluation homomorphism), which is exponentially cheaper than expanding
the symmetric sums word by word.  One generator, _nonzero_levels, runs it
for sym_span_in, sym_span_chain and uniform_nil_index, and for
evaluation.sym_values.  It pushes each nonzero value of a level into the
profiles above it, so a level holds only its nonzero values, and the walk
ends at the first empty level.  Each value of the walk is a sparse raw row
{index: raw}, one linalg.combine of the product terms that
StructureAlgebra.products lists.  The power searches of algebraic_degree
and raw_nil_index, which brute_force_nil_index runs on each enumerated
combination, step on raw rows too, so neither they nor the walk build an
AlgElement.  The readers here take the rows as they are;
evaluation.sym_values, which returns elements, wraps the ones it returns.

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
from .linalg import Raw, Subspace, combine
from .structure import AlgElement, Record, StructureAlgebra, ValidationReport, algebraic_degree, raw_nil_index

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


def _nonzero_levels(elts: Sequence[AlgElement]) -> Iterator[dict[tuple[int, ...], Raw]]:
    """The levels of degree 1, 2, ... of the first-letter recursion, up to an empty one.

    A level maps each profile with a nonzero value to that value's sparse
    raw row; degree 1 holds a_j at the profile e_j.  s[profile] = sum_j
    a_j * s[profile - e_j], so each value s[md] adds the product terms of
    a_j * s[md] into the profile md + e_j, and each profile's terms are
    summed by one combine.  Sums that cancel are dropped, so an empty level
    forces every later level to be empty: the walk ends there, without
    yielding it.  A level is computed only when it is asked for, and an
    empty tuple raises at the call rather than at the first step.
    """
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    field, by_left, m = algebra.field, algebra._by_left, len(elts)
    # a_j * v is zero unless v meets a right factor of some entry of a_j
    factors = [(a._raw, {k for i in a._raw for k in by_left[i]}) for a in elts]

    def walk(level):
        while level:
            yield level
            terms: dict[tuple[int, ...], list] = {}
            for md, v in level.items():
                for j, (a, right) in enumerate(factors):
                    if not right.isdisjoint(v) and (t := algebra.products(a, v)):
                        terms.setdefault((*md[:j], md[j] + 1, *md[j + 1:]), []).extend(t)
            level = {md: raw for md, t in terms.items() if (raw := combine(field, t))}

    return walk({tuple(int(t == j) for t in range(m)): a for j, (a, _) in enumerate(factors) if a})


def sym_span_in(elts: Sequence[AlgElement], n: int) -> Subspace:
    """Span of all degree-n order-symmetric values, in algebra coordinates.

    The level walk ends at the first empty level, so degree-N checks with
    N far above the nilpotency degree cost nothing extra: a walk that ends
    before degree n leaves the zero subspace.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    level = next(islice(_nonzero_levels(elts), n - 1, None), {})
    algebra = elts[0].algebra
    return Subspace.from_raw(algebra.field, algebra.dim, level.values())


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
            cum.insert_raw(v)
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
    rows = [e._raw for e in elts]
    worst = 1
    for coeffs in product(range(f.p), repeat=len(elts)):
        idx = raw_nil_index(algebra, combine(f, zip(coeffs, rows)), cap)
        if idx is None:
            return None
        worst = max(worst, idx)
    return worst


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
        # the least d with the cumulative span already reached by degree d - 1
        d = 1 + max((i for i, g in enumerate(chain.growth, start=1) if g), default=0)
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
