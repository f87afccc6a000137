"""The reference oracle: every kernel ordsym replaced, kept once in its old, slow form.

Each fast kernel is trusted because a differential suite compares it with
the version it replaced.  Those versions live here, once each, with the
input generators that more than one suite draws from.  The references
compute on dense vectors of Scalars, one Scalar operation per cell, or on
element arithmetic, and each keeps its old algorithm: batch Gauss-Jordan
elimination, the pull walk, all-pairs validation, word-by-word evaluation
and an integrality system for every degree.  No reference calls a raw
kernel it checks (`combine`, `products`, `insert_raw`, `reduce_raw`, and
`_nonzero_levels`, the level walk's one generator of raw rows).  Raw code
is called here in two places, neither of them as a reference for it:
- the `combine` adapter at the end is `linalg.combine` under test with
  dense input, and it returns the kernel's sparse raw row as is, so a
  suite sees each raw value the kernel made; no reference uses it;
- the integrality reference builds and solves its systems as the search
  under test does (`rees._ax_mul` and `linalg.solve_raw`, which the rref
  and Rees suites check), since what it checks is only which degrees
  that search skips.

pytest does not collect this module; the suites import from it by name.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial
from typing import Optional

from hypothesis import strategies as st

from ordsym import linalg, rees
from ordsym.algebra import StructureAlgebra, ValidationReport, evaluate
from ordsym.catalog import builtin_example
from ordsym.fields import QQ, Field, Scalar, raw_value, read_sparse
from ordsym.freealg import FreePoly, multidegrees, sym_poly
from ordsym.graded import HomogeneityReport, associated_graded
from ordsym.linalg import Subspace
from ordsym.rees import PowerMembership

FIELDS = [QQ, Field("GF", 2), Field("GF", 7), Field("GF", 101)]
BUILTINS = [
    ("upper-triangular", 3),
    ("upper-triangular", 4),
    ("strictly-upper-triangular", 3),
    ("truncated-polynomial", 4),
    ("exterior-algebra", 2),
    ("exterior-algebra", 3),
]
SIZES = {"upper-triangular": 3, "strictly-upper-triangular": 4, "truncated-polynomial": 4, "exterior-algebra": 3}


# --- shared inputs and comparisons
def raw(rows):
    """Rows as (field, value type, value) triples: Scalar equality alone
    would not tell an int from a whole Fraction over Q."""
    return [[(x.field, type(x.value), x.value) for x in r] for r in rows]


def raw_row(v):
    """A sparse raw row, or a dense vector of Scalars, as {index: (value type, value)}.

    A dense vector keeps its nonzero entries only, and a sparse row every
    entry, so a zero the kernel kept shows up too.
    """
    items = v.items() if isinstance(v, dict) else ((k, x.value) for k, x in enumerate(v) if x)
    return {k: (type(x), x) for k, x in items}


def outcome(call):
    """A call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as e:
        return f"ValueError: {e}"


def ut3():
    return builtin_example("upper-triangular", 3)


def unit_elt(algebra, name, c=1):
    coords = [0] * algebra.dim
    coords[algebra.names.index(name)] = c
    return algebra.element(coords)


def stage_element(filtration, d, rng, bound=2):
    """A seeded combination of the rows of stage d, each coefficient in -bound..bound."""
    algebra = filtration.algebra
    v = algebra.zero_element()
    for row in filtration.stage(d).rows:
        v = v + rng.randint(-bound, bound) * algebra.element(row)
    return v


def entries(field):
    if field.is_finite:
        return st.integers(-3 * field.p, 3 * field.p)
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


def vectors(field, n):
    return st.lists(entries(field), min_size=n, max_size=n).map(
        lambda cs: tuple(Scalar(field, c) for c in cs))


@st.composite
def sparse_vectors(draw, field, n):
    v = draw(vectors(field, n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(c if k else field.zero() for c, k in zip(v, keep))


@st.composite
def matrices(draw, field, min_rows=0, max_rows=7, max_cols=7):
    """A matrix of Scalars: general, sparse, rank-deficient, with duplicate and zero rows."""
    ncols = draw(st.integers(1, max_cols))
    base = draw(st.lists(st.lists(entries(field), min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=max_rows))
    rows = [[Scalar(field, c) for c in r] for r in base]
    kind = draw(st.sampled_from(["plain", "sparse", "deficient", "duplicates"]))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=len(rows) * ncols, max_size=len(rows) * ncols))
        rows = [[c if keep[i * ncols + k] else field.zero() for k, c in enumerate(r)] for i, r in enumerate(rows)]
    elif kind == "deficient" and rows:
        coeffs = draw(st.lists(st.lists(entries(field), min_size=len(rows), max_size=len(rows)),
                               min_size=1, max_size=4))
        rows += [list(dense_sum(field, ncols, zip(cs, rows))) for cs in coeffs]
    elif kind == "duplicates" and rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
        rows += [list(rows[i]) for i in picks] + [[field.zero()] * ncols]
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@st.composite
def algebras(draw, field):
    """A bilinear product on field^n with sparse random constants (associativity not needed)."""
    n = draw(st.integers(1, 5))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n))
    mul = {ij: draw(st.dictionaries(st.integers(0, n - 1), entries(field), max_size=n)) for ij in pairs}
    return StructureAlgebra(field, [f"b{i}" for i in range(n)], mul, check=False)


def rebased(algebra: StructureAlgebra, stages, rng: random.Random):
    """The algebra and stages in the basis b_i = sum_j P[i][j] e_j.

    P is a seeded product of unit lower and upper bidiagonal integer
    matrices, so it is invertible over every field with an integer inverse.
    Stage vectors stop being coordinate prefixes, so echelon rows and
    adapted vectors differ, and most structure constants become nonzero.
    """
    f, n = algebra.field, algebra.dim
    lower = [[int(i == j) or (rng.choice((-1, 1)) if i - j == 1 else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.choice((-1, 1)) if j - i == 1 else 0) for j in range(n)] for i in range(n)]
    p = [[Scalar(f, sum(lower[i][k] * upper[k][j] for k in range(n))) for j in range(n)] for i in range(n)]
    p_inv = reference_solve_square(f, p, eye(f, n))

    def to_new(x):
        return dense_sum(f, n, zip(x, p_inv))

    mul = {
        (i, j): dict(enumerate(to_new(reference_multiply_coords(algebra, p[i], p[j]))))
        for i in range(n) for j in range(n)
    }
    unit = to_new(algebra.unit) if algebra.is_unital else None
    new = StructureAlgebra(f, [f"b{i}" for i in range(n)], mul, unit=unit, check=False)
    return new, [Subspace(f, n, [to_new(r) for r in s.rows]) for s in stages]


def corrupt_algebra(algebra: StructureAlgebra, rng: random.Random) -> StructureAlgebra:
    """One or two structure constants overwritten, or a unit coordinate moved."""
    f, n = algebra.field, algebra.dim
    mul = {key: dict(row) for key, row in algebra.mul.items()}
    unit = algebra.unit
    if unit is not None and rng.random() < 0.2:
        unit = list(unit)
        unit[rng.randrange(n)] += Scalar(f, rng.choice((-1, 1)))
    else:
        for _ in range(rng.randint(1, 2)):
            i, j, k = (rng.randrange(n) for _ in range(3))
            mul.setdefault((i, j), {})[k] = rng.randint(-3, 3)
    return StructureAlgebra(f, algebra.names, mul, unit=unit, check=False)


def corrupt_stages(algebra: StructureAlgebra, stages, rng: random.Random) -> list[Subspace]:
    """One stage below the top grown, shrunk, or replaced by random vectors."""
    f, n, t = algebra.field, algebra.dim, len(stages) - 1

    def combination(rows):
        return dense_sum(f, n, ((rng.randint(-2, 2), row) for row in rows))

    full = Subspace.full(f, n).rows
    i = rng.randrange(t)
    rows = list(stages[i].rows)
    kind = rng.choice(("grow", "grow", "shrink", "replace"))
    if kind == "grow":
        rows.append(combination(stages[min(i + rng.randint(1, 2), t)].rows))
    elif kind == "shrink" and rows:
        below = list(stages[i - 1].rows) if i else []
        keep = max(len(rows) - len(below) - 1, 0)
        rows = below + [combination(rows) for _ in range(keep)]
    else:
        rows = [combination(full) for _ in range(len(rows))]
    out = list(stages)
    out[i] = Subspace(f, n, rows)
    return out


# --- dense sums
def dense_sum(field, n, terms):
    """sum c * v over (coefficient, vector) pairs by Scalar arithmetic, from the zero vector of length n.

    Coefficients and entries are ints, Fractions or Scalars of field.
    """
    out = (field.zero(),) * n
    for c, v in terms:
        c = Scalar(field, c)
        out = tuple(a + c * Scalar(field, x) for a, x in zip(out, v))
    return out


def sum_oracle(field, m, scaled):
    """sum c * p over (Scalar c, polynomial p) pairs, in Scalar arithmetic."""
    out = {}
    for c, p in scaled:
        for w, v in p.terms():
            out[w] = out.get(w, field.zero()) + c * v
    return FreePoly(field, m, out)


# --- elimination and products
def reference_rref(field, rows):
    """Batch Gauss-Jordan elimination: (reduced rows, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged input: rows of unequal length")
    pivots = []
    col = 0
    rix = 0
    while rix < len(work) and col < ncols:
        piv = next((i for i in range(rix, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rix], work[piv] = work[piv], work[rix]
        inv = work[rix][col].inv()
        work[rix] = [x * inv for x in work[rix]]
        for i in range(len(work)):
            if i != rix and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rix])]
        pivots.append(col)
        rix += 1
        col += 1
    return work[: len(pivots)], pivots


def reference_solve_consistent(field, a, b):
    if not a:
        return []
    ncols = len(a[0])
    red, piv = reference_rref(field, [list(ra) + [rb] for ra, rb in zip(a, b)])
    x = [field.zero()] * ncols
    for row, p in zip(red, piv):
        if p == ncols:
            return None
        x[p] = row[-1]
    return x


def eye(field, n):
    """The n x n identity matrix of Scalars."""
    return [[Scalar(field, int(i == j)) for j in range(n)] for i in range(n)]


def reference_solve_square(field, a, b):
    n = len(a)
    red, piv = reference_rref(field, [list(ra) + list(rb) for ra, rb in zip(a, b)])
    if len(red) != n or piv != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def reference_reduce(rows, pivots, v):
    """v minus its projection on the echelon basis (rows, pivots), one pivot at a time."""
    v = list(v)
    for row, p in zip(rows, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return tuple(v)


def reference_multiply_coords(algebra, a, b):
    """The product of two dense coordinate vectors over the Scalar structure constants."""
    out = [algebra.field.zero()] * algebra.dim
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            entry = algebra.mul.get((i, j))
            if not entry:
                continue
            f = ai * bj
            for k, c in entry.items():
                out[k] = out[k] + f * c
    return tuple(out)


# --- validation
def reference_validate(algebra: StructureAlgebra) -> ValidationReport:
    """Associativity and unit laws by dense products of basis vectors."""
    mul = partial(reference_multiply_coords, algebra)
    basis = [algebra.basis_element(i).coords for i in range(algebra.dim)]
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            ij = mul(basis[i], basis[j])
            for k in range(algebra.dim):
                lhs = mul(ij, basis[k])
                rhs = mul(basis[i], mul(basis[j], basis[k]))
                if lhs != rhs:
                    return ValidationReport(False, [
                        {"law": "associativity", "where": (i, j, k), "lhs": lhs, "rhs": rhs}
                    ])
    if algebra.unit is not None:
        for i in range(algebra.dim):
            left = mul(algebra.unit, basis[i])
            right = mul(basis[i], algebra.unit)
            if left != basis[i] or right != basis[i]:
                return ValidationReport(False, [{"law": "unit", "where": i}])
    return ValidationReport(True)


def reference_validate_filtration(algebra: StructureAlgebra, stages) -> ValidationReport:
    """Nesting row by row, multiplicativity on every pair of echelon rows."""
    if not stages:
        return ValidationReport(False, [{"law": "exhaustion", "where": "empty chain"}])
    t = len(stages) - 1
    for i, s in enumerate(stages):
        if s.field != algebra.field or s.ambient != algebra.dim:
            return ValidationReport(False, [{"law": "ambient", "where": i}])
    for i in range(1, t + 1):
        if not all(stages[i].contains(r) for r in stages[i - 1].rows):
            return ValidationReport(False, [{"law": "nesting", "where": (i - 1, i)}])
    if stages[t].dim != algebra.dim:
        return ValidationReport(False, [{"law": "exhaustion", "where": t, "dim": stages[t].dim}])
    for i in range(t + 1):
        for j in range(t + 1):
            target = stages[min(i + j, t)]
            for u in stages[i].rows:
                for v in stages[j].rows:
                    prod = reference_multiply_coords(algebra, u, v)
                    if not target.contains(prod):
                        return ValidationReport(False, [
                            {"law": "multiplicativity", "where": (i, j), "witness": prod}
                        ])
    return ValidationReport(True)


# --- the pull walk and the spans it replaced
def pull_levels(elts):
    """The levels of degree 1, 2, ... of the first-letter recursion, pulled, without end.

    Degree 1 holds a_j at the profile e_j.  Every profile of a later degree
    sums a_j * s[profile - e_j] over its nonzero parents, and holds zero
    when no product is nonzero.  Each caller keeps its own exit.
    """
    m = len(elts)
    zero = elts[0].algebra.zero_element()
    level = {tuple(1 if t == j else 0 for t in range(m)): elts[j] for j in range(m)}
    for total in itertools.count(2):
        yield level
        live = {md: v for md, v in level.items() if not v.is_zero()}
        level = {}
        for md in multidegrees(total, m):
            acc = None
            for j in range(m):
                if md[j]:
                    parent = live.get(tuple(md[t] - (1 if t == j else 0) for t in range(m)))
                    if parent is None:
                        continue
                    term = elts[j] * parent
                    if not term.is_zero():
                        acc = term if acc is None else acc + term
            level[md] = zero if acc is None else acc


def reference_sym_span_in(elts, n: int) -> Subspace:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    levels = pull_levels(elts)
    level = next(levels)
    for total in range(2, n + 1):
        if all(v.is_zero() for v in level.values()):
            return Subspace.zero(algebra.field, algebra.dim)
        level = next(levels)
    return Subspace(algebra.field, algebra.dim, [v.coords for v in level.values()])


def reference_sym_span_chain(elts, include_degree_zero=False, stop_at_plateau=True, max_degree=None):
    """(growth, cumulative, stabilized_at) with the cumulative span rebuilt every degree."""
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    cap = algebra.dim if max_degree is None else max_degree
    cap = max(cap, 1)
    vectors = []
    if include_degree_zero:
        if not algebra.is_unital:
            raise ValueError("degree-zero component needs a unital algebra")
        vectors.append(algebra.unit)
    cum = Subspace(algebra.field, algebra.dim, vectors)
    growth: list[int] = []
    stabilized_at: Optional[int] = None
    levels = pull_levels(elts)
    level = next(levels)
    total = 1
    while total <= cap:
        before = cum.dim
        cum = cum + Subspace(algebra.field, algebra.dim, [v.coords for v in level.values()])
        growth.append(cum.dim - before)
        if growth[-1] == 0 and stabilized_at is None:
            stabilized_at = total
            if stop_at_plateau:
                break
        if cum.dim == algebra.dim and total < cap:
            if stabilized_at is None:
                stabilized_at = total + 1
            if stop_at_plateau:
                growth.append(0)
            else:
                growth.extend([0] * (cap - total))
            break
        total += 1
        if total <= cap:
            if all(v.is_zero() for v in level.values()):
                growth.extend([0] * (cap - total + 1))
                break
            level = next(levels)
    return growth, cum, stabilized_at


def reference_uniform_nil_index(elts, cutoff=None):
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    cap = algebra.dim + 1 if cutoff is None else cutoff
    for e in elts:
        if e.nil_index(cap) is None:
            return None
    levels = pull_levels(elts)
    level = next(levels)
    for n in range(1, cap + 1):
        if all(v.is_zero() for v in level.values()):
            return n
        if n < cap:
            level = next(levels)
    return None


def reference_algebraic_degree(a, unital=False) -> int:
    algebra = a.algebra
    seed = [algebra.unit_element().coords] if unital else []
    spanned = Subspace(algebra.field, algebra.dim, seed)
    p = a
    for d in range(1, algebra.dim + 3):
        if spanned.contains(p.coords):
            return d
        spanned = spanned + Subspace(algebra.field, algebra.dim, [p.coords])
        p = p * a
    raise RuntimeError("unreachable: powers span a bounded space")


def reference_adapted_basis(algebra, stages):
    adapted = []
    component_dims = []
    grown = Subspace.zero(algebra.field, algebra.dim)
    for p, stage in enumerate(stages):
        added = 0
        for row in stage.rows:
            if not grown.contains(row):
                adapted.append((p, row))
                grown = grown + Subspace(algebra.field, algebra.dim, [row])
                added += 1
        component_dims.append(added)
    return adapted, component_dims


# --- free polynomials, evaluation and recovery
def words_with_profile(profile):
    """Enumerate the distinct words via raw permutations."""
    letters = []
    for j, count in enumerate(profile, start=1):
        letters.extend([j] * count)
    return sorted(set(itertools.permutations(letters)))


def expand_power_oracle(coeffs, n):
    """Expand (sum_j c_j x_j)^n term by term over all index strings."""
    m, field = len(coeffs), coeffs[0].field
    terms = {js: math.prod((coeffs[j - 1] for j in js), start=field.one())
             for js in itertools.product(range(1, m + 1), repeat=n)}
    return FreePoly(field, m, {w: c for w, c in terms.items() if c})


def product_oracle(field, m, p, q):
    out = {}
    for w, a in p.terms():
        for v, b in q.terms():
            out[w + v] = out.get(w + v, field.zero()) + a * b
    return FreePoly(field, m, out)


def evaluate_oracle(p, elts):
    """Sum of coefficient times the word's product, term by term, in a unital algebra."""
    algebra = elts[0].algebra
    acc = algebra.zero_element()
    for w, c in p.terms():
        term = algebra.unit_element()
        for letter in w:
            term = term * elts[letter - 1]
        acc = acc + term * c
    return acc


def reference_sym_degree_check(filtration, elements, start_degree, profile, gr=None) -> HomogeneityReport:
    """graded.sym_degree_check with both symmetric values evaluated word by word."""
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
    if not any(profile):
        if not base.is_unital:
            return HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None, skipped=True)
    weight = sum(degv * i for degv, i in zip(degrees, profile))
    value = evaluate(sym_poly(profile, base.field), list(elements))
    in_stage = filtration.stage(weight).contains_raw(value._raw)
    graded = gr if gr is not None else associated_graded(filtration)
    classes = [graded._class_of(a._raw, degv) for a, degv in zip(elements, degrees)]
    gval = evaluate(sym_poly(profile, base.field), classes)
    if weight > t:
        expected = graded.algebra.zero_element()
    else:
        expected = graded._class_of(value._raw, weight) if in_stage else None
    graded_match = expected is not None and gval == expected
    return HomogeneityReport(ok=in_stage and bool(graded_match), weight=weight, in_stage=in_stage,
                             graded_match=graded_match)


def forward_vandermonde(xis, vs):
    """w_j = sum_i xi_j^i v_i, straight from the definition."""
    return [dense_sum(xi.field, len(vs[0]), ((xi**i, v) for i, v in enumerate(vs))) for xi in xis]


def forward_grid(m, n, coeff_family, grid):
    """The multivariate statement: the full profile sum at each grid point."""
    width = len(next(iter(coeff_family.values())))
    return {pt: dense_sum(pt[0].field, width, ((math.prod(alpha**e for alpha, e in zip(pt, mu)), w)
                                                for mu, w in coeff_family.items()))
            for pt in grid}


# --- the Rees power check
def power_membership_reference(a, n):
    """The power check without truncation: every power multiplied out in full."""
    exponent = max(a.degree, 1) * (n - 1) + 1
    least, p = None, a
    for k in range(1, exponent + 1):
        if least is None and p.in_x_ideal():
            least = k
        if k < exponent:
            p = p * a
    ok = p.in_x_ideal()
    witness = None
    if not ok:
        bad = next(e for e, c in enumerate(p.coeffs) if not a.filtration.stage(e - 1).contains(c.coords))
        witness = {"power": exponent, "x_degree": bad}
    return PowerMembership(ok=ok, exponent=exponent, least_exponent=least, witness=witness)


# --- the Rees integrality search
def reference_integral_witness(a, n_max, deg_max=None):
    """integral_witness as it was before the specialisation skip: one system for every n from 1.

    The search under test differs only in the n it skips, so this keeps
    its systems and their solve, solve_raw, as they are.
    """
    base = a.filtration.algebra
    f = base.field
    m_top = max(a.degree, 0)
    powers = [(base.unit_element(),) if base.is_unital else ()]
    cur = ()
    for n in range(1, n_max + 1):
        cur = a.coeffs if n == 1 else rees._ax_mul(cur, a.coeffs, base)
        powers.append(cur)
        cap = deg_max if deg_max is not None else m_top * n
        lo = 0 if base.is_unital else 1
        unknowns = [(i, j) for i in range(lo, n) for j in range(cap + 1)]
        rows = {}
        for col, (pw, j) in enumerate([(powers[i], j) for i, j in unknowns] + [(powers[n], 0)]):
            for shift, coeff in enumerate(pw):
                for c, x in coeff._raw.items():
                    rows.setdefault((j + shift, c), {})[col] = x
        sol = linalg.solve_raw(f, len(unknowns), (rows[ec] for ec in sorted(rows)))
        if sol is not None:
            x = [0] * (cap + 1) * lo + [sol.get(col, 0) for col in range(len(unknowns))]
            return rees.IntegralWitness(
                n, [rees.ScalarPoly(f, x[i * (cap + 1):(i + 1) * (cap + 1)]) for i in range(n)])
    return None


# --- the kernel under test, on dense input
def combine(field, ambient, terms):
    """linalg.combine on dense vectors: (coefficient, vector) pairs of field elements.

    Each coefficient and entry is read through the field check, and a
    vector of the wrong length raises ValueError.  The sparse raw row the
    kernel returns comes back unwrapped, so its raw values are read as made.
    """
    rows = []
    for c, v in terms:
        if len(v) != ambient:
            raise ValueError("vector length != ambient dimension")
        rows.append((raw_value(field, c), read_sparse(field, v)))
    return linalg.combine(field, rows)
