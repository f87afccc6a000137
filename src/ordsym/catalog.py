"""Built-in filtered algebras for desk-scale checks.

Each builder returns a validated StructureAlgebra and the stage counts of
its filtration: every stage of every builtin filtration is spanned by a
prefix of the coordinate vectors.  builtin_example turns the counts into
a validated Filtration, and imports graded only then; the commands that
read a filtration (check-filtration, gr, verify-my1 and the Rees
commands) load builtins through it.  builtin_algebra stops at the
algebra: nil-index, alg-degree and alg-bound read no filtration, so on a
builtin they load catalog, structure, algebra, linalg and fields, and
neither graded nor freealg.  A builder needs only structure, the algebra
core.

- upper-triangular n: all upper-triangular n x n matrix units, filtered by
  band width (diagonal first); unital.
- strictly-upper-triangular n: the nilpotent part only, F_0 = 0, stage i
  holding bands 1..i; no unit.
- truncated-polynomial n: k[t]/(t^n) with the degree filtration; unital
  and commutative.
- exterior-algebra g: 2^g-dimensional, basis indexed by subsets of the
  generators, filtered by word length; unital, signs from transposition
  counts.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from .fields import QQ, Field
from .structure import StructureAlgebra

if TYPE_CHECKING:
    from .graded import Filtration

__all__ = ["builtin_algebra", "builtin_example", "builtin_names", "matrix_unit_algebra"]

Built = tuple[StructureAlgebra, list[int]]


def _prefix_filtration(algebra: StructureAlgebra, counts: list[int]) -> Filtration:
    """The filtration whose stage i is spanned by the first counts[i] coordinate vectors."""
    from .graded import Filtration
    from .linalg import Subspace

    field, dim = algebra.field, algebra.dim
    return Filtration(algebra, [Subspace.from_raw(field, dim, ({k: 1} for k in range(c))) for c in counts])


def matrix_unit_algebra(
    field: Field, positions: list[tuple[int, int]], unital: bool
) -> StructureAlgebra:
    """Algebra spanned by matrix units E_ij at the given (row, col) positions.

    Positions must be product-closed: E_ab * E_cd = E_ad when b = c, and
    the target position must again be in the list.
    """
    index = {pos: k for k, pos in enumerate(positions)}
    mul: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b != c:
                continue
            k = index.get((a, d))
            if k is None:
                raise ValueError(f"product E{a}{b}*E{c}{d} escapes the span")
            mul[(i, j)] = {k: 1}
    names = [f"E{a}{b}" for a, b in positions]
    unit = None
    if unital:
        unit = [0] * len(positions)
        for (a, b), k in index.items():
            if a == b:
                unit[k] = 1
    return StructureAlgebra(field, names, mul, unit=unit)


def _triangular(n: int, field: Field, strict: bool) -> Built:
    """Matrix units on the bands from `strict` up, band by band; stage i holds bands up to i."""
    if n < 1 + strict:
        raise ValueError(
            "strictly upper-triangular algebra needs size >= 2" if strict else "matrix size must be >= 1"
        )
    positions = [(i, i + band) for band in range(strict, n) for i in range(1, n - band + 1)]
    algebra = matrix_unit_algebra(field, positions, unital=not strict)
    return algebra, [sum(n - band for band in range(strict, i + 1)) for i in range(n)]


def _truncated_polynomial(n: int, field: Field) -> Built:
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    names = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    mul = {
        (i, j): {i + j: 1}
        for i in range(n)
        for j in range(n)
        if i + j < n
    }
    unit = [1] + [0] * (n - 1)
    algebra = StructureAlgebra(field, names, mul, unit=unit)
    return algebra, list(range(1, n + 1))


def _exterior_algebra(g: int, field: Field) -> Built:
    if g < 1:
        raise ValueError("need at least one generator")
    subsets = [s for k in range(g + 1) for s in combinations(range(1, g + 1), k)]
    index = {s: i for i, s in enumerate(subsets)}
    mul: dict[tuple[int, int], dict[int, int]] = {}
    for s, i in index.items():
        for t, j in index.items():
            if set(s) & set(t):
                continue
            sign = 1
            for a in s:
                for b in t:
                    if a > b:
                        sign = -sign
            merged = tuple(sorted(s + t))
            mul[(i, j)] = {index[merged]: sign}
    names = ["1"] + ["e" + "".join(map(str, s)) for s in subsets[1:]]
    unit = [1] + [0] * (len(subsets) - 1)
    algebra = StructureAlgebra(field, names, mul, unit=unit)
    # subsets run by size, so the words of length <= size are a prefix
    return algebra, [sum(len(s) <= size for s in subsets) for size in range(g + 1)]


_BUILDERS: dict[str, Callable[[int, Field], Built]] = {
    "upper-triangular": partial(_triangular, strict=False),
    "strictly-upper-triangular": partial(_triangular, strict=True),
    "truncated-polynomial": _truncated_polynomial,
    "exterior-algebra": _exterior_algebra,
}


def builtin_names() -> list[str]:
    return sorted(_BUILDERS)


def _build(name: str, param: int, field: Field) -> Built:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return builder(param, field)


def builtin_algebra(name: str, param: int, field: Field = QQ) -> StructureAlgebra:
    """The validated builtin algebra by name and size parameter, without its filtration."""
    return _build(name, param, field)[0]


def builtin_example(name: str, param: int, field: Field = QQ) -> tuple[StructureAlgebra, Filtration]:
    """A validated builtin algebra/filtration pair by name and size parameter."""
    algebra, counts = _build(name, param, field)
    return algebra, _prefix_filtration(algebra, counts)
