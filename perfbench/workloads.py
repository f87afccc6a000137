"""The benchmark's workloads: request lists and the seeded inputs they use.

A request is one `ordsym` CLI argument list, run once over Q and once with
`--field GF:101`.  `expect` holds result keys whose value is known in
closed form (or from the source builtin of a dense-basis input).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

WORKLOADS = ("filtered-build", "span-certify", "exact-solve", "dense-basis")

# Builtins behind the dense-basis inputs, all of dim <= 8.
DENSE_SOURCES = (
    ("upper-triangular", 3),
    ("exterior-algebra", 3),
    ("truncated-polynomial", 6),
    ("strictly-upper-triangular", 4),
)


def builtin_component_dims(name: str, n: int) -> list[int]:
    """Graded component dimensions of a builtin, in closed form."""
    if name == "exterior-algebra":
        return [comb(n, k) for k in range(n + 1)]
    if name == "upper-triangular":
        return [n - band for band in range(n)]
    if name == "strictly-upper-triangular":
        return [0] + [n - band for band in range(1, n)]
    if name == "truncated-polynomial":
        return [1] * n
    raise ValueError(f"unknown builtin {name!r}")


def builtin_nil_index(name: str, n: int):
    """Nil index of the whole algebra, None when it is not nilpotent."""
    return n if name == "strictly-upper-triangular" else None


def _request(*argv, **expect) -> dict:
    return {"argv": [str(a) for a in argv], "expect": expect}


def _gr(name: str, n: int) -> dict:
    return _request("gr", "--builtin", f"{name}:{n}", component_dims=builtin_component_dims(name, n))


def requests(workload: str, seed: int, input_dir: Path) -> list[dict]:
    """The request list of a workload; dense-basis writes its inputs to input_dir."""
    if workload == "filtered-build":
        # iso-check on exterior-algebra:4 is left out to keep three passes
        # within a run; upper-triangular:4 still exercises rees.iso_check.
        return [
            _gr("exterior-algebra", 4),
            _gr("upper-triangular", 5),
            _gr("strictly-upper-triangular", 5),
            _gr("truncated-polynomial", 8),
            _request("iso-check", "--builtin", "upper-triangular:4", "--maxdeg", 3),
            _request("check-filtration", "--builtin", "upper-triangular:5"),
        ]
    if workload == "span-certify":
        # verify-my1 on truncated-polynomial:7 is left out: it alone took 60%
        # of a pass, and three passes must fit within a run.
        return [
            _request("nil-index", "--builtin", "strictly-upper-triangular:5",
                     index=builtin_nil_index("strictly-upper-triangular", 5)),
            _request("verify-my1", "--builtin", "truncated-polynomial:6", "--seed", seed),
            _request("verify-my1", "--builtin", "upper-triangular:4", "--seed", seed),
            _request("alg-bound", "--builtin", "upper-triangular:4", "--seed", seed),
            _request("alg-bound", "--builtin", "strictly-upper-triangular:4", "--seed", seed),
        ]
    if workload == "exact-solve":
        # --nmax stays >= n, the Cayley-Hamilton bound, so a witness exists.
        # strictly-upper-triangular:5 stands in for truncated-polynomial:5,
        # whose solve alone took 70% of a pass, as the largest system.
        rng = random.Random(seed)
        out = [
            _request("rees-integrality", "--builtin", f"{name}:{n}", "--nmax", n,
                     "--coeffs", json.dumps(rees_coeffs(name, n, rng)))
            for name, n in (
                ("truncated-polynomial", 4),
                ("strictly-upper-triangular", 5),
                ("upper-triangular", 3),
                ("strictly-upper-triangular", 4),
            )
        ]
        out += [
            _request("span-dim", "--n", n, "--m", m, dim=comb(n + m - 1, m - 1))
            for n, m in ((6, 3), (4, 4), (8, 2))
        ]
        out.append(_request("sym-poly", "--md", "4,3,3"))
        return out
    if workload == "dense-basis":
        paths = write_dense_inputs(seed, input_dir)
        ut, ext, tp, sut = (str(paths[src]) for src in DENSE_SOURCES)
        return [
            _request("gr", "--input", ut, component_dims=builtin_component_dims("upper-triangular", 3)),
            _request("gr", "--input", ext, component_dims=builtin_component_dims("exterior-algebra", 3)),
            _request("verify-my1", "--input", tp, "--seed", seed),
            _request("verify-my1", "--input", ut, "--seed", seed),
            _request("iso-check", "--input", ext, "--maxdeg", 3),
            _request("nil-index", "--input", sut, index=builtin_nil_index("strictly-upper-triangular", 4)),
            _request("rees-integrality", "--input", ut, "--nmax", 3, "--seed", seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def rees_coeffs(name: str, n: int, rng: random.Random) -> list[list[int]]:
    """A seeded Rees element sum_k a_k x^k of a builtin, with a_0 = 0.

    a_k fills stage k (a coordinate prefix in every builtin) with values
    from {-2, -1, 1, 2}.  The CLI's own seeded element also draws zeros, so
    the sparsity of its integrality system changes with the seed; leaving
    no coordinate zero keeps it fixed while the values still vary.
    """
    stage_dims = [sum(builtin_component_dims(name, n)[: k + 1]) for k in range(n)]
    dim = stage_dims[-1]
    coeffs = [[0] * dim]
    for k in range(1, n):
        coeffs.append([rng.choice((-2, -1, 1, 2)) if i < stage_dims[k] else 0 for i in range(dim)])
    return coeffs


# --- dense-basis inputs -------------------------------------------------------


def unimodular(dim: int, rng: random.Random) -> list[list[int]]:
    """A seeded integer matrix of determinant 1: (I + s E_{0,dim-1}) * L.

    L is lower bidiagonal with seeded signs on its subdiagonal, and the
    corner entry s mixes the last basis vector into the first, so stage
    vectors stop being coordinate prefixes.  The shape is fixed and only
    the signs vary, which keeps the share of nonzero structure constants
    (0.37-0.70 over the four sources) and their size (|c| <= 5) steady
    across seeds.
    """
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i - j == 1 else 0) for j in range(dim)] for i in range(dim)]
    corner = rng.choice((-1, 1))
    lower[0] = [a + corner * b for a, b in zip(lower[0], lower[dim - 1])]
    return lower


def integer_inverse(u: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (Gauss-Jordan over Fractions)."""
    n = len(u)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(u)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def _row_times(v: list[int], m: list[list[int]]) -> list[int]:
    return [sum(v[k] * m[k][j] for k in range(len(v))) for j in range(len(m[0]))]


def dense_description(source: dict, u: list[list[int]]) -> dict:
    """Rewrite an integer description in the basis b'_i = sum_j u[i][j] b_j.

    The product b'_i b'_j expands by bilinearity into old coordinates w and
    comes back as w * u^-1; stage vectors and the unit map the same way.
    Every constant stays an integer because u^-1 is integral, so a GF(p)
    reading of the file needs no denominator.
    """
    dim = source["dim"]
    inv = integer_inverse(u)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, prods in source["mul"]:
        for k, c in prods:
            table[i - 1][j - 1][k - 1] = int(c)
    mul = []
    for i in range(dim):
        for j in range(dim):
            w = [0] * dim
            for a in range(dim):
                if not u[i][a]:
                    continue
                for b in range(dim):
                    if not u[j][b]:
                        continue
                    f = u[i][a] * u[j][b]
                    for k, c in enumerate(table[a][b]):
                        if c:
                            w[k] += f * c
            coords = _row_times(w, inv)
            entries = [[k + 1, c] for k, c in enumerate(coords) if c]
            if entries:
                mul.append([i + 1, j + 1, entries])
    doc = {
        "field": {"kind": "Q"},
        "dim": dim,
        "basis": [f"b{i + 1}" for i in range(dim)],
        "mul": mul,
        "filtration": [[_row_times([int(c) for c in v], inv) for v in stage] for stage in source["filtration"]],
    }
    if source.get("unit") is not None:
        doc["unit"] = _row_times([int(c) for c in source["unit"]], inv)
    return doc


def source_description(name: str, n: int) -> dict:
    """The builtin's description, as the library itself serializes it."""
    from ordsym.catalog import builtin_example
    from ordsym.io import dump_description

    algebra, filtration = builtin_example(name, n)
    return dump_description(algebra, filtration)


def write_dense_inputs(seed: int, input_dir: Path) -> dict[tuple[str, int], Path]:
    """Write one seeded dense-basis description per DENSE_SOURCES entry."""
    rng = random.Random(seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, n in DENSE_SOURCES:
        source = source_description(name, n)
        doc = dense_description(source, unimodular(source["dim"], rng))
        path = input_dir / f"{name}-{n}.json"
        path.write_text(json.dumps(doc))
        paths[(name, n)] = path
    return paths


def nonzero_share(doc: dict) -> float:
    """Share of the dim^3 structure constants that are nonzero."""
    count = sum(len(prods) for _, _, prods in doc["mul"])
    return count / doc["dim"] ** 3
