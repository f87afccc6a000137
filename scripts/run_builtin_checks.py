#!/usr/bin/env python3
"""Sweep every builtin filtered algebra through the full check pipeline.

For each builtin: validate the algebra and filtration, build the associated
graded algebra, run the nilpotence-bound verification on the full positive
range, compare gr against the Rees quotient, and report nil indexes of the
nilpotent builtins.  Exits nonzero if anything fails.

Usage: python scripts/run_builtin_checks.py [--seed N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ordsym.algebra import uniform_nil_index
from ordsym.catalog import builtin_example
from ordsym.graded import associated_graded, verify_graded_nil_index
from ordsym.rees import check_graded_rees_isomorphism

CASES = [
    ("upper-triangular", 3),
    ("upper-triangular", 4),
    ("strictly-upper-triangular", 3),
    ("strictly-upper-triangular", 4),
    ("truncated-polynomial", 4),
    ("truncated-polynomial", 6),
    ("exterior-algebra", 2),
    ("exterior-algebra", 3),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failures = 0
    header = f"{'builtin':28} {'dim':>4} {'chain':>16} {'gr dims':>14} {'d':>3} {'N':>4} {'observed':>9} {'iso':>4} {'nil':>5}"
    print(header)
    print("-" * len(header))
    for name, param in CASES:
        t0 = time.perf_counter()
        algebra, filtration = builtin_example(name, param)
        gr = associated_graded(filtration)
        out = verify_graded_nil_index(filtration, seed=args.seed, gr=gr)
        iso = check_graded_rees_isomorphism(filtration, max_degree=4, gr=gr)
        nil = uniform_nil_index(algebra.basis_elements())
        ok = out.ok and iso.ok
        failures += 0 if ok else 1
        print(
            f"{name + ':' + str(param):28} {algebra.dim:>4} "
            f"{str(filtration.dims()):>16} {str(gr.component_dims):>14} "
            f"{out.d if out.d is not None else '-':>3} "
            f"{out.n_bound if out.n_bound is not None else '-':>4} "
            f"{out.observed_index if out.observed_index is not None else '-':>9} "
            f"{'ok' if iso.ok else 'FAIL':>4} {str(nil):>5}"
            f"   [{time.perf_counter() - t0:.2f}s]"
        )
    if failures:
        print(f"\n{failures} case(s) FAILED")
        return 1
    print("\nall cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
