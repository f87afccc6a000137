#!/usr/bin/env python3
"""Probe the span-chain stopping rule over several fields.

The cumulative span of order-symmetric values grows degree by degree.  A
tempting stopping rule is "quit after the first degree that adds nothing".
This script hunts for counterexamples by comparing the plateau-stopped
chain against the chain run far past the algebra dimension, on random
element tuples in the builtin algebras over Q, GF(5), GF(3), and GF(2).

Over Q the plateau rule has never failed here.  Over GF(2) it does fail:
characteristic 2 kills the multinomial coefficients of mixed symmetric
sums, so a few degrees can vanish and then a later one reappears.  Run
this to reproduce; `uniform_algebraic_bound` works around it by checking
its collapse hypothesis literally up to the certified bound.

Usage: python scripts/plateau_probe.py [--trials N] [--seed N]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ordsym.algebra import sym_span_chain
from ordsym.catalog import builtin_example
from ordsym.fields import QQ, Field

FIELDS = [QQ, Field("GF", 5), Field("GF", 3), Field("GF", 2)]
CASES = [
    ("upper-triangular", 3),
    ("strictly-upper-triangular", 4),
    ("truncated-polynomial", 4),
    ("exterior-algebra", 3),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    total = bad = 0
    for field in FIELDS:
        field_bad = 0
        for name, param in CASES:
            algebra = builtin_example(name, param, field)[0]
            for m in (1, 2, 3):
                for _ in range(args.trials):
                    elts = [
                        algebra.element(
                            [rng.randint(-2, 2) for _ in range(algebra.dim)]
                        )
                        for _ in range(m)
                    ]
                    plateau = sym_span_chain(elts)
                    full = sym_span_chain(
                        elts, stop_at_plateau=False, max_degree=2 * algebra.dim + 4
                    )
                    total += 1
                    if plateau.cumulative != full.cumulative:
                        bad += 1
                        field_bad += 1
                        if field_bad <= 2:
                            print(
                                f"  plateau misses growth: {name}:{param} over {field}, "
                                f"growth {full.growth}"
                            )
        print(f"{field}: {field_bad} plateau failures")
    print(f"\n{total} tuples probed, {bad} plateau failures in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
