"""alg-bound: the uniform algebraicity bound from the span chain."""

from __future__ import annotations

from . import elements, load


def run(args):
    from ..algebra import uniform_algebraic_bound

    algebra, _ = load(args)
    elts = elements(args, algebra)
    bound = uniform_algebraic_bound(elts, seed=args.seed)
    results = {
        "d": bound.d,
        "degree_bound": bound.bound,
        "chain_growth": bound.chain.growth,
        "cumulative_dim": bound.chain.cumulative.dim,
        "stabilized_at": bound.chain.stabilized_at,
        "sampled_degrees": bound.sampled_degrees,
    }
    return "pass", {"elements": len(elts), "seed": args.seed}, results
