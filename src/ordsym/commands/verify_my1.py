"""verify-my1: the filtered-to-graded nilpotence bound check."""

from __future__ import annotations

from ..errors import InputError
from . import CheckFailure, load


def run(args):
    from ..graded import verify_graded_nil_index

    if args.samples < 0:
        raise InputError("--samples must be >= 0")
    _, filtration = load(args, need_filtration=True)
    outcome = verify_graded_nil_index(
        filtration, p=args.p, q=args.q, d=args.d, samples=args.samples, seed=args.seed
    )
    params = {
        "p": outcome.p,
        "q": outcome.q,
        "d": outcome.d,
        "N": outcome.n_bound,
        "seed": args.seed,
        "samples": args.samples,
    }
    results = {
        "vacuous": outcome.vacuous,
        "d": outcome.d,
        "d_source": outcome.d_source,
        "N": outcome.n_bound,
        "actual_index": outcome.observed_index,
        "tested_classes": outcome.tested_classes,
        "tested_samples": outcome.tested_samples,
    }
    if not outcome.ok:
        raise CheckFailure(results, outcome.failures)
    return "pass", params, results
