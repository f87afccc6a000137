"""iso-check: compare gr(A) with the Rees quotient degree by degree."""

from __future__ import annotations

from ..errors import InputError
from . import CheckFailure, load


def run(args):
    from ..rees import check_graded_rees_isomorphism

    if args.maxdeg < 0:
        raise InputError("--maxdeg must be >= 0")
    _, filtration = load(args, need_filtration=True)
    report = check_graded_rees_isomorphism(filtration, max_degree=args.maxdeg)
    results = {
        "max_degree": report.max_degree,
        "checked_pairs": report.checked_pairs,
        "dimension_ledger": report.ledger,
    }
    if not report.ok:
        raise CheckFailure(results, report.failures)
    return "pass", {"maxdeg": args.maxdeg}, results
