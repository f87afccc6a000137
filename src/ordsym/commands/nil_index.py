"""nil-index: the least degree with zero symmetric span, checked by brute force where it is small."""

from __future__ import annotations

from ..errors import InputError
from . import CheckFailure, elements, load


def run(args):
    from ..algebra import BRUTE_FORCE_BUDGET, brute_force_nil_index, uniform_nil_index

    if args.nmax is not None and args.nmax < 1:
        raise InputError("--nmax must be >= 1")
    algebra, _ = load(args)
    elts = elements(args, algebra)
    cutoff = algebra.dim + 1 if args.nmax is None else args.nmax
    index = uniform_nil_index(elts, cutoff=cutoff)
    two_sided = (not algebra.field.is_finite) or (
        index is not None and algebra.field.p >= index + 1
    )
    brute = None
    if algebra.field.is_finite and algebra.field.p ** len(elts) <= BRUTE_FORCE_BUDGET:
        brute = brute_force_nil_index(elts)
    results = {
        "index": index,
        "two_sided": two_sided,
        "brute_force": brute,
        "cutoff": cutoff,
    }
    if brute is not None and index is not None and brute > index:
        raise CheckFailure(results)
    if brute is not None and two_sided and brute != index:
        raise CheckFailure(results)
    return "pass", {"elements": len(elts)}, results
