"""alg-degree: the algebraic degree of each element."""

from __future__ import annotations

from ..errors import InputError
from . import elements, load


def run(args):
    from ..algebra import algebraic_degree

    algebra, _ = load(args)
    elts = elements(args, algebra)
    unital = bool(args.unital)
    if unital and not algebra.is_unital:
        raise InputError("--unital requires a unital algebra")
    degrees = [algebraic_degree(e, unital=unital) for e in elts]
    results = {"degrees": degrees, "unital_convention": unital}
    return "pass", {"elements": len(elts)}, results
