"""sym-poly: expand one order-symmetric sum and count its terms."""

from __future__ import annotations

from ..fields import raw_to_json
from ..errors import InputError
from . import CheckFailure, field_of, plain_int


def _parse_md(text: str) -> tuple[int, ...]:
    md = tuple(map(plain_int, text.split(",")))
    if None in md:
        raise InputError(f"--md expects comma-separated integers, got {text!r}")
    return md


def run(args):
    from ..freealg import monomial_count, sym_poly

    field = field_of(args)
    md = _parse_md(args.md)
    poly = sym_poly(md, field)
    terms = [[list(w), raw_to_json(field, c)] for w, c in poly.raw_terms()]
    count = monomial_count(md)
    results = {
        "profile": list(md),
        "terms": terms,
        "term_count": len(terms),
        "multinomial": count,
    }
    if len(terms) != count:
        raise CheckFailure(results)
    return "pass", {"md": list(md)}, results
