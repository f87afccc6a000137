"""span-dim: the dimension of the degree-n symmetric span against its formula."""

from __future__ import annotations

from ..errors import InputError
from . import CheckFailure, field_of


def run(args):
    from ..freealg import sym_span, sym_span_dim_formula, sym_span_upto, sym_span_upto_dim_formula

    field = field_of(args)
    n, m = args.n, args.m
    if n is None or m is None:
        raise InputError("span-dim needs --n and --m")
    if n < 0 or m < 1:
        raise InputError("need n >= 0 and m >= 1")
    space = sym_span(n, m, field)
    expected = sym_span_dim_formula(n, m)
    cumulative = sym_span_upto(n, m, field, include_degree_zero=args.include_zero)
    cum_expected = sym_span_upto_dim_formula(n, m)
    if not args.include_zero:
        cum_expected -= 1
    results = {
        "dim": space.dim,
        "dim_formula": expected,
        "cumulative_dim": cumulative.dim,
        "cumulative_formula": cum_expected,
        "includes_degree_zero": bool(args.include_zero),
    }
    params = {"n": n, "m": m, "include_zero": bool(args.include_zero)}
    if space.dim != expected or cumulative.dim != cum_expected:
        raise CheckFailure(results)
    return "pass", params, results
