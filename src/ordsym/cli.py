"""Command-line harness: load or generate an algebra, run one check, emit JSON.

Exit codes: 0 = check passed, 1 = check failed, 2 = malformed input.
Reports are single JSON documents with a fixed key order; identical
(input, seed) pairs reproduce byte-identical reports apart from the
trailing timing field.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .algebra import (
    InvalidAlgebraError,
    StructureAlgebra,
    ValidationReport,
    algebraic_degree,
    brute_force_nil_index,
    uniform_algebraic_bound,
    uniform_nil_index,
)
from .catalog import builtin_example, builtin_names
from .fields import QQ, Scalar, field_make, scalar_from_json, scalar_to_json
from .freealg import (
    monomial_count,
    sym_poly,
    sym_span,
    sym_span_dim_formula,
    sym_span_upto,
    sym_span_upto_dim_formula,
)
from .graded import (
    Filtration,
    InvalidFiltrationError,
    associated_graded,
    validate_filtration,
    verify_graded_nil_index,
)
from .io import InputError, load_path
from .rees import ReesElement, check_graded_rees_isomorphism, integral_power_in_x_ideal, integral_witness


class CheckFailure(Exception):
    """A well-formed input failed a check; carries results for the report."""

    def __init__(self, results: dict, witnesses=None):
        super().__init__("check failed")
        self.results = results
        self.witnesses = witnesses


class FiltrationFailure(CheckFailure):
    """A description file's filtration broke a law; keeps it for check-filtration."""

    def __init__(self, filtration: Filtration, report: ValidationReport):
        super().__init__({"filtration_valid": False, "detail": report.describe()})
        self.filtration = filtration
        self.report = report


def _ser_failure(fail: dict) -> dict:
    """A validation failure as JSON: Scalar tuples become vectors, index tuples lists."""
    return {
        k: [scalar_to_json(c) if isinstance(c, Scalar) else c for c in v] if isinstance(v, tuple) else v
        for k, v in fail.items()
    }


def _parse_md(text: str) -> tuple[int, ...]:
    try:
        md = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--md expects comma-separated integers, got {text!r}") from None
    if not md or any(i < 0 for i in md):
        raise InputError("--md entries must be nonnegative")
    return md


def _load(args, need_filtration: bool = False) -> tuple[StructureAlgebra, Optional[Filtration]]:
    """The validated (algebra, filtration) of --builtin or --input.

    The only place CLI input is validated: builtins are validated when they
    are built, a description file's algebra here, and its filtration here
    too when the command needs one (it comes back as None otherwise).  A
    broken law raises CheckFailure.
    """
    override = field_make(args.field) if getattr(args, "field", None) else None
    if getattr(args, "builtin", None):
        name, sep, param = args.builtin.partition(":")
        if not sep:
            raise InputError(f"--builtin expects NAME:PARAM, got {args.builtin!r}")
        try:
            size = int(param)
        except ValueError:
            raise InputError(f"builtin parameter must be an integer, got {param!r}") from None
        try:
            algebra, filtration = builtin_example(name, size, override or QQ)
        except ValueError as e:
            raise InputError(str(e)) from None
        return algebra, filtration
    if getattr(args, "input", None):
        algebra, filtration = load_path(args.input, field_override=override)
        report = algebra.validate()
        if not report.ok:
            raise CheckFailure({"algebra_valid": False, "detail": report.describe()})
        if not need_filtration:
            return algebra, None
        if filtration is None:
            raise InputError("this command needs a filtration in the description")
        freport = validate_filtration(algebra, filtration.stages)
        if not freport.ok:
            raise FiltrationFailure(filtration, freport)
        return algebra, filtration
    raise InputError("need --input FILE or --builtin NAME:PARAM")


def _parse_elements(args, algebra: StructureAlgebra):
    raw = getattr(args, "elements", None)
    if raw is None:
        return algebra.basis_elements()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"--elements: {e.msg}") from None
    if not isinstance(data, list) or not data:
        raise InputError("--elements expects a nonempty JSON list of vectors")
    out = []
    for i, vec in enumerate(data):
        if not isinstance(vec, list) or len(vec) != algebra.dim:
            raise InputError(f"--elements[{i}]: expected a vector of length {algebra.dim}")
        out.append(algebra.element([scalar_from_json(algebra.field, c) for c in vec]))
    return out


def cmd_sym_poly(args):
    field = field_make(args.field) if args.field else QQ
    md = _parse_md(args.md)
    poly = sym_poly(md, field)
    terms = [[list(w), scalar_to_json(c)] for w, c in poly.terms()]
    count = monomial_count(md)
    results = {
        "profile": list(md),
        "terms": terms,
        "term_count": len(terms),
        "multinomial": count,
    }
    if len(terms) != count:
        raise CheckFailure(results)
    return "pass", {"md": list(md)}, results, None


def cmd_span_dim(args):
    field = field_make(args.field) if args.field else QQ
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
    return "pass", params, results, None


def cmd_nil_index(args):
    if args.nmax is not None and args.nmax < 1:
        raise InputError("--nmax must be >= 1")
    algebra, _ = _load(args)
    elts = _parse_elements(args, algebra)
    cutoff = algebra.dim + 1 if args.nmax is None else args.nmax
    index = uniform_nil_index(elts, cutoff=cutoff)
    two_sided = (not algebra.field.is_finite) or (
        index is not None and algebra.field.p >= index + 1
    )
    brute = None
    if algebra.field.is_finite and algebra.field.p ** len(elts) <= 200_000:
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
    return "pass", {"elements": len(elts)}, results, None


def cmd_alg_degree(args):
    algebra, _ = _load(args)
    elts = _parse_elements(args, algebra)
    unital = bool(args.unital)
    if unital and not algebra.is_unital:
        raise InputError("--unital requires a unital algebra")
    degrees = [algebraic_degree(e, unital=unital) for e in elts]
    results = {"degrees": degrees, "unital_convention": unital}
    return "pass", {"elements": len(elts)}, results, None


def cmd_alg_bound(args):
    algebra, _ = _load(args)
    elts = _parse_elements(args, algebra)
    bound = uniform_algebraic_bound(elts, seed=args.seed)
    results = {
        "d": bound.d,
        "degree_bound": bound.bound,
        "chain_growth": bound.chain.growth,
        "cumulative_dim": bound.chain.cumulative.dim,
        "stabilized_at": bound.chain.stabilized_at,
        "sampled_degrees": bound.sampled_degrees,
    }
    return "pass", {"elements": len(elts), "seed": args.seed}, results, None


def cmd_check_filtration(args):
    try:
        _, filtration = _load(args, need_filtration=True)
        freport = ValidationReport(True)
    except FiltrationFailure as fail:
        filtration, freport = fail.filtration, fail.report
    results = {
        "algebra_valid": True,
        "algebra_detail": "ok",
        "filtration_valid": freport.ok,
        "filtration_detail": freport.describe(),
        "stage_dims": filtration.dims(),
    }
    if not freport.ok:
        raise CheckFailure(results, [_ser_failure(fail) for fail in freport.failures])
    return "pass", {}, results, None


def cmd_gr(args):
    _, filtration = _load(args, need_filtration=True)
    # associated_graded validates the graded algebra as it builds it
    graded = associated_graded(filtration)
    results = {
        "component_dims": graded.component_dims,
        "total_dim": graded.algebra.dim,
        "graded_valid": True,
        "slot_degrees": graded.slot_degrees(),
    }
    return "pass", {}, results, None


def cmd_verify_my1(args):
    if args.samples < 0:
        raise InputError("--samples must be >= 0")
    _, filtration = _load(args, need_filtration=True)
    try:
        outcome = verify_graded_nil_index(
            filtration, p=args.p, q=args.q, d=args.d, samples=args.samples, seed=args.seed
        )
    except ValueError as e:
        raise InputError(str(e)) from None
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
    return "pass", params, results, None


def _default_rees_element(filtration: Filtration, seed: int) -> ReesElement:
    """Seeded element of the Rees algebra with zero constant coefficient."""
    rng = random.Random(seed)
    base = filtration.algebra
    coeffs = [base.zero_element()]
    for n in range(1, filtration.top + 1):
        v = base.zero_element()
        for row in filtration.stage(n).rows:
            v = v + rng.randint(-2, 2) * base.element(row)
        coeffs.append(v)
    return ReesElement(filtration, coeffs)


def cmd_rees_integrality(args):
    algebra, filtration = _load(args, need_filtration=True)
    if args.coeffs:
        try:
            data = json.loads(args.coeffs)
        except json.JSONDecodeError as e:
            raise InputError(f"--coeffs: {e.msg}") from None
        if not isinstance(data, list):
            raise InputError("--coeffs expects a JSON list of coefficient vectors")
        vectors = []
        for i, vec in enumerate(data):
            if not isinstance(vec, list) or len(vec) != algebra.dim:
                raise InputError(f"--coeffs[{i}]: expected a vector of length {algebra.dim}")
            vectors.append([scalar_from_json(algebra.field, c) for c in vec])
        try:
            element = ReesElement.make(filtration, vectors)
        except ValueError as e:
            raise InputError(str(e)) from None
    else:
        element = _default_rees_element(filtration, args.seed)
    witness = integral_witness(element, n_max=args.nmax, deg_max=args.degmax)
    results = {
        "element_degree": element.degree,
        "n_max": args.nmax,
        "integral_degree": witness.degree if witness else None,
        "multipliers": [repr(q) for q in witness.multipliers] if witness else None,
    }
    if witness is None:
        return "indeterminate", {"nmax": args.nmax, "seed": args.seed}, results, None
    if element.is_zero() or element.coeff(0).is_zero():
        membership = integral_power_in_x_ideal(element, witness.degree)
        results["power_exponent"] = membership.exponent
        results["power_in_x_ideal"] = membership.ok
        results["least_power_in_x_ideal"] = membership.least_exponent
        if not membership.ok:
            raise CheckFailure(results, [membership.witness])
    return "pass", {"nmax": args.nmax, "seed": args.seed}, results, None


def cmd_iso_check(args):
    if args.maxdeg < 0:
        raise InputError("--maxdeg must be >= 0")
    _, filtration = _load(args, need_filtration=True)
    report = check_graded_rees_isomorphism(filtration, max_degree=args.maxdeg)
    results = {
        "max_degree": report.max_degree,
        "checked_pairs": report.checked_pairs,
        "dimension_ledger": report.ledger,
    }
    if not report.ok:
        raise CheckFailure(results, report.failures)
    return "pass", {"maxdeg": args.maxdeg}, results, None


_COMMANDS = {
    "sym-poly": cmd_sym_poly,
    "span-dim": cmd_span_dim,
    "nil-index": cmd_nil_index,
    "alg-degree": cmd_alg_degree,
    "alg-bound": cmd_alg_bound,
    "check-filtration": cmd_check_filtration,
    "gr": cmd_gr,
    "verify-my1": cmd_verify_my1,
    "rees-integrality": cmd_rees_integrality,
    "iso-check": cmd_iso_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsym",
        description="Exact checks for order-symmetric spans, nil/algebraic bounds, "
        "and filtered/graded/Rees constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, io=True):
        if io:
            p.add_argument("--input", help="algebra description file (JSON)")
            p.add_argument(
                "--builtin",
                help=f"builtin NAME:PARAM; names: {', '.join(builtin_names())}",
            )
        p.add_argument("--field", help="field override: Q or GF:p")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--out", help="write the JSON report to a file")

    p = sub.add_parser("sym-poly", help="expand one order-symmetric sum")
    p.add_argument("--md", required=True, help="occurrence profile, e.g. 2,2")
    common(p, io=False)

    p = sub.add_parser("span-dim", help="dimension of the degree-n symmetric span")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--include-zero", action="store_true")
    common(p, io=False)

    for name, help_text in [
        ("nil-index", "least degree with zero symmetric span"),
        ("alg-degree", "per-element algebraic degree"),
        ("alg-bound", "uniform algebraicity bound from the span chain"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--elements", help="JSON list of coordinate vectors (default: basis)")
        if name == "nil-index":
            p.add_argument("--nmax", type=int, help="search cutoff (default dim+1)")
        if name == "alg-degree":
            p.add_argument("--unital", action="store_true", help="allow the identity in spans")
        common(p)

    p = sub.add_parser("check-filtration", help="validate algebra and filtration")
    common(p)

    p = sub.add_parser("gr", help="build the associated graded algebra")
    common(p)

    p = sub.add_parser("verify-my1", help="filtered-to-graded nilpotence bound check")
    p.add_argument("--p", type=int, help="lowest graded degree (default 1)")
    p.add_argument("--q", type=int, help="highest graded degree (default top)")
    p.add_argument("--d", type=int, help="pin the algebraic-degree bound instead of sampling")
    p.add_argument("--samples", type=int, default=32)
    common(p)

    p = sub.add_parser("rees-integrality", help="find an integrality witness and test its power")
    p.add_argument("--coeffs", help="JSON list of coefficient vectors by x-degree")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--degmax", type=int)
    common(p)

    p = sub.add_parser("iso-check", help="compare gr(A) with the Rees quotient")
    p.add_argument("--maxdeg", type=int, default=4)
    common(p)
    return parser


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    start = time.perf_counter()
    status = "pass"
    witnesses = None
    params: dict = {}
    try:
        status, params, results, witnesses = _COMMANDS[args.command](args)
    except CheckFailure as fail:
        status, results, witnesses = "fail", fail.results, fail.witnesses
    except (InvalidAlgebraError, InvalidFiltrationError) as e:
        status, results = "fail", {"detail": str(e)}
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "status": status,
        "params": params,
        "results": results,
        "witnesses": witnesses,
        "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    _emit(report, args.out)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
