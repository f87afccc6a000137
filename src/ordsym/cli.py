"""Command-line harness: load or generate an algebra, run one check, emit JSON.

Exit codes: 0 = check passed, 1 = check failed, 2 = malformed input; main
alone tells 1 (CheckFailure or a broken law) from 2 (other ValueErrors).
Reports are single JSON documents with a fixed key order; identical
(input, seed) pairs reproduce byte-identical reports apart from the
trailing timing field.

A check starts as a fresh process, so each command imports only the
modules it runs, inside its cmd_* function.  Every command loads cli, io
and fields; then

- span-dim and sym-poly load freealg and linalg, and no algebra;
- the other commands load structure and linalg (and catalog on --builtin)
  and never freealg.  nil-index, alg-degree and alg-bound add algebra, the
  level walk; check-filtration and gr add graded, and the Rees commands
  graded and rees; verify-my1 adds graded, algebra and nilbound.

Each command is declared once, in _COMMANDS: its function, its help and
its flags, which both build_parser and main read; the parser adds only
the flags of the command it parses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Optional

from .fields import QQ, Field, Scalar, field_make, raw_to_json, scalar_to_json
from .io import InputError, InvalidAlgebraError, InvalidFiltrationError, load_path, read_vector

if TYPE_CHECKING:
    from .graded import Filtration
    from .rees import ReesElement
    from .structure import StructureAlgebra, ValidationReport


class CheckFailure(Exception):
    """A well-formed input failed a check; carries results for the report."""

    def __init__(self, results: dict, witnesses=None):
        super().__init__("check failed")
        self.results = results
        self.witnesses = witnesses


class FiltrationFailure(CheckFailure):
    """A description file's filtration broke a law; keeps its stage dims and report for check-filtration."""

    def __init__(self, stage_dims: list[int], report: ValidationReport):
        super().__init__({"filtration_valid": False, "detail": report.describe()})
        self.stage_dims = stage_dims
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


def _field(args) -> Field:
    """The --field override, or Q."""
    return field_make(args.field) if args.field else QQ


def _load(args, need_filtration: bool = False) -> tuple[StructureAlgebra, Optional[Filtration]]:
    """The validated (algebra, filtration) of --builtin or --input.

    The only place CLI input is validated: builtins are validated when they
    are built, a description file's algebra here, and its chain of stages
    here too, as a Filtration, when the command needs one.  Otherwise no
    filtration is built and graded stays unloaded.  A broken law raises
    CheckFailure.
    """
    field = _field(args)
    if args.builtin:
        name, sep, param = args.builtin.partition(":")
        if not sep:
            raise InputError(f"--builtin expects NAME:PARAM, got {args.builtin!r}")
        try:
            size = int(param)
        except ValueError:
            raise InputError(f"builtin parameter must be an integer, got {param!r}") from None
        from . import catalog

        if need_filtration:
            return catalog.builtin_example(name, size, field)
        return catalog.builtin_algebra(name, size, field), None
    if args.input:
        algebra, chain = load_path(args.input, field_override=field if args.field else None)
        report = algebra.validate()
        if not report.ok:
            raise CheckFailure({"algebra_valid": False, "detail": report.describe()})
        if not need_filtration:
            return algebra, None
        if chain is None:
            raise InputError("this command needs a filtration in the description")
        from .graded import Filtration

        try:
            return algebra, Filtration(algebra, chain.stages)
        except InvalidFiltrationError as e:
            raise FiltrationFailure([s.dim for s in chain.stages], e.report) from None
    raise InputError("need --input FILE or --builtin NAME:PARAM")


def _vectors(flag: str, text: str, algebra: StructureAlgebra, expects: str, nonempty: bool = False) -> list:
    """The raw coordinate vectors of a JSON list flag, each read by io.read_vector."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{flag}: {e.msg}") from None
    if not isinstance(data, list) or (nonempty and not data):
        raise InputError(f"{flag} expects {expects}")
    return [read_vector(algebra.field, algebra.dim, vec, f"{flag}[{i}]") for i, vec in enumerate(data)]


def _parse_elements(args, algebra: StructureAlgebra):
    if args.elements is None:
        return algebra.basis_elements()
    vectors = _vectors("--elements", args.elements, algebra, "a nonempty JSON list of vectors", nonempty=True)
    return [algebra.element(vec) for vec in vectors]


def cmd_sym_poly(args):
    from .freealg import monomial_count, sym_poly

    field = _field(args)
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


def cmd_span_dim(args):
    from .freealg import sym_span, sym_span_dim_formula, sym_span_upto, sym_span_upto_dim_formula

    field = _field(args)
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


def cmd_nil_index(args):
    from .algebra import BRUTE_FORCE_BUDGET, brute_force_nil_index, uniform_nil_index

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


def cmd_alg_degree(args):
    from .algebra import algebraic_degree

    algebra, _ = _load(args)
    elts = _parse_elements(args, algebra)
    unital = bool(args.unital)
    if unital and not algebra.is_unital:
        raise InputError("--unital requires a unital algebra")
    degrees = [algebraic_degree(e, unital=unital) for e in elts]
    results = {"degrees": degrees, "unital_convention": unital}
    return "pass", {"elements": len(elts)}, results


def cmd_alg_bound(args):
    from .algebra import uniform_algebraic_bound

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
    return "pass", {"elements": len(elts), "seed": args.seed}, results


def cmd_check_filtration(args):
    from .structure import ValidationReport

    try:
        _, filtration = _load(args, need_filtration=True)
        freport = ValidationReport(True)
        stage_dims = filtration.dims()
    except FiltrationFailure as fail:
        stage_dims, freport = fail.stage_dims, fail.report
    results = {
        "algebra_valid": True,
        "algebra_detail": "ok",
        "filtration_valid": freport.ok,
        "filtration_detail": freport.describe(),
        "stage_dims": stage_dims,
    }
    if not freport.ok:
        raise CheckFailure(results, [_ser_failure(fail) for fail in freport.failures])
    return "pass", {}, results


def cmd_gr(args):
    from .graded import associated_graded

    _, filtration = _load(args, need_filtration=True)
    # associated_graded validates the graded algebra as it builds it
    graded = associated_graded(filtration)
    results = {
        "component_dims": graded.component_dims,
        "total_dim": graded.algebra.dim,
        "graded_valid": True,
        "slot_degrees": graded.slot_degrees(),
    }
    return "pass", {}, results


def cmd_verify_my1(args):
    from .graded import verify_graded_nil_index

    if args.samples < 0:
        raise InputError("--samples must be >= 0")
    _, filtration = _load(args, need_filtration=True)
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


def _default_rees_element(filtration: Filtration, seed: int) -> ReesElement:
    """Seeded element of the Rees algebra with zero constant coefficient."""
    import random

    from .linalg import combine
    from .rees import ReesElement
    from .structure import AlgElement

    rng = random.Random(seed)
    base = filtration.algebra
    coeffs = [base.zero_element()]
    for n in range(1, filtration.top + 1):
        terms = ((rng.randint(-2, 2), row) for row in filtration.stage(n).raw_rows())
        coeffs.append(AlgElement.from_raw(base, combine(base.field, terms)))
    return ReesElement(filtration, coeffs)


def cmd_rees_integrality(args):
    from .rees import ReesElement, integral_power_in_x_ideal, integral_witness

    algebra, filtration = _load(args, need_filtration=True)
    if args.coeffs:
        vectors = _vectors("--coeffs", args.coeffs, algebra, "a JSON list of coefficient vectors")
        element = ReesElement.make(filtration, vectors)
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
        return "indeterminate", {"nmax": args.nmax, "seed": args.seed}, results
    if element.is_zero() or element.coeff(0).is_zero():
        membership = integral_power_in_x_ideal(element, witness.degree)
        results["power_exponent"] = membership.exponent
        results["power_in_x_ideal"] = membership.ok
        results["least_power_in_x_ideal"] = membership.least_exponent
        if not membership.ok:
            raise CheckFailure(results, [membership.witness])
    return "pass", {"nmax": args.nmax, "seed": args.seed}, results


def cmd_iso_check(args):
    from .rees import check_graded_rees_isomorphism

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
    return "pass", {"maxdeg": args.maxdeg}, results


class _BuiltinOption(argparse.Action):
    """--builtin NAME:PARAM, stored as given.

    Its help lists the catalog's builtin names, and is read only when help
    is printed, so that parsing a command line does not import the catalog.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)

    @property
    def help(self) -> str:
        from .catalog import builtin_names

        return f"builtin NAME:PARAM; names: {', '.join(builtin_names())}"

    @help.setter
    def help(self, value) -> None:
        """argparse.Action.__init__ stores help=None; the property above stands instead."""


def _flag(name: str, **options) -> tuple[str, dict]:
    """One option of a command: its name and its add_argument keywords."""
    return name, options


# Every command that reads an algebra ends its own flags with _SOURCE, and
# every command takes _COMMON after them.
_ELEMENTS = _flag("--elements", help="JSON list of coordinate vectors (default: basis)")
_SOURCE = (_flag("--input", help="algebra description file (JSON)"), _flag("--builtin", action=_BuiltinOption))
_COMMON = (
    _flag("--field", help="field override: Q or GF:p"),
    _flag("--seed", type=int, default=0, help="seed for sampled checks"),
    _flag("--out", help="write the JSON report to a file"),
)

# name -> (function, help, its own flags in help order)
_COMMANDS = {
    "sym-poly": (cmd_sym_poly, "expand one order-symmetric sum",
                 (_flag("--md", required=True, help="occurrence profile, e.g. 2,2"),)),
    "span-dim": (cmd_span_dim, "dimension of the degree-n symmetric span",
                 (_flag("--n", type=int), _flag("--m", type=int), _flag("--include-zero", action="store_true"))),
    "nil-index": (cmd_nil_index, "least degree with zero symmetric span",
                  (_ELEMENTS, _flag("--nmax", type=int, help="search cutoff (default dim+1)"), *_SOURCE)),
    "alg-degree": (cmd_alg_degree, "per-element algebraic degree",
                   (_ELEMENTS, _flag("--unital", action="store_true", help="allow the identity in spans"), *_SOURCE)),
    "alg-bound": (cmd_alg_bound, "uniform algebraicity bound from the span chain", (_ELEMENTS, *_SOURCE)),
    "check-filtration": (cmd_check_filtration, "validate algebra and filtration", _SOURCE),
    "gr": (cmd_gr, "build the associated graded algebra", _SOURCE),
    "verify-my1": (cmd_verify_my1, "filtered-to-graded nilpotence bound check", (
        _flag("--p", type=int, help="lowest graded degree (default 1)"),
        _flag("--q", type=int, help="highest graded degree (default top)"),
        _flag("--d", type=int, help="pin the algebraic-degree bound instead of sampling"),
        _flag("--samples", type=int, default=32),
        *_SOURCE,
    )),
    "rees-integrality": (cmd_rees_integrality, "find an integrality witness and test its power", (
        _flag("--coeffs", help="JSON list of coefficient vectors by x-degree"),
        _flag("--nmax", type=int, default=4),
        _flag("--degmax", type=int),
        *_SOURCE,
    )),
    "iso-check": (cmd_iso_check, "compare gr(A) with the Rees quotient",
                  (_flag("--maxdeg", type=int, default=4), *_SOURCE)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every command with its help, but the flags of `command` only (of all when it names none)."""
    parser = argparse.ArgumentParser(
        prog="ordsym",
        description="Exact checks for order-symmetric spans, nil/algebraic bounds, "
        "and filtered/graded/Rees constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in _COMMANDS
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if every or name == command:
            for flag, options in (*flags, *_COMMON):
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    start = time.perf_counter()
    params: dict = {}
    witnesses = None
    try:
        status, params, results = _COMMANDS[args.command][0](args)
    except CheckFailure as fail:
        status, results, witnesses = "fail", fail.results, fail.witnesses
    except (InvalidAlgebraError, InvalidFiltrationError) as e:
        status, results = "fail", {"detail": str(e)}
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
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"input error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
