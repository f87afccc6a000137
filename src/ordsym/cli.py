"""Command-line harness: load or generate an algebra, run one check, emit JSON.

Exit codes: 0 = check passed, 1 = check failed, 2 = malformed input; main
alone tells 1 (CheckFailure or a broken law) from 2 (other ValueErrors).
Reports are single JSON documents with a fixed key order; identical
(input, seed) pairs reproduce byte-identical reports apart from the
trailing timing field.

A check starts as a fresh process, so it compiles and imports only what
it runs.  Each command is declared once, in _COMMANDS: its help and its
flags.  main reads a plainly well-formed line (the command, then each of
its flags once, spelled in full, with a value that does not start with
"-") from that table itself, and hands every other line to the argparse
parser that build_parser makes from the same table, so help, usage
errors and their exit codes are argparse's own.  The command's body is
the run function of its own module in ordsym.commands, which main imports
alone.  The report is written by _dumps, which gives json.dumps(report,
indent=2) byte for byte; json is loaded only to read JSON (a description
file, --elements, --coeffs) or for a report value _dumps does not write.

Every command loads cli, errors, fields, the commands package and its
own module there, json only to read JSON (--input, --elements, --coeffs),
io only to read a description file (--input), and fractions only once a
non-whole rational is made or read; then

- span-dim and sym-poly load freealg and linalg, and no algebra;
- the other commands load structure and linalg (and catalog on --builtin)
  and never freealg.  nil-index, alg-degree and alg-bound add algebra, the
  level walk; check-filtration and gr add graded, and the Rees commands
  graded and rees; verify-my1 adds graded, algebra and nilbound.

No command loads evaluation, the evaluation-at-points route.

run is the process entry, of python -m ordsym and of the installed ordsym
script: main, then gc.freeze().  Everything alive then (the interpreter's
start-up heap, every loaded module, the check's own objects) moves to the
permanent generation, so the cyclic collections at interpreter shutdown
no longer traverse it; they would free nothing the operating system does
not reclaim at exit anyway.  run does not end the process itself, as
os._exit would: atexit handlers, stream flushing and the rest of the
interpreter's shutdown still run, so profilers and coverage keep their
output.  main itself does not freeze, so callers that run it in-process
(tests, perfbench's traced runner, library code) keep normal collection.
"""

from __future__ import annotations

import gc
import sys
import time
from importlib import import_module
from math import isfinite
from types import SimpleNamespace
from typing import Optional

from .commands import CheckFailure, plain_int
from .errors import InvalidAlgebraError, InvalidFiltrationError


def _flag(name: str, **options) -> tuple[str, dict]:
    """One option of a command: its name and its add_argument keywords."""
    return name, options


# Every command that reads an algebra ends its own flags with _SOURCE, and
# every command takes _COMMON after them.  --builtin has no help here:
# build_parser writes it from the catalog, which a check on a description
# file never imports.
_ELEMENTS = _flag("--elements", help="JSON list of coordinate vectors (default: basis)")
_SOURCE = (_flag("--input", help="algebra description file (JSON)"), _flag("--builtin"))
_COMMON = (
    _flag("--field", help="field override: Q or GF:p"),
    _flag("--seed", type=int, default=0, help="seed for sampled checks"),
    _flag("--out", help="write the JSON report to a file"),
)

# name -> (help, its own flags in help order); the command runs as
# ordsym.commands.<name with "_" for "-">.run
_COMMANDS = {
    "sym-poly": ("expand one order-symmetric sum", (_flag("--md", required=True, help="occurrence profile, e.g. 2,2"),)),
    "span-dim": ("dimension of the degree-n symmetric span",
                 (_flag("--n", type=int), _flag("--m", type=int), _flag("--include-zero", action="store_true"))),
    "nil-index": ("least degree with zero symmetric span",
                  (_ELEMENTS, _flag("--nmax", type=int, help="search cutoff (default dim+1)"), *_SOURCE)),
    "alg-degree": ("per-element algebraic degree",
                   (_ELEMENTS, _flag("--unital", action="store_true", help="allow the identity in spans"), *_SOURCE)),
    "alg-bound": ("uniform algebraicity bound from the span chain", (_ELEMENTS, *_SOURCE)),
    "check-filtration": ("validate algebra and filtration", _SOURCE),
    "gr": ("build the associated graded algebra", _SOURCE),
    "verify-my1": ("filtered-to-graded nilpotence bound check", (
        _flag("--p", type=int, help="lowest graded degree (default 1)"),
        _flag("--q", type=int, help="highest graded degree (default top)"),
        _flag("--d", type=int, help="pin the algebraic-degree bound instead of sampling"),
        _flag("--samples", type=int, default=32),
        *_SOURCE,
    )),
    "rees-integrality": ("find an integrality witness and test its power", (
        _flag("--coeffs", help="JSON list of coefficient vectors by x-degree"),
        _flag("--nmax", type=int, default=4),
        _flag("--degmax", type=int),
        *_SOURCE,
    )),
    "iso-check": ("compare gr(A) with the Rees quotient", (_flag("--maxdeg", type=int, default=4), *_SOURCE)),
}


def build_parser():
    """The argparse parser: every command with all its flags, and --builtin's help naming the builtins."""
    import argparse

    from .catalog import builtin_names

    builtin_help = {"help": f"builtin NAME:PARAM; names: {', '.join(builtin_names())}"}
    parser = argparse.ArgumentParser(
        prog="ordsym",
        description="Exact checks for order-symmetric spans, nil/algebraic bounds, "
        "and filtered/graded/Rees constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, *_COMMON):
            p.add_argument(flag, **(builtin_help if flag == "--builtin" else options))
    return parser


def _read_line(argv) -> Optional[SimpleNamespace]:
    """What build_parser().parse_args(argv) returns for a plainly well-formed line, or None.

    Plainly well-formed: a command, then flags of that command and _COMMON,
    each once and spelled in full; a store_true flag stands alone, and every
    other flag is followed by a value that does not start with "-" (ASCII
    digits for an int).  Every required flag is there.  Any other line is
    argparse's to read, or to reject.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = dict((*_COMMANDS[argv[0]][1], *_COMMON))
    given = {}
    words = iter(argv[1:])
    for flag in words:
        options = flags.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        if options.get("type") is int:
            value = plain_int(value)
            if value is None:
                return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    values = {
        flag[2:].replace("-", "_"): given[flag] if flag in given
        else options.get("default", False if options.get("action") == "store_true" else None)
        for flag, options in flags.items()
    }
    return SimpleNamespace(command=argv[0], **values)


def _encode(value, newline: str) -> Optional[str]:
    """json.dumps(value, indent=2) at the depth that newline indents to, or None.

    None for anything but what a report holds: a str of printable ASCII
    without '"' or backslash, an int, a finite float, True, False, None,
    and lists, tuples and dicts keyed by such strs, of these.
    """
    kind = type(value)
    if kind is str:
        plain = value.isascii() and value.isprintable() and '"' not in value and "\\" not in value
        return f'"{value}"' if plain else None
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return repr(value)
    if kind is float:
        return repr(value) if isfinite(value) else None
    inner = newline + "  "
    if kind is dict:
        items = []
        for key, item in value.items():
            key = _encode(key, inner) if type(key) is str else None
            item = _encode(item, inner)
            if key is None or item is None:
                return None
            items.append(f"{key}: {item}")
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if kind is list or kind is tuple:
        if all(type(item) is int for item in value):
            items = [repr(item) for item in value]
        else:
            items = [_encode(item, inner) for item in value]
            if None in items:
                return None
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return None


def _dumps(report: dict) -> str:
    """json.dumps(report, indent=2), importing json only for a value _encode does not write."""
    text = _encode(report, "\n")
    if text is None:
        import json

        text = json.dumps(report, indent=2)
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_line(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
            return 0 if code == 0 else 2
    start = time.perf_counter()
    params: dict = {}
    witnesses = None
    try:
        command = import_module(f".commands.{args.command.replace('-', '_')}", __package__)
        status, params, results = command.run(args)
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
    text = _dumps(report) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"input error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if status == "pass" else 1


def run(argv=None) -> int:
    """main(argv), then gc.freeze() so that shutdown collects none of what is left; the process entry."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
