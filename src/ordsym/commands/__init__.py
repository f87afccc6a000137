"""The checks of the command line: one module per command, each with run(args).

run returns (status, params, results) or raises CheckFailure, and
cli.main writes the report.  main imports the module of the command it
runs and no other, so a check compiles its own command's body and the
helpers below.  Each run imports what it needs inside its body, so a
command loads only the modules it runs (see cli); io is imported only
to read a description file, and json to read it or a vector flag.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional

from ..errors import InputError, InvalidFiltrationError
from ..fields import QQ, Field, field_make, read_vector

if TYPE_CHECKING:
    from ..graded import Filtration
    from ..structure import StructureAlgebra, ValidationReport


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


def plain_int(text: str) -> Optional[int]:
    """text as an int when it is ASCII digits only (no sign, space or _) that int() converts, else None."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def field_of(args) -> Field:
    """The --field override, or Q."""
    return QQ if args.field is None else field_make(args.field)


def load(args, need_filtration: bool = False) -> tuple[StructureAlgebra, Optional[Filtration]]:
    """The validated (algebra, filtration) of --builtin or --input.

    The only place CLI input is validated: builtins are validated when they
    are built, a description file's algebra here, and its chain of stages
    here too, as a Filtration, when the command needs one.  Otherwise no
    filtration is built and graded stays unloaded.  A broken law raises
    CheckFailure.
    """
    if args.builtin is not None and args.input is not None:
        raise InputError("give --input FILE or --builtin NAME:PARAM, not both")
    field = field_of(args)
    if args.builtin is not None:
        name, sep, param = args.builtin.partition(":")
        if not sep:
            raise InputError(f"--builtin expects NAME:PARAM, got {args.builtin!r}")
        size = plain_int(param)
        if size is None:
            raise InputError(f"builtin parameter must be an integer, got {param!r}")
        from .. import catalog

        if need_filtration:
            return catalog.builtin_example(name, size, field)
        return catalog.builtin_algebra(name, size, field), None
    if args.input is not None:
        from ..io import load_path

        algebra, chain = load_path(args.input, field_override=None if args.field is None else field)
        report = algebra.validate()
        if not report.ok:
            raise CheckFailure({"algebra_valid": False, "detail": report.describe()})
        if not need_filtration:
            return algebra, None
        if chain is None:
            raise InputError("this command needs a filtration in the description")
        from ..graded import Filtration

        try:
            return algebra, Filtration(algebra, chain.stages)
        except InvalidFiltrationError as e:
            raise FiltrationFailure([s.dim for s in chain.stages], e.report) from None
    raise InputError("need --input FILE or --builtin NAME:PARAM")


def vectors(flag: str, text: str, algebra: StructureAlgebra, expects: str, nonempty: bool = False) -> list:
    """The raw coordinate vectors of a JSON list flag, each read by fields.read_vector."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{flag}: {e.msg}") from None
    except ValueError:  # an integer longer than int() converts
        raise InputError(f"{flag}: a JSON integer has more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, list) or (nonempty and not data):
        raise InputError(f"{flag} expects {expects}")
    return [read_vector(algebra.field, algebra.dim, vec, f"{flag}[{i}]") for i, vec in enumerate(data)]


def elements(args, algebra: StructureAlgebra):
    """The --elements vectors as elements, or the basis."""
    if args.elements is None:
        return algebra.basis_elements()
    vecs = vectors("--elements", args.elements, algebra, "a nonempty JSON list of vectors", nonempty=True)
    return [algebra.element(vec) for vec in vecs]
