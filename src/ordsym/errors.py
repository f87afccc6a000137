"""The error classes of the command line, kept apart from the modules that raise them.

So a command tells a failed check from malformed input without loading
those modules, and a check that reads no JSON loads no io.  io, algebra
and graded re-export them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .structure import ValidationReport


class InputError(ValueError):
    """Malformed description document; message carries a location."""


class InvalidAlgebraError(ValueError):
    """A structure tensor broke an algebra law; carries the ValidationReport."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report


class InvalidFiltrationError(ValueError):
    """A chain broke a filtration law; carries the ValidationReport."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report
