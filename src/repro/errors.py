"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch a single base class at API boundaries.  Errors that originate from a
specific place in SYNL source code carry a :class:`SourcePos`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SourcePos:
    """A position in SYNL source text (1-based line and column)."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SynlError(ReproError):
    """Base class for language-level errors (lexing, parsing, resolution)."""

    def __init__(self, message: str, pos: SourcePos | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{pos}: {message}"
        super().__init__(message)


class LexError(SynlError):
    """Invalid token in SYNL source text."""


class ParseError(SynlError):
    """Syntactically invalid SYNL source text."""


class ResolveError(SynlError):
    """Scope or kind error (undeclared variable, bad break/continue, ...)."""


class InterpError(ReproError):
    """Runtime error during interpretation of a SYNL program."""


class AssertionViolation(InterpError):
    """An ``assert`` statement in a SYNL program evaluated to false."""

    def __init__(self, message: str, thread_id: int | None = None,
                 pos: SourcePos | None = None):
        self.thread_id = thread_id
        self.pos = pos
        super().__init__(message)
