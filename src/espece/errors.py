"""Exception types shared by every part of the engine.

All engine errors derive from EngineError so callers (notably the CLI)
can catch domain failures without masking programming errors.
"""

from __future__ import annotations

from .records import Record


class EngineError(Exception):
    """Base class for all domain errors raised by the engine."""


class DegreeTooLarge(EngineError):
    """A symmetric group S_n was requested beyond the configured cap."""


class PointNotInAction(EngineError):
    """A point was passed that does not belong to the action's carrier."""


class DegreeMismatch(EngineError):
    """Two actions or sequences were combined at different degrees."""


class TooManyMaps(EngineError):
    """An enumeration of maps would exceed the caller's limit."""


class BudgetExceeded(EngineError):
    """Evaluation consulted a table degree beyond its available range."""


class EnumerationTooLarge(EngineError):
    """A structure enumeration would exceed the configured cap."""


class Diagnostic(Record):
    """One structured finding from expression validation."""

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.message}"


class InvalidExpr(EngineError):
    """An expression failed validation; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        text = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(text or "invalid expression")


class StructureNotOfExpr(EngineError):
    """A structure was acted on under an expression it does not inhabit."""


class ShapeMismatch(EngineError):
    """Automata or transformations with incompatible shapes were combined."""


class DivergentProduct(EngineError):
    """An infinite product could not be certified effectively finite."""


class NotSupported(EngineError):
    """A documented, deliberately unimplemented corner was requested."""


class HorizonExhausted(EngineError):
    """An operation needed sequence coefficients beyond the known horizon."""


class InvalidAlgebra(EngineError):
    """A map claimed to be an algebra structure fails its laws."""


class InnerNotPositive(EngineError):
    """Substitution was attempted with an inner species nonempty at degree 0."""


class ParseError(EngineError):
    """Surface-syntax error, with byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
