"""Exception types shared across the package.

Validation errors signal semantically bad input (bad frameworks, bad
recommendations, bad contexts).  Parse and schema errors signal input that
could not even be read.  The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations

_SHOWN = 80


def _cut(text: str) -> str:
    """``text`` cut to its first 80 characters plus ``...``, so errors stay one short line."""
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


class ArgClinicError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ArgClinicError):
    """Semantically invalid input (well-formed but violates an invariant)."""


# --- framework validation ---------------------------------------------------

class FlatnessViolation(ValidationError):
    """An assumption appears as the head of a rule."""


class DanglingPreference(ValidationError):
    """A preference pair mentions a sentence that is not an assumption."""


class ContraryConflict(ValidationError):
    """Contrary declarations clash (two contraries for one assumption,
    a contrary declared for a non-assumption, or a contrary that is
    itself an assumption)."""


# --- goal-level validation --------------------------------------------------

class GoalWithoutRule(ValidationError):
    """A declared goal has no rule deriving it."""


class PriorityNotTotal(ValidationError):
    """The goal priority relation leaves two goals incomparable."""


class PriorityMentionsNonGoal(ValidationError):
    """A priority pair mentions a sentence outside the declared goals."""


# --- recommendation / context validation ------------------------------------

class EmptyTracks(ValidationError):
    """A recommendation carries no causation tracks."""


class DsOutOfRange(ValidationError):
    """A deontic strength lies outside [-1, 1]."""


class UnknownLandmark(ValidationError):
    """A deontic strength landmark name is not recognised."""


class InvalidInteraction(ValidationError):
    """An interaction is ill-formed (self-interaction or unknown endpoint)."""


class IncompatibleContext(ValidationError):
    """A context cannot be combined with the given recommendations."""


class IncompatibleState(IncompatibleContext):
    """A patient-state term matches no causation track."""


class IncompatibleGoal(IncompatibleContext):
    """A goal term matches no causation track of any recommendation."""


class PreferenceOverUnknownRec(IncompatibleContext):
    """An action preference mentions no known recommendation or action."""


class AmbiguousActionPreference(IncompatibleContext):
    """An action preference names an action recommended with both signs."""


class SymbolCollision(ValidationError):
    """Two distinct guideline terms would map to the same sentence symbol."""


# --- resource limits ----------------------------------------------------------

class SizeLimitExceeded(ArgClinicError):
    """The framework exceeds the extension-enumeration size cap."""


class OracleSizeExceeded(SizeLimitExceeded):
    """The framework exceeds the brute-force oracle size cap."""


class ConfigError(ArgClinicError):
    """An environment setting holds a value the program cannot use."""


# --- input reading ------------------------------------------------------------

class ParseError(ArgClinicError):
    """Positional failure while reading a textual framework or JSON file."""

    def __init__(self, message: str, line: int, column: int,
                 expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: {message}")


class SchemaError(ArgClinicError):
    """A JSON document does not match the guideline bundle schema."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        where = pointer if pointer else "/"
        super().__init__(f"{where}: {message}")


class DuplicateName(SchemaError):
    """Two recommendations in one bundle share a name."""
