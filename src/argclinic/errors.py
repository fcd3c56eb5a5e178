"""Exception types and the frozen record base shared across the package.

Validation errors signal semantically bad input (bad frameworks, bad
recommendations, bad contexts).  Parse and schema errors signal input that
could not even be read.  The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations

import operator

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


# --- value types --------------------------------------------------------------

def _compare(test):
    def method(self, other):
        if other.__class__ is self.__class__:
            return test(self._key(self), other._key(other))
        return NotImplemented
    return method


def _init(cls, fields: tuple[str, ...]):
    """A real ``__init__(self, f1, f2=default, ...)`` over ``fields``, made as a
    frozen dataclass's is: it sets each field, then calls any ``__post_init__``."""
    space = {"__name__": cls.__module__, "__record_setattr__": object.__setattr__}
    space.update((f"__record_default_{f}__", getattr(cls, f)) for f in fields if hasattr(cls, f))
    params = [f"{f}=__record_default_{f}__" if hasattr(cls, f) else f for f in fields]
    lines = [f"__record_setattr__(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(lines), space)
    space["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return space["__init__"]


class Record:
    """Base of the frozen value types; the fields are the class annotations.

    A subclass's fields are its annotated names, those of its bases first,
    and a class attribute of the same name is a field's default.  A record
    gets what ``@dataclass(frozen=True)`` gives: a generated ``__init__`` over
    the fields that then calls any ``__post_init__``, so a bad call raises the
    dataclass's ``TypeError``, equality only with its own class, a hash and a
    ``Cls(field=value, ...)`` repr over the fields, and ``AttributeError`` on
    assignment or deletion.  ``class C(Record, order=True)`` adds ``<``,
    ``<=``, ``>`` and ``>=`` on the field tuples.  Pickle, ``copy`` and
    ``cached_property`` fill the instance ``__dict__`` directly, so they work
    as on any object.
    """

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        names: dict[str, None] = {}
        for base in reversed(cls.__mro__):
            names.update(dict.fromkeys(vars(base).get("__annotations__", ())))
        cls._fields = fields = tuple(names)
        get = operator.attrgetter(*fields)
        # the field tuple, a 1-tuple included, so hashes match a dataclass's
        cls._key = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        cls.__init__ = _init(cls, fields)
        if order:
            cls.__lt__ = _compare(operator.lt)
            cls.__le__ = _compare(operator.le)
            cls.__gt__ = _compare(operator.gt)
            cls.__ge__ = _compare(operator.ge)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in
                          zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({shown})"
