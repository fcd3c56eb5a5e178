"""Clinical guideline recommendations, interactions, and patient contexts.

A recommendation couples an action with a deontic strength in [-1, 1]
(positive recommends doing the action, negative recommends avoiding it) and
with causation tracks describing which property each action affects, how,
from which initial value, and whether that effect is welcome.  Interactions
mark pairs of recommendations that cannot be followed together, either
certainly or only possibly.  A context carries the patient's state, the care
goals, and the stated preferences and priorities.  The types here are built
from Python values; ``bundle`` reads them from JSON, one recommendation entry
at a time with ``validate_recommendation``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, Sequence

from .aba_core import _close_relation, transitive_closure
from .errors import (
    AmbiguousActionPreference,
    DsOutOfRange,
    IncompatibleGoal,
    IncompatibleState,
    InvalidInteraction,
    PreferenceOverUnknownRec,
    Record,
    UnknownLandmark,
    ValidationError,
    _cut,
)

LANDMARK_VALUES: Mapping[str, Fraction] = {
    "must": Fraction(1),
    "should": Fraction(1, 2),
    "may": Fraction(0),
    "should_not": Fraction(-1, 2),
    "must_not": Fraction(-1),
}

_VALUE_LANDMARKS = {v: k for k, v in LANDMARK_VALUES.items()}

MAX_DENOMINATOR = 1000

CONTRIBUTIONS = ("+", "-", "0")


class DeonticStrength(Record, order=True):
    """How strongly an action is (dis)recommended, as an exact rational."""

    value: Fraction

    def __post_init__(self):
        if not Fraction(-1) <= self.value <= Fraction(1):
            raise DsOutOfRange(f"deontic strength {_cut(str(self.value))} outside [-1, 1]")

    @classmethod
    def from_landmark(cls, name: str) -> "DeonticStrength":
        key = name.strip().lower().replace(" ", "_")
        if key not in LANDMARK_VALUES:
            known = ", ".join(sorted(LANDMARK_VALUES))
            raise UnknownLandmark(f"unknown landmark {_cut(repr(name))} (expected one of {known})")
        return cls(LANDMARK_VALUES[key])

    @classmethod
    def from_number(cls, value: float | int | Fraction) -> "DeonticStrength":
        try:
            exact = Fraction(value).limit_denominator(MAX_DENOMINATOR)
        except (ValueError, OverflowError):  # NaN or an infinity
            raise DsOutOfRange(
                f"deontic strength {value!r} is not a finite number in [-1, 1]"
            ) from None
        return cls(exact)

    @classmethod
    def parse(cls, raw) -> "DeonticStrength":
        if isinstance(raw, DeonticStrength):
            return raw
        if isinstance(raw, str):
            return cls.from_landmark(raw)
        if isinstance(raw, (int, float, Fraction)) and not isinstance(raw, bool):
            return cls.from_number(raw)
        raise UnknownLandmark(f"cannot read a deontic strength from {_cut(repr(raw))}")

    @property
    def landmark(self) -> str | None:
        return _VALUE_LANDMARKS.get(self.value)

    @property
    def positive(self) -> bool:
        """True when the action is recommended (zero counts as positive)."""
        return self.value >= 0


class Track(Record, order=True):
    """One causation track: the action's effect on one property."""

    property: str
    effect: str
    initial_value: str | None
    contribution: str

    def __post_init__(self):
        if self.contribution not in CONTRIBUTIONS:
            raise ValidationError(
                f"contribution must be one of {CONTRIBUTIONS}, got {_cut(repr(self.contribution))}"
            )


class Recommendation(Record):
    name: str
    action: str
    strength: DeonticStrength
    tracks: tuple[Track, ...]


class Modal(enum.Enum):
    CERTAIN = "certain"
    UNCERTAIN = "uncertain"


class Interaction(Record):
    """Two recommendations that cannot (certainly or possibly) be followed together."""

    first: str
    second: str
    modal: Modal


def validate_interaction(
    first: str, second: str, modal: Modal | str, known_names: Iterable[str]
) -> Interaction:
    names = set(known_names)
    if first == second:
        raise InvalidInteraction(
            f"recommendation {_cut(repr(first))} cannot interact with itself"
        )
    for endpoint in (first, second):
        if endpoint not in names:
            raise InvalidInteraction(
                f"interaction endpoint {_cut(repr(endpoint))} names no known recommendation"
            )
    try:
        modal = Modal(modal)
    except ValueError:
        raise InvalidInteraction(
            f"interaction modality must be 'certain' or 'uncertain', got {_cut(repr(modal))}"
        ) from None
    return Interaction(first=first, second=second, modal=modal)


def contradiction_free(names: Iterable[str], interactions: Iterable[Interaction]) -> bool:
    """True iff no interaction has both endpoints inside ``names``."""
    chosen = set(names)
    return not any(
        i.first in chosen and i.second in chosen for i in interactions
    )


@total_ordering
class StateTerm(Record):
    """A patient-state observation: a property, optionally with its value.

    Terms sort by property, and a bare property before its valued forms.
    """

    property: str
    value: str | None = None

    def __lt__(self, other: "StateTerm") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.property, self.value is not None, self.value or "") < (
            other.property, other.value is not None, other.value or ""
        )

    def display(self) -> str:
        if self.value is None:
            return self.property
        return f"{self.value} {self.property}"


class GoalTerm(Record, order=True):
    """A care goal: bring about (or prevent) an effect on a property."""

    effect: str
    property: str
    negated: bool = False

    def display(self) -> str:
        base = f"{self.effect} {self.property}"
        return f"¬{base}" if self.negated else base


class Context(Record):
    """A validated patient context.

    ``action_preference`` holds the reflexive-transitive closure of the
    stated preference, as pairs of recommendation names (low, high).
    ``goal_priority`` holds the closed total priority over the goal terms.
    """

    patient_state: frozenset[StateTerm] = frozenset()
    goals: frozenset[GoalTerm] = frozenset()
    action_preference: frozenset[tuple[str, str]] = frozenset()
    goal_priority: frozenset[tuple[GoalTerm, GoalTerm]] = frozenset()


def _resolve_preference_name(
    name: str, recommendations: Sequence[Recommendation]
) -> tuple[str, ...]:
    by_name = {r.name for r in recommendations}
    if name in by_name:
        return (name,)
    carriers = [r for r in recommendations if r.action == name]
    if not carriers:
        raise PreferenceOverUnknownRec(
            f"preference mentions {_cut(repr(name))}, which is neither a recommendation "
            "name nor a recommended action"
        )
    signs = {r.strength.positive for r in carriers}
    if len(signs) > 1:
        raise AmbiguousActionPreference(
            f"action {_cut(repr(name))} is recommended both positively and negatively; "
            "name the recommendation instead"
        )
    return tuple(r.name for r in carriers)


def validate_context(
    recommendations: Sequence[Recommendation],
    patient_state: Iterable[StateTerm] = (),
    goals: Iterable[GoalTerm] = (),
    action_preference: Iterable[tuple[str, str]] = (),
    goal_priority: Iterable[tuple[GoalTerm, GoalTerm]] = (),
) -> Context:
    """Check a context against the recommendations it will be applied to.

    State terms must match a track (by property, and by initial value when
    one is given); goal terms must match a track's (effect, property) pair;
    preferences may name recommendations or their actions; the goal priority
    must close into a total preorder over the declared goals.
    """
    track_properties = set()
    track_values = set()
    track_effects = set()
    for rec in recommendations:
        for t in rec.tracks:
            track_properties.add(t.property)
            track_effects.add((t.effect, t.property))
            if t.initial_value is not None:
                track_values.add((t.initial_value, t.property))

    states = frozenset(patient_state)
    for term in sorted(states):
        if term.value is None:
            if term.property not in track_properties:
                raise IncompatibleState(
                    f"no recommendation tracks the property {_cut(repr(term.property))}"
                )
        elif (term.value, term.property) not in track_values:
            raise IncompatibleState(
                f"no recommendation tracks {_cut(repr(term.property))} "
                f"with initial value {_cut(repr(term.value))}"
            )

    goal_terms = frozenset(goals)
    for term in sorted(goal_terms):
        if (term.effect, term.property) not in track_effects:
            raise IncompatibleGoal(
                f"no recommendation tracks the effect {_cut(repr(term.effect))} "
                f"on {_cut(repr(term.property))}"
            )

    preference_pairs: set[tuple[str, str]] = set()
    for low, high in action_preference:
        for low_name in _resolve_preference_name(low, recommendations):
            for high_name in _resolve_preference_name(high, recommendations):
                preference_pairs.add((low_name, high_name))
    rec_names = sorted({r.name for r in recommendations})
    closed_preference = transitive_closure(preference_pairs, rec_names)

    closed_priority = _close_relation(goal_priority, goal_terms, lambda term: IncompatibleGoal(
        f"goal priority mentions {_cut(repr(term.display()))}, which is not a declared goal"
    ), GoalTerm.display)

    return Context(
        patient_state=states,
        goals=goal_terms,
        action_preference=closed_preference,
        goal_priority=closed_priority,
    )
