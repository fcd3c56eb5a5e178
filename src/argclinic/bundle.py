"""JSON guideline bundles: checked parsing and canonical output.

A bundle carries recommendations, interactions, and a patient context in one
document.  ``parse_bundle`` reads it in one walk, in document order (metadata,
recommendations, interactions, context): each value is checked against the
bundle's shape as it is read, and the first defect raises ``SchemaError``
with the JSON pointer of the offending value.  Display terms are normalised
(whitespace collapsed, ``not`` accepted for ``¬``) and the semantic
validators run on the values read.  Parsed bundles are canonical:
recommendations sorted by name, interactions sorted by endpoints, preference
and priority closed.  ``serialize_bundle`` therefore round-trips exactly.
"""

from __future__ import annotations

import json
import numbers
import re
from typing import Any, Callable, Mapping

from .errors import DuplicateName, IncompatibleContext, ParseError, Record, SchemaError, _cut
from .tmr import (
    CONTRIBUTIONS,
    Context,
    DeonticStrength,
    GoalTerm,
    Interaction,
    Modal,
    Recommendation,
    StateTerm,
    Track,
    validate_context,
    validate_interaction,
)

_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_TERM = re.compile(r"[A-Za-z0-9_. -]+")
_GOAL_STRING = re.compile(r"(¬|not )?[A-Za-z0-9_. -]+")

_MODALS = tuple(m.value for m in Modal)

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


class GuidelineBundle(Record):
    recommendations: tuple[Recommendation, ...]
    interactions: tuple[Interaction, ...]
    context: Context
    metadata: Mapping[str, str] = None

    def __post_init__(self):
        if self.metadata is None:  # a fresh dict per bundle, never a shared default
            object.__setattr__(self, "metadata", {})


# --- shape checks: each returns the value it checked ----------------------------

def _typed(raw: Any, kind: str, pointer: str) -> Any:
    if not isinstance(raw, _TYPES[kind]):
        raise SchemaError(f"{_cut(repr(raw))} is not of type {kind!r}", pointer)
    return raw


def _object(raw: Any, pointer: str, required=(), optional=()) -> dict:
    _typed(raw, "object", pointer)
    extras = sorted((k for k in raw if k not in required and k not in optional), key=str)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        names = _cut(", ".join(repr(k) for k in extras))
        raise SchemaError(
            f"Additional properties are not allowed ({names} {verb} unexpected)", pointer
        )
    for key in required:
        if key not in raw:
            raise SchemaError(f"{key!r} is a required property", pointer)
    return raw


def _array(raw: Any, pointer: str, min_items: int = 0, max_items: int | None = None) -> list:
    _typed(raw, "array", pointer)
    if len(raw) < min_items:
        problem = "should be non-empty" if min_items == 1 else "is too short"
        raise SchemaError(f"{_cut(repr(raw))} {problem}", pointer)
    if max_items is not None and len(raw) > max_items:
        raise SchemaError(f"{_cut(repr(raw))} is too long", pointer)
    return raw


def _string(raw: Any, pointer: str, pattern: re.Pattern | None = None) -> str:
    _typed(raw, "string", pointer)
    if pattern is not None and not pattern.fullmatch(raw):
        anchored = "^" + pattern.pattern + "$"
        raise SchemaError(f"{_cut(repr(raw))} does not match {anchored!r}", pointer)
    return raw


def _enum(raw: Any, pointer: str, allowed: tuple) -> Any:
    if raw not in allowed:
        raise SchemaError(f"{_cut(repr(raw))} is not one of {list(allowed)!r}", pointer)
    return raw


def _neither(raw: Any, pointer: str) -> SchemaError:
    """The error for a value that takes neither of its two forms."""
    return SchemaError(f"{_cut(repr(raw))} is not valid under any of the given schemas", pointer)


def _items(raw: Any, pointer: str, read: Callable, min_items: int = 0) -> list:
    return [
        read(item, f"{pointer}/{index}")
        for index, item in enumerate(_array(raw, pointer, min_items))
    ]


def _pairs(raw: Any, pointer: str, read: Callable) -> list:
    pairs = []
    for index, pair in enumerate(_array(raw, pointer)):
        at = f"{pointer}/{index}"
        low, high = _array(pair, at, 2, 2)
        pairs.append((read(low, f"{at}/0"), read(high, f"{at}/1")))
    return pairs


# --- readers: shape check and value in one step ----------------------------------


def _normalize(term: str) -> str:
    return " ".join(term.split())


def _term(raw: Any, pointer: str) -> str:
    return _normalize(_string(raw, pointer, _TERM))


def _initial_value(raw: Any, pointer: str) -> str | None:
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise _neither(raw, pointer)
    return _term(raw, pointer)


def _track(raw: Any, pointer: str) -> Track:
    _object(raw, pointer, ("property", "effect", "initial_value", "contribution"))
    return Track(
        property=_term(raw["property"], f"{pointer}/property"),
        effect=_term(raw["effect"], f"{pointer}/effect"),
        initial_value=_initial_value(raw["initial_value"], f"{pointer}/initial_value"),
        contribution=_enum(raw["contribution"], f"{pointer}/contribution", CONTRIBUTIONS),
    )


def _recommendation(raw: Any, pointer: str, names: set[str]) -> Recommendation:
    _object(raw, pointer, ("name", "action", "deontic_strength", "tracks"))
    name = _string(raw["name"], f"{pointer}/name", _NAME)
    if name in names:
        raise DuplicateName(
            f"recommendation name {_cut(repr(name))} appears twice", f"{pointer}/name"
        )
    names.add(name)
    action = _term(raw["action"], f"{pointer}/action")
    strength = raw["deontic_strength"]
    if isinstance(strength, bool) or not isinstance(strength, (str, numbers.Number)):
        raise _neither(strength, f"{pointer}/deontic_strength")
    return Recommendation(
        name=name,
        action=action,
        strength=DeonticStrength.parse(strength),
        tracks=tuple(_items(raw["tracks"], f"{pointer}/tracks", _track, min_items=1)),
    )


def validate_recommendation(raw: Any) -> Recommendation:
    """Read one bundle recommendation entry, under the bundle's rules.

    A bad shape raises :class:`SchemaError` with a pointer into the entry
    (``/name``, ``/tracks/0``, ...); a bad strength, the strength's error.
    """
    return _recommendation(raw, "", set())


def _interaction(raw: Any, pointer: str, names: set[str]) -> Interaction:
    _object(raw, pointer, ("first", "second", "modal"))
    return validate_interaction(
        _string(raw["first"], f"{pointer}/first", _NAME),
        _string(raw["second"], f"{pointer}/second", _NAME),
        _enum(raw["modal"], f"{pointer}/modal", _MODALS),
        names,
    )


def _state_term(raw: Any, pointer: str) -> StateTerm:
    if isinstance(raw, str):
        return StateTerm(property=_term(raw, pointer))
    if not isinstance(raw, dict):
        raise _neither(raw, pointer)
    _object(raw, pointer, ("property",), ("value",))
    return StateTerm(
        property=_term(raw["property"], f"{pointer}/property"),
        value=_term(raw["value"], f"{pointer}/value") if "value" in raw else None,
    )


def _goal(raw: Any, pointer: str) -> GoalTerm:
    if isinstance(raw, dict):
        _object(raw, pointer, ("effect", "property"), ("negated",))
        return GoalTerm(
            effect=_term(raw["effect"], f"{pointer}/effect"),
            property=_term(raw["property"], f"{pointer}/property"),
            negated=_typed(raw.get("negated", False), "boolean", f"{pointer}/negated"),
        )
    if not isinstance(raw, str):
        raise _neither(raw, pointer)
    text = _string(raw, pointer, _GOAL_STRING)
    negated = text.startswith(("¬", "not "))
    if negated:
        text = text[1:] if text.startswith("¬") else text[4:]
    words = _normalize(text).split(" ")
    if len(words) < 2:
        raise SchemaError(
            f"goal {_cut(repr(raw))} needs an effect and a property "
            "(e.g. 'Decrease Blood Pressure')",
            pointer,
        )
    return GoalTerm(effect=words[0], property=" ".join(words[1:]), negated=negated)


def _bundle(data: Any) -> GuidelineBundle:
    _object(data, "/", ("recommendations",), ("metadata", "interactions", "context"))
    metadata = _object(data.get("metadata", {}), "/metadata", (), ("name", "version"))
    for key, value in metadata.items():
        _string(value, f"/metadata/{key}")

    names: set[str] = set()
    recommendations = _items(
        data["recommendations"],
        "/recommendations",
        lambda raw, pointer: _recommendation(raw, pointer, names),
        min_items=1,
    )
    interactions = _items(
        data.get("interactions", []),
        "/interactions",
        lambda raw, pointer: _interaction(raw, pointer, names),
    )

    raw_context = _object(
        data.get("context", {}),
        "/context",
        (),
        ("patient_state", "goals", "action_preference", "goal_priority"),
    )
    patient_state = _items(
        raw_context.get("patient_state", []), "/context/patient_state", _state_term
    )
    goals = _items(raw_context.get("goals", []), "/context/goals", _goal)
    action_preference = _pairs(
        raw_context.get("action_preference", []), "/context/action_preference", _term
    )
    goal_priority = _pairs(raw_context.get("goal_priority", []), "/context/goal_priority", _goal)

    recommendations.sort(key=lambda r: r.name)
    interactions.sort(key=lambda i: (i.first, i.second, i.modal.value))
    try:
        context = validate_context(
            recommendations,
            patient_state=patient_state,
            goals=goals,
            action_preference=action_preference,
            goal_priority=goal_priority,
        )
    except IncompatibleContext as exc:
        # Same error, located: bundle callers get a JSON pointer to chase.
        raise type(exc)(f"{exc} (at /context)") from None

    return GuidelineBundle(
        recommendations=tuple(recommendations),
        interactions=tuple(interactions),
        context=context,
        metadata=dict(metadata),
    )


def _load(source: str | bytes) -> Any:
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError as exc:
        # Text that is not UTF-8, or an integer literal longer than
        # ``sys.get_int_max_str_digits()``; neither carries a position.
        raise ParseError(str(exc), 1, 1) from None


def parse_bundle(source: str | bytes | Mapping) -> GuidelineBundle:
    """Read and check a guideline bundle from JSON text or a mapping."""
    try:
        return _bundle(_load(source) if isinstance(source, (str, bytes)) else source)
    except RecursionError:
        raise ParseError("arrays and objects nest too deeply to read", 1, 1) from None


def _strength_json(rec: Recommendation):
    landmark = rec.strength.landmark
    if landmark is not None:
        return landmark
    return float(rec.strength.value)


def _goal_json(term: GoalTerm) -> dict:
    payload: dict[str, Any] = {"effect": term.effect, "property": term.property}
    if term.negated:
        payload["negated"] = True
    return payload


def serialize_bundle(bundle: GuidelineBundle) -> str:
    """Canonical JSON for a bundle; parse_bundle inverts it exactly."""
    payload: dict[str, Any] = {}
    if bundle.metadata:
        payload["metadata"] = dict(bundle.metadata)
    payload["recommendations"] = [
        {
            "name": rec.name,
            "action": rec.action,
            "deontic_strength": _strength_json(rec),
            "tracks": [
                {
                    "property": t.property,
                    "effect": t.effect,
                    "initial_value": t.initial_value,
                    "contribution": t.contribution,
                }
                for t in rec.tracks
            ],
        }
        for rec in bundle.recommendations
    ]
    if bundle.interactions:
        payload["interactions"] = [
            {"first": i.first, "second": i.second, "modal": i.modal.value}
            for i in bundle.interactions
        ]
    context = bundle.context
    context_payload: dict[str, Any] = {}
    if context.patient_state:
        context_payload["patient_state"] = [
            {"property": term.property, "value": term.value}
            if term.value is not None
            else {"property": term.property}
            for term in sorted(context.patient_state)
        ]
    if context.goals:
        context_payload["goals"] = [
            _goal_json(term) for term in sorted(context.goals)
        ]
    preference = sorted(
        (low, high) for low, high in context.action_preference if low != high
    )
    if preference:
        context_payload["action_preference"] = [list(p) for p in preference]
    priority = sorted(
        ((low, high) for low, high in context.goal_priority if low != high),
    )
    if priority:
        context_payload["goal_priority"] = [
            [_goal_json(low), _goal_json(high)] for low, high in priority
        ]
    if context_payload:
        payload["context"] = context_payload
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
