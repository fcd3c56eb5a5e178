"""JSON bundles: schema diagnostics, normalisation, canonical output."""

import json
import random
import sys
from fractions import Fraction

import pytest

from argclinic import (
    DuplicateName,
    GoalTerm,
    IncompatibleState,
    Modal,
    ParseError,
    PreferenceOverUnknownRec,
    SchemaError,
    StateTerm,
    build_patient_framework,
    parse_aba_text,
    parse_bundle,
    serialize_abapg,
    serialize_bundle,
    validate_abapg,
    validate_framework,
    validate_recommendation,
)
from argclinic.generators import random_bundle_data

from conftest import FIXTURES


def minimal(**overrides):
    data = {
        "recommendations": [
            {
                "name": "r1",
                "action": "walk",
                "deontic_strength": "should",
                "tracks": [
                    {
                        "property": "Pain",
                        "effect": "Decrease",
                        "initial_value": None,
                        "contribution": "+",
                    }
                ],
            }
        ]
    }
    data.update(overrides)
    return data


def test_the_exercise_fixture_parses_fully(patient_a_bundle):
    b = patient_a_bundle
    assert [r.name for r in b.recommendations] == ["r2", "r3", "r4", "r8"]
    assert b.metadata == {"name": "patient-a-exercise", "version": "1"}
    r2 = b.recommendations[0]
    assert r2.action == "Std Exercise"
    assert len(r2.tracks) == 4
    assert [i.modal for i in b.interactions] == [Modal.CERTAIN] * 3
    assert StateTerm("Blood Pressure") in b.context.patient_state
    assert StateTerm("Body Temperature", "High") in b.context.patient_state
    assert (
        GoalTerm(effect="Increase", property="Blood Pressure", negated=True)
        in b.context.goals
    )
    assert len(b.context.goals) == 4


def test_parse_accepts_a_mapping_directly():
    bundle = parse_bundle(minimal())
    assert bundle.recommendations[0].name == "r1"
    assert bundle.interactions == ()


def test_invalid_json_reports_the_position():
    with pytest.raises(ParseError) as err:
        parse_bundle('{\n  "recommendations": [,]\n}')
    assert err.value.line == 2
    assert err.value.column == 23
    assert "Expecting value" in str(err.value)


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(b"\xff", id="not-utf8"),
        pytest.param(
            "1" * 5000,
            id="int-past-the-digit-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this Python reads integer literals of any length",
            ),
        ),
    ],
)
def test_load_errors_without_a_position_point_at_the_start(source):
    with pytest.raises(ParseError) as err:
        parse_bundle(source)
    assert (err.value.line, err.value.column) == (1, 1)


def test_schema_violations_carry_json_pointers():
    data = minimal()
    del data["recommendations"][0]["action"]
    with pytest.raises(SchemaError) as err:
        parse_bundle(data)
    assert err.value.pointer == "/recommendations/0"
    assert "action" in str(err.value)


def test_bad_contribution_is_located_inside_the_track():
    data = minimal()
    data["recommendations"][0]["tracks"][0]["contribution"] = "++"
    with pytest.raises(SchemaError) as err:
        parse_bundle(data)
    assert err.value.pointer == "/recommendations/0/tracks/0/contribution"


def test_unknown_top_level_keys_are_rejected():
    with pytest.raises(SchemaError):
        parse_bundle(minimal(extras={}))


def test_duplicate_recommendation_names_are_rejected():
    data = minimal()
    data["recommendations"].append(dict(data["recommendations"][0]))
    with pytest.raises(DuplicateName) as err:
        parse_bundle(data)
    assert err.value.pointer == "/recommendations/1/name"


def test_goal_strings_accept_both_negation_spellings():
    data = minimal(
        context={"goals": ["¬Decrease Pain", "not Decrease Pain"]}
    )
    bundle = parse_bundle(data)
    # the two spellings collapse to a single negated goal term
    assert bundle.context.goals == frozenset(
        {GoalTerm(effect="Decrease", property="Pain", negated=True)}
    )


def test_goal_and_state_terms_read_the_same_in_string_and_object_form():
    # random bundles write only objects, and "negated" only when it is true
    data = minimal(
        context={
            "goals": [
                "Decrease Pain",
                {"effect": "Decrease", "property": "Pain"},
                {"effect": "Decrease", "property": "Pain", "negated": False},
            ],
            "patient_state": ["Pain", {"property": "Pain"}],
        }
    )
    context = parse_bundle(data).context
    assert context.goals == frozenset({GoalTerm(effect="Decrease", property="Pain")})
    assert context.patient_state == frozenset({StateTerm(property="Pain")})


def test_goal_strings_need_an_effect_and_a_property():
    data = minimal(context={"goals": ["Pain"]})
    with pytest.raises(SchemaError) as err:
        parse_bundle(data)
    assert err.value.pointer == "/context/goals/0"


def test_display_terms_collapse_interior_whitespace():
    data = minimal()
    data["recommendations"][0]["action"] = "  brisk   walk "
    bundle = parse_bundle(data)
    assert bundle.recommendations[0].action == "brisk walk"


def test_numeric_strengths_stay_exact_through_a_round_trip():
    data = minimal()
    data["recommendations"][0]["deontic_strength"] = 0.123
    bundle = parse_bundle(data)
    assert bundle.recommendations[0].strength.value == Fraction(123, 1000)
    again = parse_bundle(serialize_bundle(bundle))
    assert again.recommendations[0].strength.value == Fraction(123, 1000)


def test_landmark_strengths_serialize_as_names():
    out = serialize_bundle(parse_bundle(minimal()))
    assert '"deontic_strength": "should"' in out


def test_context_errors_point_at_the_context():
    data = minimal(context={"action_preference": [["r9", "r1"]]})
    with pytest.raises(PreferenceOverUnknownRec, match=r"\(at /context\)"):
        parse_bundle(data)


def test_the_broken_fixture_names_the_bad_state_term():
    source = (FIXTURES / "broken.json").read_text()
    with pytest.raises(IncompatibleState) as err:
        parse_bundle(source)
    assert "Kidney Function" in str(err.value)
    assert "(at /context)" in str(err.value)


def test_a_bare_state_term_may_sit_beside_a_valued_one():
    data = minimal(context={"patient_state": [{"property": "Pain", "value": "High"}, "Pain"]})
    data["recommendations"][0]["tracks"][0]["initial_value"] = "High"
    bundle = parse_bundle(data)
    assert bundle.context.patient_state == {StateTerm("Pain"), StateTerm("Pain", "High")}
    assert parse_bundle(serialize_bundle(bundle)) == bundle


def test_interactions_must_cite_known_recommendations():
    from argclinic import InvalidInteraction

    data = minimal(
        interactions=[{"first": "r1", "second": "r9", "modal": "certain"}]
    )
    with pytest.raises(InvalidInteraction, match="'r9'"):
        parse_bundle(data)


def test_serialization_is_canonical_and_invertible(patient_a_bundle):
    out = serialize_bundle(patient_a_bundle)
    again = parse_bundle(out)
    assert again == patient_a_bundle
    assert serialize_bundle(again) == out
    # canonical output is sorted, indented JSON with unescaped symbols
    assert json.loads(out)["recommendations"][0]["name"] == "r2"
    assert out.endswith("\n")


def test_serialization_round_trips_the_drug_fixtures(
    aspirin_pref_bundle, aspirin_priority_bundle
):
    for bundle in (aspirin_pref_bundle, aspirin_priority_bundle):
        assert parse_bundle(serialize_bundle(bundle)) == bundle


# ---------------------------------------------------------------------------
# one single-defect document per shape constraint

DELETE = object()


def full():
    """A valid bundle that uses every field in both of its forms."""
    return {
        "metadata": {"name": "case", "version": "1"},
        "recommendations": [
            {
                "name": "r1",
                "action": "walk",
                "deontic_strength": "should",
                "tracks": [
                    {
                        "property": "Pain",
                        "effect": "Decrease",
                        "initial_value": "High",
                        "contribution": "+",
                    }
                ],
            },
            {
                "name": "r2",
                "action": "rest",
                "deontic_strength": -0.5,
                "tracks": [
                    {
                        "property": "Fatigue",
                        "effect": "Decrease",
                        "initial_value": None,
                        "contribution": "-",
                    }
                ],
            },
        ],
        "interactions": [{"first": "r1", "second": "r2", "modal": "uncertain"}],
        "context": {
            "patient_state": ["Fatigue", {"property": "Pain", "value": "High"}],
            "goals": [
                "Decrease Pain",
                {"effect": "Decrease", "property": "Fatigue", "negated": True},
            ],
            "action_preference": [["r2", "r1"]],
            "goal_priority": [
                [
                    {"effect": "Decrease", "property": "Fatigue", "negated": True},
                    "Decrease Pain",
                ]
            ],
        },
    }


def mutated(path, value):
    return set_at(full(), path, value)


def set_at(data, path, value):
    if not path:
        return value
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return data


REC = ("recommendations", 0)
TRACK = REC + ("tracks", 0)
INTERACTION = ("interactions", 0)
STATE = ("context", "patient_state")
GOALS = ("context", "goals")
PREFERENCE = ("context", "action_preference")
PRIORITY = ("context", "goal_priority")

SHAPE_DEFECTS = [
    # the root object
    ("root-type", (), [], "/"),
    ("root-required", ("recommendations",), DELETE, "/"),
    ("root-unknown-key", ("extras",), {}, "/"),
    # metadata
    ("metadata-type", ("metadata",), "case", "/metadata"),
    ("metadata-unknown-key", ("metadata", "author"), "x", "/metadata"),
    ("metadata-name-type", ("metadata", "name"), 1, "/metadata/name"),
    ("metadata-version-type", ("metadata", "version"), 1, "/metadata/version"),
    # recommendations
    ("recommendations-type", ("recommendations",), {}, "/recommendations"),
    ("recommendations-min-items", ("recommendations",), [], "/recommendations"),
    ("recommendation-type", REC, "r1", "/recommendations/0"),
    ("recommendation-required-name", REC + ("name",), DELETE, "/recommendations/0"),
    ("recommendation-required-action", REC + ("action",), DELETE, "/recommendations/0"),
    (
        "recommendation-required-strength",
        REC + ("deontic_strength",),
        DELETE,
        "/recommendations/0",
    ),
    ("recommendation-required-tracks", REC + ("tracks",), DELETE, "/recommendations/0"),
    ("recommendation-unknown-key", REC + ("dose",), "x", "/recommendations/0"),
    ("name-type", REC + ("name",), 7, "/recommendations/0/name"),
    ("name-pattern", REC + ("name",), "bad name", "/recommendations/0/name"),
    ("name-empty", REC + ("name",), "", "/recommendations/0/name"),
    ("action-type", REC + ("action",), ["walk"], "/recommendations/0/action"),
    ("action-pattern", REC + ("action",), "walk!", "/recommendations/0/action"),
    ("action-empty", REC + ("action",), "", "/recommendations/0/action"),
    ("strength-bool", REC + ("deontic_strength",), True, "/recommendations/0/deontic_strength"),
    ("strength-null", REC + ("deontic_strength",), None, "/recommendations/0/deontic_strength"),
    ("strength-array", REC + ("deontic_strength",), [0.5], "/recommendations/0/deontic_strength"),
    ("tracks-type", REC + ("tracks",), {}, "/recommendations/0/tracks"),
    ("tracks-min-items", REC + ("tracks",), [], "/recommendations/0/tracks"),
    ("track-type", TRACK, "Pain", "/recommendations/0/tracks/0"),
    ("track-required", TRACK + ("contribution",), DELETE, "/recommendations/0/tracks/0"),
    ("track-unknown-key", TRACK + ("weight",), 1, "/recommendations/0/tracks/0"),
    ("track-property-type", TRACK + ("property",), 5, "/recommendations/0/tracks/0/property"),
    ("track-effect-pattern", TRACK + ("effect",), "Up!", "/recommendations/0/tracks/0/effect"),
    (
        "initial-value-type",
        TRACK + ("initial_value",),
        5,
        "/recommendations/0/tracks/0/initial_value",
    ),
    (
        "initial-value-pattern",
        TRACK + ("initial_value",),
        "High!",
        "/recommendations/0/tracks/0/initial_value",
    ),
    (
        "contribution-enum",
        TRACK + ("contribution",),
        "++",
        "/recommendations/0/tracks/0/contribution",
    ),
    (
        "contribution-enum-type",
        TRACK + ("contribution",),
        1,
        "/recommendations/0/tracks/0/contribution",
    ),
    # interactions
    ("interactions-type", ("interactions",), {}, "/interactions"),
    ("interaction-type", INTERACTION, "r1", "/interactions/0"),
    ("interaction-required", INTERACTION + ("modal",), DELETE, "/interactions/0"),
    ("interaction-unknown-key", INTERACTION + ("note",), "x", "/interactions/0"),
    ("interaction-first-pattern", INTERACTION + ("first",), "r 1", "/interactions/0/first"),
    ("interaction-second-type", INTERACTION + ("second",), 2, "/interactions/0/second"),
    ("modal-enum", INTERACTION + ("modal",), "maybe", "/interactions/0/modal"),
    # context
    ("context-type", ("context",), [], "/context"),
    ("context-unknown-key", ("context", "notes"), [], "/context"),
    ("patient-state-type", STATE, "Pain", "/context/patient_state"),
    ("state-term-type", STATE + (0,), 5, "/context/patient_state/0"),
    ("state-term-pattern", STATE + (0,), "Fat!gue", "/context/patient_state/0"),
    ("state-object-required", STATE + (1, "property"), DELETE, "/context/patient_state/1"),
    ("state-object-unknown-key", STATE + (1, "unit"), "mmHg", "/context/patient_state/1"),
    ("state-object-value-type", STATE + (1, "value"), 5, "/context/patient_state/1/value"),
    ("goals-type", GOALS, "Decrease Pain", "/context/goals"),
    ("goal-type", GOALS + (0,), 5, "/context/goals/0"),
    ("goal-string-pattern", GOALS + (0,), "Decrease Pain!", "/context/goals/0"),
    ("goal-object-required", GOALS + (1, "effect"), DELETE, "/context/goals/1"),
    ("goal-object-unknown-key", GOALS + (1, "weight"), 1, "/context/goals/1"),
    ("goal-object-negated-type", GOALS + (1, "negated"), "yes", "/context/goals/1/negated"),
    ("goal-object-property-type", GOALS + (1, "property"), 5, "/context/goals/1/property"),
    ("preference-type", PREFERENCE, {}, "/context/action_preference"),
    ("preference-pair-type", PREFERENCE + (0,), "r1", "/context/action_preference/0"),
    ("preference-pair-short", PREFERENCE + (0,), ["r1"], "/context/action_preference/0"),
    (
        "preference-pair-long",
        PREFERENCE + (0,),
        ["r2", "r1", "r2"],
        "/context/action_preference/0",
    ),
    ("preference-term-type", PREFERENCE + (0, 0), 5, "/context/action_preference/0/0"),
    ("preference-term-pattern", PREFERENCE + (0, 1), "r!", "/context/action_preference/0/1"),
    ("priority-type", PRIORITY, 5, "/context/goal_priority"),
    ("priority-pair-type", PRIORITY + (0,), "Decrease Pain", "/context/goal_priority/0"),
    ("priority-pair-short", PRIORITY + (0,), ["Decrease Pain"], "/context/goal_priority/0"),
    (
        "priority-pair-long",
        PRIORITY + (0,),
        ["Decrease Pain", "Decrease Pain", "Decrease Pain"],
        "/context/goal_priority/0",
    ),
    ("priority-goal-type", PRIORITY + (0, 1), 5, "/context/goal_priority/0/1"),
    ("priority-goal-required", PRIORITY + (0, 0, "effect"), DELETE, "/context/goal_priority/0/0"),
]


def test_the_full_document_is_valid():
    bundle = parse_bundle(full())
    assert [r.name for r in bundle.recommendations] == ["r1", "r2"]
    assert len(bundle.context.goals) == 2


@pytest.mark.parametrize(
    "path, value, pointer",
    [case[1:] for case in SHAPE_DEFECTS],
    ids=[case[0] for case in SHAPE_DEFECTS],
)
def test_each_shape_defect_is_a_located_schema_error(path, value, pointer):
    with pytest.raises(SchemaError) as err:
        parse_bundle(mutated(path, value))
    assert type(err.value) is SchemaError
    assert err.value.pointer == pointer


@pytest.mark.parametrize(
    "path, value, message",
    [
        (REC + ("action",), DELETE, "'action' is a required property"),
        (
            REC + ("dose",),
            "x",
            "Additional properties are not allowed ('dose' was unexpected)",
        ),
        (REC + ("name",), 7, "7 is not of type 'string'"),
        (REC + ("name",), "bad name", "'bad name' does not match '^[A-Za-z0-9_.-]+$'"),
        (TRACK + ("contribution",), "++", "'++' is not one of ['+', '-', '0']"),
        (INTERACTION + ("modal",), "maybe", "'maybe' is not one of ['certain', 'uncertain']"),
        (REC + ("tracks",), [], "[] should be non-empty"),
        (PREFERENCE + (0,), ["r2", "r1", "r2"], "['r2', 'r1', 'r2'] is too long"),
        (
            REC + ("deontic_strength",),
            True,
            "True is not valid under any of the given schemas",
        ),
    ],
)
def test_schema_messages_keep_their_wording(path, value, message):
    with pytest.raises(SchemaError) as err:
        parse_bundle(mutated(path, value))
    assert str(err.value) == f"{err.value.pointer}: {message}"


@pytest.mark.parametrize(
    "path, value, pointer",
    [
        (REC + ("name",), "r1\n", "/recommendations/0/name"),
        (REC + ("action",), "walk\n", "/recommendations/0/action"),
        (GOALS + (0,), "Decrease Pain\n", "/context/goals/0"),
    ],
    ids=["name", "term", "goal-string"],
)
def test_patterns_match_the_whole_string(path, value, pointer):
    with pytest.raises(SchemaError) as err:
        parse_bundle(mutated(path, value))
    assert err.value.pointer == pointer


MULTIPLE_DEFECTS = [
    (("metadata", "version"), 1, "/metadata/version"),
    (REC + ("dose",), "x", "/recommendations/0"),
    (("recommendations", 1, "name"), "r1", "/recommendations/1/name"),
    (("recommendations", 1, "tracks", 0, "effect"), "Up!", "/recommendations/1/tracks/0/effect"),
    (INTERACTION + ("modal",), "maybe", "/interactions/0/modal"),
    (GOALS + (0,), 5, "/context/goals/0"),
]


@pytest.mark.parametrize("first", range(len(MULTIPLE_DEFECTS)))
def test_the_first_defect_in_document_order_is_reported(first):
    data = full()
    for path, value, _ in MULTIPLE_DEFECTS[first:]:
        data = set_at(data, path, value)
    # document order is metadata, recommendations, interactions, context,
    # whatever the order of the keys in the text
    data = dict(reversed(data.items()))
    with pytest.raises(SchemaError) as err:
        parse_bundle(json.dumps(data))
    assert err.value.pointer == MULTIPLE_DEFECTS[first][2]


# ---------------------------------------------------------------------------
# validate_recommendation: one bundle entry, read by the bundle's own reader


def bundle_documents():
    """The fixtures that parse, then 100 random bundles, as JSON data."""
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name != "broken.json":
            yield json.loads(path.read_text(encoding="utf-8"))
    rng = random.Random(0)
    for _ in range(100):
        yield random_bundle_data(rng)


def test_validate_recommendation_reads_each_entry_as_the_bundle_does():
    for data in bundle_documents():
        by_name = {r.name: r for r in parse_bundle(data).recommendations}
        for entry in data["recommendations"]:
            assert validate_recommendation(entry) == by_name[entry["name"]]


def entry(**changes):
    raw = minimal()["recommendations"][0]
    raw.update(changes)
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        # mapped, "r 1" would print as assumption(r 1), which does not parse back
        (entry(name="r 1"), "/name: 'r 1' does not match '^[A-Za-z0-9_.-]+$'"),
        (
            entry(extra=1),
            "/: Additional properties are not allowed ('extra' was unexpected)",
        ),
        (
            entry(deontic_strength=True),
            "/deontic_strength: True is not valid under any of the given schemas",
        ),
        (
            entry(tracks=[{"property": "Pain", "effect": "Decrease", "contribution": "+"}]),
            "/tracks/0: 'initial_value' is a required property",
        ),
    ],
    ids=["name-with-a-space", "unknown-key", "bool-strength", "no-initial-value"],
)
def test_validate_recommendation_refuses_what_a_bundle_refuses(raw, message):
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(raw)
    assert str(caught.value) == message


def test_validate_recommendation_normalises_terms():
    assert validate_recommendation(entry(action="Adm.   Aspirin")).action == "Adm. Aspirin"


def test_map_output_of_library_recommendations_reparses():
    for data in bundle_documents():
        bundle = parse_bundle(data)
        recommendations = [validate_recommendation(e) for e in data["recommendations"]]
        built, _ = build_patient_framework(recommendations, bundle.interactions, bundle.context)
        program = parse_aba_text(serialize_abapg(built))
        again = validate_abapg(
            validate_framework(program.raw), program.goals, program.priorities
        )
        assert again == built
