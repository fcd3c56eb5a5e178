"""Recommendation model: strengths, tracks, interactions, contexts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argclinic import (
    AmbiguousActionPreference,
    Context,
    DeonticStrength,
    DsOutOfRange,
    GoalTerm,
    IncompatibleGoal,
    IncompatibleState,
    Interaction,
    InvalidInteraction,
    Modal,
    PreferenceOverUnknownRec,
    PriorityNotTotal,
    Recommendation,
    SchemaError,
    StateTerm,
    Track,
    UnknownLandmark,
    ValidationError,
    contradiction_free,
    validate_context,
    validate_interaction,
    validate_recommendation,
)
from argclinic.generators import random_tmr_instance

seeds = st.integers(min_value=0, max_value=10**6)


def rec(name, action, ds, tracks):
    return Recommendation(
        name=name,
        action=action,
        strength=DeonticStrength.parse(ds),
        tracks=tuple(Track(*t) for t in tracks),
    )


# Track(property, effect, initial_value, contribution)
CARE_RECS = [
    rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
    rec(
        "r2",
        "ice",
        "should",
        [
            ("Swelling", "Decrease", "High", "+"),
            ("Comfort", "Decrease", None, "-"),
        ],
    ),
    rec("r3", "rest", "should_not", [("Pain", "Increase", None, "-")]),
]


# ---------------------------------------------------------------------------
# deontic strength


@pytest.mark.parametrize(
    "name,value",
    [
        ("must", Fraction(1)),
        ("should", Fraction(1, 2)),
        ("may", Fraction(0)),
        ("should_not", Fraction(-1, 2)),
        ("must_not", Fraction(-1)),
    ],
)
def test_landmarks_round_trip(name, value):
    ds = DeonticStrength.parse(name)
    assert ds.value == value
    assert ds.landmark == name


def test_landmark_names_are_normalized():
    assert DeonticStrength.parse("Should Not").value == Fraction(-1, 2)
    assert DeonticStrength.parse("  MUST ").value == Fraction(1)


def test_numbers_become_exact_rationals():
    assert DeonticStrength.parse(0.123).value == Fraction(123, 1000)
    assert DeonticStrength.parse(0.5).value == Fraction(1, 2)
    assert DeonticStrength.parse(1).value == Fraction(1)
    assert DeonticStrength.parse(Fraction(1, 3)).value == Fraction(1, 3)


def test_parse_is_idempotent_on_strengths():
    ds = DeonticStrength.parse("may")
    assert DeonticStrength.parse(ds) is ds


def test_out_of_range_strengths_are_rejected():
    with pytest.raises(DsOutOfRange):
        DeonticStrength.parse(1.5)
    with pytest.raises(DsOutOfRange):
        DeonticStrength.parse(-2)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 1e400], ids=["nan", "inf", "-inf", "1e400"]
)
def test_non_finite_strengths_are_out_of_range(value):
    with pytest.raises(DsOutOfRange, match="not a finite number"):
        DeonticStrength.from_number(value)


def test_huge_integer_strengths_are_out_of_range():
    with pytest.raises(DsOutOfRange):
        DeonticStrength.from_number(10**400)


def test_unreadable_strengths_are_rejected():
    with pytest.raises(UnknownLandmark, match="ought"):
        DeonticStrength.parse("ought")
    with pytest.raises(UnknownLandmark):
        DeonticStrength.parse(None)
    # bool is an int subtype but not a sensible strength
    with pytest.raises(UnknownLandmark):
        DeonticStrength.parse(True)


def test_off_landmark_values_have_no_landmark_name():
    assert DeonticStrength.parse(0.25).landmark is None


def test_zero_counts_as_positive():
    assert DeonticStrength.parse("may").positive
    assert not DeonticStrength.parse("should_not").positive


def test_strengths_order_by_value():
    assert DeonticStrength.parse("must_not") < DeonticStrength.parse("may")
    assert DeonticStrength.parse("should") < DeonticStrength.parse("must")


# ---------------------------------------------------------------------------
# recommendations and tracks


def test_recommendations_need_at_least_one_track():
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(
            {"name": "r9", "action": "walk", "deontic_strength": "should"}
        )
    assert str(caught.value) == "/: 'tracks' is a required property"


def test_track_contribution_is_constrained():
    with pytest.raises(ValidationError, match="contribution"):
        Track(property="Pain", effect="Decrease", initial_value=None, contribution="x")


def test_validate_recommendation_reads_bundle_fields():
    built = validate_recommendation(
        {
            "name": "r7",
            "action": "stretch",
            "deontic_strength": 0.75,
            "tracks": [
                {
                    "property": "Mobility",
                    "effect": "Increase",
                    "initial_value": None,
                    "contribution": "+",
                }
            ],
        }
    )
    assert built.strength.value == Fraction(3, 4)
    assert built.tracks[0].initial_value is None


def _walk(**changes):
    raw = {
        "name": "r7",
        "action": "walk",
        "deontic_strength": "should",
        "tracks": [
            {"property": "Pain", "effect": "Decrease", "initial_value": None, "contribution": "+"}
        ],
    }
    raw.update(changes)
    return {k: v for k, v in raw.items() if v is not None}


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"name": "r"}, "/: 'action' is a required property"),
        (_walk(name=None), "/: 'name' is a required property"),
        (_walk(deontic_strength=None), "/: 'deontic_strength' is a required property"),
        (
            _walk(tracks=[{"property": "Pain", "contribution": "+"}]),
            "/tracks/0: 'effect' is a required property",
        ),
        (_walk(tracks="xy"), "/tracks: 'xy' is not of type 'array'"),
        (_walk(tracks=["x"]), "/tracks/0: 'x' is not of type 'object'"),
        ("r7", "/: 'r7' is not of type 'object'"),
    ],
)
def test_validate_recommendation_rejects_bad_shapes_with_schema_errors(raw, message):
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(raw)
    assert str(caught.value) == message


def _track(**changes):
    track = {"property": "Pain", "effect": "Decrease", "initial_value": None, "contribution": "+"}
    track.update(changes)
    return track


@pytest.mark.parametrize(
    "raw, message",
    [
        (_walk(name=5), "/name: 5 is not of type 'string'"),
        (_walk(action=["x"]), "/action: ['x'] is not of type 'string'"),
        (_walk(tracks=[_track(property=7)]), "/tracks/0/property: 7 is not of type 'string'"),
        (_walk(tracks=[_track(effect=1.5)]), "/tracks/0/effect: 1.5 is not of type 'string'"),
        (
            _walk(tracks=[_track(initial_value=["High"])]),
            "/tracks/0/initial_value: ['High'] is not valid under any of the given schemas",
        ),
        (
            _walk(tracks=[_track(contribution=1)]),
            "/tracks/0/contribution: 1 is not one of ['+', '-', '0']",
        ),
    ],
    ids=["name", "action", "property", "effect", "initial_value", "contribution"],
)
def test_validate_recommendation_rejects_values_that_are_not_strings(raw, message):
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(raw)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "raw",
    [
        _walk(action=["x"] * 20000),
        _walk(tracks={"x" * 20000: 1}),
        _walk(tracks=[_track(effect=["x"] * 20000)]),
        ["x"] * 20000,
    ],
    ids=["string", "array", "track-string", "object"],
)
def test_validate_recommendation_cuts_a_long_bad_value_to_a_short_message(raw):
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(raw)
    assert "..." in str(caught.value)
    assert len(str(caught.value)) < 200


@pytest.mark.parametrize("raw", [["must"] * 20000, "x" * 20000], ids=["array", "landmark"])
def test_deontic_strength_cuts_a_long_unreadable_value(raw):
    with pytest.raises(UnknownLandmark) as caught:
        DeonticStrength.parse(raw)
    assert len(str(caught.value)) < 200


def test_validate_recommendation_reports_an_empty_track_list():
    with pytest.raises(SchemaError) as caught:
        validate_recommendation(_walk(tracks=[]))
    assert str(caught.value) == "/tracks: [] should be non-empty"


# ---------------------------------------------------------------------------
# interactions


def test_interactions_cannot_be_reflexive():
    with pytest.raises(InvalidInteraction, match="itself"):
        validate_interaction("r1", "r1", Modal.CERTAIN, ["r1", "r2"])


def test_interaction_endpoints_must_be_known():
    with pytest.raises(InvalidInteraction, match="'r9'"):
        validate_interaction("r1", "r9", Modal.CERTAIN, ["r1", "r2"])


def test_interaction_modal_strings_are_coerced():
    built = validate_interaction("r1", "r2", "uncertain", ["r1", "r2"])
    assert built.modal is Modal.UNCERTAIN
    with pytest.raises(InvalidInteraction, match="maybe"):
        validate_interaction("r1", "r2", "maybe", ["r1", "r2"])


def test_contradiction_freeness_checks_pairs_inside_the_set():
    clash = [Interaction("r1", "r2", Modal.CERTAIN)]
    assert not contradiction_free(["r1", "r2"], clash)
    assert contradiction_free(["r1"], clash)
    assert contradiction_free(["r2"], clash)
    assert contradiction_free([], clash)
    assert contradiction_free(["r1", "r2"], [])


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_contradiction_freeness_is_antitone(seed):
    rng = random.Random(seed)
    recommendations, interactions, _ = random_tmr_instance(rng)
    names = [r.name for r in recommendations]
    chosen = [n for n in names if rng.random() < 0.6]
    if contradiction_free(chosen, interactions):
        smaller = [n for n in chosen if rng.random() < 0.5]
        assert contradiction_free(smaller, interactions)
    else:
        assert not contradiction_free(names, interactions)


# ---------------------------------------------------------------------------
# contexts


def test_a_full_context_validates_and_closes():
    context = validate_context(
        CARE_RECS,
        patient_state=[StateTerm("Swelling", "High"), StateTerm("Pain")],
        goals=[
            GoalTerm(effect="Decrease", property="Pain"),
            GoalTerm(effect="Decrease", property="Swelling"),
        ],
        action_preference=[("r1", "r2"), ("r2", "r3")],
        goal_priority=[
            (
                GoalTerm(effect="Decrease", property="Swelling"),
                GoalTerm(effect="Decrease", property="Pain"),
            )
        ],
    )
    assert isinstance(context, Context)
    # reflexive and transitive closure of the action preference
    assert ("r1", "r1") in context.action_preference
    assert ("r1", "r3") in context.action_preference
    # priority closure keeps the stated direction and adds reflexivity
    pain = GoalTerm(effect="Decrease", property="Pain")
    swelling = GoalTerm(effect="Decrease", property="Swelling")
    assert (swelling, pain) in context.goal_priority
    assert (pain, pain) in context.goal_priority


def test_bare_state_terms_match_any_tracked_value():
    validate_context(CARE_RECS, patient_state=[StateTerm("Swelling")])


def test_a_bare_state_term_sorts_before_its_valued_forms():
    terms = [StateTerm("Pain", "Low"), StateTerm("Fatigue"), StateTerm("Pain")]
    assert sorted(terms) == [StateTerm("Fatigue"), StateTerm("Pain"), StateTerm("Pain", "Low")]
    assert StateTerm("Pain") < StateTerm("Pain", "High") <= StateTerm("Pain", "Low")


def test_unknown_state_properties_are_rejected():
    with pytest.raises(IncompatibleState, match="Kidney"):
        validate_context(CARE_RECS, patient_state=[StateTerm("Kidney Function")])


def test_state_values_must_match_a_tracked_initial_value():
    with pytest.raises(IncompatibleState, match="Low"):
        validate_context(
            CARE_RECS, patient_state=[StateTerm("Swelling", "Low")]
        )


def test_goals_must_match_a_tracked_effect():
    with pytest.raises(IncompatibleGoal, match="Eliminate"):
        validate_context(
            CARE_RECS, goals=[GoalTerm(effect="Eliminate", property="Pain")]
        )


def test_negated_goals_match_the_same_tracks():
    validate_context(
        CARE_RECS,
        goals=[GoalTerm(effect="Increase", property="Pain", negated=True)],
    )


def test_preferences_may_name_actions():
    context = validate_context(
        CARE_RECS, action_preference=[("walk", "ice")]
    )
    assert ("r1", "r2") in context.action_preference


def test_preferences_over_unknown_names_are_rejected():
    with pytest.raises(PreferenceOverUnknownRec, match="'swim'"):
        validate_context(CARE_RECS, action_preference=[("swim", "r1")])


def test_action_names_shared_by_mixed_signs_are_ambiguous():
    recommendations = CARE_RECS + [
        rec("r4", "walk", "must_not", [("Pain", "Increase", None, "-")])
    ]
    with pytest.raises(AmbiguousActionPreference, match="'walk'"):
        validate_context(recommendations, action_preference=[("walk", "r2")])


def test_action_names_shared_by_same_sign_recs_fan_out():
    recommendations = CARE_RECS + [
        rec("r4", "walk", "must", [("Stamina", "Increase", None, "+")])
    ]
    context = validate_context(
        recommendations, action_preference=[("walk", "r2")]
    )
    assert ("r1", "r2") in context.action_preference
    assert ("r4", "r2") in context.action_preference


def test_goal_priority_must_be_total():
    goals = [
        GoalTerm(effect="Decrease", property="Pain"),
        GoalTerm(effect="Decrease", property="Swelling"),
    ]
    with pytest.raises(PriorityNotTotal, match="incomparable"):
        validate_context(CARE_RECS, goals=goals)


def test_goal_priority_may_not_mention_undeclared_goals():
    declared = GoalTerm(effect="Decrease", property="Pain")
    undeclared = GoalTerm(effect="Decrease", property="Swelling")
    with pytest.raises(IncompatibleGoal, match="not a declared goal"):
        validate_context(
            CARE_RECS,
            goals=[declared],
            goal_priority=[(undeclared, declared)],
        )


def test_display_forms():
    assert StateTerm("Blood Pressure").display() == "Blood Pressure"
    assert StateTerm("Body Temperature", "High").display() == "High Body Temperature"
    assert GoalTerm(effect="Decrease", property="Pain").display() == "Decrease Pain"
    assert (
        GoalTerm(effect="Increase", property="Pain", negated=True).display()
        == "¬Increase Pain"
    )


def test_patient_fixture_context_round_trips(patient_a_bundle):
    b = patient_a_bundle
    context = validate_context(
        b.recommendations,
        patient_state=b.context.patient_state,
        goals=b.context.goals,
        action_preference=b.context.action_preference,
        goal_priority=b.context.goal_priority,
    )
    assert context.patient_state == b.context.patient_state
    assert context.goals == b.context.goals
    # the stored pairs are already closed, so re-validation is a fixpoint
    assert context.action_preference == b.context.action_preference
    assert context.goal_priority == b.context.goal_priority


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_generated_contexts_are_already_closed(seed):
    rng = random.Random(seed)
    recommendations, _, context = random_tmr_instance(rng)
    names = sorted(r.name for r in recommendations)
    for name in names:
        assert (name, name) in context.action_preference
    for a, b in context.action_preference:
        for c, d in context.action_preference:
            if b == c:
                assert (a, d) in context.action_preference
