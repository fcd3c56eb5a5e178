"""Translation of recommendations plus context into goal frameworks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argclinic import (
    Context,
    DeonticStrength,
    GoalTerm,
    Interaction,
    InvalidInteraction,
    Modal,
    Recommendation,
    Sentence,
    StateTerm,
    SymbolCollision,
    Track,
    attacks,
    build_patient_framework,
    preferred_extensions,
    resolve,
    symbolize,
)
from argclinic import mapper
from argclinic.generators import random_tmr_instance

seeds = st.integers(min_value=0, max_value=10**6)


def rec(name, action, ds, tracks):
    return Recommendation(
        name=name,
        action=action,
        strength=DeonticStrength.parse(ds),
        tracks=tuple(Track(*t) for t in tracks),
    )


def rules_as_tuples(framework):
    return sorted(
        (r.head.symbol, tuple(sorted(s.symbol for s in r.body)))
        for r in framework.base.rules
    )


def test_symbolize_collapses_whitespace():
    assert symbolize("High  Intensity Exercise") == "High_Intensity_Exercise"
    assert symbolize(" Adm. NSAID ") == "Adm._NSAID"


# ---------------------------------------------------------------------------
# the drug clash case, rule by rule


def test_drug_clash_maps_to_eight_rules(aspirin_pref_bundle):
    b = aspirin_pref_bundle
    framework, report = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    assert rules_as_tuples(framework) == [
        ("Adm._NSAID", ("r1",)),
        ("Decrease_Blood_Coagulation", ("Adm._NSAID",)),
        ("Gastrointestinal_Bleeding", ()),
        ("contrary_of_r1", ("Gastrointestinal_Bleeding", "int_r1_r2", "r2")),
        ("contrary_of_r2", ("int_r1_r2", "r1")),
        ("int_r1_r2", ()),
        ("¬Adm._Aspirin", ("r2",)),
        ("¬Increase_Gastrointestinal_Bleeding", ("¬Adm._Aspirin",)),
    ]
    assert report.assumptions == ("r1", "r2")
    base = framework.base
    assert {a.symbol: base.contrary(a).symbol for a in base.assumptions} == {
        "r1": "contrary_of_r1",
        "r2": "contrary_of_r2",
    }
    # the patient chose aspirin avoidance over the NSAID course
    assert base.preference.strictly_less(Sentence("r2"), Sentence("r1"))
    expected = {name: 1 for name in report.rule_counts}
    expected["contradiction_rules_symmetric"] = 0
    # the contrapositive of contrary_of_r1 <- ..., r2 (r2 below r1) is
    # subsumed by contrary_of_r2 <- int_r1_r2, r1
    expected["contradiction_rules_contrapositive"] = 0
    assert dict(report.rule_counts) == expected
    assert report.warnings == ()
    assert report.symmetric_interactions == ()


def test_certain_interactions_become_facts(aspirin_pref_bundle):
    b = aspirin_pref_bundle
    framework, _ = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    token = Sentence("int_r1_r2")
    assert token not in framework.base.assumptions
    fact_bodies = [r for r in framework.base.rules if r.head == token]
    assert len(fact_bodies) == 1 and fact_bodies[0].body == frozenset()


# ---------------------------------------------------------------------------
# the exercise case, family by family


def test_exercise_case_rule_family_sizes(patient_a_bundle):
    b = patient_a_bundle
    _, report = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    assert dict(report.rule_counts) == {
        "action_rules_positive": 2,
        "action_rules_negative": 2,
        "effect_rules_positive": 7,
        "effect_rules_negative": 2,
        "state_facts": 2,
        "interaction_facts": 3,
        "contradiction_rules_positive": 3,
        "contradiction_rules_negative": 3,
        "contradiction_rules_symmetric": 0,
        # contrary_of_r2 <- int_r2_r8, r8, as r2 is below r8
        "contradiction_rules_contrapositive": 1,
    }
    assert report.assumptions == ("r2", "r3", "r4", "r8")
    assert report.warnings == ()


def test_every_track_of_a_positive_rec_gets_an_effect_rule(patient_a_bundle):
    b = patient_a_bundle
    framework, _ = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    heads = {r.head.symbol for r in framework.base.rules}
    # r2 alone tracks four properties, including the unwelcome ones
    for effect in (
        "Decrease_Pain",
        "Decrease_Fatigue",
        "Decrease_Fitness",
        "Increase_Lymphedema",
    ):
        assert effect in heads


# ---------------------------------------------------------------------------
# small synthetic cases


PAIR = [
    rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
    rec("r2", "rest", "must_not", [("Pain", "Increase", "High", "-")]),
]


def ctx(**kwargs):
    return Context(**kwargs)


def test_uncertain_interaction_tokens_are_assumptions():
    interactions = [Interaction("r1", "r2", Modal.UNCERTAIN)]
    context = ctx(patient_state=frozenset({StateTerm("Pain", "High")}))
    framework, report = build_patient_framework(PAIR, interactions, context)
    token = Sentence("int_r1_r2")
    assert token in framework.base.assumptions
    assert report.assumptions == ("r1", "r2", "int_r1_r2")
    # tokens sit after the recommendation names but are ordinary assumptions
    assert framework.base.contrary(token).symbol == "contrary_of_int_r1_r2"


def test_a_pair_listed_as_both_certain_and_uncertain_is_rejected():
    certain, uncertain = (Interaction("r1", "r2", modal) for modal in Modal)
    with pytest.raises(InvalidInteraction) as caught:
        build_patient_framework(PAIR, [certain, uncertain], ctx())
    assert str(caught.value) == "interaction 'r1' / 'r2' is listed as both certain and uncertain"
    # the same pair twice with one modality, and the reversed pair, stay accepted
    framework, _ = build_patient_framework(PAIR, [uncertain, uncertain], ctx())
    assert framework.base.assumptions == {"r1", "r2", "int_r1_r2"}
    reversed_pair = Interaction("r2", "r1", Modal.UNCERTAIN)
    framework, _ = build_patient_framework(PAIR, [certain, reversed_pair], ctx())
    assert framework.base.assumptions == {"r1", "r2", "int_r2_r1"}


def test_interaction_tokens_are_never_attacked():
    interactions = [Interaction("r1", "r2", Modal.UNCERTAIN)]
    context = ctx(patient_state=frozenset({StateTerm("Pain", "High")}))
    framework, _ = build_patient_framework(PAIR, interactions, context)
    token = Sentence("int_r1_r2")
    everyone = framework.base.assumptions
    assert not attacks(framework.base, everyone, {token})
    # consequently the token joins at least one preferred extension
    assert any(
        token in ext for ext in preferred_extensions(framework.base)
    )


def test_uncertain_interaction_is_kept_against_a_strict_preference():
    # r1 (positive) is strictly below r2 (negative), and the state leaves
    # r2's counter-argument out: only the reversed attack of
    # contrary_of_r2 <- r1, int_r1_r2 relates the endpoints.
    interactions = [Interaction("r1", "r2", Modal.UNCERTAIN)]
    context = ctx(action_preference=frozenset({("r1", "r2")}))
    framework, report = build_patient_framework(PAIR, interactions, context)
    token, r1, r2 = Sentence("int_r1_r2"), Sentence("r1"), Sentence("r2")
    extensions = preferred_extensions(framework.base)
    assert not any({r1, r2} <= ext for ext in extensions)
    assert all(token in ext for ext in extensions)
    assert extensions == (frozenset({token, r2}),)
    # the contrapositive that restores the attack on r1
    assert ("contrary_of_r1", ("int_r1_r2", "r2")) in rules_as_tuples(framework)
    assert report.rule_counts["contradiction_rules_contrapositive"] == 1


def test_negative_condition_rules_need_a_minus_track():
    harmless = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "rest", "must_not", [("Pain", "Increase", None, "0")]),
    ]
    interactions = [Interaction("r1", "r2", Modal.CERTAIN)]
    framework, report = build_patient_framework(harmless, interactions, ctx())
    assert report.rule_counts["contradiction_rules_positive"] == 1
    assert report.rule_counts["contradiction_rules_negative"] == 0
    # with no counter-argument, the positive side wins outright
    assert preferred_extensions(framework.base) == (
        frozenset({Sentence("r1")}),
    )


def test_condition_rules_use_bare_properties_when_value_is_unknown():
    pair = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "rest", "must_not", [("Pain", "Increase", None, "-")]),
    ]
    interactions = [Interaction("r1", "r2", Modal.CERTAIN)]
    framework, _ = build_patient_framework(pair, interactions, ctx())
    body_sets = [
        sorted(s.symbol for s in r.body)
        for r in framework.base.rules
        if r.head.symbol == "contrary_of_r1"
    ]
    assert body_sets == [["Pain", "int_r1_r2", "r2"]]


def test_same_sign_interactions_argue_both_ways():
    allies = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "swim", "must", [("Pain", "Decrease", None, "+")]),
    ]
    interactions = [Interaction("r1", "r2", Modal.CERTAIN)]
    framework, report = build_patient_framework(allies, interactions, ctx())
    assert report.symmetric_interactions == (("r1", "r2"),)
    assert report.rule_counts["contradiction_rules_symmetric"] == 2
    assert report.rule_counts["contradiction_rules_positive"] == 0
    assert report.rule_counts["contradiction_rules_negative"] == 0
    exts = preferred_extensions(framework.base)
    assert sorted(sorted(s.symbol for s in e) for e in exts) == [["r1"], ["r2"]]


def test_underivable_goals_are_dropped_with_a_warning():
    context = ctx(
        goals=frozenset(
            {GoalTerm(effect="Increase", property="Pain", negated=True)}
        )
    )
    # r2 is the only rec tracking Increase Pain, and it is positive, so the
    # prevented form has no deriving rule.
    pair = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "rest", "should", [("Pain", "Increase", None, "-")]),
    ]
    framework, report = build_patient_framework(pair, [], context)
    assert report.dropped_goals == ("¬Increase Pain",)
    assert report.warnings == (
        "goal '¬Increase Pain' cannot be concluded by any rule; dropped",
    )
    assert framework.goals == frozenset()


def test_rec_names_may_not_collide_with_action_symbols():
    clashing = [
        rec("walk", "run", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "walk", "should", [("Pain", "Decrease", None, "+")]),
    ]
    with pytest.raises(SymbolCollision, match="'walk'"):
        build_patient_framework(clashing, [], ctx())


ANOTHER_R1 = rec("r1", "swim", "should", [("Pain", "Decrease", None, "+")])


@pytest.mark.parametrize(
    "recommendations, interactions, error, message",
    [
        (PAIR + [ANOTHER_R1], [], SymbolCollision, "two recommendations are named 'r1'"),
        (PAIR, [Interaction("r1", "rX", Modal.CERTAIN)], InvalidInteraction,
         "endpoint 'rX' names no known recommendation"),
        (PAIR, [Interaction("r1", "r1", Modal.UNCERTAIN)], InvalidInteraction,
         "'r1' cannot interact with itself"),
        (PAIR, [Interaction("r1", "r2", "maybe")], InvalidInteraction,
         "modality must be 'certain' or 'uncertain', got 'maybe'"),
        (PAIR, [Interaction("r1", "r2", None)], InvalidInteraction,
         "modality must be 'certain' or 'uncertain', got None"),
    ],
    ids=["repeated-name", "unknown-endpoint", "self-interaction", "bad-modal", "no-modal"],
)
def test_records_built_by_hand_are_checked_like_a_bundle(
    recommendations, interactions, error, message
):
    with pytest.raises(error, match=message):
        resolve(recommendations, interactions, ctx())


def collision_message(recommendations, context) -> str:
    with pytest.raises(SymbolCollision) as caught:
        build_patient_framework(recommendations, [], context)
    return str(caught.value)


def test_an_action_named_like_a_recommendation_names_both():
    clashing = [
        rec("walk", "run", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "walk", "should", [("Pain", "Decrease", None, "+")]),
    ]
    assert collision_message(clashing, ctx()) == (
        "action 'walk' and recommendation 'walk' both map to the sentence 'walk'"
    )


def test_a_negative_recommendation_interns_its_action_first():
    # r1's avoided action ¬walk would collide with the recommendation ¬walk,
    # but its action walk collides with the recommendation walk first.
    clashing = [
        rec("r1", "walk", "must_not", [("Pain", "Increase", None, "-")]),
        rec("walk", "run", "should", [("Pain", "Decrease", None, "+")]),
        rec("¬walk", "swim", "should", [("Pain", "Decrease", None, "+")]),
    ]
    assert collision_message(clashing, ctx()) == (
        "action 'walk' and recommendation 'walk' both map to the sentence 'walk'"
    )


def test_a_goal_effect_named_like_a_state_term_names_both():
    # Only the negative r1 tracks Decrease Pain, so the goal is the first
    # to intern it as an effect, after the state term took the symbol.
    avoid = [rec("r1", "rest", "must_not", [("Pain", "Decrease", "Decrease", "-")])]
    context = ctx(
        patient_state=frozenset({StateTerm("Pain", "Decrease")}),
        goals=frozenset({GoalTerm(effect="Decrease", property="Pain")}),
    )
    assert collision_message(avoid, context) == (
        "effect 'Decrease Pain' and state 'Decrease Pain' "
        "both map to the sentence 'Decrease_Pain'"
    )


def test_shared_actions_share_one_action_rule_head():
    sharing = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "walk", "must", [("Stiffness", "Decrease", None, "+")]),
    ]
    framework, report = build_patient_framework(sharing, [], ctx())
    assert report.rule_counts["action_rules_positive"] == 2
    walk_rules = [
        r for r in framework.base.rules if r.head.symbol == "walk"
    ]
    assert len(walk_rules) == 2


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_generated_instances_always_map_to_flat_frameworks(seed):
    rng = random.Random(seed)
    recommendations, interactions, context = random_tmr_instance(rng)
    framework, report = build_patient_framework(
        recommendations, interactions, context
    )
    heads = {r.head for r in framework.base.rules}
    assert not (heads & framework.base.assumptions)
    assert set(report.assumptions) == {
        s.symbol for s in framework.base.assumptions
    }


@pytest.mark.parametrize("seed", [7001, 7002, 7003])
def test_mapped_frameworks_have_weak_contraposition_rules(seed):
    rng = random.Random(seed)
    checked = symmetric = 0
    for _ in range(150):
        recommendations, interactions, context = random_tmr_instance(
            rng, max_recommendations=8, max_interactions=6
        )
        framework, report = build_patient_framework(
            recommendations, interactions, context
        )
        symmetric += len(report.symmetric_interactions)
        base = framework.base
        target_of = {base.contrary(a): a for a in base.assumptions}
        for rule in base.rules:
            target = target_of.get(rule.head)
            if target is None:
                continue
            for low in rule.body & base.assumptions:
                if not base.preference.strictly_less(low, target):
                    continue
                checked += 1
                allowed = (rule.body - {low}) | {target}
                assert any(
                    other.head == base.contrary(low) and other.body <= allowed
                    for other in base.rules
                ), f"no contrapositive of {rule} for {low}"
    assert checked and symmetric


def _every_contrapositive(contradiction_rules, preference, contraries):
    """``mapper._contrapositives`` without its subsumption filter."""
    target_of = {symbol: asm for asm, symbol in contraries.items()}
    candidates = set()
    for head, body in contradiction_rules:
        target = target_of[head]
        for low in body:
            if (low, target) in preference and (target, low) not in preference:
                rest = (set(body) - {low}) | {target}
                candidates.add((contraries[low], tuple(sorted(rest))))
    return candidates


def test_dropping_subsumed_contrapositives_changes_no_answer(monkeypatch):
    family = "contradiction_rules_contrapositive"
    rng = random.Random(7100)
    dropped = 0
    for _ in range(2000):
        instance = random_tmr_instance(rng, max_recommendations=8, max_interactions=6)
        kept = resolve(*instance)
        monkeypatch.setattr(mapper, "_contrapositives", _every_contrapositive)
        every = resolve(*instance)
        monkeypatch.undo()
        assert (kept.preferred, kept.goal_extensions, kept.top_goal_extensions) == (
            every.preferred,
            every.goal_extensions,
            every.top_goal_extensions,
        ), instance
        dropped += kept.report.rule_counts[family] < every.report.rule_counts[family]
    assert dropped


# ---------------------------------------------------------------------------
# resolve


def test_resolve_plans_follow_the_top_extension(patient_a_bundle):
    b = patient_a_bundle
    solution = resolve(b.recommendations, b.interactions, b.context)
    assert solution.preferred_recommendations == (("r3", "r8"), ("r4", "r8"))
    assert len(solution.goal_extensions) == 2
    assert len(solution.top_goal_extensions) == 1
    assert len(solution.follow) == 1
    plan = solution.follow[0]
    assert plan.source == ("r3", "r8")
    assert [item.display() for item in plan.items] == [
        "r3 (Low Pace Exercise)",
        "r8 (avoid High Intensity Exercise)",
    ]


def test_resolve_with_a_single_recommendation():
    only = [rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")])]
    solution = resolve(only, [], ctx())
    assert solution.preferred_recommendations == (("r1",),)
    assert solution.follow == (
        type(solution.follow[0])(
            source=("r1",), items=solution.follow[0].items
        ),
    )
    assert [i.display() for i in solution.follow[0].items] == ["r1 (walk)"]


def test_no_interactions_means_one_plan_with_every_rec():
    trio = [
        rec("r1", "walk", "should", [("Pain", "Decrease", None, "+")]),
        rec("r2", "swim", "must", [("Stamina", "Increase", None, "+")]),
        rec("r3", "rest", "must_not", [("Pain", "Increase", None, "-")]),
    ]
    solution = resolve(trio, [], ctx())
    assert solution.preferred_recommendations == (("r1", "r2", "r3"),)
    plan = solution.follow[0]
    assert [i.display() for i in plan.items] == [
        "r1 (walk)",
        "r2 (swim)",
        "r3 (avoid rest)",
    ]
