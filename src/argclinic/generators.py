"""Random instances for differential testing.

Frameworks come out small enough for the brute-force oracle but are built to
exercise the awkward corners: rule cycles, sentences with several distinct
supports (including non-minimal ones), assumptions whose contrary nobody can
derive, and preference pairs dense enough to trigger reverse attacks.
Random guideline bundles are written by ``bundle.serialize_bundle``, the
format's one writer.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from .aba_core import AbaFramework, RawFramework, validate_framework
from .aba_goals import AbapgFramework, validate_abapg
from .tmr import (
    Context,
    DeonticStrength,
    GoalTerm,
    Interaction,
    Recommendation,
    StateTerm,
    Track,
    contradiction_free,
    validate_context,
    validate_interaction,
)

_LANDMARKS = ["must", "should", "may", "should_not", "must_not"]
_PROPERTIES = [
    "Blood Pressure",
    "Body Temperature",
    "Fatigue",
    "Pain",
    "Bleeding Risk",
    "Glucose Level",
]
_EFFECTS = ["Increase", "Decrease"]
_VALUES = ["High", "Low", "Normal"]
_ACTIONS = [
    "Aerobic Exercise",
    "Aspirin",
    "Ibuprofen",
    "Insulin",
    "Bed Rest",
    "Hydration",
    "Stretching",
    "Massage",
]


def random_framework(
    rng: random.Random,
    max_assumptions: int = 8,
    max_rules: int = 14,
    with_preferences: bool = True,
) -> AbaFramework:
    """A random flat framework with assumptions a0.. and derived atoms s0.."""
    n_assumptions = rng.randint(1, max_assumptions)
    assumptions = [f"a{i}" for i in range(n_assumptions)]
    derived = [f"s{i}" for i in range(rng.randint(0, 6))]
    pool = assumptions + derived

    contraries = []
    for assumption in assumptions:
        if derived and rng.random() < 0.75:
            contraries.append((assumption, rng.choice(derived)))
        # otherwise validate_framework mints an underivable fresh contrary

    rules = []
    if derived:
        for _ in range(rng.randint(0, max_rules)):
            head = rng.choice(derived)
            body = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            rules.append((head, body))

    preferences = []
    if with_preferences:
        for _ in range(rng.randint(0, n_assumptions)):
            low, high = rng.choice(assumptions), rng.choice(assumptions)
            if low != high:
                preferences.append((low, high))

    return validate_framework(
        RawFramework.of(rules, assumptions, contraries, preferences)
    )


def random_abapg(rng: random.Random, max_assumptions: int = 8) -> AbapgFramework:
    """A random goal-aware framework with a total level-based priority."""
    while True:
        base = random_framework(rng, max_assumptions=max_assumptions)
        heads = sorted({rule.head.symbol for rule in base.rules})
        if heads:
            break
    goals = rng.sample(heads, rng.randint(1, min(4, len(heads))))
    level = {goal: rng.randint(0, len(goals)) for goal in goals}
    priorities = [
        (low, high)
        for low in goals
        for high in goals
        if level[low] <= level[high]
    ]
    return validate_abapg(base, goals, priorities)


def random_tmr_instance(
    rng: random.Random,
    max_recommendations: int = 6,
    max_interactions: int = 5,
    total_preference: bool = False,
    require_cf_maximal: bool = False,
) -> tuple[list[Recommendation], list[Interaction], Context]:
    """A random recommendation set with interactions and a patient context.

    With ``total_preference`` the action preference is a total preorder built
    from levels.  With ``require_cf_maximal`` the instance is resampled until
    the most-preferred recommendations are mutually interaction-free (only
    meaningful together with ``total_preference``).
    """
    while True:
        count = rng.randint(2, max_recommendations)
        names = [f"r{i + 1}" for i in range(count)]
        actions = rng.sample(_ACTIONS, count)
        recommendations = []
        for name, action in zip(names, actions):
            if rng.random() < 0.6:
                strength = rng.choice(_LANDMARKS)
            else:
                strength = round(rng.uniform(-1.0, 1.0), 3)
            tracks = tuple(
                Track(
                    property=prop,
                    effect=rng.choice(_EFFECTS),
                    initial_value=rng.choice(_VALUES + [None]),
                    contribution=rng.choice(["+", "-", "0"]),
                )
                for prop in rng.sample(_PROPERTIES, rng.randint(1, 3))
            )
            recommendations.append(
                Recommendation(name, action, DeonticStrength.parse(strength), tracks)
            )

        interactions = []
        pairs = list(combinations(names, 2))
        rng.shuffle(pairs)
        for first, second in pairs[: rng.randint(0, max_interactions)]:
            if rng.random() < 0.5:
                first, second = second, first
            modal = rng.choice(["certain", "uncertain"])
            interactions.append(validate_interaction(first, second, modal, names))

        state_candidates = []
        goal_candidates = set()
        for rec in recommendations:
            for track in rec.tracks:
                goal_candidates.add((track.effect, track.property))
                state_candidates.append(StateTerm(track.property, track.initial_value))
        rng.shuffle(state_candidates)
        seen_props = set()
        patient_state = []
        for term in state_candidates[: rng.randint(0, 3)]:
            if term.property in seen_props:
                continue
            seen_props.add(term.property)
            patient_state.append(term)

        goal_pool = sorted(goal_candidates)
        goals = []
        for effect, prop in rng.sample(goal_pool, rng.randint(0, min(3, len(goal_pool)))):
            goals.append(
                GoalTerm(effect=effect, property=prop, negated=rng.random() < 0.4)
            )

        if total_preference:
            rec_level = {name: rng.randint(0, count) for name in names}
            action_preference = [
                (low, high)
                for low in names
                for high in names
                if low != high and rec_level[low] <= rec_level[high]
            ]
        else:
            action_preference = []
            for _ in range(rng.randint(0, count)):
                low, high = rng.sample(names, 2)
                action_preference.append((low, high))

        goal_level = {index: rng.randint(0, len(goals)) for index in range(len(goals))}
        goal_priority = [
            (goals[i], goals[j])
            for i in range(len(goals))
            for j in range(len(goals))
            if i != j and goal_level[i] <= goal_level[j]
        ]

        context = validate_context(
            recommendations,
            patient_state=patient_state,
            goals=goals,
            action_preference=action_preference,
            goal_priority=goal_priority,
        )

        if require_cf_maximal and total_preference:
            top_level = max(rec_level.values())
            top_names = [n for n in names if rec_level[n] == top_level]
            if not contradiction_free(top_names, interactions):
                continue
        return recommendations, interactions, context


def random_bundle_data(rng: random.Random) -> dict:
    """A random bundle as a JSON-compatible dictionary, written by ``serialize_bundle``."""
    from .bundle import GuidelineBundle, serialize_bundle

    recommendations, interactions, context = random_tmr_instance(rng)
    metadata = {"name": f"fuzz-{rng.randrange(10 ** 6)}", "version": "1"}
    bundle = GuidelineBundle(tuple(recommendations), tuple(interactions), context, metadata)
    return json.loads(serialize_bundle(bundle))
