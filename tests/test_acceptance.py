"""Acceptance gate: one test per contract criterion, at stated tolerances.

Each test prints a one-line summary (visible with ``pytest -v -s`` or on
failure) and asserts exactly; nothing is loosened.  Random suites use fixed
seeds so failures reproduce.
"""

import random
import time
from itertools import product

from argclinic import (
    Sentence,
    attack_kinds,
    attacks,
    collect_goal_extensions,
    compute_supports,
    contradiction_free,
    goal_set_leq,
    maximal_goal_extensions,
    parse_aba_text,
    parse_bundle,
    preferred_extensions,
    resolve,
    serialize_bundle,
    serialize_framework,
    validate_framework,
)
from argclinic.aba_core import Preorder
from argclinic.aba_goals import GoalExtension
from argclinic.generators import (
    random_abapg,
    random_bundle_data,
    random_framework,
    random_tmr_instance,
)
from argclinic.mapper import build_patient_framework
from argclinic.oracle import _at_most_as_good, brute_force_preferred, brute_force_top_goals


def sset(*symbols):
    return frozenset(Sentence(s) for s in symbols)


def names_of(extension):
    return sorted(s.symbol for s in extension)


def test_criterion_1_case_study_reproduction(patient_a_bundle):
    b = patient_a_bundle
    started = time.perf_counter()
    solution = resolve(b.recommendations, b.interactions, b.context)
    elapsed = time.perf_counter() - started

    assert solution.preferred == (sset("r3", "r8"), sset("r4", "r8"))

    by_source = {g.sources: g.achieved for g in solution.goal_extensions}
    assert by_source[(sset("r3", "r8"),)] == sset(
        "Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"
    )
    assert by_source[(sset("r4", "r8"),)] == sset(
        "¬Increase_Blood_Pressure", "¬Increase_Body_Temperature"
    )
    assert len(solution.goal_extensions) == 2

    assert len(solution.top_goal_extensions) == 1
    top = solution.top_goal_extensions[0]
    assert top.sources == (sset("r3", "r8"),)
    assert top.achieved == sset(
        "Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"
    )
    assert elapsed < 1.0
    print(
        f"criterion 1: preferred/goal/top extensions exact, {elapsed:.3f}s"
    )


def test_criterion_2_drug_clash_scenarios(
    aspirin_pref_bundle, aspirin_priority_bundle
):
    with_pref = resolve(
        aspirin_pref_bundle.recommendations,
        aspirin_pref_bundle.interactions,
        aspirin_pref_bundle.context,
    )
    assert with_pref.preferred == (sset("r1"),)
    assert with_pref.preferred_recommendations == (("r1",),)

    with_priority = resolve(
        aspirin_priority_bundle.recommendations,
        aspirin_priority_bundle.interactions,
        aspirin_priority_bundle.context,
    )
    assert with_priority.preferred == (sset("r1"), sset("r2"))
    assert len(with_priority.top_goal_extensions) == 1
    assert with_priority.top_goal_extensions[0].sources == (sset("r2"),)
    assert with_priority.follow[0].source == ("r2",)
    print("criterion 2: both scenarios exact")


def test_criterion_3_interaction_theorem_suite():
    rng = random.Random(3001)
    instances = 1000
    violations = 0
    first = None
    for index in range(instances):
        recommendations, interactions, context = random_tmr_instance(
            rng, max_recommendations=8, max_interactions=6
        )
        framework, _ = build_patient_framework(
            recommendations, interactions, context
        )
        rec_names = {r.name for r in recommendations}
        for extension in preferred_extensions(framework.base):
            chosen = [s.symbol for s in extension if s.symbol in rec_names]
            if not contradiction_free(chosen, interactions):
                violations += 1
                if first is None:
                    first = (index, recommendations, interactions, context, chosen)
    if first is not None:
        index, recommendations, interactions, context, chosen = first
        print(f"criterion 3: {violations} violating extensions in {instances} instances")
        print(f"first counterexample (instance {index}):")
        for r in recommendations:
            print(
                f"  {r.name}: action={r.action!r} ds={r.strength.value} "
                f"tracks={[(t.effect, t.property, t.contribution) for t in r.tracks]}"
            )
        for i in interactions:
            print(f"  interaction: {i.first} / {i.second} ({i.modal.value})")
        noteworthy = sorted(
            (low, high)
            for low, high in context.action_preference
            if low != high
        )
        print(f"  preference pairs: {noteworthy}")
        print(f"  preferred extension keeps interacting recs: {sorted(chosen)}")
    else:
        print(f"criterion 3: 0 violations in {instances} instances")
    assert violations == 0


def test_criterion_4_preferences_theorem_suite():
    rng = random.Random(4001)
    instances = 500
    for _ in range(instances):
        recommendations, interactions, context = random_tmr_instance(
            rng,
            max_recommendations=8,
            max_interactions=6,
            total_preference=True,
            require_cf_maximal=True,
        )
        names = [r.name for r in recommendations]
        maximal = {
            n
            for n in names
            if all((other, n) in context.action_preference for other in names)
        }
        assert maximal, "a total preorder on a finite set has maximal elements"
        framework, _ = build_patient_framework(
            recommendations, interactions, context
        )
        maximal_sentences = {Sentence(n) for n in maximal}
        for extension in preferred_extensions(framework.base):
            assert maximal_sentences <= extension
    print(f"criterion 4: maximal recs contained in every extension, {instances} instances")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(5001)
    framework_rounds = 1000
    for _ in range(framework_rounds):
        framework = random_framework(rng, max_assumptions=8, max_rules=16)
        assert preferred_extensions(framework) == brute_force_preferred(framework)
    goal_rounds = 500
    for _ in range(goal_rounds):
        abapg = random_abapg(rng, max_assumptions=8)
        engine = maximal_goal_extensions(
            collect_goal_extensions(abapg, preferred_extensions(abapg.base)),
            abapg.priority,
        )
        reference = brute_force_top_goals(abapg)
        assert [(g.achieved, g.sources) for g in engine] == [
            (g.achieved, g.sources) for g in reference
        ]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 5: {framework_rounds}+{goal_rounds} instances agree, "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_no_preference_degeneration():
    rng = random.Random(6001)
    frameworks = 300
    reverse_count = 0
    for _ in range(frameworks):
        framework = random_framework(
            rng, max_assumptions=6, with_preferences=False
        )
        table = compute_supports(framework)
        members = sorted(framework.assumptions)
        subsets = [
            frozenset(m for m, keep in zip(members, bits) if keep)
            for bits in product((False, True), repeat=len(members))
        ]
        contrary_supports = {
            b: table.supports_of(framework.contrary(b)) for b in members
        }
        for attacker in subsets:
            for target in subsets:
                plain = any(
                    support <= attacker
                    for b in target
                    for support in contrary_supports[b]
                )
                assert attacks(framework, attacker, target) == plain
                kinds = attack_kinds(framework, attacker, target)
                reverse_count += "reverse" in kinds
    assert reverse_count == 0
    print(
        f"criterion 6: attack relation degenerates exactly, "
        f"0 reverse attacks across {frameworks} frameworks"
    )


def test_criterion_7_goal_ordering_laws():
    rng = random.Random(7001)
    instances = 500
    for _ in range(instances):
        size = rng.randint(1, 5)
        goals = [f"g{i}" for i in range(size)]
        level = {g: rng.randint(0, size) for g in goals}
        priority = Preorder.over(
            goals,
            [
                (low, high)
                for low in goals
                for high in goals
                if level[low] <= level[high]
            ],
        )
        family = []
        for _ in range(rng.randint(1, 6)):
            achieved = frozenset(
                Sentence(g) for g in goals if rng.random() < 0.5
            )
            family.append(achieved)
        for achieved in family:
            assert goal_set_leq(achieved, achieved, priority)
            for other in family:
                assert goal_set_leq(achieved, other, priority) or goal_set_leq(
                    other, achieved, priority
                )
        extensions = [
            GoalExtension(achieved=a, sources=(frozenset(),)) for a in set(family)
        ]
        computed = {
            g.achieved for g in maximal_goal_extensions(extensions, priority)
        }
        exhaustive = {
            g.achieved
            for g in extensions
            if not any(
                _at_most_as_good(g.achieved, other.achieved, priority)
                and not _at_most_as_good(other.achieved, g.achieved, priority)
                for other in extensions
            )
        }
        assert computed == exhaustive
    print(
        f"criterion 7: reflexive, total, maximal agreement on {instances} instances"
    )


def test_criterion_8_round_trips():
    rng = random.Random(8001)
    bundles = 300
    for _ in range(bundles):
        first = parse_bundle(random_bundle_data(rng))
        second = parse_bundle(serialize_bundle(first))
        assert second == first
        assert serialize_bundle(second) == serialize_bundle(first)
    frameworks = 300
    for _ in range(frameworks):
        framework = random_framework(rng)
        text = serialize_framework(framework)
        again = validate_framework(parse_aba_text(text).raw)
        assert again == framework
        assert serialize_framework(again) == text
    print(f"criterion 8: {bundles} bundles and {frameworks} frameworks round-trip")
