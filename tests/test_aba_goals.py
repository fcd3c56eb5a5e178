"""Goal layer: priorities, achieved-set comparison, and top extensions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argclinic import (
    GoalWithoutRule,
    PriorityMentionsNonGoal,
    PriorityNotTotal,
    RawFramework,
    Sentence,
    ValidationError,
    collect_goal_extensions,
    conclusions,
    goal_set_leq,
    maximal_goal_extensions,
    preferred_extensions,
    rank_goals,
    validate_abapg,
    validate_framework,
)
from argclinic.aba_core import Preorder
from argclinic.generators import random_abapg
from argclinic.mapper import build_patient_framework
from argclinic.oracle import _at_most_as_good, brute_force_top_goals

seeds = st.integers(min_value=0, max_value=10**6)


def fw(rules, assumptions, contraries, preferences=()):
    return validate_framework(
        RawFramework.of(rules, assumptions, contraries, preferences)
    )


def sset(*symbols):
    return frozenset(Sentence(s) for s in symbols)


def achieved_sets(goal_extensions):
    return [sorted(s.symbol for s in g.achieved) for g in goal_extensions]


# ---------------------------------------------------------------------------
# validation


def test_goal_without_a_deriving_rule_is_rejected():
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(GoalWithoutRule, match="'q'"):
        validate_abapg(base, ["p", "q"])


def test_assumptions_do_not_count_as_derivable_goals():
    # A goal must head a rule; being an assumption is not enough.
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(GoalWithoutRule):
        validate_abapg(base, ["a"])


def test_priority_must_mention_only_goals():
    base = fw([("p", ["a"]), ("q", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(PriorityMentionsNonGoal, match="'r'"):
        validate_abapg(base, ["p", "q"], [("p", "r")])


def test_a_goal_without_a_rule_is_reported_before_a_priority_over_a_non_goal():
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(GoalWithoutRule) as caught:
        validate_abapg(base, ["p", "q"], [("p", "r")])
    assert str(caught.value) == "goal 'q' has no rule deriving it"


def test_a_priority_over_a_non_goal_is_reported_before_incomparable_goals():
    base = fw([("p", ["a"]), ("q", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(PriorityMentionsNonGoal) as caught:
        validate_abapg(base, ["p", "q"], [("p", "r")])
    assert str(caught.value) == "priority mentions 'r', which is not a declared goal"


@pytest.mark.parametrize(
    "pairs",
    [[("p", "q"), ("q", "s")], [("p", "q"), ("q", "r")], [("p", "q")]],
    ids=["total", "non-goal", "incomparable"],
)
def test_validate_abapg_reads_a_generator_of_priority_pairs_as_the_list(pairs):
    base = fw([("p", ["a"]), ("q", ["a"]), ("s", ["a"])], ["a"], [("a", "ca")])

    def outcome(given):
        try:
            return validate_abapg(base, ["p", "q", "s"], given)
        except ValidationError as error:
            return type(error), str(error)

    assert outcome(pair for pair in pairs) == outcome(pairs)


@pytest.mark.parametrize(
    "goals, pairs, message",
    [
        ([5], [], "goal symbol must be a nonempty string, got 5"),
        ([""], [], "goal symbol must be a nonempty string, got ''"),
        (["p"], [("p", "")], "priority symbol must be a nonempty string, got ''"),
        (["p"], [(3, "p")], "priority symbol must be a nonempty string, got 3"),
    ],
    ids=["goal-int", "goal-empty", "priority-empty", "priority-int"],
)
def test_validate_abapg_names_the_place_of_a_bad_symbol(goals, pairs, message):
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(ValidationError) as caught:
        validate_abapg(base, goals, pairs)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("p", "p", "p")], "priority must be a (goal, goal) pair, got ('p', 'p', 'p')"),
        ([5], "priority must be a (goal, goal) pair, got 5"),
    ],
    ids=["triple", "int"],
)
def test_validate_abapg_rejects_a_priority_that_is_not_a_pair(pairs, message):
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(ValidationError) as caught:
        validate_abapg(base, ["p"], pairs)
    assert str(caught.value) == message


def test_validate_abapg_cuts_a_long_bad_symbol_to_a_short_message():
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(ValidationError) as caught:
        validate_abapg(base, [["x"] * 20000])
    message = str(caught.value)
    assert message.startswith("goal symbol must be a nonempty string, got ['x', 'x'")
    assert message.endswith("...")
    assert len(message) < 200


def test_incomparable_goals_are_rejected_not_completed():
    base = fw([("p", ["a"]), ("q", ["a"]), ("s", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(PriorityNotTotal, match="incomparable"):
        validate_abapg(base, ["p", "q", "s"], [("p", "q"), ("q", "p")])


def test_priority_pairs_close_transitively():
    base = fw(
        [("p", ["a"]), ("q", ["a"]), ("s", ["a"])], ["a"], [("a", "ca")]
    )
    abapg = validate_abapg(base, ["p", "q", "s"], [("p", "q"), ("q", "s")])
    assert abapg.priority.leq(Sentence("p"), Sentence("s"))
    assert abapg.priority.strictly_less(Sentence("p"), Sentence("s"))


def test_empty_goal_set_is_allowed():
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    abapg = validate_abapg(base, [])
    top = rank_goals(abapg).top_goal_extensions
    assert len(top) == 1
    assert top[0].achieved == frozenset()
    assert top[0].sources == (sset("a"),)


# ---------------------------------------------------------------------------
# achieved-goal sets


def test_goal_extension_collects_concluded_goals():
    base = fw(
        [("p", ["a"]), ("q", ["a", "b"]), ("s", ["b"])],
        ["a", "b"],
        [("a", "ca"), ("b", "cb")],
    )
    abapg = validate_abapg(base, ["p", "q"], [("p", "q"), ("q", "p")])
    ge = collect_goal_extensions(abapg, [sset("a")])[0]
    assert ge.achieved == sset("p")
    assert ge.sources == (sset("a"),)
    both = collect_goal_extensions(abapg, [sset("a", "b")])[0]
    assert both.achieved == sset("p", "q")


def test_goal_extension_of_the_empty_set_keeps_fact_goals():
    base = fw([("p", []), ("q", ["a"])], ["a"], [("a", "ca")])
    abapg = validate_abapg(base, ["p", "q"], [("p", "q"), ("q", "p")])
    assert collect_goal_extensions(abapg, [sset()])[0].achieved == sset("p")


def test_achieved_sets_equal_the_goals_among_all_conclusions():
    # The goal layer tests only the goals' support masks; that must agree
    # with reading the goals off the full conclusion set of each extension.
    rng = random.Random(9)
    for _ in range(300):
        abapg = random_abapg(rng)
        preferred = preferred_extensions(abapg.base)
        grouped = collect_goal_extensions(abapg, preferred)
        seen = []
        for g in grouped:
            for ext in g.sources:
                assert g.achieved == conclusions(abapg.base, ext) & abapg.goals
                seen.append(ext)
        assert sorted(seen, key=sorted) == sorted(preferred, key=sorted)


def test_twelve_attacking_pairs_rank_past_the_oracle_cap():
    # a_i and b_i attack each other and only a_i derives goal g_i, with
    # g0 < g1 < ... < g11: 4096 preferred extensions, each with its own
    # goal set, and the one that takes every a_i achieves every goal.
    n = 12
    rules = [(f"na{i}", [f"b{i}"]) for i in range(n)]
    rules += [(f"nb{i}", [f"a{i}"]) for i in range(n)]
    rules += [(f"g{i}", [f"a{i}"]) for i in range(n)]
    assumptions = [f"{x}{i}" for i in range(n) for x in "ab"]
    contraries = [(f"{x}{i}", f"n{x}{i}") for i in range(n) for x in "ab"]
    base = fw(rules, assumptions, contraries)
    chain = [(f"g{i}", f"g{i + 1}") for i in range(n - 1)]
    abapg = validate_abapg(base, [f"g{i}" for i in range(n)], chain)
    ranking = rank_goals(abapg)
    assert len(ranking.preferred) == 4096
    assert len(ranking.goal_extensions) == 4096
    (top,) = ranking.top_goal_extensions
    assert top.achieved == abapg.goals
    assert top.sources == (sset(*(f"a{i}" for i in range(n))),)


def test_two_goals_without_priority_pairs_are_incomparable():
    base = fw([("p", ["a"]), ("q", ["a"])], ["a"], [("a", "ca")])
    with pytest.raises(PriorityNotTotal):
        validate_abapg(base, ["p", "q"])


def test_goal_extension_rejects_non_assumptions():
    base = fw([("p", ["a"])], ["a"], [("a", "ca")])
    abapg = validate_abapg(base, ["p"])
    with pytest.raises(ValueError):
        collect_goal_extensions(abapg, [sset("p")])[0]


# ---------------------------------------------------------------------------
# the achieved-set ordering


def tiered_priority(levels):
    # levels: dict symbol -> rank; lower rank is less preferred.
    carrier = list(levels)
    pairs = [
        (low, high)
        for low in carrier
        for high in carrier
        if levels[low] <= levels[high]
    ]
    return Preorder.over(carrier, pairs)


def test_equal_sets_compare_equivalent():
    pri = tiered_priority({"p": 0, "q": 1})
    assert goal_set_leq(sset("p"), sset("p"), pri)
    assert goal_set_leq(sset(), sset(), pri)


def test_nothing_gained_means_not_dominated():
    pri = tiered_priority({"p": 0, "q": 1})
    assert not goal_set_leq(sset("p"), sset(), pri)
    assert not goal_set_leq(sset("p", "q"), sset("q"), pri)


def test_strict_superset_always_at_least_as_good():
    # Gaining goals while losing none dominates vacuously.
    pri = tiered_priority({"p": 0, "q": 0})
    assert goal_set_leq(sset("p"), sset("p", "q"), pri)
    assert goal_set_leq(sset(), sset("p"), pri)


def test_single_high_gain_outweighs_many_low_losses():
    pri = tiered_priority({"p": 0, "q": 0, "top": 1})
    assert goal_set_leq(sset("p", "q"), sset("top"), pri)
    assert not goal_set_leq(sset("top"), sset("p", "q"), pri)


def test_patient_goal_sets_rank_by_priority(patient_a_bundle):
    b = patient_a_bundle
    framework, _ = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    fatigue_set = sset(
        "Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"
    )
    temperature_set = sset(
        "¬Increase_Blood_Pressure", "¬Increase_Body_Temperature"
    )
    assert goal_set_leq(temperature_set, fatigue_set, framework.priority)
    assert not goal_set_leq(fatigue_set, temperature_set, framework.priority)


def test_ordering_is_not_transitive_across_ties():
    # With l below q and p tied with q: {q,l} <= {p} <= {q}, yet {q,l} is
    # not <= {q} because nothing is gained.
    pri = Preorder.over(
        ["p", "q", "l"], [("l", "q"), ("q", "p"), ("p", "q")]
    )
    assert goal_set_leq(sset("q", "l"), sset("p"), pri)
    assert goal_set_leq(sset("p"), sset("q"), pri)
    assert not goal_set_leq(sset("q", "l"), sset("q"), pri)


def test_strict_dominance_is_transitive_under_a_total_priority():
    # X < Y is goal_set_leq(X, Y) and not goal_set_leq(Y, X).  Unlike <=
    # (above), its strict part chains: A < B and B < C give A < C.
    chains = 0
    for seed in range(300):
        abapg = random_abapg(random.Random(seed))
        goals = sorted(abapg.goals)
        subsets = [
            frozenset(g for bit, g in enumerate(goals) if mask >> bit & 1)
            for mask in range(1 << len(goals))
        ]
        below = {
            a: [b for b in subsets
                if goal_set_leq(a, b, abapg.priority)
                and not goal_set_leq(b, a, abapg.priority)]
            for a in subsets
        }
        for a in subsets:
            for b in below[a]:
                for c in below[b]:
                    assert c in below[a], (seed, a, b, c)
                    chains += 1
    assert chains > 10000


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_priority_is_total_and_reflexive(seed):
    rng = random.Random(seed)
    abapg = random_abapg(rng)
    goals = sorted(abapg.goals)
    for a in goals:
        assert abapg.priority.leq(a, a)
        for b in goals:
            assert abapg.priority.leq(a, b) or abapg.priority.leq(b, a)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_achieved_ordering_matches_independent_transcription(seed):
    rng = random.Random(seed)
    abapg = random_abapg(rng)
    goals = sorted(abapg.goals)
    for _ in range(30):
        first = frozenset(g for g in goals if rng.random() < 0.5)
        second = frozenset(g for g in goals if rng.random() < 0.5)
        assert goal_set_leq(first, second, abapg.priority) == _at_most_as_good(
            first, second, abapg.priority
        )


# ---------------------------------------------------------------------------
# grouping and tops


def test_extensions_with_the_same_goals_share_one_group():
    base = fw(
        [("ca", ["b"]), ("cb", ["a"]), ("g", ["a"]), ("g", ["b"])],
        ["a", "b"],
        [("a", "ca"), ("b", "cb")],
    )
    abapg = validate_abapg(base, ["g"])
    grouped = collect_goal_extensions(abapg, preferred_extensions(base))
    assert len(grouped) == 1
    assert grouped[0].achieved == sset("g")
    assert grouped[0].sources == (sset("a"), sset("b"))


def test_top_extensions_break_ties_in_favour_of_neither():
    # Two incomparable-by-domination singletons with a priority tie both stay.
    base = fw(
        [("ca", ["b"]), ("cb", ["a"]), ("p", ["a"]), ("q", ["b"])],
        ["a", "b"],
        [("a", "ca"), ("b", "cb")],
    )
    abapg = validate_abapg(base, ["p", "q"], [("p", "q"), ("q", "p")])
    top = rank_goals(abapg).top_goal_extensions
    assert achieved_sets(top) == [["p"], ["q"]]


def test_patient_framework_has_a_unique_top(patient_a_bundle):
    b = patient_a_bundle
    framework, _ = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    grouped = collect_goal_extensions(
        framework, preferred_extensions(framework.base)
    )
    assert achieved_sets(grouped) == [
        ["Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"],
        ["¬Increase_Blood_Pressure", "¬Increase_Body_Temperature"],
    ]
    top = rank_goals(framework).top_goal_extensions
    assert achieved_sets(top) == [
        ["Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"]
    ]
    assert top[0].sources == (sset("r3", "r8"),)


def test_priority_scenario_picks_the_cautious_plan(aspirin_priority_bundle):
    b = aspirin_priority_bundle
    framework, _ = build_patient_framework(
        b.recommendations, b.interactions, b.context
    )
    top = rank_goals(framework).top_goal_extensions
    assert achieved_sets(top) == [["¬Increase_Gastrointestinal_Bleeding"]]
    assert top[0].sources == (sset("r2"),)


def test_maximality_uses_pairwise_strict_domination():
    # The non-transitive triple: {q,l} and {p} dominate each other weakly
    # in both directions, so both survive; {q} is strictly below its
    # superset {q,l} and drops out.  Sorting by the ordering would get
    # this wrong, since {q,l} <= {p} <= {q} yet not {q,l} <= {q}.
    pri = Preorder.over(
        ["p", "q", "l"], [("l", "q"), ("q", "p"), ("p", "q")]
    )
    from argclinic.aba_goals import GoalExtension

    extensions = [
        GoalExtension(achieved=sset("q", "l"), sources=(sset("x"),)),
        GoalExtension(achieved=sset("p"), sources=(sset("y"),)),
        GoalExtension(achieved=sset("q"), sources=(sset("z"),)),
    ]
    top = maximal_goal_extensions(extensions, pri)
    assert achieved_sets(top) == [["l", "q"], ["p"]]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_tops_agree_with_the_brute_force_oracle(seed):
    rng = random.Random(seed)
    abapg = random_abapg(rng, max_assumptions=6)
    mine = rank_goals(abapg).top_goal_extensions
    theirs = brute_force_top_goals(abapg)
    assert [(g.achieved, g.sources) for g in mine] == [
        (g.achieved, g.sources) for g in theirs
    ]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_a_strict_maximum_goal_is_never_given_up(seed):
    # When one goal strictly dominates every other, any top extension that
    # could achieve it does: a top missing it would be beaten by any
    # extension containing it.
    rng = random.Random(seed)
    abapg = random_abapg(rng, max_assumptions=6)
    goals = sorted(abapg.goals)
    strict_max = [
        g
        for g in goals
        if all(
            abapg.priority.strictly_less(other, g)
            for other in goals
            if other != g
        )
    ]
    if not strict_max:
        return
    best = strict_max[0]
    grouped = collect_goal_extensions(
        abapg, preferred_extensions(abapg.base)
    )
    if not any(best in g.achieved for g in grouped):
        return
    for top in maximal_goal_extensions(grouped, abapg.priority):
        assert best in top.achieved


def test_a_tied_maximal_goal_can_be_missing_from_a_top():
    # Ties break the containment property: with p and q equally ranked and
    # mutually exclusive, both {p} and {q} are top, and each misses one
    # maximal goal.
    base = fw(
        [("ca", ["b"]), ("cb", ["a"]), ("p", ["a"]), ("q", ["b"])],
        ["a", "b"],
        [("a", "ca"), ("b", "cb")],
    )
    abapg = validate_abapg(base, ["p", "q"], [("p", "q"), ("q", "p")])
    top = rank_goals(abapg).top_goal_extensions
    assert achieved_sets(top) == [["p"], ["q"]]
    assert Sentence("q") not in top[0].achieved
