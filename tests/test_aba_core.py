"""Core framework semantics: validation, supports, attacks, extensions."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from argclinic import (
    AbaFramework,
    ContraryConflict,
    DanglingPreference,
    FlatnessViolation,
    Preorder,
    RawFramework,
    Rule,
    Sentence,
    SizeLimitExceeded,
    ValidationError,
    attack_kinds,
    attack_witnesses,
    attacks,
    canonical_attackers,
    compute_supports,
    conclusions,
    defends,
    extension_sort_key,
    is_conflict_free,
    preferred_extensions,
    validate_framework,
)
from argclinic.aba_core import SupportTable, _attack_tables, transitive_closure
from argclinic.bundle import parse_bundle
from argclinic.generators import random_bundle_data, random_framework
from argclinic.mapper import build_patient_framework
from argclinic.oracle import (
    ORACLE_CAP,
    brute_force_attacks,
    brute_force_defends,
    brute_force_preferred,
)

from conftest import aspirin_framework, attacked_pairs


def fw(rules=(), assumptions=(), contraries=(), preferences=()):
    return validate_framework(
        RawFramework.of(rules, assumptions, contraries, preferences)
    )


def sset(*symbols: str) -> frozenset[Sentence]:
    return frozenset(Sentence(s) for s in symbols)


seeds = st.integers(min_value=0, max_value=10**6)


# --- validation ---------------------------------------------------------------


def test_validate_rejects_empty_assumption_set():
    with pytest.raises(ValidationError):
        fw(rules=[("p", [])])


def test_validate_rejects_assumption_as_rule_head():
    with pytest.raises(FlatnessViolation):
        fw(rules=[("a", ["b"])], assumptions=["a", "b"])


def test_validate_rejects_contrary_for_non_assumption():
    with pytest.raises(ContraryConflict):
        fw(assumptions=["a"], contraries=[("b", "c")])


def test_validate_rejects_contrary_that_is_an_assumption():
    with pytest.raises(ContraryConflict):
        fw(assumptions=["a", "b"], contraries=[("a", "b")])


def test_validate_rejects_conflicting_contrary_declarations():
    with pytest.raises(ContraryConflict):
        fw(assumptions=["a"], contraries=[("a", "x"), ("a", "y")])


def test_validate_rejects_preference_over_unknown_assumption():
    with pytest.raises(DanglingPreference):
        fw(assumptions=["a"], preferences=[("a", "zz")])


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            RawFramework.of(assumptions=[5, "a"]),
            "assumption symbol must be a nonempty string, got 5",
        ),
        (
            RawFramework.of(rules=[("", ["a"])], assumptions=["a"]),
            "rule head symbol must be a nonempty string, got ''",
        ),
        (
            RawFramework.of(rules=[(7, [])], assumptions=["a"]),
            "rule head symbol must be a nonempty string, got 7",
        ),
        (
            RawFramework.of(rules=[("p", ["a", ""])], assumptions=["a"]),
            "rule body symbol must be a nonempty string, got ''",
        ),
        (
            RawFramework.of(rules=[("p", [None])], assumptions=["a"]),
            "rule body symbol must be a nonempty string, got None",
        ),
        (
            RawFramework.of(assumptions=["a"], contraries=[("a", "")]),
            "contrary symbol must be a nonempty string, got ''",
        ),
        (
            RawFramework.of(assumptions=["a", "b"], contraries=[(("a",), "x")]),
            "contrary symbol must be a nonempty string, got ('a',)",
        ),
        (
            RawFramework.of(assumptions=["a"], preferences=[("a", "")]),
            "preference symbol must be a nonempty string, got ''",
        ),
        (
            RawFramework.of(assumptions=["a", "b"], preferences=[(1, "a")]),
            "preference symbol must be a nonempty string, got 1",
        ),
    ],
    ids=[
        "assumption-int",
        "head-empty",
        "head-int",
        "body-empty",
        "body-none",
        "contrary-empty",
        "contrary-tuple",
        "preference-empty",
        "preference-int",
    ],
)
def test_validate_names_the_place_of_a_bad_symbol(raw, message):
    with pytest.raises(ValidationError) as caught:
        validate_framework(raw)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: validate_framework(
                RawFramework(rules=(("a", "b", "c"),), assumptions=("x",))
            ),
            "rule must be a (head, body) pair, got ('a', 'b', 'c')",
        ),
        (
            lambda: RawFramework.of(rules=[("a", "b", "c")], assumptions=["x"]),
            "rule must be a (head, body) pair, got ('a', 'b', 'c')",
        ),
        (
            lambda: RawFramework.of(rules=[5], assumptions=["x"]),
            "rule must be a (head, body) pair, got 5",
        ),
        (
            lambda: validate_framework(RawFramework(rules=(("p", 5),), assumptions=("x",))),
            "rule body must be a collection of symbols, got 5",
        ),
        (
            lambda: RawFramework.of(rules=[("p", 5)], assumptions=["x"]),
            "rule body must be a collection of symbols, got 5",
        ),
        (
            lambda: validate_framework(RawFramework(rules=(("p", "ab"),), assumptions=("a", "b"))),
            "rule body must be a collection of symbols, got 'ab'",
        ),
        (
            lambda: RawFramework.of(rules=[("p", "ab")], assumptions=["a", "b"]),
            "rule body must be a collection of symbols, got 'ab'",
        ),
        (
            lambda: validate_framework(RawFramework(assumptions=("x",), contraries=(("x",),))),
            "contrary must be an (assumption, contrary) pair, got ('x',)",
        ),
        (
            lambda: validate_framework(
                RawFramework(assumptions=("x", "y"), preferences=(("x", "y", "x"),))
            ),
            "preference must be an (assumption, assumption) pair, got ('x', 'y', 'x')",
        ),
    ],
    ids=[
        "rule-triple",
        "of-rule-triple",
        "of-rule-int",
        "body-int",
        "of-body-int",
        "body-str",
        "of-body-str",
        "contrary-single",
        "preference-triple",
    ],
)
def test_an_entry_that_is_not_a_pair_raises_a_validation_error(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


def test_a_long_bad_symbol_is_cut_to_a_short_message():
    with pytest.raises(ValidationError) as caught:
        validate_framework(RawFramework.of(assumptions=["a", ["x"] * 20000]))
    message = str(caught.value)
    assert message.startswith("assumption symbol must be a nonempty string, got ['x'")
    assert message.endswith("...")
    assert len(message) < 200


def test_a_string_rule_body_is_not_read_as_its_characters():
    # ("p", "ab") would otherwise become p <- a, b
    for build in (
        lambda body: RawFramework.of(rules=[("p", body)], assumptions=["a"]),
        lambda body: validate_framework(RawFramework(rules=(("p", body),), assumptions=("a",))),
        lambda body: Rule.of("p", body),
    ):
        with pytest.raises((ValidationError, TypeError)) as caught:
            build("a" * 200)
        message = str(caught.value)
        assert message.startswith("rule body must be a collection of symbols, got 'aaa")
        assert message.endswith("...") and len(message) < 200
    assert Rule.of("p", ("a",)) == Rule.of("p", ["a"]) == Rule.of("p", {"a"})


def test_missing_contraries_are_minted_fresh():
    framework = fw(assumptions=["a"], rules=[("contrary_of_a", [])])
    # the natural name is taken by a rule head, so the minted one is bumped
    assert framework.contrary(Sentence("a")) == Sentence("contrary_of_a_")


def test_declared_contraries_survive_validation():
    framework = fw(assumptions=["a"], contraries=[("a", "x")])
    assert framework.contrary(Sentence("a")) == Sentence("x")
    assert framework.contrary_map == {Sentence("a"): Sentence("x")}


def test_check_assumption_set_rejects_non_assumptions():
    framework = fw(assumptions=["a"])
    with pytest.raises(ValueError):
        framework.check_assumption_set(sset("a", "b"))


def test_check_assumption_set_names_a_member_that_is_not_a_string():
    framework = fw(assumptions=["a"])
    with pytest.raises(ValueError, match="not assumptions of this framework: 5, b$"):
        framework.check_assumption_set(["a", "b", 5])
    with pytest.raises(ValueError, match="framework: 5$"):
        conclusions(framework, [5])


def test_check_assumption_set_cuts_a_long_list_of_stray_names():
    framework = fw(assumptions=["a"])
    with pytest.raises(ValueError) as caught:
        attacks(framework, ["x" * 20000], [])
    message = str(caught.value)
    assert message.startswith("not assumptions of this framework: xxx")
    assert message.endswith("...") and len(message) < 300


# --- preference preorder ------------------------------------------------------


def test_preorder_is_reflexive_and_transitively_closed():
    order = Preorder.over(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert order.leq(Sentence("a"), Sentence("a"))
    assert order.leq(Sentence("a"), Sentence("c"))
    assert order.strictly_less(Sentence("a"), Sentence("c"))
    assert not order.leq(Sentence("c"), Sentence("a"))


def test_preorder_tie_is_not_strict():
    order = Preorder.over(["a", "b"], [("a", "b"), ("b", "a")])
    assert order.leq(Sentence("a"), Sentence("b"))
    assert not order.strictly_less(Sentence("a"), Sentence("b"))
    assert order.strict_pairs == frozenset()


def test_transitive_closure_chains():
    carrier = frozenset(map(Sentence, "abc"))
    pairs = [(Sentence("a"), Sentence("b")), (Sentence("b"), Sentence("c"))]
    closed = transitive_closure(pairs, carrier)
    assert (Sentence("a"), Sentence("c")) in closed


def _full_carrier_warshall(pairs, carrier):
    """A literal Warshall pass over the whole sorted carrier."""
    items = sorted(set(carrier))
    closed = {(x, x) for x in items}
    closed.update(pairs)
    for k in items:
        for i in items:
            if (i, k) not in closed:
                continue
            for j in items:
                if (k, j) in closed:
                    closed.add((i, j))
    return frozenset(closed)


def test_transitive_closure_matches_a_full_carrier_warshall():
    # pairs over 0..11 with cycles and reflexive pairs; the carrier is a
    # random subset, so some pairs run through nodes outside it
    rng = random.Random(601)
    nodes = range(12)
    for draw in range(300):
        carrier = rng.sample(nodes, rng.randint(0, 12))
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 20))]
        if rng.random() < 0.5:
            cycle = rng.sample(nodes, rng.randint(1, 5))
            pairs.extend(zip(cycle, cycle[1:] + cycle[:1]))
        expected = _full_carrier_warshall(pairs, carrier)
        assert transitive_closure(pairs, carrier) == expected, draw


# --- supports and conclusions ---------------------------------------------------


def test_supports_keep_non_minimal_derivations():
    framework = fw(
        rules=[("p", ["a"]), ("p", ["a", "b"])],
        assumptions=["a", "b"],
    )
    table = compute_supports(framework)
    assert table.supports_of(Sentence("p")) == frozenset(
        {sset("a"), sset("a", "b")}
    )


def test_supports_of_fact_is_the_empty_set():
    framework = fw(rules=[("f", [])], assumptions=["a"])
    assert compute_supports(framework).supports_of(Sentence("f")) == frozenset(
        {frozenset()}
    )


def test_cyclic_rules_reach_a_fixpoint():
    framework = fw(
        rules=[("p", ["q"]), ("q", ["p"]), ("p", ["a"])],
        assumptions=["a"],
    )
    table = compute_supports(framework)
    assert table.supports_of(Sentence("p")) == frozenset({sset("a")})
    assert table.supports_of(Sentence("q")) == frozenset({sset("a")})


def test_conclusions_of_empty_set_are_the_facts():
    framework = fw(
        rules=[("f", []), ("g", ["f"]), ("p", ["a"])],
        assumptions=["a"],
    )
    assert conclusions(framework, ()) == sset("f", "g")


def test_conclusions_include_assumptions_and_derived():
    framework = aspirin_framework()
    concluded = conclusions(framework, sset("r1"))
    assert Sentence("dec_coagulation") in concluded
    assert Sentence("r1") in concluded
    assert Sentence("no_aspirin") not in concluded


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_support_soundness_against_forward_chaining(seed):
    # every tabled support concludes its sentence under naive rule application
    framework = random_framework(random.Random(seed), max_assumptions=5, max_rules=8)
    table = compute_supports(framework)
    for sentence in table.sentences():
        for support in table.supports_of(sentence):
            assert sentence in conclusions(framework, support)


def whole_pass_supports(framework: AbaFramework) -> SupportTable:
    """A literal copy of the whole-pass support fixpoint, as a reference.

    Every rule, in sorted order, contributes the product of its body
    families, and the passes repeat until one changes nothing.
    """
    order = framework.assumption_order
    position = {s: i for i, s in enumerate(order)}
    families: dict[Sentence, set[int]] = {
        a: {1 << position[a]} for a in order
    }
    rules = sorted(framework.rules, key=Rule.sort_key)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.body:
                pools = []
                missing = False
                for b in sorted(rule.body):
                    family = families.get(b)
                    if not family:
                        missing = True
                        break
                    pools.append(sorted(family))
                if missing:
                    continue
                new_masks = set()
                for combo in product(*pools):
                    mask = 0
                    for m in combo:
                        mask |= m
                    new_masks.add(mask)
            else:
                new_masks = {0}
            target = families.setdefault(rule.head, set())
            if not new_masks <= target:
                target.update(new_masks)
                changed = True
    return SupportTable(
        order=order,
        mask_families={s: frozenset(m) for s, m in families.items()},
    )


def assert_supports_match_the_whole_pass(framework: AbaFramework) -> None:
    table = compute_supports(framework)
    reference = whole_pass_supports(framework)
    assert table.order == reference.order
    assert table.mask_families == reference.mask_families


SUPPORT_CORNERS = {
    "self-loop": [("p", ["p", "a"]), ("p", ["b"]), ("q", ["p", "c"])],
    "mutual recursion with an exit rule": [("p", ["q"]), ("q", ["p"]), ("p", ["a"])],
    "downstream of a cycle": [
        ("p", ["q", "a"]), ("q", ["p"]), ("q", ["b"]), ("r", ["p", "c"]), ("s", ["r"]),
    ],
    "a body atom nothing derives": [("p", ["nothing", "a"]), ("q", ["p"]), ("q", ["b"])],
    "a fact inside a cycle": [("f", []), ("f", ["g"]), ("g", ["f", "a"]), ("h", ["g"])],
    "a head with a rule that never fires": [
        ("t", ["a"]), ("t", ["b", "nothing"]), ("t", ["c", "b"]), ("u", ["t", "t2"]),
        ("t2", ["t"]),
    ],
    "all of the above": [
        ("p", ["p", "a"]), ("p", ["q"]), ("q", ["p"]), ("q", ["b"]), ("r", ["q", "c"]),
        ("s", ["nothing", "a"]), ("f", []), ("f", ["g"]), ("g", ["f", "c"]),
        ("t", ["r", "g"]), ("t", ["s"]), ("v", ["t", "p"]),
    ],
}


@pytest.mark.parametrize("rules", SUPPORT_CORNERS.values(), ids=SUPPORT_CORNERS)
def test_supports_match_the_whole_pass_on_corner_cases(rules):
    framework = fw(rules, ["a", "b", "c"], [("a", "p"), ("b", "q"), ("c", "nothing")])
    assert_supports_match_the_whole_pass(framework)


def has_rule_cycle(framework: AbaFramework) -> bool:
    """True when some rules use one another's heads in a ring."""
    rules = set(framework.rules)
    while True:
        heads = {rule.head for rule in rules}
        kept = {rule for rule in rules if rule.body & heads}
        if kept == rules:
            return bool(rules)
        rules = kept


def test_supports_match_the_whole_pass_on_300_draws():
    cyclic = 0
    for seed in range(300):
        framework = random_framework(random.Random(seed), max_assumptions=20)
        assert_supports_match_the_whole_pass(framework)
        cyclic += has_rule_cycle(framework)
    assert cyclic >= 100  # both the ordered rules and the cycles are well exercised


def test_supports_match_the_whole_pass_on_mapped_bundles():
    rng = random.Random(18)
    for _ in range(100):
        bundle = parse_bundle(random_bundle_data(rng))
        framework, _ = build_patient_framework(
            bundle.recommendations, bundle.interactions, bundle.context
        )
        assert_supports_match_the_whole_pass(framework.base)


# --- attacks --------------------------------------------------------------------


def test_attack_needs_derivable_contrary():
    framework = fw(assumptions=["a", "b"])
    assert not attacks(framework, sset("a"), sset("b"))


def test_empty_attacker_attacks_via_fact_derivable_contrary():
    framework = fw(
        rules=[("c_b", [])],
        assumptions=["a", "b"],
        contraries=[("b", "c_b")],
    )
    assert attacks(framework, frozenset(), sset("b"))
    assert not attacks(framework, frozenset(), sset("a"))


def test_aspirin_attack_is_both_normal_and_reverse():
    framework = aspirin_framework(with_preference=True)
    assert attacks(framework, sset("r1"), sset("r2"))
    assert attack_kinds(framework, sset("r1"), sset("r2")) == frozenset(
        {"normal", "reverse"}
    )
    assert not attacks(framework, sset("r2"), sset("r1"))


def test_aspirin_attacks_are_mutual_without_preference():
    framework = aspirin_framework(with_preference=False)
    assert attack_kinds(framework, sset("r1"), sset("r2")) == frozenset({"normal"})
    assert attack_kinds(framework, sset("r2"), sset("r1")) == frozenset({"normal"})


def test_preference_reverses_the_inferior_attack():
    # b's contrary is derivable from a alone; with a < b the attack flips
    framework = fw(
        rules=[("c_b", ["a"])],
        assumptions=["a", "b"],
        contraries=[("b", "c_b")],
        preferences=[("a", "b")],
    )
    assert not attacks(framework, sset("a"), sset("b"))
    assert attack_kinds(framework, sset("b"), sset("a")) == frozenset({"reverse"})


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_attacks_are_monotone_in_both_arguments(seed):
    rng = random.Random(seed)
    framework = random_framework(rng, max_assumptions=6, max_rules=10)
    members = sorted(framework.assumptions)
    a = frozenset(rng.sample(members, rng.randint(0, len(members))))
    b = frozenset(rng.sample(members, rng.randint(0, len(members))))
    bigger_a = a | frozenset(rng.sample(members, rng.randint(0, len(members))))
    bigger_b = b | frozenset(rng.sample(members, rng.randint(0, len(members))))
    if attacks(framework, a, b):
        assert attacks(framework, bigger_a, bigger_b)
    # the witness loop names a witness exactly when the sets attack, and
    # each one lies where the attack definition puts it
    for attacker, target in ((a, b), (bigger_a, bigger_b), (b, a)):
        witnesses = attack_witnesses(framework, attacker, target)
        assert bool(witnesses) == brute_force_attacks(framework, attacker, target)
        for kind, member, support in witnesses:
            if kind == "normal":
                assert member in target and support <= attacker
            else:
                assert kind == "reverse"
                assert member in attacker and support <= target


def _split_by_strictly_less(framework):
    """normal/reverse support masks from ``strictly_less`` over every pair."""
    table = compute_supports(framework)
    order = table.order
    normal, reverse = [], []
    for b in order:
        below = 0
        for i, a in enumerate(order):
            if framework.preference.strictly_less(a, b):
                below |= 1 << i
        masks = sorted(table.mask_families.get(framework.contrary(b), ()))
        normal.append(tuple(m for m in masks if m & below == 0))
        reverse.append(tuple(m for m in masks if m & below != 0))
    return tuple(normal), tuple(reverse)


def test_attack_table_split_matches_strictly_less_over_every_pair():
    rng = random.Random(602)
    for draw in range(200):
        framework = random_framework(rng, max_assumptions=10)
        tables = _attack_tables(framework)
        expected = _split_by_strictly_less(framework)
        assert (tables.normal, tables.reverse) == expected, draw


def test_attack_table_split_ignores_preferences_outside_the_assumptions():
    base = fw(
        rules=[("c_a", ["b"]), ("c_b", ["a", "z_fact"]), ("z_fact", [])],
        assumptions=["a", "b"],
        contraries=[("a", "c_a"), ("b", "c_b")],
    )
    # b < z < a chains through z, which is no assumption; (x, a) names a
    # node outside even the carrier
    preference = Preorder.over(["a", "b", "z"], [("b", "z"), ("z", "a"), ("x", "a")])
    framework = AbaFramework(
        base.rules, base.assumptions, base.contrary_items, preference
    )
    tables = _attack_tables(framework)
    assert (tables.normal, tables.reverse) == _split_by_strictly_less(framework)
    assert tables.reverse == ((0b10,), ())



@given(seeds)
@settings(max_examples=40, deadline=None)
def test_no_preferences_means_no_reverse_attacks(seed):
    rng = random.Random(seed)
    framework = random_framework(rng, max_assumptions=5, with_preferences=False)
    members = sorted(framework.assumptions)
    for _ in range(20):
        a = frozenset(rng.sample(members, rng.randint(0, len(members))))
        b = frozenset(rng.sample(members, rng.randint(0, len(members))))
        assert "reverse" not in attack_kinds(framework, a, b)


# --- canonical attackers and defence ---------------------------------------------


def test_canonical_attackers_of_the_attacked_aspirin_assumption():
    framework = aspirin_framework(with_preference=True)
    assert canonical_attackers(framework, sset("r2")) == (sset("r1"),)
    assert canonical_attackers(framework, sset("r1")) == ()


def test_canonical_attackers_empty_for_unattacked_target():
    framework = fw(assumptions=["a", "b"])
    assert canonical_attackers(framework, sset("a")) == ()


SHARED_SUPPORT = dict(
    # x and y, the contraries of a and b, share the support {c}; c also
    # attacks a in reverse, as a is below c and derives w, the contrary of c
    rules=[("x", ["c"]), ("y", ["c"]), ("w", ["a"])],
    assumptions=["a", "b", "c"],
    contraries=[("a", "x"), ("b", "y"), ("c", "w")],
    preferences=[("a", "c")],
)


def test_a_support_shared_by_two_contraries_is_one_canonical_attacker():
    framework = fw(**SHARED_SUPPORT)
    tables = _attack_tables(framework)
    both = tables.table.to_mask(sset("a", "b"))
    # the kernel's list repeats {c}: once in reverse, once per contrary
    assert sorted(tables.canonical_attacker_masks(both)) == [0b100] * 3
    assert canonical_attackers(framework, sset("a", "b")) == (sset("c"),)
    assert canonical_attackers(framework, sset("a")) == (sset("c"),)
    assert not defends(framework, sset("a", "b"), sset("a", "b"))
    assert preferred_extensions(framework) == (sset("c"),)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_every_attacker_contains_a_canonical_attacker(seed):
    rng = random.Random(seed)
    framework = random_framework(rng, max_assumptions=5, max_rules=8)
    members = sorted(framework.assumptions)
    target = frozenset(rng.sample(members, rng.randint(0, len(members))))
    canon = canonical_attackers(framework, target)
    for c in canon:
        assert attacks(framework, c, target)
    for _ in range(15):
        attacker = frozenset(rng.sample(members, rng.randint(0, len(members))))
        if attacks(framework, attacker, target):
            assert any(c <= attacker for c in canon)


def test_defence_is_vacuous_without_attackers():
    framework = fw(assumptions=["a", "b"])
    assert defends(framework, frozenset(), sset("a"))


def test_aspirin_preferred_assumption_defends_itself():
    framework = aspirin_framework(with_preference=True)
    assert defends(framework, sset("r1"), sset("r1"))
    assert not defends(framework, sset("r2"), sset("r2"))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_defends_agrees_with_universal_quantification(seed):
    rng = random.Random(seed)
    framework = random_framework(rng, max_assumptions=5, max_rules=8)
    members = sorted(framework.assumptions)
    for _ in range(6):
        defender = frozenset(rng.sample(members, rng.randint(0, len(members))))
        target = frozenset(rng.sample(members, rng.randint(0, len(members))))
        assert defends(framework, defender, target) == brute_force_defends(
            framework, defender, target
        )


# --- conflict-freeness ------------------------------------------------------------


def test_empty_set_is_conflict_free():
    assert is_conflict_free(aspirin_framework(), frozenset())


def test_aspirin_pair_is_not_conflict_free():
    framework = aspirin_framework(with_preference=True)
    assert not is_conflict_free(framework, sset("r1", "r2"))
    assert is_conflict_free(framework, sset("r1"))


# --- preferred extensions ----------------------------------------------------------


def test_aspirin_with_preference_keeps_only_the_preferred_drug():
    framework = aspirin_framework(with_preference=True)
    assert preferred_extensions(framework) == (sset("r1"),)


def test_aspirin_without_preference_splits():
    framework = aspirin_framework(with_preference=False)
    assert preferred_extensions(framework) == (sset("r1"), sset("r2"))


def test_attack_free_framework_has_one_total_extension():
    framework = fw(rules=[("p", ["a"])], assumptions=["a", "b", "c"])
    assert preferred_extensions(framework) == (sset("a", "b", "c"),)


def test_self_attacking_assumptions_leave_the_empty_extension():
    framework = fw(
        rules=[("c_a", ["a"]), ("c_b", ["b"])],
        assumptions=["a", "b"],
        contraries=[("a", "c_a"), ("b", "c_b")],
    )
    assert preferred_extensions(framework) == (frozenset(),)


def test_extensions_are_ordered_lexicographically():
    framework = aspirin_framework(with_preference=False)
    keys = [extension_sort_key(e) for e in preferred_extensions(framework)]
    assert keys == sorted(keys)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_preferred_extensions_are_admissible_antichains(seed):
    framework = random_framework(random.Random(seed), max_assumptions=6)
    extensions = preferred_extensions(framework)
    assert extensions
    for ext in extensions:
        assert is_conflict_free(framework, ext)
        assert defends(framework, ext, ext)
    for first in extensions:
        for second in extensions:
            if first != second:
                assert not first <= second


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_preferred_extensions_match_the_brute_force_oracle(seed):
    framework = random_framework(random.Random(seed), max_assumptions=6)
    assert set(preferred_extensions(framework)) == set(
        brute_force_preferred(framework)
    )


def test_enumeration_is_deterministic_across_runs():
    first = preferred_extensions(random_framework(random.Random(99)))
    second = preferred_extensions(random_framework(random.Random(99)))
    assert first == second


# --- independent parts ----------------------------------------------------------------


def _raw_of(framework: AbaFramework, prefix: str) -> RawFramework:
    """``framework`` as raw input with every symbol prefixed by ``prefix``."""
    return RawFramework.of(
        rules=[
            (prefix + r.head.symbol, [prefix + b.symbol for b in r.body])
            for r in framework.rules
        ],
        assumptions=[prefix + a.symbol for a in framework.assumptions],
        contraries=[
            (prefix + a.symbol, prefix + c.symbol)
            for a, c in framework.contrary_items
        ],
        preferences=[
            (prefix + a.symbol, prefix + b.symbol)
            for a, b in framework.preference.pairs
        ],
    )


# Hand-built parts for the shapes a random framework may miss: a self-attacking
# assumption, a contrary that is a fact, an attack reversed by a preference, a
# reversed attack whose attacker is itself defeated (so the part must hold all
# three), and one support that joins two otherwise unrelated assumptions.
GADGETS = (
    RawFramework.of([("c_x", ["x"])], ["x"], [("x", "c_x")]),
    RawFramework.of([("c_f", [])], ["f"], [("f", "c_f")]),
    RawFramework.of([("c_h", ["l"])], ["h", "l"], [("h", "c_h")], [("l", "h")]),
    RawFramework.of(
        [("c_h", ["k"]), ("c_h", ["l"])], ["h", "k", "l"], [("h", "c_h")], [("l", "h")]
    ),
    RawFramework.of(
        [("c_c", ["a", "b"])], ["a", "b", "c"], [("c", "c_c")], [("b", "c")]
    ),
)


def disjoint_union(rng: random.Random, min_size: int, max_size: int):
    """A framework of renamed disjoint parts, and each part's own framework.

    Parts of at most six assumptions are added until there are two or more and
    the total reaches ``min_size``; ``max_size`` bounds the total.  Random
    preference pairs join assumptions of different parts.  Each part's
    framework keeps the union's closed preference restricted to its own
    assumptions, which is all of the preference its attacks can consult.
    """
    raws: list[RawFramework] = []
    size = 0
    while size < min_size or len(raws) < 2:
        prefix = f"p{len(raws)}_"
        if rng.random() < 0.3:
            part = _raw_of(validate_framework(rng.choice(GADGETS)), prefix)
        else:
            room = min(6, max_size - size)
            part = _raw_of(random_framework(rng, max_assumptions=room), prefix)
        if size + len(part.assumptions) > max_size:
            continue
        raws.append(part)
        size += len(part.assumptions)
    symbols = [a for raw in raws for a in raw.assumptions]
    across = []
    for _ in range(rng.randint(0, len(raws))):
        low, high = rng.sample(symbols, 2)
        if low.split("_")[0] != high.split("_")[0]:
            across.append((low, high))
    union = validate_framework(
        RawFramework.of(
            rules=[rule for raw in raws for rule in raw.rules],
            assumptions=symbols,
            contraries=[c for raw in raws for c in raw.contraries],
            preferences=[p for raw in raws for p in raw.preferences] + across,
        )
    )
    parts = []
    for raw in raws:
        own = set(raw.assumptions)
        parts.append(
            validate_framework(
                RawFramework.of(
                    raw.rules,
                    raw.assumptions,
                    raw.contraries,
                    [
                        (a.symbol, b.symbol)
                        for a, b in union.preference.pairs
                        if a.symbol in own and b.symbol in own
                    ],
                )
            )
        )
    return union, parts


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_split_matches_the_oracle_on_disjoint_unions(seed):
    # The oracle's cost grows steeply with size, so these unions stay small.
    union, parts = disjoint_union(random.Random(seed), 2, min(8, ORACLE_CAP))
    assert len(parts) >= 2
    extensions = preferred_extensions(union)
    assert list(extensions) == sorted(extensions, key=extension_sort_key)
    assert set(extensions) == set(brute_force_preferred(union))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_split_beyond_the_oracle_cap_is_the_product_of_the_parts(seed):
    union, parts = disjoint_union(random.Random(seed), ORACLE_CAP + 1, 24)
    assert len(union.assumptions) > ORACLE_CAP
    expected = {
        frozenset().union(*choice)
        for choice in product(*(preferred_extensions(p) for p in parts))
    }
    extensions = preferred_extensions(union)
    assert list(extensions) == sorted(extensions, key=extension_sort_key)
    assert set(extensions) == expected


def sweep_preferred_masks(tables, part):
    """A literal copy of the size sweep that solves one part, as a reference.

    Candidate sets go by decreasing size over the members that do not attack
    themselves, skipping supersets of conflicting pairs and subsets of
    extensions already found; a conflict-free candidate that attacks each of
    its canonical attackers is kept.
    """
    members = [i for i in range(part.bit_length()) if part >> i & 1]
    usable = [i for i in members if not tables.attacks(1 << i, 1 << i)]
    conflict_pairs = []
    for i, j in combinations(usable, 2):
        pair = (1 << i) | (1 << j)
        if tables.attacks(pair, pair):
            conflict_pairs.append(pair)
    found = []
    for k in range(len(usable), -1, -1):
        for combo in combinations(usable, k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(pair & mask == pair for pair in conflict_pairs):
                continue
            if any(mask | ext == ext for ext in found):
                continue
            if tables.attacks(mask, mask):
                continue
            attackers = tables.canonical_attacker_masks(mask)
            if all(tables.attacks(mask, c) for c in attackers):
                found.append(mask)
        if found and k == len(usable):
            break
    return found


def frameworks_of_size(count: int, low: int, high: int):
    """The first ``count`` seeded random frameworks with ``low``-``high`` assumptions."""
    seed = 0
    while count:
        framework = random_framework(random.Random(seed), max_assumptions=high)
        seed += 1
        if len(framework.assumptions) >= low:
            count -= 1
            yield seed - 1, framework


def test_preferred_extensions_of_14_to_18_assumptions_match_the_size_sweep():
    # The oracle takes seconds from 12 assumptions on; the sweep is the
    # reference above that size.
    for seed, framework in frameworks_of_size(200, 14, 18):
        tables = _attack_tables(framework)
        combined = [0]
        for part in tables.parts:
            combined = [
                mask | ext for mask in combined
                for ext in sweep_preferred_masks(tables, part)
            ]
        expected = {tables.table.from_mask(m) for m in combined}
        extensions = preferred_extensions(framework)
        assert len(extensions) == len(expected), seed
        assert set(extensions) == expected, seed


def threshold_core(n_x: int, m: int, n_y: int, n_y_preferred: int):
    """One part whose contrary ``u`` of every y has the m-subsets of the x's as supports.

    The first ``n_y_preferred`` y's are strictly preferred to every x, which
    turns the attacks of m x's on those y's into reverse attacks on the x's.
    """
    xs = [f"x{i}" for i in range(n_x)]
    ys = [f"y{i}" for i in range(n_y)]
    framework = fw(
        [("u", chosen) for chosen in combinations(xs, m)],
        xs + ys,
        [(y, "u") for y in ys],
        [(x, y) for y in ys[:n_y_preferred] for x in xs],
    )
    return framework, xs, ys


def test_threshold_core_with_a_preferred_y_keeps_the_ys_and_any_m_minus_1_xs():
    # Any m x's are reverse-attacked by the preferred y, which nothing counters,
    # so an extension holds at most m-1 x's; then no m x's attack the plain y.
    framework, xs, ys = threshold_core(10, 3, 2, 1)
    assert len(_attack_tables(framework).parts) == 1
    extensions = preferred_extensions(framework)
    assert len(extensions) == 45
    assert set(extensions) == {sset(*ys, *chosen) for chosen in combinations(xs, 2)}


def test_threshold_core_without_a_preferred_y_keeps_all_xs():
    # Nothing attacks an x, and any m x's attack the y with no counter.
    framework, xs, _ = threshold_core(11, 5, 1, 0)
    assert len(_attack_tables(framework).parts) == 1
    assert preferred_extensions(framework) == (sset(*xs),)


@pytest.mark.parametrize("pairs, free", [(1, 22), (12, 0)])
def test_attacked_pairs_at_the_default_cap_keep_all_but_the_attacked(
    monkeypatch, pairs, free
):
    # The whole-framework sweep took minutes on these.
    monkeypatch.delenv("ARGCLINIC_MAX_ASSUMPTIONS", raising=False)
    framework = attacked_pairs(pairs, free)
    attacked = sset(*(f"a{2 * i}" for i in range(pairs)))
    expected = frozenset(framework.assumptions) - attacked
    assert preferred_extensions(framework) == (expected,)


# --- the size cap -------------------------------------------------------------------


def big_framework(n: int) -> AbaFramework:
    return fw(assumptions=[f"a{i}" for i in range(n)])


def test_size_cap_default_allows_24_assumptions():
    assert len(preferred_extensions(big_framework(24))[0]) == 24


def test_size_cap_default_rejects_25_assumptions():
    with pytest.raises(SizeLimitExceeded):
        preferred_extensions(big_framework(25))


def test_size_cap_env_override(monkeypatch):
    monkeypatch.setenv("ARGCLINIC_MAX_ASSUMPTIONS", "3")
    with pytest.raises(SizeLimitExceeded):
        preferred_extensions(big_framework(4))
    monkeypatch.setenv("ARGCLINIC_MAX_ASSUMPTIONS", "30")
    assert preferred_extensions(big_framework(25))


# --- value types ----------------------------------------------------------------------


def test_sentence_requires_a_symbol():
    with pytest.raises(ValueError):
        Sentence("")


@pytest.mark.parametrize("symbol", [5, None, b"a", ["a"]])
def test_sentence_rejects_a_symbol_that_is_not_a_str(symbol):
    with pytest.raises(ValueError, match="nonempty str"):
        Sentence(symbol)


def test_sentence_is_the_str_of_its_symbol():
    sentence = Sentence(symbol="a")
    assert type(sentence.symbol) is str and sentence.symbol == "a"
    assert type(str(sentence)) is str and str(sentence) == "a"
    assert type(f"{sentence}") is str
    assert repr(sentence) == "Sentence(symbol='a')"
    assert sentence == "a" and Sentence("a") == sentence
    assert hash(sentence) == hash("a")
    assert {sentence: 1}["a"] == 1


def test_sentences_sort_as_their_symbols():
    symbols = ["b", "a_", "A", "a", "ab", "_", "a.b", "Z9", "a-b", "é"]
    assert [s.symbol for s in sorted(map(Sentence, symbols))] == sorted(symbols)
    rules = [Rule.of("p", ["b", "a"]), Rule.of("p", ["a_"]), Rule.of("P")]
    assert sorted(rules, key=Rule.sort_key) == sorted(
        rules, key=lambda r: (r.head.symbol, tuple(sorted(s.symbol for s in r.body)))
    )


def test_sentences_survive_pickle_and_deepcopy():
    sentence = Sentence("a")
    copies = [
        pickle.loads(pickle.dumps(sentence, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies.append(copy.deepcopy(sentence))
    for back in copies:
        assert type(back) is Sentence and back == sentence
        assert repr(back) == "Sentence(symbol='a')"
    rule = Rule.of("p", ["a"])
    assert pickle.loads(pickle.dumps(rule)) == copy.deepcopy(rule) == rule


@pytest.mark.parametrize("seed", range(5))
def test_set_taking_functions_accept_plain_strings(seed):
    framework = random_framework(random.Random(seed), max_assumptions=4)
    subsets = [
        frozenset(combo)
        for k in range(len(framework.assumptions) + 1)
        for combo in combinations(framework.assumption_order, k)
    ]

    def plain(members):
        return [str(s) for s in members]

    for a in subsets:
        assert is_conflict_free(framework, plain(a)) == is_conflict_free(framework, a)
        assert canonical_attackers(framework, plain(a)) == canonical_attackers(framework, a)
        assert conclusions(framework, plain(a)) == conclusions(framework, a)
        for b in subsets:
            assert attacks(framework, plain(a), plain(b)) == attacks(framework, a, b)
            assert defends(framework, plain(a), plain(b)) == defends(framework, a, b)
            assert attack_witnesses(framework, plain(a), plain(b)) == attack_witnesses(
                framework, a, b
            )


def test_rule_str_formats():
    assert str(Rule.of("p", ["b", "a"])) == "p <- a, b"
    assert str(Rule.of("f")) == "f <-"
