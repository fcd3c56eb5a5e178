"""Brute-force reference semantics for cross-checking the engine.

Everything here is computed the slow, literal way: supports by saturating a
set of (sentence, support) pairs, attacks straight from their definition,
defence by quantifying over every subset of the assumptions, and maximality
by pairwise comparison.  No code is shared with the engine beyond the value
types, so a bug would have to be made twice to go unnoticed.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, combinations

from .aba_core import AbaFramework, Preorder, Sentence, extension_sort_key
from .aba_goals import AbapgFramework, GoalExtension
from .errors import OracleSizeExceeded

ORACLE_CAP = 15


def _check_size(framework: AbaFramework) -> None:
    n = len(framework.assumptions)
    if n > ORACLE_CAP:
        raise OracleSizeExceeded(
            f"{n} assumptions exceed the oracle cap of {ORACLE_CAP}"
        )


def enumerate_supports(
    framework: AbaFramework,
) -> dict[Sentence, frozenset[frozenset[Sentence]]]:
    """All (sentence, support) pairs, saturated bottom-up.

    A pair (head, S) is added whenever each body sentence b_i of a rule has
    a known pair (b_i, S_i) and S is the union of the S_i.  Repeating full
    passes until nothing changes reaches the least fixpoint; the pair space
    is finite, so this terminates even on cyclic rule sets.
    """
    known: dict[Sentence, set[frozenset[Sentence]]] = {
        a: {frozenset({a})} for a in framework.assumptions
    }
    rules = sorted(framework.rules, key=lambda r: r.sort_key())
    changed = True
    while changed:
        changed = False
        for rule in rules:
            body = sorted(rule.body)
            candidates: list[frozenset[Sentence]] = [frozenset()]
            feasible = True
            for b in body:
                pairs = known.get(b)
                if not pairs:
                    feasible = False
                    break
                candidates = [
                    acc | extra for acc in candidates for extra in pairs
                ]
            if not feasible:
                continue
            bucket = known.setdefault(rule.head, set())
            for support in candidates:
                if support not in bucket:
                    bucket.add(support)
                    changed = True
    return {s: frozenset(v) for s, v in known.items()}


@lru_cache(maxsize=64)
def _supports(framework: AbaFramework) -> dict[Sentence, frozenset[frozenset[Sentence]]]:
    return enumerate_supports(framework)


def brute_force_attacks(
    framework: AbaFramework,
    attacker: frozenset[Sentence],
    target: frozenset[Sentence],
) -> bool:
    """The attack definition, transcribed directly."""
    supports = _supports(framework)
    less = framework.preference.strictly_less
    for b in target:
        for support in supports.get(framework.contrary(b), ()):
            if support <= attacker and not any(less(s, b) for s in support):
                return True
    for a in attacker:
        for support in supports.get(framework.contrary(a), ()):
            if support <= target and any(less(s, a) for s in support):
                return True
    return False


def _memoised_attacks(framework: AbaFramework):
    """``brute_force_attacks`` bound to ``framework``, memoised per (attacker, target)."""
    return lru_cache(maxsize=None)(partial(brute_force_attacks, framework))


def _all_subsets(framework: AbaFramework) -> list[frozenset[Sentence]]:
    members = sorted(framework.assumptions)
    return [
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(members, k) for k in range(len(members) + 1)
        )
    ]


def brute_force_defends(
    framework: AbaFramework,
    defender: frozenset[Sentence],
    target: frozenset[Sentence],
) -> bool:
    """Universal-quantifier defence: counter every attacking subset."""
    _check_size(framework)
    att = _memoised_attacks(framework)
    return all(
        att(defender, attacker)
        for attacker in _all_subsets(framework)
        if att(attacker, target)
    )


def brute_force_preferred(
    framework: AbaFramework,
) -> tuple[frozenset[Sentence], ...]:
    """Maximal admissible sets by exhaustive enumeration."""
    _check_size(framework)
    subsets = _all_subsets(framework)
    att = _memoised_attacks(framework)
    admissible = []
    for candidate in subsets:
        if att(candidate, candidate):
            continue
        if all(
            att(candidate, attacker)
            for attacker in subsets
            if att(attacker, candidate)
        ):
            admissible.append(candidate)
    maximal = [
        a for a in admissible if not any(a < b for b in admissible)
    ]
    return tuple(sorted(maximal, key=extension_sort_key))


def _at_most_as_good(
    first: frozenset[Sentence],
    second: frozenset[Sentence],
    priority: Preorder,
) -> bool:
    # Independent transcription of the achieved-set ordering.
    if first == second:
        return True
    only_second = second - first
    only_first = first - second
    for theta in only_second:
        if all(priority.leq(chi, theta) for chi in only_first):
            return True
    return False


def brute_force_top_goals(
    framework: AbapgFramework,
) -> tuple[GoalExtension, ...]:
    """Best achieved-goal sets over the brute-force preferred extensions."""
    supports = _supports(framework.base)
    preferred = brute_force_preferred(framework.base)
    by_achieved: dict[frozenset[Sentence], list[frozenset[Sentence]]] = {}
    for ext in preferred:
        achieved = frozenset(
            goal
            for goal in framework.goals
            if any(s <= ext for s in supports.get(goal, ()))
        )
        by_achieved.setdefault(achieved, []).append(ext)
    grouped = [
        GoalExtension(achieved=achieved, sources=tuple(sorted(sources, key=extension_sort_key)))
        for achieved, sources in by_achieved.items()
    ]
    top = []
    for g in grouped:
        dominated = any(
            _at_most_as_good(g.achieved, other.achieved, framework.priority)
            and not _at_most_as_good(other.achieved, g.achieved, framework.priority)
            for other in grouped
        )
        if not dominated:
            top.append(g)
    return tuple(sorted(top, key=lambda g: extension_sort_key(g.achieved)))
