"""Goal-directed layer on top of the core frameworks.

A goal framework adds a finite set of goal sentences, each derivable by at
least one rule, and a total priority preorder over the goals.  Preferred
extensions are ranked by which goals they achieve: one achieved-goal set is
at least as good as another when the other adds nothing, or adds some goal
that outranks everything it gives up in exchange.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .aba_core import (
    AbaFramework,
    Preorder,
    Sentence,
    _check_total,
    _reject_bad_pairs,
    _reject_bad_symbols,
    compute_supports,
    extension_sort_key,
    preferred_extensions,
    transitive_closure,
)
from .errors import GoalWithoutRule, PriorityMentionsNonGoal, Record, _cut


class AbapgFramework(Record):
    """A core framework together with goals and their (total) priority."""

    base: AbaFramework
    goals: frozenset[Sentence]
    priority: Preorder


def validate_abapg(
    base: AbaFramework,
    goals: Iterable[str | Sentence],
    priority_pairs: Iterable[tuple[str | Sentence, str | Sentence]] = (),
) -> AbapgFramework:
    """Attach goals and a priority to a validated framework.

    Every goal must head at least one rule; the priority pairs must close
    into a total preorder over the goals (missing comparisons are reported,
    never invented).
    """
    goals, priority_pairs = list(goals), list(priority_pairs)
    try:
        goal_set = frozenset(map(Sentence, goals))
        raw = [(Sentence(a), Sentence(b)) for a, b in priority_pairs]
    except (ValueError, TypeError):
        _reject_bad_pairs({"priority": priority_pairs})
        _reject_bad_symbols(
            {"goal": goals, "priority": [s for pair in priority_pairs for s in pair]}
        )
        raise
    heads = {rule.head for rule in base.rules}
    for goal in sorted(goal_set):
        if goal not in heads:
            raise GoalWithoutRule(
                f"goal {_cut(repr(goal.symbol))} has no rule deriving it"
            )
    for pair in raw:
        for s in pair:
            if s not in goal_set:
                raise PriorityMentionsNonGoal(
                    f"priority mentions {_cut(repr(s.symbol))}, which is not a declared goal"
                )
    priority = Preorder(goal_set, transitive_closure(raw, goal_set))
    _check_total(goal_set, priority.pairs, str)
    return AbapgFramework(base=base, goals=goal_set, priority=priority)


class GoalExtension(Record):
    """An achieved-goal set with the preferred extensions that realise it."""

    achieved: frozenset[Sentence]
    sources: tuple[frozenset[Sentence], ...]


def goal_set_leq(
    first: frozenset[Sentence],
    second: frozenset[Sentence],
    priority: Preorder,
) -> bool:
    """Achieved-set comparison: ``first`` is at most as good as ``second``.

    Equal sets compare as equivalent.  Otherwise ``second`` must add some
    goal, and one added goal must outrank (under the priority) every goal
    present only in ``first``.
    """
    if first == second:
        return True
    gained = second - first
    if not gained:
        return False
    lost = first - second
    return any(
        all(priority.leq(chi, theta) for chi in lost) for theta in gained
    )


def collect_goal_extensions(
    framework: AbapgFramework,
    extensions: Sequence[frozenset[Sentence]],
) -> tuple[GoalExtension, ...]:
    """Group preferred extensions by the goal set they achieve.

    Only the goals' own supports are tested against each extension's mask.
    """
    base = framework.base
    table = compute_supports(base)
    by_achieved: dict[frozenset[Sentence], list[frozenset[Sentence]]] = {}
    for ext in extensions:
        mask = table.to_mask(base.check_assumption_set(ext))
        achieved = frozenset(g for g in framework.goals if table.holds(g, mask))
        by_achieved.setdefault(achieved, []).append(ext)
    grouped = [
        GoalExtension(
            achieved=achieved,
            sources=tuple(sorted(sources, key=extension_sort_key)),
        )
        for achieved, sources in by_achieved.items()
    ]
    return tuple(sorted(grouped, key=lambda g: extension_sort_key(g.achieved)))


def maximal_goal_extensions(
    goal_extensions: Sequence[GoalExtension],
    priority: Preorder,
) -> tuple[GoalExtension, ...]:
    """The goal extensions no other one strictly dominates.

    Maximality is decided by pairwise checks of the strict part of the
    ordering; the ordering itself need not be transitive on arbitrary
    families, so no sorting shortcut is taken.
    """
    top = [
        g
        for g in goal_extensions
        if not any(
            goal_set_leq(g.achieved, other.achieved, priority)
            and not goal_set_leq(other.achieved, g.achieved, priority)
            for other in goal_extensions
        )
    ]
    return tuple(sorted(top, key=lambda g: extension_sort_key(g.achieved)))


class GoalRanking(Record):
    """Both stages of a solve: the preferred extensions, then their goals."""

    preferred: tuple[frozenset[Sentence], ...]
    goal_extensions: tuple[GoalExtension, ...]
    top_goal_extensions: tuple[GoalExtension, ...]


def rank_goals(framework: AbapgFramework) -> GoalRanking:
    """Enumerate the preferred extensions and rank them by achieved goals."""
    preferred = preferred_extensions(framework.base)
    grouped = collect_goal_extensions(framework, preferred)
    return GoalRanking(
        preferred=preferred,
        goal_extensions=grouped,
        top_goal_extensions=maximal_goal_extensions(grouped, framework.priority),
    )
