"""Translate recommendations plus a patient context into a goal framework.

Recommendation names become assumptions; so does a token for every uncertain
interaction, while certain interactions become facts.  Positively
recommended actions and their tracked effects are derived by rules, and so
are the avoidance sentence and prevented effects of negatively recommended
actions.  Each interaction produces contradiction rules that derive the
contrary of one endpoint from the other: the positively recommended
endpoint argues unconditionally against the negative one, and the negative
endpoint argues back only where one of its unwelcome effects is grounded in
the patient's state.  Patient preferences become the assumption preorder,
care goals and their priority become the goal layer.

Where a contradiction rule's body holds a recommendation strictly less
preferred than the rule's target, the preference reverses that attack.  So
the translation also emits the contrapositive: the target, together with
the rest of the body, derives the contrary of that less preferred
recommendation.  This gives the framework Weak Contraposition (ABA+, Čyras
and Toni 2016), under which a set cannot keep both endpoints of an
interaction by leaving out its token.  A contrapositive is left out when a
rule with the same head already derives it from part of its body.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .aba_core import RawFramework, mint_contraries, validate_framework
from .aba_goals import AbapgFramework, GoalRanking, rank_goals, validate_abapg
from .errors import InvalidInteraction, Record, SymbolCollision, _cut
from .tmr import (
    Context,
    GoalTerm,
    Interaction,
    Modal,
    Recommendation,
    StateTerm,
    validate_context,
    validate_interaction,
)


def symbolize(text: str) -> str:
    """Collapse a display term into a sentence symbol (spaces become '_')."""
    return "_".join(text.split())


_RULE_FAMILIES = (
    "action_rules_positive",
    "action_rules_negative",
    "effect_rules_positive",
    "effect_rules_negative",
    "state_facts",
    "interaction_facts",
    "contradiction_rules_positive",
    "contradiction_rules_negative",
    "contradiction_rules_symmetric",
    "contradiction_rules_contrapositive",
)


class MappingReport(Record):
    """What the translation produced, for explanation and debugging."""

    rule_counts: Mapping[str, int]
    assumptions: tuple[str, ...]
    symbol_table: Mapping[tuple[str, str], str]
    warnings: tuple[str, ...] = ()
    symmetric_interactions: tuple[tuple[str, str], ...] = ()
    dropped_goals: tuple[str, ...] = ()


class _SymbolTable:
    """Interns (kind, display term) pairs, refusing symbol collisions."""

    def __init__(self):
        self.entries: dict[tuple[str, str], str] = {}
        self._owners: dict[str, tuple[str, str]] = {}

    def intern(self, kind: str, display: str, symbol: str) -> str:
        key = (kind, display)
        existing = self.entries.get(key)
        if existing is not None:
            return existing
        owner = self._owners.get(symbol)
        if owner is not None and owner != key:
            raise SymbolCollision(
                f"{kind} {_cut(repr(display))} and {owner[0]} {_cut(repr(owner[1]))} "
                f"both map to the sentence {_cut(repr(symbol))}"
            )
        self.entries[key] = symbol
        self._owners[symbol] = key
        return symbol

    def symbols(self) -> set[str]:
        return set(self._owners)


def _state_symbol(table: _SymbolTable, term: StateTerm) -> str:
    display = term.display()
    return table.intern("state", display, symbolize(display))


def _effect_symbol(table: _SymbolTable, effect: str, prop: str, negated: bool) -> str:
    display = f"{effect} {prop}"
    if negated:
        return table.intern("prevented_effect", display, "¬" + symbolize(display))
    return table.intern("effect", display, symbolize(display))


def build_patient_framework(
    recommendations: Sequence[Recommendation],
    interactions: Sequence[Interaction],
    context: Context,
) -> tuple[AbapgFramework, MappingReport]:
    """Map guideline recommendations and a patient context to a framework.

    Names, interactions and context compatibility are re-checked here.  A
    repeated name would merge two recommendations into one assumption, and
    state or goal terms that match no causation track would silently produce
    an unreachable sentence, and a pair listed as both certain and uncertain
    would make its token a fact and an assumption, so all three are rejected.
    """
    by_name: dict[str, Recommendation] = {}
    for rec in recommendations:
        if rec.name in by_name:
            raise SymbolCollision(f"two recommendations are named {_cut(repr(rec.name))}")
        by_name[rec.name] = rec
    interactions = [
        validate_interaction(i.first, i.second, i.modal, by_name) for i in interactions
    ]
    modal_of: dict[tuple[str, str], Modal] = {}
    for i in interactions:
        if modal_of.setdefault((i.first, i.second), i.modal) is not i.modal:
            raise InvalidInteraction(
                f"interaction {_cut(repr(i.first))} / {_cut(repr(i.second))} "
                "is listed as both certain and uncertain"
            )
    context = validate_context(
        recommendations,
        patient_state=context.patient_state,
        goals=context.goals,
        action_preference=context.action_preference,
        goal_priority=context.goal_priority,
    )
    table = _SymbolTable()
    families: dict[str, set[tuple[str, tuple[str, ...]]]] = {
        name: set() for name in _RULE_FAMILIES
    }
    symmetric: list[tuple[str, str]] = []

    ordered = sorted(recommendations, key=lambda r: r.name)
    for rec in ordered:
        table.intern("recommendation", rec.name, rec.name)

    # Action and effect rules, per recommendation sign.
    for rec in ordered:
        negative = not rec.strength.positive
        sign = "negative" if negative else "positive"
        action = table.intern("action", rec.action, symbolize(rec.action))
        if negative:
            action = table.intern("avoided_action", rec.action, "¬" + action)
        families[f"action_rules_{sign}"].add((action, (rec.name,)))
        for track in rec.tracks:
            effect = _effect_symbol(table, track.effect, track.property, negative)
            families[f"effect_rules_{sign}"].add((effect, (action,)))

    # Patient state facts.
    for term in sorted(context.patient_state):
        families["state_facts"].add((_state_symbol(table, term), ()))

    # Interaction tokens, and the contradiction rules as (family, target
    # recommendation, body): their heads, the targets' contraries, are
    # minted below once every other symbol is interned.
    token_assumptions: list[str] = []
    conflicts: list[tuple[str, str, tuple[str, ...]]] = []
    ordered_interactions = sorted(
        interactions, key=lambda i: (i.first, i.second, i.modal.value)
    )
    for inter in ordered_interactions:
        token_display = f"{inter.first} / {inter.second}"
        token = table.intern(
            "interaction", token_display, f"int_{inter.first}_{inter.second}"
        )
        if inter.modal is Modal.CERTAIN:
            families["interaction_facts"].add((token, ()))
        else:
            token_assumptions.append(token)

        first = by_name[inter.first]
        second = by_name[inter.second]
        if first.strength.positive == second.strength.positive:
            # Both endpoints share a sign, so neither side is the "negative"
            # one; argue both ways unconditionally and flag it.
            family = "contradiction_rules_symmetric"
            conflicts.append((family, second.name, (first.name, token)))
            conflicts.append((family, first.name, (second.name, token)))
            symmetric.append((inter.first, inter.second))
            continue
        positive, negative = (
            (first, second) if first.strength.positive else (second, first)
        )
        conflicts.append(
            (
                "contradiction_rules_positive",
                negative.name,
                (positive.name, token),
            )
        )
        for track in negative.tracks:
            if track.contribution != "-":
                continue
            condition = _state_symbol(table, StateTerm(track.property, track.initial_value))
            conflicts.append(
                (
                    "contradiction_rules_negative",
                    positive.name,
                    (negative.name, token, condition),
                )
            )

    assumptions = tuple(sorted(by_name)) + tuple(sorted(token_assumptions))

    # Contrary symbols: fresh per assumption against every interned symbol.
    contraries = {
        asm: table.intern("contrary", asm, symbol)
        for asm, symbol in mint_contraries(assumptions, table.symbols()).items()
    }

    for family, target, body in conflicts:
        families[family].add((contraries[target], body))
    families["contradiction_rules_contrapositive"] = _contrapositives(
        families["contradiction_rules_positive"]
        | families["contradiction_rules_negative"]
        | families["contradiction_rules_symmetric"],
        context.action_preference,
        contraries,
    )
    rules: list[tuple[str, tuple[str, ...]]] = []
    for family in _RULE_FAMILIES:
        rules.extend(sorted(families[family]))

    raw = RawFramework.of(
        rules=rules,
        assumptions=assumptions,
        contraries=sorted(contraries.items()),
        preferences=sorted(context.action_preference),
    )
    base = validate_framework(raw)

    # Goals: keep those some rule can conclude; a goal no rule derives can
    # never enter any goal extension, so dropping it is harmless, but warn.
    heads = {rule.head.symbol for rule in base.rules}
    goal_symbols: dict[GoalTerm, str] = {}
    dropped: list[str] = []
    for term in sorted(context.goals):
        symbol = _effect_symbol(table, term.effect, term.property, term.negated)
        if symbol in heads:
            goal_symbols[term] = symbol
        else:
            dropped.append(term.display())
    priority_pairs = [
        (goal_symbols[a], goal_symbols[b])
        for a, b in sorted(context.goal_priority)
        if a in goal_symbols and b in goal_symbols
    ]
    framework = validate_abapg(base, sorted(goal_symbols.values()), priority_pairs)

    report = MappingReport(
        rule_counts={name: len(families[name]) for name in _RULE_FAMILIES},
        assumptions=assumptions,
        symbol_table=dict(sorted(table.entries.items())),
        warnings=tuple(f"goal {d!r} cannot be concluded by any rule; dropped" for d in dropped),
        symmetric_interactions=tuple(symmetric),
        dropped_goals=tuple(dropped),
    )
    return framework, report


def _contrapositives(
    contradiction_rules: set[tuple[str, tuple[str, ...]]],
    preference: frozenset[tuple[str, str]],
    contraries: Mapping[str, str],
) -> set[tuple[str, tuple[str, ...]]]:
    """The contrapositives that give contradiction rules Weak Contraposition.

    For a rule ``contrary(target) <- body`` and each recommendation ``low``
    in the body strictly below ``target`` under the (closed) ``preference``,
    the contrapositive is ``contrary(low) <- (body - {low}) | {target}``.
    It is skipped when a contradiction rule or another contrapositive with
    the same head has a body inside it, since that rule already derives the
    head from every assumption set the new one would.
    """
    target_of = {symbol: asm for asm, symbol in contraries.items()}
    candidates = set()
    for head, body in contradiction_rules:
        target = target_of[head]
        for low in body:
            if (low, target) in preference and (target, low) not in preference:
                rest = (set(body) - {low}) | {target}
                candidates.add((contraries[low], tuple(sorted(rest))))
    return {
        (head, body)
        for head, body in candidates
        if not any(
            other_head == head and set(other_body) <= set(body)
            for other_head, other_body in contradiction_rules
        )
        and not any(
            other_head == head and set(other_body) < set(body)
            for other_head, other_body in candidates
        )
    }


class FollowItem(Record):
    """One action to take (or avoid) under a recommended plan."""

    recommendation: str
    action: str
    avoid: bool

    def display(self) -> str:
        if self.avoid:
            return f"{self.recommendation} (avoid {self.action})"
        return f"{self.recommendation} ({self.action})"


class FollowPlan(Record):
    """The actionable content of one source of a top goal extension."""

    source: tuple[str, ...]
    items: tuple[FollowItem, ...]


class Solution(GoalRanking):
    """Everything ``resolve`` computed for one patient case."""

    framework: AbapgFramework
    report: MappingReport
    preferred_recommendations: tuple[tuple[str, ...], ...]
    follow: tuple[FollowPlan, ...]


def resolve(
    recommendations: Sequence[Recommendation],
    interactions: Sequence[Interaction],
    context: Context,
) -> Solution:
    """Map, enumerate preferred extensions, rank goals, and plan actions."""
    framework, report = build_patient_framework(
        recommendations, interactions, context
    )
    ranking = rank_goals(framework)
    by_name = {r.name: r for r in recommendations}
    preferred_recs = tuple(
        tuple(sorted(s.symbol for s in ext if s.symbol in by_name))
        for ext in ranking.preferred
    )
    plans = []
    for goal_ext in ranking.top_goal_extensions:
        for source in goal_ext.sources:
            chosen = sorted(s.symbol for s in source if s.symbol in by_name)
            items = tuple(
                FollowItem(
                    recommendation=name,
                    action=by_name[name].action,
                    avoid=not by_name[name].strength.positive,
                )
                for name in chosen
            )
            plans.append(FollowPlan(source=tuple(chosen), items=items))

    return Solution(
        preferred=ranking.preferred,
        goal_extensions=ranking.goal_extensions,
        top_goal_extensions=ranking.top_goal_extensions,
        framework=framework,
        report=report,
        preferred_recommendations=preferred_recs,
        follow=tuple(plans),
    )
