"""Expected answers for benchmark cases, computed without the engine.

An answer is a plain tuple of symbol names, so engine output, CLI text and
CLI JSON can all be compared with ``==``:

    (preferred, top, follow)

``preferred`` is the sorted tuple of preferred extensions (each a sorted
tuple of assumption names).  ``top`` is the sorted tuple of best goal
extensions as ``(achieved, sources)`` pairs.  ``follow`` is the sorted tuple
of recommendation-name tuples the solver says to follow; it is ``()`` for
textual frameworks, which have no recommendations.

Where the expected answer comes from:

* the paper fixtures: the hand-written answers of acceptance criteria 1-2;
* frameworks of at most ``WHOLE_ORACLE_MAX`` assumptions: the brute-force
  oracle (``brute_force_preferred`` and ``brute_force_top_goals``);
* larger frameworks: the framework is split into independent components
  (below), each component is answered by the oracle or, for constructed
  components, by its closed form, and the preferred extensions are the
  products of the components' ones.  Goal ranking is then transcribed from
  its definition.

Every expected answer is keyed by the compiled framework the program itself
produced, so a deliberate change to the mapping is not read as a failure.

Component split.  Join two assumptions when one occurs in a derivation of
the other's contrary (backward through the rules from the contrary).  An
attack on an assumption b only ever uses assumptions of b's component, and
only compares b with members of that component under the preference, so
the attack relation is the union of the components' attack relations.
Conflict-freeness and defence then hold per component, and the preferred
extensions of the whole are exactly the unions of one preferred extension
per component.  ``test_bench.py`` checks this against the whole-framework
oracle.
"""

from __future__ import annotations

import json
import re
from itertools import product

from argclinic.aba_core import AbaFramework, RawFramework, Sentence, validate_framework
from argclinic.oracle import brute_force_preferred, brute_force_top_goals, enumerate_supports

WHOLE_ORACLE_MAX = 5
COMPONENT_ORACLE_MAX = 8

# Acceptance criteria 1-2, written out by hand.  Keyed by fixture file name.
FIXTURE_ANSWERS = {
    "patient_a.json": (
        (("r3", "r8"), ("r4", "r8")),
        (
            (
                ("Decrease_Fatigue", "Decrease_Pain", "¬Increase_Blood_Pressure"),
                (("r3", "r8"),),
            ),
        ),
        (("r3", "r8"),),
    ),
    "aspirin_patient_pref.json": (
        (("r1",),),
        ((("Decrease_Blood_Coagulation",), (("r1",),)),),
        (("r1",),),
    ),
    "aspirin_clinician_priority.json": (
        (("r1",), ("r2",)),
        ((("¬Increase_Gastrointestinal_Bleeding",), (("r2",),)),),
        (("r2",),),
    ),
}
# broken.json names a patient state no recommendation tracks.
FIXTURE_ERRORS = {"broken.json": "IncompatibleContext"}

# Documented CLI exit codes per error family.
EXIT_CODES = {None: 0, "IncompatibleContext": 1, "SchemaError": 2}


class CheckError(Exception):
    """The benchmark cannot compute an expected answer (a benchmark defect)."""


def names(sentences) -> tuple[str, ...]:
    return tuple(sorted(s.symbol for s in sentences))


def top_of(goal_extensions) -> tuple:
    return tuple(
        sorted(
            (names(g.achieved), tuple(sorted(names(s) for s in g.sources)))
            for g in goal_extensions
        )
    )


def answer_of(preferred, top, follow=()) -> tuple:
    """Canonical answer from engine values (extensions, GoalExtensions)."""
    return (
        tuple(sorted(names(e) for e in preferred)),
        top_of(top),
        tuple(sorted(tuple(f) for f in follow)),
    )


# --- the expected answer of a framework ---------------------------------------


def _backward(base: AbaFramework, targets) -> set[Sentence]:
    by_head: dict[Sentence, list] = {}
    for rule in base.rules:
        by_head.setdefault(rule.head, []).append(rule)
    seen: set[Sentence] = set()
    stack = list(targets)
    while stack:
        sentence = stack.pop()
        if sentence in seen:
            continue
        seen.add(sentence)
        for rule in by_head.get(sentence, ()):
            stack.extend(rule.body)
    return seen


def components(base: AbaFramework) -> list[frozenset[Sentence]]:
    parent = {a: a for a in base.assumptions}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for b in sorted(base.assumptions):
        for a in _backward(base, [base.contrary(b)]) & base.assumptions:
            parent[find(a)] = find(b)
    groups: dict[Sentence, set[Sentence]] = {}
    for a in base.assumptions:
        groups.setdefault(find(a), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=names)


def restrict(base: AbaFramework, assumptions, targets) -> AbaFramework:
    """The sub-framework on ``assumptions`` with the rules ``targets`` depend on."""
    relevant = _backward(base, targets)
    members = frozenset(assumptions)
    return validate_framework(
        RawFramework.of(
            rules=[
                (r.head.symbol, [b.symbol for b in r.body])
                for r in base.rules
                if r.head in relevant
            ],
            assumptions=[a.symbol for a in members],
            contraries=[(a.symbol, base.contrary(a).symbol) for a in members],
            preferences=[
                (x.symbol, y.symbol)
                for x, y in base.preference.pairs
                if x in members and y in members
            ],
        )
    )


def expected_preferred(base: AbaFramework, closed=()) -> tuple:
    known = dict(closed)
    per_component = []
    for comp in components(base):
        key = names(comp)
        if key in known:
            per_component.append(known[key])
            continue
        if len(comp) > COMPONENT_ORACLE_MAX:
            raise CheckError(f"component of {len(comp)} assumptions has no known answer")
        sub = restrict(base, comp, [base.contrary(a) for a in comp])
        per_component.append(tuple(names(e) for e in brute_force_preferred(sub)))
    return tuple(
        sorted(tuple(sorted(n for part in choice for n in part)) for choice in product(*per_component))
    )


def _at_most_as_good(first, second, leq) -> bool:
    if first == second:
        return True
    lost = first - second
    return any(all(leq(chi, theta) for chi in lost) for theta in second - first)


def expected_top(goal_framework, preferred: tuple) -> tuple:
    """Best goal extensions of ``preferred``, from the definitions."""
    base = goal_framework.base
    supports = enumerate_supports(restrict(base, base.assumptions, goal_framework.goals))
    by_achieved: dict[frozenset, list] = {}
    for ext in preferred:
        members = frozenset(Sentence(n) for n in ext)
        achieved = frozenset(
            g for g in goal_framework.goals if any(s <= members for s in supports.get(g, ()))
        )
        by_achieved.setdefault(achieved, []).append(ext)
    leq = goal_framework.priority.leq
    top = [
        (names(achieved), tuple(sorted(sources)))
        for achieved, sources in by_achieved.items()
        if not any(
            _at_most_as_good(achieved, other, leq) and not _at_most_as_good(other, achieved, leq)
            for other in by_achieved
        )
    ]
    return tuple(sorted(top))


def expected_answer(base: AbaFramework, goal_framework=None, closed=(), rec_names=None) -> tuple:
    """Expected (preferred, top, follow) for a validated framework.

    ``goal_framework`` is None when the input declares no goal layer, and
    ``rec_names`` is None for textual frameworks, which have no follow plan.
    """
    if len(base.assumptions) <= WHOLE_ORACLE_MAX:
        preferred = tuple(sorted(names(e) for e in brute_force_preferred(base)))
        top = () if goal_framework is None else top_of(brute_force_top_goals(goal_framework))
    else:
        preferred = expected_preferred(base, closed)
        top = () if goal_framework is None else expected_top(goal_framework, preferred)
    follow = ()
    if rec_names is not None:
        follow = tuple(
            sorted(tuple(n for n in source if n in rec_names) for _, sources in top for source in sources)
        )
    return preferred, top, follow


# --- reading CLI output --------------------------------------------------------


def _braced(text: str) -> tuple[str, ...]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a braced set: {text!r}")
    inner = inner[1:-1].strip()
    return tuple(sorted(inner.split(", "))) if inner else ()


_FOLLOW_ITEM = re.compile(r"(?:^|, )([A-Za-z0-9_.-]+) \(")


def parse_cli_text(stdout: str) -> tuple:
    """Answer from ``solve`` text output (bundle or textual framework)."""
    sections: dict[str, list[str]] = {}
    follow = []
    current = None
    for line in stdout.splitlines():
        if line.startswith("  ") and current is not None:
            sections[current].append(line)
        elif line.startswith("FOLLOW: "):
            body = line[len("FOLLOW: "):]
            follow.append(() if body == "(no recommendations)" else tuple(sorted(_FOLLOW_ITEM.findall(body))))
        elif line.endswith(":"):
            current = line[:-1]
            sections[current] = []
        else:
            current = None
    preferred = tuple(sorted(_braced(line) for line in sections.get("preferred extensions", ())))
    top = []
    for line in sections.get("top goal extensions", ()):
        achieved, sources = line.split("  <-  ")
        top.append((_braced(achieved), tuple(sorted(_braced(s) for s in sources.split(" | ")))))
    return preferred, tuple(sorted(top)), tuple(sorted(follow))


def parse_cli_json(stdout: str) -> tuple:
    payload = json.loads(stdout)
    preferred = tuple(sorted(tuple(sorted(e)) for e in payload["preferred_extensions"]))
    top = tuple(
        sorted(
            (tuple(sorted(g["achieved"])), tuple(sorted(tuple(sorted(s)) for s in g["sources"])))
            for g in payload.get("top_goal_extensions", ())
        )
    )
    follow = tuple(sorted(tuple(sorted(p["source"])) for p in payload.get("follow", ())))
    return preferred, top, follow


def error_matches(class_names, expected: str) -> bool:
    """``class_names``: the raised type's MRO names (``run.error_names``)."""
    return expected in class_names
