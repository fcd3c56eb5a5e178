"""Frozen instance families for the benchmark.

Everything here is a pure function of a ``random.Random`` stream and uses
only the standard library.  The families deliberately do not import
``argclinic.generators``: that module's pools are expected to grow, and the
benchmark's inputs must not change when they do.  The same stream gives
byte-identical inputs.  Do not edit a family once results have been
recorded against it; add a new one instead.

Names are synthetic (``Act 17``, ``Prop 4``, ``k3x0``), so bundles can be
larger than any hand-written vocabulary and cannot collide with each other
after the mapper turns display terms into symbols.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

LANDMARKS = ("must", "should", "may", "should_not", "must_not")
EFFECTS = ("Increase", "Decrease")
VALUES = ("High", "Low", "Normal")
CONTRIBUTIONS = ("+", "-", "0")


@dataclass(frozen=True)
class AbaInstance:
    """A framework in the textual ``.aba`` format.

    ``closed`` maps the assumption set of a constructed component to its
    known preferred extensions; every other component is small enough for
    the brute-force oracle.
    """

    family: str
    text: str
    closed: tuple[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]], ...] = ()


@dataclass(frozen=True)
class BundleInstance:
    """A guideline bundle as JSON text.

    ``error`` is None for a valid bundle, else the name of the documented
    error the bundle layer must raise ("SchemaError" or
    "IncompatibleContext").
    """

    family: str
    text: str
    error: str | None = None


# --- guideline bundles --------------------------------------------------------


def _clusters(rng: random.Random, names: list[str], cluster_max: int) -> list[list[str]]:
    """Split ``names`` into consecutive groups of 1..cluster_max after a shuffle."""
    order = names[:]
    rng.shuffle(order)
    groups = []
    while order:
        size = rng.randint(1, min(cluster_max, len(order)))
        groups.append(order[:size])
        order = order[size:]
    return groups


def bundle_data(
    rng: random.Random,
    n_recs: int,
    max_interactions: int,
    max_uncertain: int,
    cluster_max: int,
) -> dict:
    """A valid bundle with ``n_recs`` recommendations.

    Interactions only join recommendations of one cluster (a random
    partition into groups of at most ``cluster_max``), so every interaction
    component of the compiled framework stays small; at most
    ``max_uncertain`` interactions are uncertain, which bounds the
    assumption count at ``n_recs + max_uncertain``.
    """
    names = [f"r{i + 1}" for i in range(n_recs)]
    actions = rng.sample(range(1000), n_recs)
    props = [f"Prop {k}" for k in rng.sample(range(1000), 2 * n_recs)]
    recommendations = []
    tracks_of = {}
    for name, action in zip(names, actions):
        tracks = []
        for prop in rng.sample(props, rng.randint(1, 3)):
            tracks.append(
                {
                    "property": prop,
                    "effect": rng.choice(EFFECTS),
                    "initial_value": rng.choice(VALUES + (None,)),
                    "contribution": rng.choice(CONTRIBUTIONS),
                }
            )
        tracks_of[name] = tracks
        if rng.random() < 0.6:
            strength = rng.choice(LANDMARKS)
        else:
            strength = round(rng.uniform(-1.0, 1.0), 3)
        recommendations.append(
            {"name": name, "action": f"Act {action}", "deontic_strength": strength, "tracks": tracks}
        )

    pairs = []
    for group in _clusters(rng, names, cluster_max):
        # a path through the group keeps it connected with the fewest edges
        pairs.extend(zip(group, group[1:]))
    rng.shuffle(pairs)
    interactions = []
    uncertain = 0
    for first, second in pairs[:max_interactions]:
        if rng.random() < 0.5:
            first, second = second, first
        modal = "certain"
        if uncertain < max_uncertain and rng.random() < 0.5:
            modal = "uncertain"
            uncertain += 1
        interactions.append({"first": first, "second": second, "modal": modal})

    all_tracks = [t for name in names for t in tracks_of[name]]
    state = []
    seen = set()
    for track in rng.sample(all_tracks, min(len(all_tracks), rng.randint(0, 3))):
        if track["property"] in seen:
            continue
        seen.add(track["property"])
        if track["initial_value"] is None:
            state.append(track["property"])
        else:
            state.append({"property": track["property"], "value": track["initial_value"]})

    effect_pairs = sorted({(t["effect"], t["property"]) for t in all_tracks})
    goals = []
    for effect, prop in rng.sample(effect_pairs, min(len(effect_pairs), rng.randint(0, 4))):
        negated = rng.random() < 0.4
        if rng.random() < 0.5:
            goals.append(("not " if negated else "") + f"{effect} {prop}")
        else:
            goals.append({"effect": effect, "property": prop, "negated": negated})
    level = [rng.randint(0, len(goals)) for _ in goals]
    priority = [
        [goals[i], goals[j]]
        for i in range(len(goals))
        for j in range(len(goals))
        if i != j and level[i] <= level[j]
    ]
    preference = []
    for _ in range(rng.randint(0, n_recs)):
        low, high = rng.sample(names, 2)
        preference.append([low, high])

    data: dict = {
        "metadata": {"name": f"bench-{rng.randrange(10 ** 9)}", "version": "1"},
        "recommendations": recommendations,
    }
    if interactions:
        data["interactions"] = interactions
    context: dict = {}
    if state:
        context["patient_state"] = state
    if goals:
        context["goals"] = goals
    if preference:
        context["action_preference"] = preference
    if priority:
        context["goal_priority"] = priority
    if context:
        data["context"] = context
    return data


def _break_schema(rng: random.Random, data: dict) -> None:
    rec = rng.choice(data["recommendations"])
    kind = rng.randrange(5)
    if kind == 0:
        del rec["tracks"]
    elif kind == 1:
        rec["tracks"][0]["contribution"] = "x"
    elif kind == 2:
        rec["name"] = "bad name!"
    elif kind == 3:
        rec["dosage"] = "twice daily"
    else:
        data["recommendations"].append(dict(rec))  # duplicate name


def _break_context(rng: random.Random, data: dict) -> None:
    context = data.setdefault("context", {})
    missing = f"Prop {1000 + rng.randrange(1000)}"
    if rng.random() < 0.5:
        context.setdefault("patient_state", []).append(missing)
    else:
        context.setdefault("goals", []).append(f"Decrease {missing}")


def ward_bundle(rng: random.Random, slot: int) -> BundleInstance:
    """One ward case: 2-8 recommendations, at most 4 interactions.

    Every tenth slot is invalid, alternating a schema defect and a context
    that names a property no recommendation tracks.
    """
    n_recs = 2 + slot % 7
    data = bundle_data(rng, n_recs, max_interactions=4, max_uncertain=3, cluster_max=3)
    if slot % 10 == 9:
        if slot % 20 == 9:
            _break_schema(rng, data)
            return BundleInstance("ward_schema_invalid", _dump(data), "SchemaError")
        _break_context(rng, data)
        return BundleInstance("ward_context_invalid", _dump(data), "IncompatibleContext")
    return BundleInstance("ward_valid", _dump(data))


def small_bundle(rng: random.Random) -> BundleInstance:
    """A 2-5 recommendation bundle, small enough for the whole-framework oracle."""
    data = bundle_data(rng, rng.randint(2, 5), max_interactions=3, max_uncertain=1, cluster_max=3)
    return BundleInstance("small_valid", _dump(data))


def invalid_bundle(rng: random.Random) -> BundleInstance:
    data = bundle_data(rng, rng.randint(2, 4), max_interactions=2, max_uncertain=1, cluster_max=3)
    if rng.random() < 0.5:
        _break_schema(rng, data)
        return BundleInstance("small_schema_invalid", _dump(data), "SchemaError")
    _break_context(rng, data)
    return BundleInstance("small_context_invalid", _dump(data), "IncompatibleContext")


def large_bundle(rng: random.Random, n_recs: int, uncertain: int) -> BundleInstance:
    """A 12-16 recommendation bundle whose compiled framework is searched.

    Exactly ``uncertain`` uncertain interactions are requested, so the
    assumption count is set by the slot, not by the draw.
    """
    while True:
        data = bundle_data(rng, n_recs, max_interactions=6, max_uncertain=uncertain, cluster_max=3)
        tokens = sum(i["modal"] == "uncertain" for i in data.get("interactions", ()))
        if tokens == uncertain:
            return BundleInstance("compiled_bundle", _dump(data))


def _dump(data: dict) -> str:
    return json.dumps(data, indent=1, ensure_ascii=False) + "\n"


# --- textual frameworks ---------------------------------------------------------


@dataclass
class _Program:
    assumptions: list[str] = field(default_factory=list)
    contraries: list[tuple[str, str]] = field(default_factory=list)
    rules: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    prefer: list[tuple[str, str]] = field(default_factory=list)
    goals: list[str] = field(default_factory=list)
    priority: list[tuple[str, str]] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"assumption({a})." for a in self.assumptions]
        lines += [f"contrary({a}, {c})." for a, c in self.contraries]
        lines += [f"rule({h}, [{', '.join(b)}])." for h, b in self.rules]
        lines += [f"prefer({a}, {b})." for a, b in self.prefer]
        lines += [f"goal({g})." for g in self.goals]
        lines += [f"priority({a}, {b})." for a, b in self.priority]
        return "\n".join(lines) + "\n"


def _add_priority(rng: random.Random, program: _Program) -> None:
    level = {g: rng.randint(0, len(program.goals)) for g in program.goals}
    program.priority = [
        (a, b) for a in program.goals for b in program.goals if a != b and level[a] <= level[b]
    ]


def _attack(program: _Program, rng: random.Random, prefix: str, attacker: str, target: str) -> None:
    """Make ``attacker`` attack ``target``, directly or through a derived sentence."""
    contrary = f"{target}_c"
    if (target, contrary) not in program.contraries:
        program.contraries.append((target, contrary))
    if rng.random() < 0.5:
        program.rules.append((contrary, (attacker,)))
    else:
        via = f"{prefix}d{len(program.rules)}"
        program.rules.append((via, (attacker,)))
        program.rules.append((contrary, (via,)))


# Block shapes and their sizes.  Preferred extensions per block: a mutual
# attack has two, every other shape one (a chain keeps its two ends, an odd
# three-cycle keeps nothing, a preference-reversed mutual attack keeps the
# preferred side, a free assumption is unattacked).
SHAPES = {"chain": 3, "mutual": 2, "cycle": 3, "preferred": 2, "free": 1}


def _pattern_block(rng: random.Random, program: _Program, prefix: str, shape: str) -> None:
    """One block of the given shape over its own symbols, with a goal.

    No assumption attacks itself, so the search cannot discard any of them
    up front.  The stream picks only names, the wiring of each attack and
    which member the goal hangs off.
    """
    names = [f"{prefix}a{i}" for i in range(SHAPES[shape])]
    program.assumptions += names
    if shape in ("mutual", "preferred"):
        a, b = names if rng.random() < 0.5 else names[::-1]
        _attack(program, rng, prefix, a, b)
        _attack(program, rng, prefix, b, a)
        if shape == "preferred":
            program.prefer.append((a, b))
    elif shape == "chain":
        _attack(program, rng, prefix, names[1], names[0])
        _attack(program, rng, prefix, names[2], names[1])
    elif shape == "cycle":
        _attack(program, rng, prefix, names[0], names[1])
        _attack(program, rng, prefix, names[1], names[2])
        _attack(program, rng, prefix, names[2], names[0])
    goal = f"{prefix}g"
    program.rules.append((goal, (rng.choice(names),)))
    program.goals.append(goal)


SPARSE_LAYOUT = ("chain", "mutual", "cycle", "preferred")


def sparse_blocks(rng: random.Random, n: int) -> AbaInstance:
    """Independent blocks, ``n`` assumptions in all, in a layout fixed by ``n``.

    Shapes follow SPARSE_LAYOUT while the next one fits; free assumptions
    fill the rest.  The search cost is therefore set by ``n``.
    """
    program = _Program()
    tag = rng.randrange(10 ** 6)
    left, index = n, 0
    while left:
        shape = SPARSE_LAYOUT[index % len(SPARSE_LAYOUT)]
        if SHAPES[shape] > left:
            shape = "free"
        _pattern_block(rng, program, f"k{index}t{tag}", shape)
        left -= SHAPES[shape]
        index += 1
    _add_priority(rng, program)
    return AbaInstance("sparse_blocks", program.text())


def attacked_pairs(rng: random.Random, n: int, pairs: int) -> AbaInstance:
    """``n`` assumptions, ``pairs`` disjoint pairs of them one attacking the other.

    With one pair this is "one assumption attacked by another".  Each pair
    is a component whose one extension is its attacker alone, given as a
    closed form; the other assumptions are free, so the single preferred
    extension is every assumption but the attacked ones.  The roles go to
    the first ``2 * pairs`` assumptions, so the search cost is set by ``n``
    and ``pairs``; the stream picks only the names.
    """
    tag = rng.randrange(10 ** 6)
    names = [f"q{tag}a{i}" for i in range(n)]
    program = _Program(assumptions=names)
    closed = []
    for i in range(pairs):
        target, attacker = names[2 * i], names[2 * i + 1]
        program.contraries.append((target, f"c{i}"))
        program.rules.append((f"c{i}", (attacker,)))
        closed.append((tuple(sorted((target, attacker))), ((attacker,),)))
    return AbaInstance("attacked_pairs", program.text(), tuple(closed))


def threshold_core(
    program: _Program, prefix: str, n_x: int, m: int, n_y: int, n_y_preferred: int
) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """A component whose support families are all m-subsets of ``n_x`` assumptions.

    ``c{j}_{k}`` is derived by every k-subset of the x assumptions whose
    largest index is j, through join rules over derived sentences; ``u`` and
    ``w`` form a rule cycle over all m-subsets; ``u`` is the contrary of
    every y assumption.  The first ``n_y_preferred`` y assumptions are
    strictly preferred to every x assumption.

    Closed form (needs n_x >= m): with no preferred y, any m x's attack every
    y and nothing attacks an x, so the one preferred extension is all x's.
    With a preferred y, the preference turns those attacks into reverse
    attacks on every set of m x's, and the preferred extensions are all y's
    together with any m-1 x's.
    """
    xs = [f"{prefix}x{i}" for i in range(n_x)]
    ys = [f"{prefix}y{i}" for i in range(n_y)]
    program.assumptions += xs + ys
    for i, x in enumerate(xs):
        program.rules.append((f"{prefix}p{i}", (x,)))
        program.rules.append((f"{prefix}c{i}_1", (f"{prefix}p{i}",)))
    for k in range(2, m + 1):
        for j in range(k - 1, n_x):
            for i in range(k - 2, j):
                program.rules.append((f"{prefix}c{j}_{k}", (f"{prefix}c{i}_{k - 1}", f"{prefix}p{j}")))
    for j in range(m - 1, n_x):
        program.rules.append((f"{prefix}u", (f"{prefix}c{j}_{m}",)))
    program.rules.append((f"{prefix}w", (f"{prefix}u",)))
    program.rules.append((f"{prefix}u", (f"{prefix}w",)))
    for y in ys:
        program.contraries.append((y, f"{prefix}u"))
    for y in ys[:n_y_preferred]:
        for x in xs:
            program.prefer.append((x, y))
    if n_y_preferred:
        answer = tuple(
            tuple(sorted(ys + list(chosen))) for chosen in combinations(xs, m - 1)
        )
    else:
        answer = (tuple(sorted(xs)),)
    return tuple(sorted(xs + ys)), tuple(sorted(answer))


def dense_supports(
    rng: random.Random, n_x: int, m: int, n_y: int, n_y_preferred: int, block: int
) -> AbaInstance:
    """A threshold core plus an independent block: a mutual attack or one free assumption.

    The shape is fixed by the arguments; the stream picks only names and
    the block's wiring.
    """
    program = _Program()
    tag = rng.randrange(10 ** 6)
    closed = threshold_core(program, f"t{tag}", n_x, m, n_y, n_y_preferred)
    _pattern_block(rng, program, f"k{tag}", "mutual" if block == 2 else "free")
    _add_priority(rng, program)
    return AbaInstance("dense_supports", program.text(), (closed,))
