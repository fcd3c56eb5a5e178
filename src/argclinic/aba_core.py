"""Flat assumption-based argumentation with preferences.

A framework holds a set of inference rules over atomic sentences, a set of
assumptions, a total contrary map on the assumptions, and a preorder over
the assumptions expressing preference.  Attacks between assumption sets come
in two flavours: a normal attack derives the contrary of a member of the
target from assumptions none of which are strictly less preferred than that
member, and a reverse attack fires when such a derivation is blocked by the
preference and flips direction instead.

All public operations are pure functions of immutable values.  Support
computation and the per-assumption attack tables are memoised per framework.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping, TypeVar

from .errors import (
    ConfigError,
    ContraryConflict,
    DanglingPreference,
    FlatnessViolation,
    PriorityNotTotal,
    Record,
    SizeLimitExceeded,
    ValidationError,
    _cut,
)

DEFAULT_SIZE_CAP = 24
SIZE_CAP_ENV = "ARGCLINIC_MAX_ASSUMPTIONS"


class Sentence(str):
    """An atomic sentence, identified by its symbol.

    A sentence is the ``str`` of its symbol, so hashing, equality and order
    are those of the symbol, and a plain string with the same text is the
    same sentence in any set or mapping.
    """

    __slots__ = ()

    def __new__(cls, symbol: str) -> "Sentence":
        if not isinstance(symbol, str) or not symbol:
            raise ValueError(f"sentence symbol must be a nonempty str, got {_cut(repr(symbol))}")
        return str.__new__(cls, symbol)

    symbol = property(str.__str__, doc="The symbol, as a plain ``str``.")

    def __repr__(self) -> str:
        return f"Sentence(symbol={str.__repr__(self)})"


class Rule(Record):
    """An inference rule: derive ``head`` once every body sentence holds.

    An empty body makes the head a fact.
    """

    head: Sentence
    body: frozenset[Sentence]

    @classmethod
    def of(cls, head: str | Sentence, body: Iterable[str | Sentence] = ()) -> "Rule":
        return cls(Sentence(head), frozenset(map(Sentence, _body(body))))

    def sort_key(self) -> tuple:
        return (self.head, tuple(sorted(self.body)))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head} <-"
        return f"{self.head} <- " + ", ".join(sorted(self.body))


def _body(symbols: Iterable[str]) -> Iterable[str]:
    """``symbols``, unless it is a lone string: that is one symbol, not a body."""
    if isinstance(symbols, str):
        raise TypeError(f"rule body must be a collection of symbols, got {_cut(repr(symbols))}")
    return symbols


_T = TypeVar("_T", bound=Hashable)


def transitive_closure(
    pairs: Iterable[tuple[_T, _T]],
    carrier: Iterable[_T],
) -> frozenset[tuple[_T, _T]]:
    """Reflexive-transitive closure of ``pairs`` over ``carrier``.

    Only carrier members chain: a pair through a node outside the carrier is
    kept as given.  The Warshall pass runs over the carrier members that
    occur in a non-reflexive pair; any other member can only add its own
    reflexive pair, which is already there.
    """
    members = set(carrier)
    closed: set[tuple[_T, _T]] = {(x, x) for x in members}
    closed.update(pairs)
    linked = {x for a, b in closed if a != b for x in (a, b)} & members
    for k in linked:
        for i in linked:
            if (i, k) not in closed:
                continue
            for j in linked:
                if (k, j) in closed:
                    closed.add((i, j))
    return frozenset(closed)


def _check_total(
    members: Iterable[_T],
    closed: Container[tuple[_T, _T]],
    show: Callable[[_T], str],
) -> None:
    """Raise PriorityNotTotal for the first incomparable pair, in sorted order.

    ``closed`` is a reflexive-transitive closure over ``members``; ``show``
    gives the text of a member in the message.
    """
    ordered = sorted(members)
    for a in ordered:
        for b in ordered:
            if (a, b) not in closed and (b, a) not in closed:
                raise PriorityNotTotal(
                    f"goals {_cut(repr(show(a)))} and {_cut(repr(show(b)))} are incomparable"
                )


class Preorder(Record):
    """A reflexive-transitive relation ``leq`` over a carrier of sentences.

    It serves both as the preference over assumptions and as the priority
    over goals; the validators check that the pairs stay inside the carrier
    (and, for goals, that the closure is total).
    """

    carrier: frozenset[Sentence]
    pairs: frozenset[tuple[Sentence, Sentence]]

    @classmethod
    def over(
        cls,
        carrier: Iterable[str | Sentence],
        pairs: Iterable[tuple[str | Sentence, str | Sentence]] = (),
    ) -> "Preorder":
        members = frozenset(map(Sentence, carrier))
        raw = [(Sentence(a), Sentence(b)) for a, b in pairs]
        return cls(members, transitive_closure(raw, members))

    def leq(self, a: Sentence, b: Sentence) -> bool:
        return a == b or (a, b) in self.pairs

    def strictly_less(self, a: Sentence, b: Sentence) -> bool:
        return self.leq(a, b) and not self.leq(b, a)

    @cached_property
    def strict_pairs(self) -> frozenset[tuple[Sentence, Sentence]]:
        return frozenset(
            (a, b) for a, b in self.pairs if (b, a) not in self.pairs and a != b
        )


class RawFramework(Record):
    """Unvalidated framework input, as produced by parsers or built by hand."""

    rules: tuple[tuple[str, tuple[str, ...]], ...] = ()
    assumptions: tuple[str, ...] = ()
    contraries: tuple[tuple[str, str], ...] = ()
    preferences: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(
        cls,
        rules: Iterable[tuple[str, Iterable[str]]] = (),
        assumptions: Iterable[str] = (),
        contraries: Iterable[tuple[str, str]] = (),
        preferences: Iterable[tuple[str, str]] = (),
    ) -> "RawFramework":
        rules = tuple(rules)
        try:
            pairs = tuple((h, tuple(_body(b))) for h, b in rules)
        except (ValueError, TypeError):
            _reject_bad_pairs({"rule": rules})
            raise
        return cls(pairs, tuple(assumptions), tuple(contraries), tuple(preferences))


class AbaFramework(Record):
    """A validated flat framework with preferences.

    ``contrary_items`` is kept as a sorted tuple so frameworks hash and
    compare deterministically; use :meth:`contrary` for lookups.
    """

    rules: frozenset[Rule]
    assumptions: frozenset[Sentence]
    contrary_items: tuple[tuple[Sentence, Sentence], ...]
    preference: Preorder

    @cached_property
    def contrary_map(self) -> Mapping[Sentence, Sentence]:
        return dict(self.contrary_items)

    def contrary(self, assumption: Sentence) -> Sentence:
        return self.contrary_map[assumption]

    @cached_property
    def assumption_order(self) -> tuple[Sentence, ...]:
        return tuple(sorted(self.assumptions))

    def check_assumption_set(self, A: Iterable[Sentence]) -> frozenset[Sentence]:
        members = frozenset(A)
        stray = members - self.assumptions
        if stray:
            names = _cut(", ".join(sorted(map(str, stray))))
            raise ValueError(f"not assumptions of this framework: {names}")
        return members


def mint_contraries(assumptions: Iterable[str], taken: set[str]) -> dict[str, str]:
    """``contrary_of_<a>`` for each assumption ``a`` in sorted order, with ``_``
    appended until the name is not in ``taken``, which each new name joins."""
    minted = {}
    for asm in sorted(assumptions):
        symbol = f"contrary_of_{asm}"
        while symbol in taken:
            symbol += "_"
        taken.add(symbol)
        minted[asm] = symbol
    return minted


def _reject_bad_symbols(places: Mapping[str, Iterable]) -> None:
    """Raise :class:`ValidationError` for the first empty or non-``str``
    symbol, naming its place (the key it is listed under)."""
    for where, symbols in places.items():
        for symbol in symbols:
            if not isinstance(symbol, str) or not symbol:
                raise ValidationError(
                    f"{where} symbol must be a nonempty string, got {_cut(repr(symbol))}"
                ) from None


_PAIR_SHAPES = {
    "rule": "a (head, body)",
    "contrary": "an (assumption, contrary)",
    "preference": "an (assumption, assumption)",
    "priority": "a (goal, goal)",
}


def _reject_bad_pairs(places: Mapping[str, Iterable]) -> None:
    """Raise :class:`ValidationError` for the first entry that does not unpack
    into two, or the first rule whose body is a string or not a collection,
    naming its place (the key it is listed under)."""
    for where, entries in places.items():
        for entry in entries:
            try:
                _, second = entry
            except (ValueError, TypeError):
                raise ValidationError(
                    f"{where} must be {_PAIR_SHAPES[where]} pair, got {_cut(repr(entry))}"
                ) from None
            if where == "rule":
                try:
                    iter(_body(second))
                except TypeError:
                    raise ValidationError(
                        f"rule body must be a collection of symbols, got {_cut(repr(second))}"
                    ) from None


def validate_framework(raw: RawFramework) -> AbaFramework:
    """Check a raw framework and complete it into an :class:`AbaFramework`.

    Flatness is enforced (no assumption heads a rule); missing contraries are
    filled in with fresh ``contrary_of_*`` sentences; the preference pairs are
    closed reflexively and transitively over the assumptions.
    """
    try:
        assumptions = frozenset(map(Sentence, raw.assumptions))
        rules = frozenset(Rule.of(head, body) for head, body in raw.rules)
        contrary_pairs = [(Sentence(a), Sentence(c)) for a, c in raw.contraries]
        preference_pairs = [(Sentence(a), Sentence(b)) for a, b in raw.preferences]
    except (ValueError, TypeError):
        _reject_bad_pairs(
            {"rule": raw.rules, "contrary": raw.contraries, "preference": raw.preferences}
        )
        _reject_bad_symbols({
            "assumption": raw.assumptions,
            "rule head": [head for head, _ in raw.rules],
            "rule body": [b for _, body in raw.rules for b in body],
            "contrary": [s for pair in raw.contraries for s in pair],
            "preference": [s for pair in raw.preferences for s in pair],
        })
        raise
    if not assumptions:
        raise ValidationError("a framework needs at least one assumption")

    heads = sorted(assumptions.intersection(rule.head for rule in rules))
    if heads:
        raise FlatnessViolation(f"assumption {_cut(repr(heads[0].symbol))} appears as a rule head")

    contrary: dict[Sentence, Sentence] = {}
    for asm, target in contrary_pairs:
        if asm not in assumptions:
            raise ContraryConflict(
                f"contrary declared for {_cut(repr(asm.symbol))}, which is not an assumption"
            )
        if target in assumptions:
            raise ContraryConflict(
                f"contrary of {_cut(repr(asm.symbol))} is {_cut(repr(target.symbol))}, "
                "which is itself an assumption"
            )
        if asm in contrary and contrary[asm] != target:
            raise ContraryConflict(
                f"conflicting contraries for {_cut(repr(asm.symbol))}: "
                f"{_cut(repr(contrary[asm].symbol))} and {_cut(repr(target.symbol))}"
            )
        contrary[asm] = target

    taken = set(assumptions)
    taken.update(contrary.values())
    for rule in rules:
        taken.add(rule.head)
        taken.update(rule.body)
    for asm, symbol in mint_contraries(assumptions - contrary.keys(), taken).items():
        contrary[asm] = Sentence(symbol)

    for pair in preference_pairs:
        for s in pair:
            if s not in assumptions:
                raise DanglingPreference(
                    f"preference mentions {_cut(repr(s.symbol))}, which is not an assumption"
                )
    return AbaFramework(
        rules=rules,
        assumptions=assumptions,
        contrary_items=tuple(sorted(contrary.items())),
        preference=Preorder(assumptions, transitive_closure(preference_pairs, assumptions)),
    )


class SupportTable(Record):
    """All argument supports per sentence.

    Supports are stored as bitmasks over ``order`` (the sorted assumptions).
    Every support of every deduction tree is kept, not only the
    inclusion-minimal ones: reverse attacks can hinge on a non-minimal
    support, so dropping them would change the semantics.
    """

    order: tuple[Sentence, ...]
    mask_families: Mapping[Sentence, frozenset[int]]

    @cached_property
    def position(self) -> Mapping[Sentence, int]:
        return {s: i for i, s in enumerate(self.order)}

    def to_mask(self, members: Iterable[Sentence]) -> int:
        mask = 0
        for s in members:
            mask |= 1 << self.position[s]
        return mask

    def from_mask(self, mask: int) -> frozenset[Sentence]:
        return frozenset(
            s for i, s in enumerate(self.order) if mask >> i & 1
        )

    def holds(self, sentence: Sentence, mask: int) -> bool:
        """True when some support of ``sentence`` lies inside ``mask``."""
        return any(m & ~mask == 0 for m in self.mask_families.get(sentence, ()))

    def supports_of(self, sentence: Sentence) -> frozenset[frozenset[Sentence]]:
        masks = self.mask_families.get(sentence, frozenset())
        return frozenset(self.from_mask(m) for m in masks)

    def sentences(self) -> Iterator[Sentence]:
        return iter(self.mask_families)


@lru_cache(maxsize=8)
def compute_supports(framework: AbaFramework) -> SupportTable:
    """Compute every assumption set that supports each derivable sentence.

    Least fixpoint: an assumption supports itself, a fact has the empty
    support, and a rule contributes every pointwise union of supports of its
    body sentences.  The rules run in dependency order (Kahn's topological
    sort): a rule is ready once every rule heading one of its body sentences
    has run, so each rule off a cycle runs exactly once, on final families.
    The rules left over lie on a rule cycle or downstream of one; they run in
    whole passes among themselves until a pass changes nothing, which ends
    because each family is a set of subsets of a finite assumption set.
    """
    order = framework.assumption_order
    families: dict[Sentence, set[int]] = {a: {1 << i} for i, a in enumerate(order)}
    rules = tuple(framework.rules)
    # producers[h]: the rules with head h that have not run yet
    producers: dict[Sentence, int] = {}
    for rule in rules:
        producers[rule.head] = producers.get(rule.head, 0) + 1
    # waiting[k]: the body sentences of rules[k] with a producer yet to run;
    # users[s]: the indices of the rules with s in their body
    waiting = [0] * len(rules)
    users: dict[Sentence, list[int]] = {}
    ready: list[int] = []
    for k, rule in enumerate(rules):
        for b in rule.body:
            if b in producers:
                waiting[k] += 1
                users.setdefault(b, []).append(k)
        if not waiting[k]:
            ready.append(k)
    while ready:
        rule = rules[ready.pop()]
        head = rule.head
        masks = _fold(rule.body, families)
        if masks:
            families.setdefault(head, set()).update(masks)
        producers[head] -= 1
        if not producers[head]:
            for k in users.get(head, ()):
                waiting[k] -= 1
                if not waiting[k]:
                    ready.append(k)
    cyclic = [rule for rule, pending in zip(rules, waiting) if pending]
    changed = True
    while changed and cyclic:
        changed = False
        for rule in cyclic:
            masks = _fold(rule.body, families)
            if masks:
                target = families.setdefault(rule.head, set())
                if not masks <= target:
                    target.update(masks)
                    changed = True
    return SupportTable(
        order=order,
        mask_families={s: frozenset(m) for s, m in families.items()},
    )


_FACT = frozenset({0})


def _fold(
    body: frozenset[Sentence], families: Mapping[Sentence, set[int]]
) -> set[int] | frozenset[int] | None:
    """Every union of one support per member of ``body``, or ``None`` when some
    member has none; a fact's body gives the empty support alone.  For a
    one-member body this is that member's own family, to read, not change."""
    masks = _FACT
    for b in body:
        family = families.get(b)
        if not family:
            return None
        masks = family if masks is _FACT else {m | f for m in masks for f in family}
    return masks


def conclusions(framework: AbaFramework, A: Iterable[Sentence]) -> frozenset[Sentence]:
    """Every sentence some subset of ``A`` supports (facts included)."""
    table = compute_supports(framework)
    mask = table.to_mask(framework.check_assumption_set(A))
    return frozenset(s for s in table.mask_families if table.holds(s, mask))


class _AttackTables(Record):
    """Per-assumption support masks, split by the preference condition.

    For assumption ``b`` with index ``i``: ``normal[i]`` holds the supports
    of contrary(b) with no member strictly below b (these yield normal
    attacks on sets containing b), and ``reverse[i]`` holds the supports
    with at least one member strictly below b (these trigger reverse
    attacks against sets that include them).
    """

    table: SupportTable
    normal: tuple[tuple[int, ...], ...]
    reverse: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # reverse_pairs: (member bit, support) for every reverse support of
        # every member; _counters: the memo of :meth:`uncountered`
        pairs = tuple((1 << i, s) for i, masks in enumerate(self.reverse) for s in masks)
        object.__setattr__(self, "reverse_pairs", pairs)
        object.__setattr__(self, "_counters", {})

    def attacks(self, attacker: int, target: int) -> bool:
        rest = target
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            for s in self.normal[i]:
                if s & ~attacker == 0:
                    return True
            rest ^= low
        rest = attacker
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            for s in self.reverse[i]:
                if s & ~target == 0:
                    return True
            rest ^= low
        return False

    def witnesses(self, attacker: int, target: int) -> Iterator[tuple[str, int, int]]:
        """Every ``(kind, member, support)`` behind an attack, as indices and masks.

        A normal witness is a support inside ``attacker`` of the contrary of
        target member ``member``; a reverse witness is a support inside
        ``target`` of the contrary of attacker member ``member``.  Normal
        witnesses come first; within a kind they go by member index, then by
        support mask.  :meth:`attacks` decides the same relation without
        listing them.
        """
        for i in range(len(self.normal)):
            if target >> i & 1:
                for s in self.normal[i]:
                    if s & ~attacker == 0:
                        yield "normal", i, s
        for i in range(len(self.reverse)):
            if attacker >> i & 1:
                for s in self.reverse[i]:
                    if s & ~target == 0:
                        yield "reverse", i, s

    @cached_property
    def parts(self) -> tuple[int, ...]:
        """The independent parts of the attack relation, as assumption masks.

        Assumption ``i`` shares a part with every member of every support in
        ``normal[i]`` and ``reverse[i]``, so each attack witness (a member
        with one of those supports) lies inside one part.  The preference
        only compares a member with its supports, so it splits the same way.
        Only the members with supports on their contrary are merged; every
        member that none of those parts covers is a part of its own.
        """
        parts: list[int] = []
        covered = 0
        for i, (normal, reverse) in enumerate(zip(self.normal, self.reverse)):
            if not normal and not reverse:
                continue
            part = 1 << i
            for s in normal + reverse:
                part |= s
            if part & covered:
                for other in [p for p in parts if p & part]:
                    parts.remove(other)
                    part |= other
            parts.append(part)
            covered |= part
        free = ((1 << len(self.normal)) - 1) & ~covered
        while free:
            low = free & -free
            parts.append(low)
            free ^= low
        return tuple(parts)


    def canonical_attacker_masks(self, target: int) -> list[int]:
        """:func:`canonical_attackers` of ``target`` as masks, with repeats."""
        attackers = [j for j, s in self.reverse_pairs if s & ~target == 0]
        normal = self.normal
        rest = target
        while rest:
            low = rest & -rest
            attackers.extend(normal[low.bit_length() - 1])
            rest ^= low
        return attackers

    def uncountered(self, defender: int, attackers, every: bool = False) -> list[int]:
        """The first of ``attackers`` that ``defender`` does not attack, or all if ``every``.

        The counters of each attacker are memoised per framework."""
        counters = self._counters
        left = []
        for c in attackers:
            got = counters.get(c)
            if got is None:
                normal = self.normal
                by_reverse = 0
                for j, s in self.reverse_pairs:
                    if s & ~c == 0:
                        by_reverse |= j
                by_normal = []
                rest = c
                while rest:
                    low = rest & -rest
                    by_normal.extend(normal[low.bit_length() - 1])
                    rest ^= low
                got = counters[c] = (by_reverse, by_normal)
            if defender & got[0]:
                continue
            for s in got[1]:
                if s & ~defender == 0:
                    break
            else:
                left.append(c)
                if not every:
                    break
        return left

    def defends(self, defender: int, target: int) -> bool:
        """True iff ``defender`` attacks every set attacking ``target``.

        Quantifying over all attackers reduces to attacking every canonical
        attacker: attacks are monotone in the attacking set, and each
        attacker contains a canonical one.
        """
        return not self.uncountered(defender, self.canonical_attacker_masks(target))


@lru_cache(maxsize=8)
def _attack_tables(framework: AbaFramework) -> _AttackTables:
    table = compute_supports(framework)
    order = table.order
    families = table.mask_families
    contrary = framework.contrary_map
    # below[i]: the assumptions strictly less preferred than order[i], if any
    below: dict[int, int] = {}
    if framework.preference.strict_pairs:
        position = table.position
        for a, b in framework.preference.strict_pairs:
            if a in position and b in position:
                i = position[b]
                below[i] = below.get(i, 0) | 1 << position[a]
    normal: list[tuple[int, ...]] = [()] * len(order)
    reverse = normal.copy()
    for i, b in enumerate(order):
        masks = families.get(contrary[b])
        if not masks:
            continue
        low = below.get(i)
        if low:
            masks = sorted(masks)
            normal[i] = tuple(m for m in masks if m & low == 0)
            reverse[i] = tuple(m for m in masks if m & low)
        else:
            normal[i] = tuple(sorted(masks))
    return _AttackTables(table=table, normal=tuple(normal), reverse=tuple(reverse))


def _masks(framework: AbaFramework, *sets: Iterable[Sentence]) -> tuple:
    """The attack tables, then each of ``sets`` checked and turned into a mask."""
    tables = _attack_tables(framework)
    to_mask = tables.table.to_mask
    return (tables, *(to_mask(framework.check_assumption_set(s)) for s in sets))


def attacks(
    framework: AbaFramework,
    attacker: Iterable[Sentence],
    target: Iterable[Sentence],
) -> bool:
    """Preference-aware attack between assumption sets.

    True iff some support of the contrary of a target member lies inside the
    attacker with no supporting assumption strictly below that member
    (normal), or some support of the contrary of an attacker member lies
    inside the target with a supporting assumption strictly below that
    member (reverse).
    """
    tables, a, t = _masks(framework, attacker, target)
    return tables.attacks(a, t)


def attack_kinds(
    framework: AbaFramework,
    attacker: Iterable[Sentence],
    target: Iterable[Sentence],
) -> frozenset[str]:
    """Subset of {"normal", "reverse"} describing how ``attacker`` attacks."""
    tables, a, t = _masks(framework, attacker, target)
    return frozenset(kind for kind, _, _ in tables.witnesses(a, t))


def attack_witnesses(
    framework: AbaFramework,
    attacker: Iterable[Sentence],
    target: Iterable[Sentence],
) -> tuple[tuple[str, Sentence, frozenset[Sentence]], ...]:
    """Every ``(kind, member, support)`` by which ``attacker`` attacks ``target``.

    ``support`` derives the contrary of ``member``: inside the attacker with
    no assumption strictly below ``member`` for a "normal" witness, inside
    the target with one strictly below the attacker member ``member`` for a
    "reverse" one.  Empty exactly when there is no attack.
    """
    tables, a, t = _masks(framework, attacker, target)
    order = tables.table.order
    return tuple(
        (kind, order[i], tables.table.from_mask(s))
        for kind, i, s in tables.witnesses(a, t)
    )


def extension_sort_key(extension: Iterable[Sentence]) -> tuple[str, ...]:
    return tuple(sorted(extension))


def canonical_attackers(
    framework: AbaFramework, target: Iterable[Sentence]
) -> tuple[frozenset[Sentence], ...]:
    """A small complete family of attackers of ``target``.

    Every attacker of the target contains one of these as a subset, and each
    of these does attack the target.  Normal attacks are covered by the
    pref-compatible supports of members' contraries, reverse attacks by the
    singleton whose contrary the target supports with a strictly smaller
    member.  Defence checks only need to counter these.
    """
    tables, t = _masks(framework, target)
    sets = [tables.table.from_mask(m) for m in set(tables.canonical_attacker_masks(t))]
    return tuple(sorted(sets, key=extension_sort_key))


def is_conflict_free(framework: AbaFramework, A: Iterable[Sentence]) -> bool:
    """True iff ``A`` does not attack itself."""
    tables, m = _masks(framework, A)
    return not tables.attacks(m, m)


def defends(
    framework: AbaFramework,
    defender: Iterable[Sentence],
    target: Iterable[Sentence],
) -> bool:
    """True iff ``defender`` attacks every set attacking ``target``."""
    tables, d, t = _masks(framework, defender, target)
    return tables.defends(d, t)


def _check_size(framework: AbaFramework) -> None:
    """Raise :class:`SizeLimitExceeded` when the framework has more assumptions
    than the cap: the ARGCLINIC_MAX_ASSUMPTIONS environment variable, else 24."""
    env = os.environ.get(SIZE_CAP_ENV, str(DEFAULT_SIZE_CAP))
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ConfigError(f"{SIZE_CAP_ENV} must be a non-negative integer, got {_cut(repr(env))}")
    n = len(framework.assumptions)
    if n > cap:
        raise SizeLimitExceeded(f"{n} assumptions exceed the enumeration cap of {cap}")


def preferred_extensions(framework: AbaFramework) -> tuple[frozenset[Sentence], ...]:
    """All maximal admissible assumption sets, deterministically ordered.

    No attack witness spans two of :attr:`_AttackTables.parts`, so each part
    is solved on its own and the result is every union of one preferred
    extension per part.  Within a part, a depth-first search decides the
    members one at a time (see :func:`_preferred_masks`), so the cost is
    exponential at worst in the largest part.  The empty set is admissible,
    so the result is never empty.  Raises :class:`SizeLimitExceeded` past
    the cap of :func:`_check_size`.
    """
    _check_size(framework)
    tables = _attack_tables(framework)
    normal = tables.normal
    fixed = 0  # the union of the parts that have one preferred extension
    combined = [0]
    for part in tables.parts:
        if part & (part - 1) == 0:
            # One member: any support of its contrary is empty or the member
            # itself, so it is admissible exactly when there is none.
            if not normal[part.bit_length() - 1]:
                fixed |= part
            continue
        local = _preferred_masks(tables, part)
        if len(local) == 1:
            fixed |= local[0]
        else:
            combined = [mask | ext for mask in combined for ext in local]
    extensions = [tables.table.from_mask(mask | fixed) for mask in combined]
    return tuple(sorted(extensions, key=extension_sort_key))


def _preferred_masks(tables: _AttackTables, part: int) -> list[int]:
    """The preferred extensions of one part, as masks inside ``part``.

    A depth-first search on an explicit stack decides the members that do
    not attack themselves, "in" first.  A node holds ``inside``, the members
    chosen so far, and ``rest``, the undecided ones; ``upper``, their union,
    is the largest set the node can reach.  Attacks are monotone in both
    arguments, so a node is dropped when ``inside`` attacks itself, when
    ``upper`` does not counter some canonical attacker of ``inside``, or
    when ``upper`` lies inside an extension already found; an undecided
    member is decided out when ``upper`` cannot counter one of its normal
    attackers.  An admissible ``upper`` is the one maximal set below its
    node and is kept whole.  Deciding "in" first means no later extension
    contains an earlier one.

    The extensions found are indexed by member: bit ``e`` of ``holders[i]``
    is set when ``found[e]`` holds member ``i``.  ``upper`` lies inside one
    exactly when the AND of ``holders`` over its members, starting from one
    bit per extension found, is nonzero, so a node costs its members, not the
    number of extensions found.
    """
    normal, pairs = tables.normal, tables.reverse_pairs
    attacks, uncountered = tables.attacks, tables.uncountered
    usable = 0
    rest = part
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if 0 not in normal[i] and low not in normal[i]:
            usable |= low
        rest ^= low

    found: list[int] = []
    holders = [0] * part.bit_length()
    # (inside, rest, the canonical attackers of inside that inside does not counter)
    stack: list[tuple[int, int, list[int]]] = [(0, usable, [])]
    while stack:
        inside, rest, open_ = stack.pop()
        upper = inside | rest
        undecided = rest
        while undecided:
            low = undecided & -undecided
            undecided ^= low
            if uncountered(upper, normal[low.bit_length() - 1]):
                rest ^= low
                upper ^= low
        holding = (1 << len(found)) - 1
        members = upper
        while members and holding:
            low = members & -members
            members ^= low
            holding &= holders[low.bit_length() - 1]
        if holding:
            continue
        if not attacks(upper, upper) and tables.defends(upper, upper):
            bit = 1 << len(found)
            found.append(upper)
            members = upper
            while members:
                low = members & -members
                members ^= low
                holders[low.bit_length() - 1] |= bit
            continue
        # Go "in" while that stays alive, leaving each live "out" on the stack.
        # ``upper`` does not change on the way, so nothing above is redone,
        # and ``open_`` needs checking against it only for the new attackers.
        while rest:
            low = rest & -rest
            rest ^= low
            if not open_ or not uncountered(upper ^ low, open_):
                stack.append((inside, rest, open_))
            grown = inside | low
            if attacks(grown, grown):
                break
            new = [j for j, s in pairs if s & low and s & ~grown == 0]
            new.extend(normal[low.bit_length() - 1])
            new = uncountered(grown, new, True)
            if new and uncountered(upper, new):
                break
            inside = grown
            if new:
                open_ = open_ + new
    return found
