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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

from .errors import (
    ConfigError,
    ContraryConflict,
    DanglingPreference,
    FlatnessViolation,
    SizeLimitExceeded,
    ValidationError,
)

DEFAULT_SIZE_CAP = 24
SIZE_CAP_ENV = "ARGCLINIC_MAX_ASSUMPTIONS"


@dataclass(frozen=True, order=True)
class Sentence:
    """An atomic sentence, identified by its symbol."""

    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("sentence symbol must be nonempty")

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Rule:
    """An inference rule: derive ``head`` once every body sentence holds.

    An empty body makes the head a fact.
    """

    head: Sentence
    body: frozenset[Sentence]

    @classmethod
    def of(cls, head: str | Sentence, body: Iterable[str | Sentence] = ()) -> "Rule":
        return cls(_sentence(head), frozenset(_sentence(b) for b in body))

    def sort_key(self) -> tuple:
        return (self.head.symbol, tuple(sorted(s.symbol for s in self.body)))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head} <-"
        return f"{self.head} <- " + ", ".join(sorted(s.symbol for s in self.body))


def _sentence(value: str | Sentence) -> Sentence:
    return value if isinstance(value, Sentence) else Sentence(value)


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


@dataclass(frozen=True)
class Preorder:
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
        members = frozenset(_sentence(c) for c in carrier)
        raw = [(_sentence(a), _sentence(b)) for a, b in pairs]
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


@dataclass(frozen=True)
class RawFramework:
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
        return cls(
            tuple((h, tuple(b)) for h, b in rules),
            tuple(assumptions),
            tuple(contraries),
            tuple(preferences),
        )


@dataclass(frozen=True)
class AbaFramework:
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
            names = ", ".join(sorted(s.symbol for s in stray))
            raise ValueError(f"not assumptions of this framework: {names}")
        return members


def fresh_symbol(base: str, taken: set[str]) -> str:
    symbol = base
    while symbol in taken:
        symbol += "_"
    return symbol


def validate_framework(raw: RawFramework) -> AbaFramework:
    """Check a raw framework and complete it into an :class:`AbaFramework`.

    Flatness is enforced (no assumption heads a rule); missing contraries are
    filled in with fresh ``contrary_of_*`` sentences; the preference pairs are
    closed reflexively and transitively over the assumptions.
    """
    for symbol in raw.assumptions:
        if not symbol:
            raise ValidationError("assumption symbols must be nonempty")
    assumptions = frozenset(Sentence(s) for s in raw.assumptions)
    if not assumptions:
        raise ValidationError("a framework needs at least one assumption")

    rules = frozenset(Rule.of(head, body) for head, body in raw.rules)
    for rule in rules:
        if rule.head in assumptions:
            raise FlatnessViolation(
                f"assumption {rule.head.symbol!r} appears as a rule head"
            )

    contrary: dict[Sentence, Sentence] = {}
    for asm_symbol, contrary_symbol in raw.contraries:
        asm = Sentence(asm_symbol)
        target = Sentence(contrary_symbol)
        if asm not in assumptions:
            raise ContraryConflict(
                f"contrary declared for {asm_symbol!r}, which is not an assumption"
            )
        if target in assumptions:
            raise ContraryConflict(
                f"contrary of {asm_symbol!r} is {contrary_symbol!r}, "
                "which is itself an assumption"
            )
        if asm in contrary and contrary[asm] != target:
            raise ContraryConflict(
                f"conflicting contraries for {asm_symbol!r}: "
                f"{contrary[asm].symbol!r} and {contrary_symbol!r}"
            )
        contrary[asm] = target

    taken = {s.symbol for s in assumptions}
    taken.update(c for _, c in raw.contraries)
    for head, body in raw.rules:
        taken.add(head)
        taken.update(body)
    for asm in sorted(assumptions - contrary.keys()):
        symbol = fresh_symbol(f"contrary_of_{asm.symbol}", taken)
        taken.add(symbol)
        contrary[asm] = Sentence(symbol)

    preference_pairs = [(Sentence(a), Sentence(b)) for a, b in raw.preferences]
    for pair in preference_pairs:
        for s in pair:
            if s not in assumptions:
                raise DanglingPreference(
                    f"preference mentions {s.symbol!r}, which is not an assumption"
                )
    preference = Preorder.over(assumptions, preference_pairs)
    return AbaFramework(
        rules=rules,
        assumptions=assumptions,
        contrary_items=tuple(sorted(contrary.items())),
        preference=preference,
    )


@dataclass(frozen=True)
class SupportTable:
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


@lru_cache(maxsize=256)
def compute_supports(framework: AbaFramework) -> SupportTable:
    """Compute every assumption set that supports each derivable sentence.

    Least fixpoint: an assumption supports itself, a fact has the empty
    support, and a rule contributes every pointwise union of supports of its
    body sentences.  Terminates because each family is a set of subsets of a
    finite assumption set.
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


def conclusions(framework: AbaFramework, A: Iterable[Sentence]) -> frozenset[Sentence]:
    """Every sentence some subset of ``A`` supports (facts included)."""
    table = compute_supports(framework)
    mask = table.to_mask(framework.check_assumption_set(A))
    return frozenset(s for s in table.mask_families if table.holds(s, mask))


@dataclass(frozen=True)
class _AttackTables:
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
        """
        parts: list[int] = []
        for i in range(len(self.normal)):
            part = 1 << i
            for s in self.normal[i] + self.reverse[i]:
                part |= s
            for other in [p for p in parts if p & part]:
                parts.remove(other)
                part |= other
            parts.append(part)
        return tuple(parts)

    @cached_property
    def reverse_owners(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(i, reverse[i])`` for each assumption with a reverse support."""
        return tuple((i, masks) for i, masks in enumerate(self.reverse) if masks)

    def canonical_attacker_masks(self, target: int) -> frozenset[int]:
        found: set[int] = set()
        rest = target
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            found.update(self.normal[i])
            rest ^= low
        for i, masks in self.reverse_owners:
            if any(s & ~target == 0 for s in masks):
                found.add(1 << i)
        return frozenset(found)

    def defends(self, defender: int, target: int) -> bool:
        """True iff ``defender`` attacks every set attacking ``target``.

        Quantifying over all attackers reduces to attacking every canonical
        attacker: attacks are monotone in the attacking set, and each
        attacker contains a canonical one.
        """
        return all(
            self.attacks(defender, c) for c in self.canonical_attacker_masks(target)
        )


@lru_cache(maxsize=256)
def _attack_tables(framework: AbaFramework) -> _AttackTables:
    table = compute_supports(framework)
    order = table.order
    position = table.position
    # below[i]: the assumptions strictly less preferred than order[i]
    below = [0] * len(order)
    for a, b in framework.preference.strict_pairs:
        if a in position and b in position:
            below[position[b]] |= 1 << position[a]
    normal: list[tuple[int, ...]] = []
    reverse: list[tuple[int, ...]] = []
    for i, b in enumerate(order):
        masks = sorted(table.mask_families.get(framework.contrary(b), ()))
        normal.append(tuple(m for m in masks if m & below[i] == 0))
        reverse.append(tuple(m for m in masks if m & below[i] != 0))
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
    return tuple(sorted(s.symbol for s in extension))


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
    sets = [tables.table.from_mask(m) for m in tables.canonical_attacker_masks(t)]
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


def _env_cap() -> int:
    env = os.environ.get(SIZE_CAP_ENV)
    if env is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ConfigError(f"{SIZE_CAP_ENV} must be a non-negative integer, got {env!r}")
    return cap


def preferred_extensions(framework: AbaFramework) -> tuple[frozenset[Sentence], ...]:
    """All maximal admissible assumption sets, deterministically ordered.

    No attack witness spans two of :attr:`_AttackTables.parts`, so each part
    is solved on its own and the result is every union of one preferred
    extension per part.  Within a part, candidate sets go by decreasing
    cardinality, skipping subsets of extensions already found and supersets
    of known conflicting pairs, so the cost is exponential in the largest
    part.  The empty set is admissible, so the result is never empty.
    Raises :class:`SizeLimitExceeded` when the count of all assumptions
    exceeds the cap (the ARGCLINIC_MAX_ASSUMPTIONS environment variable,
    else 24).
    """
    cap = _env_cap()
    n = len(framework.assumptions)
    if n > cap:
        raise SizeLimitExceeded(
            f"{n} assumptions exceed the enumeration cap of {cap}"
        )
    tables = _attack_tables(framework)
    combined = [0]
    for part in tables.parts:
        local = _preferred_masks(tables, part)
        combined = [mask | ext for mask in combined for ext in local]
    extensions = [tables.table.from_mask(m) for m in combined]
    return tuple(sorted(extensions, key=extension_sort_key))


def _preferred_masks(tables: _AttackTables, part: int) -> list[int]:
    """The preferred extensions of one part, as masks inside ``part``."""
    members = []
    rest = part
    while rest:
        low = rest & -rest
        members.append(low.bit_length() - 1)
        rest ^= low
    usable = [i for i in members if not tables.attacks(1 << i, 1 << i)]
    conflict_pairs = []
    for i, j in combinations(usable, 2):
        pair = (1 << i) | (1 << j)
        if tables.attacks(pair, pair):
            conflict_pairs.append(pair)

    found: list[int] = []
    for k in range(len(usable), -1, -1):
        for combo in combinations(usable, k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(pair & mask == pair for pair in conflict_pairs):
                continue
            if any(mask | ext == ext for ext in found):
                continue
            if not tables.attacks(mask, mask) and tables.defends(mask, mask):
                found.append(mask)
        if found and k == len(usable):
            # the full candidate set is admissible; no other set is maximal
            break
    return found
