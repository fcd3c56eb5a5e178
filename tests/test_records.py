"""Every value type behaves as the frozen dataclass it replaced.

Each record class is checked against a literal ``@dataclass`` copy of its
old definition, on instances taken from a full run over the paper's case:
repr, equality within and across classes, hash, ordering, frozen fields,
defaults, signatures, pickle and deepcopy round trips, bad calls and their
messages, and the typed errors of ``__post_init__``.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Mapping

import pytest

from argclinic import aba_core, aba_goals, aba_text, bundle, mapper, tmr
from argclinic.aba_core import Sentence
from argclinic.errors import DsOutOfRange, Record, ValidationError

from conftest import load_bundle


# --- the dataclasses as they were ------------------------------------------------


@dataclass(frozen=True)
class Rule:
    head: Sentence
    body: frozenset[Sentence]


@dataclass(frozen=True)
class Preorder:
    carrier: frozenset[Sentence]
    pairs: frozenset[tuple[Sentence, Sentence]]


@dataclass(frozen=True)
class RawFramework:
    rules: tuple[tuple[str, tuple[str, ...]], ...] = ()
    assumptions: tuple[str, ...] = ()
    contraries: tuple[tuple[str, str], ...] = ()
    preferences: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AbaFramework:
    rules: frozenset[Rule]
    assumptions: frozenset[Sentence]
    contrary_items: tuple[tuple[Sentence, Sentence], ...]
    preference: Preorder


@dataclass(frozen=True)
class SupportTable:
    order: tuple[Sentence, ...]
    mask_families: Mapping[Sentence, frozenset[int]]


@dataclass(frozen=True)
class _AttackTables:
    table: SupportTable
    normal: tuple[tuple[int, ...], ...]
    reverse: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AbapgFramework:
    base: AbaFramework
    goals: frozenset[Sentence]
    priority: Preorder


@dataclass(frozen=True)
class GoalExtension:
    achieved: frozenset[Sentence]
    sources: tuple[frozenset[Sentence], ...]


@dataclass(frozen=True)
class GoalRanking:
    preferred: tuple[frozenset[Sentence], ...]
    goal_extensions: tuple[GoalExtension, ...]
    top_goal_extensions: tuple[GoalExtension, ...]


@dataclass(frozen=True)
class ParsedProgram:
    raw: RawFramework
    goals: tuple[str, ...] = ()
    priorities: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class GuidelineBundle:
    recommendations: tuple
    interactions: tuple
    context: object
    metadata: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True, order=True)
class DeonticStrength:
    value: Fraction

    def __post_init__(self):
        if not Fraction(-1) <= self.value <= Fraction(1):
            raise DsOutOfRange(f"deontic strength {self.value} outside [-1, 1]")


@dataclass(frozen=True, order=True)
class Track:
    property: str
    effect: str
    initial_value: str | None
    contribution: str

    def __post_init__(self):
        if self.contribution not in tmr.CONTRIBUTIONS:
            raise ValidationError(
                f"contribution must be one of {tmr.CONTRIBUTIONS}, got {self.contribution!r}"
            )


@dataclass(frozen=True)
class Recommendation:
    name: str
    action: str
    strength: DeonticStrength
    tracks: tuple[Track, ...]


@dataclass(frozen=True)
class Interaction:
    first: str
    second: str
    modal: tmr.Modal


@total_ordering
@dataclass(frozen=True)
class StateTerm:
    property: str
    value: str | None = None

    def __lt__(self, other):
        return (self.property, self.value is not None, self.value or "") < (
            other.property, other.value is not None, other.value or ""
        )


@dataclass(frozen=True, order=True)
class GoalTerm:
    effect: str
    property: str
    negated: bool = False


@dataclass(frozen=True)
class Context:
    patient_state: frozenset = frozenset()
    goals: frozenset = frozenset()
    action_preference: frozenset = frozenset()
    goal_priority: frozenset = frozenset()


@dataclass(frozen=True)
class MappingReport:
    rule_counts: Mapping[str, int]
    assumptions: tuple[str, ...]
    symbol_table: Mapping[tuple[str, str], str]
    warnings: tuple[str, ...] = ()
    symmetric_interactions: tuple[tuple[str, str], ...] = ()
    dropped_goals: tuple[str, ...] = ()


@dataclass(frozen=True)
class FollowItem:
    recommendation: str
    action: str
    avoid: bool


@dataclass(frozen=True)
class FollowPlan:
    source: tuple[str, ...]
    items: tuple[FollowItem, ...]


@dataclass(frozen=True)
class Solution(GoalRanking):
    framework: AbapgFramework
    report: MappingReport
    preferred_recommendations: tuple[tuple[str, ...], ...]
    follow: tuple[FollowPlan, ...]


COPIES = {
    aba_core.Rule: Rule,
    aba_core.Preorder: Preorder,
    aba_core.RawFramework: RawFramework,
    aba_core.AbaFramework: AbaFramework,
    aba_core.SupportTable: SupportTable,
    aba_core._AttackTables: _AttackTables,
    aba_goals.AbapgFramework: AbapgFramework,
    aba_goals.GoalExtension: GoalExtension,
    aba_goals.GoalRanking: GoalRanking,
    aba_text.ParsedProgram: ParsedProgram,
    bundle.GuidelineBundle: GuidelineBundle,
    tmr.DeonticStrength: DeonticStrength,
    tmr.Track: Track,
    tmr.Recommendation: Recommendation,
    tmr.Interaction: Interaction,
    tmr.StateTerm: StateTerm,
    tmr.GoalTerm: GoalTerm,
    tmr.Context: Context,
    mapper.MappingReport: MappingReport,
    mapper.FollowItem: FollowItem,
    mapper.FollowPlan: FollowPlan,
    mapper.Solution: Solution,
}
ORDERED = (tmr.DeonticStrength, tmr.Track, tmr.GoalTerm, tmr.StateTerm)


def names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(COPIES[cls])]


def _collect(value, found: dict) -> None:
    if isinstance(value, Record):
        found.setdefault(type(value), []).append(value)
        for name in names(type(value)):
            _collect(getattr(value, name), found)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            _collect(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _collect(key, found)
            _collect(item, found)


def _samples() -> dict:
    """Up to four distinct instances of each record class, from one full run."""
    case = load_bundle("patient_a.json")
    solution = mapper.resolve(case.recommendations, case.interactions, case.context)
    base = solution.framework.base
    program = aba_text.parse_aba_text(aba_text.serialize_abapg(solution.framework))
    found: dict = {}
    for value in (
        case,
        solution,
        aba_goals.rank_goals(solution.framework),
        program,
        aba_core.compute_supports(base),
        aba_core._attack_tables(base),
    ):
        _collect(value, found)
    samples = {}
    for cls, values in found.items():
        distinct = []
        for value in values:
            if all(value is not kept and value != kept for kept in distinct):
                distinct.append(value)
        samples[cls] = distinct[:4]
    return samples


SAMPLES = _samples()


def pairs(cls):
    """``(record, dataclass copy)`` pairs built from the same field values."""
    for sample in SAMPLES[cls]:
        values = [getattr(sample, name) for name in names(cls)]
        yield cls(*values), COPIES[cls](*values)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_class_is_sampled_and_has_a_copy():
    assert set(SAMPLES) == set(COPIES)
    assert all(issubclass(cls, Record) for cls in COPIES)


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_match_the_dataclass(cls):
    for record, twin in pairs(cls):
        assert repr(record) == repr(twin)
        assert hash_or_error(record) == hash_or_error(twin)
        values = [getattr(record, name) for name in names(cls)]
        keyword = cls(**dict(zip(names(cls), values)))
        assert record == keyword and not record != keyword
        assert hash_or_error(record) == hash_or_error(keyword)
        # equality holds only within one class, as for dataclasses
        assert record != twin and not record == twin and twin != record
        assert record != tuple(values) and record != values


def test_equality_keeps_apart_a_subclass_with_the_same_fields():
    solution = SAMPLES[mapper.Solution][0]
    ranking = aba_goals.GoalRanking(
        solution.preferred, solution.goal_extensions, solution.top_goal_extensions
    )
    assert ranking == SAMPLES[aba_goals.GoalRanking][0]
    assert solution != ranking and ranking != solution


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_different_values_differ_as_for_the_dataclass(cls):
    built = list(pairs(cls))
    for record, twin in built:
        for other, other_twin in built:
            assert (record == other) == (twin == other_twin)
            assert (record != other) == (twin != other_twin)


def outcome(compare):
    """What a comparison returns, or ``TypeError`` when it raises one."""
    try:
        return compare()
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", ORDERED, ids=lambda cls: cls.__name__)
def test_ordering_matches_the_dataclass(cls):
    built = list(pairs(cls))
    assert len(built) > 1
    for record, twin in built:
        for other, other_twin in built:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                # Track raises TypeError for a None initial value against a str
                assert outcome(lambda: getattr(record, op)(other)) == outcome(
                    lambda: getattr(twin, op)(other_twin)
                ), op
        if cls is not tmr.StateTerm:  # its own __lt__ reads any object's fields
            with pytest.raises(TypeError):
                record < twin  # noqa: B015
    records = [record for record, _ in built]
    twins = [twin for _, twin in built]
    assert [repr(r) for r in sorted(records)] == [repr(t) for t in sorted(twins)]


# The least goal term, not the first found: goals come from a frozenset, and
# the test id must not follow the hash seed.
@pytest.mark.parametrize("other", [3, "a", None, min(SAMPLES[tmr.GoalTerm])], ids=repr)
def test_a_state_term_does_not_order_against_a_foreign_value(other):
    term = SAMPLES[tmr.StateTerm][0]
    for compare in (
        lambda: term < other, lambda: term <= other,
        lambda: term > other, lambda: term >= other,
        lambda: other < term, lambda: sorted([term, other]),
    ):
        with pytest.raises(TypeError):
            compare()


def test_unordered_records_do_not_compare():
    rule = SAMPLES[aba_core.Rule][0]
    with pytest.raises(TypeError):
        rule < rule  # noqa: B015


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    record, _ = next(pairs(cls))
    for name in names(cls) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names(cls)] == [
        getattr(SAMPLES[cls][0], name) for name in names(cls)
    ]


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    for record, _ in pairs(cls):
        copies = [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.deepcopy(record), copy.copy(record)]
        for back in copies:
            assert type(back) is cls
            assert back == record
            assert hash_or_error(back) == hash_or_error(record)
            with pytest.raises(AttributeError):
                setattr(back, names(cls)[0], None)


def test_cached_properties_fill_once_and_stay_out_of_equality():
    framework = SAMPLES[aba_core.AbaFramework][0]
    fresh = aba_core.AbaFramework(*[getattr(framework, n) for n in names(aba_core.AbaFramework)])
    assert fresh.assumption_order is fresh.assumption_order
    assert "assumption_order" in vars(fresh)
    assert fresh == framework and hash(fresh) == hash(framework)
    assert repr(fresh) == repr(framework)
    back = pickle.loads(pickle.dumps(fresh))
    assert back.assumption_order == fresh.assumption_order


@pytest.mark.parametrize(
    "cls, args",
    [
        (aba_core.RawFramework, ()),
        (aba_core.RawFramework, ((("p", ("a",)),),)),
        (aba_text.ParsedProgram, (aba_core.RawFramework(),)),
        (tmr.StateTerm, ("Pain",)),
        (tmr.GoalTerm, ("Decrease", "Pain")),
        (tmr.Context, ()),
        (mapper.MappingReport, ({}, (), {})),
    ],
    ids=lambda value: getattr(value, "__name__", None) or repr(value)[:20],
)
def test_defaults_match_the_dataclass(cls, args):
    assert repr(cls(*args)) == repr(COPIES[cls](*args))
    assert hash_or_error(cls(*args)) == hash_or_error(COPIES[cls](*args))


def test_a_bundle_gets_a_fresh_metadata_dict():
    case = SAMPLES[bundle.GuidelineBundle][0]
    first = bundle.GuidelineBundle(case.recommendations, case.interactions, case.context)
    second = bundle.GuidelineBundle(case.recommendations, case.interactions, case.context)
    twin = GuidelineBundle(case.recommendations, case.interactions, case.context)
    assert first.metadata == {} and first.metadata is not second.metadata
    assert repr(first) == repr(twin)
    first.metadata["name"] = "changed"
    assert second.metadata == {}


@pytest.mark.parametrize(
    "call",
    [
        lambda cls: cls(Sentence("p")),
        lambda cls: cls(Sentence("p"), frozenset(), 3),
        lambda cls: cls(Sentence("p"), body=frozenset(), head=Sentence("q")),
        lambda cls: cls(head=Sentence("p"), body=frozenset(), other=1),
        lambda cls: cls(body=frozenset()),
    ],
    ids=["missing", "extra-positional", "twice", "unknown-keyword", "missing-keyword"],
)
def test_bad_calls_raise_type_error_as_for_the_dataclass(call):
    with pytest.raises(TypeError):
        call(Rule)
    with pytest.raises(TypeError):
        call(aba_core.Rule)


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_signature_matches_the_dataclass(cls):
    ours = inspect.signature(cls).parameters.values()
    theirs = inspect.signature(COPIES[cls]).parameters.values()
    assert [(p.name, p.kind) for p in ours] == [(p.name, p.kind) for p in theirs]
    for mine, copied in zip(ours, theirs):
        if repr(copied.default) != "<factory>":  # GuidelineBundle.metadata's default_factory
            assert mine.default == copied.default, mine.name


def type_error_message(call):
    """The message of the ``TypeError`` that ``call`` raises, or ``None``."""
    try:
        call()
    except TypeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "call",
    [
        lambda cls, fields: cls(),
        lambda cls, fields: cls(*fields.values(), None),
        lambda cls, fields: cls(*fields.values(), **dict(list(fields.items())[:1])),
        lambda cls, fields: cls(*fields.values(), not_a_field=1),
    ],
    ids=["missing", "extra-positional", "twice", "unknown-keyword"],
)
@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_bad_calls_give_the_dataclass_message(cls, call):
    fields = {name: getattr(SAMPLES[cls][0], name) for name in names(cls)}
    ours = type_error_message(lambda: call(cls, fields))
    assert ours == type_error_message(lambda: call(COPIES[cls], fields))
    if ours is None:  # every field has a default, so nothing was missing
        assert all(p.default is not p.empty for p in inspect.signature(cls).parameters.values())


def test_keywords_and_positions_mix_as_for_the_dataclass():
    rule = aba_core.Rule(Sentence("p"), body=frozenset({Sentence("a")}))
    assert repr(rule) == repr(Rule(Sentence("p"), body=frozenset({Sentence("a")})))
    term = tmr.GoalTerm("Decrease", negated=True, property="Pain")
    assert repr(term) == repr(GoalTerm("Decrease", negated=True, property="Pain"))


@pytest.mark.parametrize(
    "cls, kwargs, error",
    [
        (tmr.DeonticStrength, {"value": Fraction(3, 2)}, DsOutOfRange),
        (tmr.DeonticStrength, {"value": Fraction(-2)}, DsOutOfRange),
        (
            tmr.Track,
            {"property": "Pain", "effect": "Decrease", "initial_value": None, "contribution": "x"},
            ValidationError,
        ),
    ],
    ids=["ds-high", "ds-low", "track-contribution"],
)
def test_post_init_raises_the_same_typed_error(cls, kwargs, error):
    with pytest.raises(error) as record_error:
        cls(**kwargs)
    with pytest.raises(error) as twin_error:
        COPIES[cls](**kwargs)
    assert type(record_error.value) is type(twin_error.value)
    assert str(record_error.value) == str(twin_error.value)
    with pytest.raises(error):
        cls(*kwargs.values())
