"""Argumentation-based reconciliation of clinical guideline recommendations.

The package turns sets of possibly conflicting recommendations (with
interactions, patient state, goals, preferences, and priorities) into
assumption-based argumentation frameworks with preferences, enumerates their
preferred extensions, and ranks the outcomes by the goals they achieve.
"""

from importlib import import_module as _import_module

# Each public name, by the module that defines it.  The package imports that
# module when the name is first looked up (PEP 562), so importing one module
# of the package does not import the others.
_HOMES = {
    "aba_core": (
        "AbaFramework Preorder RawFramework Rule Sentence SupportTable "
        "attack_kinds attack_witnesses attacks canonical_attackers "
        "compute_supports conclusions defends extension_sort_key "
        "is_conflict_free preferred_extensions validate_framework"
    ).split(),
    "aba_goals": (
        "AbapgFramework GoalExtension GoalRanking collect_goal_extensions "
        "goal_set_leq maximal_goal_extensions rank_goals validate_abapg"
    ).split(),
    "aba_text": (
        "ParsedProgram parse_aba_text serialize_abapg serialize_framework"
    ).split(),
    "bundle": (
        "GuidelineBundle parse_bundle serialize_bundle"
    ).split(),
    "errors": (
        "AmbiguousActionPreference ArgClinicError ConfigError "
        "ContraryConflict DanglingPreference DsOutOfRange DuplicateName "
        "EmptyTracks FlatnessViolation GoalWithoutRule IncompatibleContext "
        "IncompatibleGoal IncompatibleState InvalidInteraction "
        "OracleSizeExceeded ParseError PreferenceOverUnknownRec "
        "PriorityMentionsNonGoal PriorityNotTotal SchemaError "
        "SizeLimitExceeded SymbolCollision UnknownLandmark ValidationError"
    ).split(),
    "mapper": (
        "FollowItem FollowPlan MappingReport Solution "
        "build_patient_framework resolve symbolize"
    ).split(),
    "tmr": (
        "Context DeonticStrength GoalTerm Interaction Modal Recommendation "
        "StateTerm Track contradiction_free validate_context "
        "validate_interaction validate_recommendation"
    ).split(),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "AbaFramework",
    "AbapgFramework",
    "AmbiguousActionPreference",
    "ArgClinicError",
    "ConfigError",
    "Context",
    "ContraryConflict",
    "DanglingPreference",
    "DeonticStrength",
    "DsOutOfRange",
    "DuplicateName",
    "EmptyTracks",
    "FlatnessViolation",
    "GoalWithoutRule",
    "IncompatibleContext",
    "IncompatibleGoal",
    "IncompatibleState",
    "InvalidInteraction",
    "FollowItem",
    "FollowPlan",
    "GoalExtension",
    "GoalRanking",
    "GoalTerm",
    "GuidelineBundle",
    "Interaction",
    "MappingReport",
    "Modal",
    "OracleSizeExceeded",
    "ParseError",
    "ParsedProgram",
    "PreferenceOverUnknownRec",
    "Preorder",
    "PriorityMentionsNonGoal",
    "PriorityNotTotal",
    "RawFramework",
    "Recommendation",
    "Rule",
    "SchemaError",
    "Sentence",
    "SizeLimitExceeded",
    "Solution",
    "StateTerm",
    "SupportTable",
    "SymbolCollision",
    "Track",
    "UnknownLandmark",
    "ValidationError",
    "attack_kinds",
    "attack_witnesses",
    "attacks",
    "build_patient_framework",
    "canonical_attackers",
    "collect_goal_extensions",
    "compute_supports",
    "conclusions",
    "contradiction_free",
    "defends",
    "extension_sort_key",
    "goal_set_leq",
    "is_conflict_free",
    "maximal_goal_extensions",
    "parse_aba_text",
    "parse_bundle",
    "preferred_extensions",
    "rank_goals",
    "resolve",
    "serialize_abapg",
    "serialize_bundle",
    "serialize_framework",
    "symbolize",
    "validate_abapg",
    "validate_context",
    "validate_framework",
    "validate_interaction",
    "validate_recommendation",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
