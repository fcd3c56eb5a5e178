"""Argumentation-based reconciliation of clinical guideline recommendations.

The package turns sets of possibly conflicting recommendations (with
interactions, patient state, goals, preferences, and priorities) into
assumption-based argumentation frameworks with preferences, enumerates their
preferred extensions, and ranks the outcomes by the goals they achieve.
"""

from importlib import import_module as _import_module

# Each public name, by the module that defines it; ``__all__`` keeps this
# order.  The package imports that module when the name is first looked up
# (PEP 562), so importing one module of the package does not import others.
_MODULE_OF = {
    "AbaFramework": "aba_core",
    "AbapgFramework": "aba_goals",
    "AmbiguousActionPreference": "errors",
    "ArgClinicError": "errors",
    "ConfigError": "errors",
    "Context": "tmr",
    "ContraryConflict": "errors",
    "DanglingPreference": "errors",
    "DeonticStrength": "tmr",
    "DsOutOfRange": "errors",
    "DuplicateName": "errors",
    "FlatnessViolation": "errors",
    "GoalWithoutRule": "errors",
    "IncompatibleContext": "errors",
    "IncompatibleGoal": "errors",
    "IncompatibleState": "errors",
    "InvalidInteraction": "errors",
    "FollowItem": "mapper",
    "FollowPlan": "mapper",
    "GoalExtension": "aba_goals",
    "GoalRanking": "aba_goals",
    "GoalTerm": "tmr",
    "GuidelineBundle": "bundle",
    "Interaction": "tmr",
    "MappingReport": "mapper",
    "Modal": "tmr",
    "OracleSizeExceeded": "errors",
    "ParseError": "errors",
    "ParsedProgram": "aba_text",
    "PreferenceOverUnknownRec": "errors",
    "Preorder": "aba_core",
    "PriorityMentionsNonGoal": "errors",
    "PriorityNotTotal": "errors",
    "RawFramework": "aba_core",
    "Recommendation": "tmr",
    "Rule": "aba_core",
    "SchemaError": "errors",
    "Sentence": "aba_core",
    "SizeLimitExceeded": "errors",
    "Solution": "mapper",
    "StateTerm": "tmr",
    "SupportTable": "aba_core",
    "SymbolCollision": "errors",
    "Track": "tmr",
    "UnknownLandmark": "errors",
    "ValidationError": "errors",
    "attack_kinds": "aba_core",
    "attack_witnesses": "aba_core",
    "attacks": "aba_core",
    "build_patient_framework": "mapper",
    "canonical_attackers": "aba_core",
    "collect_goal_extensions": "aba_goals",
    "compute_supports": "aba_core",
    "conclusions": "aba_core",
    "contradiction_free": "tmr",
    "defends": "aba_core",
    "extension_sort_key": "aba_core",
    "goal_set_leq": "aba_goals",
    "is_conflict_free": "aba_core",
    "maximal_goal_extensions": "aba_goals",
    "parse_aba_text": "aba_text",
    "parse_bundle": "bundle",
    "preferred_extensions": "aba_core",
    "rank_goals": "aba_goals",
    "resolve": "mapper",
    "serialize_abapg": "aba_text",
    "serialize_bundle": "bundle",
    "serialize_framework": "aba_text",
    "symbolize": "mapper",
    "validate_abapg": "aba_goals",
    "validate_context": "tmr",
    "validate_framework": "aba_core",
    "validate_interaction": "tmr",
    "validate_recommendation": "bundle",
}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
