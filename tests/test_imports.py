"""What each subcommand loads, and the lazy package namespace.

A CLI run is one fresh process per case, so its start-up is mostly import
time: each subcommand must load only the modules its input needs, and no
module may pull in ``dataclasses`` or ``inspect``.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import argclinic

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
# ``python -m argclinic.cli`` runs the CLI module as ``__main__``
CORE = {"argclinic", "argclinic.errors", "argclinic.aba_core", "argclinic.aba_goals"}
BUNDLE = CORE | {"argclinic.bundle", "argclinic.tmr", "argclinic.mapper"}

# Runs ``python -m argclinic.cli`` as runpy does, then reports sys.modules.
PROBE = """
import runpy, sys
try:
    runpy.run_module("argclinic.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\nmodules: " + " ".join(sorted(sys.modules)) + "\\n")
"""


def loaded(argv: list[str]) -> tuple[set[str], set[str]]:
    """The ``argclinic`` modules and all the modules one CLI run leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert "Traceback" not in run.stderr, run.stderr
    modules = set(run.stderr.rsplit("modules: ", 1)[1].split())
    return {m for m in modules if m.split(".")[0] == "argclinic"}, modules


@pytest.fixture(scope="module")
def program(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("aba") / "case.aba"
    path.write_text(
        "assumption(a).\nassumption(b).\ncontrary(a, c_a).\n"
        "rule(c_a, [b]).\nrule(g, [a]).\ngoal(g).\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--aba", "{program}"], CORE | {"argclinic.aba_text"}),
        (["solve", "--aba", "{program}", "--format", "json"], CORE | {"argclinic.aba_text"}),
        (["check", "--aba", "{program}"], CORE | {"argclinic.aba_text"}),
        (["solve", "--bundle", str(FIXTURES / "patient_a.json")], BUNDLE),
        (["solve", "--bundle", str(FIXTURES / "patient_a.json"), "--format", "json"], BUNDLE),
        (["check", "--bundle", str(FIXTURES / "broken.json")], BUNDLE),
        (
            ["oracle", "--count", "1"],
            CORE | {"argclinic.aba_text", "argclinic.generators", "argclinic.oracle",
                    "argclinic.tmr"},
        ),
    ],
    ids=["solve-aba", "solve-aba-json", "check-aba", "solve-bundle", "solve-bundle-json",
         "check-bundle", "oracle"],
)
def test_each_subcommand_loads_only_what_it_needs(argv, expected, program):
    ours, modules = loaded([arg.format(program=program) for arg in argv])
    assert ours == expected
    assert "dataclasses" not in modules and "inspect" not in modules


# --- the lazy package ---------------------------------------------------------------

PUBLIC = [
    "AbaFramework", "AbapgFramework", "AmbiguousActionPreference", "ArgClinicError",
    "ConfigError", "Context", "ContraryConflict", "DanglingPreference", "DeonticStrength",
    "DsOutOfRange", "DuplicateName", "FlatnessViolation", "GoalWithoutRule",
    "IncompatibleContext", "IncompatibleGoal", "IncompatibleState", "InvalidInteraction",
    "FollowItem", "FollowPlan", "GoalExtension", "GoalRanking", "GoalTerm",
    "GuidelineBundle", "Interaction", "MappingReport", "Modal", "OracleSizeExceeded",
    "ParseError", "ParsedProgram", "PreferenceOverUnknownRec", "Preorder",
    "PriorityMentionsNonGoal", "PriorityNotTotal", "RawFramework", "Recommendation", "Rule",
    "SchemaError", "Sentence", "SizeLimitExceeded", "Solution", "StateTerm", "SupportTable",
    "SymbolCollision", "Track", "UnknownLandmark", "ValidationError", "attack_kinds",
    "attack_witnesses", "attacks", "build_patient_framework", "canonical_attackers",
    "collect_goal_extensions", "compute_supports", "conclusions", "contradiction_free",
    "defends", "extension_sort_key", "goal_set_leq", "is_conflict_free",
    "maximal_goal_extensions", "parse_aba_text", "parse_bundle", "preferred_extensions",
    "rank_goals", "resolve", "serialize_abapg", "serialize_bundle", "serialize_framework",
    "symbolize", "validate_abapg", "validate_context", "validate_framework",
    "validate_interaction", "validate_recommendation",
]


def test_public_names_are_unchanged():
    assert argclinic.__all__ == PUBLIC


def test_every_public_name_resolves_to_its_module_object():
    for name in argclinic.__all__:
        value = getattr(argclinic, name)
        module = importlib.import_module(getattr(value, "__module__", "argclinic"))
        assert module.__name__.startswith("argclinic.")
        assert getattr(module, name) is value, name
    assert set(argclinic.__all__) <= set(dir(argclinic))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from argclinic import *", namespace)
    assert set(argclinic.__all__) <= set(namespace)
    assert namespace["Rule"] is argclinic.aba_core.Rule


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        argclinic.not_a_name  # noqa: B018
    assert not hasattr(argclinic, "dataclass")


def test_importing_the_package_loads_no_submodule():
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, argclinic; "
         "print(sorted(m for m in sys.modules if m.startswith('argclinic')))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert run.stdout.strip() == "['argclinic']", run.stderr
