"""Shared fixtures: the bundled case studies and small hand-built frameworks."""

from __future__ import annotations

from pathlib import Path

import pytest

from argclinic import RawFramework, validate_framework
from argclinic.bundle import GuidelineBundle, parse_bundle

FIXTURES = Path(__file__).parent / "fixtures"


def load_bundle(name: str) -> GuidelineBundle:
    return parse_bundle((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def patient_a_bundle() -> GuidelineBundle:
    return load_bundle("patient_a.json")


@pytest.fixture(scope="session")
def aspirin_pref_bundle() -> GuidelineBundle:
    # Patient prefers taking the medication: r2 <= r1.
    return load_bundle("aspirin_patient_pref.json")


@pytest.fixture(scope="session")
def aspirin_priority_bundle() -> GuidelineBundle:
    # No action preference; clinician priority over goals decides instead.
    return load_bundle("aspirin_clinician_priority.json")


def aspirin_framework(with_preference: bool = True):
    """The NSAID/aspirin framework, transcribed by hand.

    r1 recommends the drug, r2 advises against it; the interaction is
    certain and the bleeding condition is present, so both contraries are
    derivable.  With the preference the patient favours r1 over r2.
    """
    rules = [
        ("nsaid", ["r1"]),
        ("no_aspirin", ["r2"]),
        ("dec_coagulation", ["nsaid"]),
        ("no_inc_bleeding", ["no_aspirin"]),
        ("c_r2", ["r1", "int12"]),
        ("c_r1", ["r2", "int12", "bleeding"]),
        ("int12", []),
        ("bleeding", []),
    ]
    preferences = [("r2", "r1")] if with_preference else []
    return validate_framework(
        RawFramework.of(
            rules=rules,
            assumptions=["r1", "r2"],
            contraries=[("r1", "c_r1"), ("r2", "c_r2")],
            preferences=preferences,
        )
    )


def attacked_pairs(pairs: int, free: int = 0):
    """``pairs`` pairs in which a{2i+1} attacks a{2i}, then ``free`` more.

    Its one preferred extension holds every assumption but the attacked ones.
    """
    return validate_framework(
        RawFramework.of(
            rules=[(f"c{2 * i}", [f"a{2 * i + 1}"]) for i in range(pairs)],
            assumptions=[f"a{i}" for i in range(2 * pairs + free)],
            contraries=[(f"a{2 * i}", f"c{2 * i}") for i in range(pairs)],
        )
    )


@pytest.fixture()
def aspirin_pref_framework():
    return aspirin_framework(with_preference=True)


@pytest.fixture()
def aspirin_plain_framework():
    return aspirin_framework(with_preference=False)
