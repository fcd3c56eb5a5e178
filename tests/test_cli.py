"""End-to-end command-line behaviour, including exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import argclinic
from argclinic import cli, errors, parse_aba_text, serialize_framework, validate_framework
from argclinic.aba_text import serialize_abapg
from argclinic.cli import main
from argclinic.generators import random_abapg, random_bundle_data, random_framework
from argclinic.mapper import build_patient_framework

from conftest import FIXTURES, attacked_pairs

PATIENT_A = str(FIXTURES / "patient_a.json")
ASPIRIN_PREF = str(FIXTURES / "aspirin_patient_pref.json")
BROKEN = str(FIXTURES / "broken.json")

GOAL_PROGRAM = """\
assumption(a).
assumption(b).
contrary(a, ca).
contrary(b, cb).
rule(ca, [b]).
rule(cb, [a]).
rule(p, [a]).
rule(q, [b]).
goal(p).
goal(q).
priority(q, p).
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_the_full_report(capsys):
    code, out, err = run(capsys, "solve", "--bundle", PATIENT_A)
    assert code == 0
    assert err == ""
    assert out == (
        "preferred extensions:\n"
        "  {r3, r8}\n"
        "  {r4, r8}\n"
        "recommendation sets:\n"
        "  {r3, r8}\n"
        "  {r4, r8}\n"
        "goal extensions:\n"
        "  {Decrease_Fatigue, Decrease_Pain, ¬Increase_Blood_Pressure}"
        "  <-  {r3, r8}\n"
        "  {¬Increase_Blood_Pressure, ¬Increase_Body_Temperature}"
        "  <-  {r4, r8}\n"
        "top goal extensions:\n"
        "  {Decrease_Fatigue, Decrease_Pain, ¬Increase_Blood_Pressure}"
        "  <-  {r3, r8}\n"
        "FOLLOW: r3 (Low Pace Exercise), r8 (avoid High Intensity Exercise)\n"
    )


def test_solve_quiet_prints_extensions_only(capsys):
    code, out, _ = run(capsys, "solve", "--quiet", "--bundle", PATIENT_A)
    assert code == 0
    assert out == "{r3, r8}\n{r4, r8}\n"


def test_solve_json_carries_the_same_content(capsys):
    code, out, _ = run(capsys, "solve", "--format", "json", "--bundle", PATIENT_A)
    assert code == 0
    payload = json.loads(out)
    assert payload["preferred_extensions"] == [["r3", "r8"], ["r4", "r8"]]
    assert payload["recommendation_sets"] == [["r3", "r8"], ["r4", "r8"]]
    assert payload["top_goal_extensions"] == [
        {
            "achieved": [
                "Decrease_Fatigue",
                "Decrease_Pain",
                "¬Increase_Blood_Pressure",
            ],
            "sources": [["r3", "r8"]],
        }
    ]
    assert payload["follow"] == [
        {
            "source": ["r3", "r8"],
            "items": [
                {
                    "recommendation": "r3",
                    "action": "Low Pace Exercise",
                    "avoid": False,
                },
                {
                    "recommendation": "r8",
                    "action": "High Intensity Exercise",
                    "avoid": True,
                },
            ],
        }
    ]
    assert payload["warnings"] == []


def test_solve_reads_textual_frameworks(tmp_path, capsys):
    program = tmp_path / "case.aba"
    program.write_text(GOAL_PROGRAM)
    code, out, _ = run(capsys, "solve", "--aba", str(program))
    assert code == 0
    assert out == (
        "preferred extensions:\n"
        "  {a}\n"
        "  {b}\n"
        "goal extensions:\n"
        "  {p}  <-  {a}\n"
        "  {q}  <-  {b}\n"
        "top goal extensions:\n"
        "  {p}  <-  {a}\n"
    )


def test_solve_without_goals_skips_goal_sections(tmp_path, capsys):
    program = tmp_path / "plain.aba"
    program.write_text("assumption(a).\nrule(p, [a]).\n")
    code, out, _ = run(capsys, "solve", "--aba", str(program))
    assert code == 0
    assert out == "preferred extensions:\n  {a}\n"
    assert "goal extensions" not in out


def read_braced(text: str) -> list[str]:
    assert text.startswith("{") and text.endswith("}"), text
    return text[1:-1].split(", ") if text != "{}" else []


def read_text_report(text: str) -> dict:
    """``solve``'s text read back into the JSON payload's shape; the plans
    stay as the text of their ``FOLLOW:`` lines."""
    report: dict = {}
    for line in text.splitlines():
        if line.startswith("  "):
            achieved, arrow, sources = line[2:].partition("  <-  ")
            rows.append(
                {"achieved": read_braced(achieved),
                 "sources": [read_braced(s) for s in sources.split(" | ")]}
                if arrow else read_braced(achieved)
            )
        elif line.startswith(("warning: ", "FOLLOW: ")):
            key, _, rest = line.partition(": ")
            report.setdefault({"warning": "warnings", "FOLLOW": "follow"}[key], []).append(rest)
        else:
            assert line.endswith(":") and "warnings" not in report, line
            rows = report[line[:-1].replace(" ", "_")] = []
    return report


def follow_line(plan: dict) -> str:
    shown = ", ".join(
        f"{i['recommendation']} ({'avoid ' if i['avoid'] else ''}{i['action']})"
        for i in plan["items"]
    )
    return shown or "(no recommendations)"


def test_solve_text_and_json_agree_on_random_inputs(tmp_path, capsys):
    rng = random.Random(21)
    inputs = []
    for index in range(50):
        bundle = tmp_path / f"bundle_{index}.json"
        bundle.write_text(json.dumps(random_bundle_data(rng)))
        inputs.append(("--bundle", str(bundle)))
    for index in range(50):
        program = tmp_path / f"program_{index}.aba"
        program.write_text(serialize_abapg(random_abapg(rng)))
        inputs.append(("--aba", str(program)))
    titles = ["preferred_extensions", "recommendation_sets", "goal_extensions",
              "top_goal_extensions"]
    for flag, path in inputs:
        code, out, err = run(capsys, "solve", "--format", "json", flag, path)
        assert (code, err) == (0, ""), path
        payload = json.loads(out)
        code, out, err = run(capsys, "solve", flag, path)
        assert (code, err) == (0, ""), path
        report = read_text_report(out)
        shown = [t for t in titles if t in payload]
        shown += [k for k in ("warnings", "follow") if payload.get(k)]
        assert list(report) == shown
        for title in titles:
            assert report.get(title) == payload.get(title), (path, title)
        assert report.get("warnings", []) == payload.get("warnings", []), path
        assert report.get("follow", []) == [follow_line(p) for p in payload.get("follow", [])]
        code, out, _ = run(capsys, "solve", "--quiet", flag, path)
        assert [read_braced(line) for line in out.splitlines()] == payload["preferred_extensions"]


def test_map_output_reparses_to_the_same_framework(capsys, patient_a_bundle):
    code, out, _ = run(capsys, "map", "--bundle", PATIENT_A)
    assert code == 0
    # comment lines carry the report; the rest is the textual format
    assert "# rule counts: " in out
    assert "# symbol: r3 := recommendation 'r3'" in out
    program = parse_aba_text(out)
    reparsed = validate_framework(program.raw)
    b = patient_a_bundle
    built, _ = build_patient_framework(b.recommendations, b.interactions, b.context)
    assert reparsed == built.base
    assert frozenset(program.goals) == {s.symbol for s in built.goals}


def test_map_prints_the_whole_patient_translation(capsys):
    code, out, err = run(capsys, "map", "--bundle", PATIENT_A)
    assert (code, err) == (0, "")
    assert out == (
        "assumption(r2).\n"
        "assumption(r3).\n"
        "assumption(r4).\n"
        "assumption(r8).\n"
        "contrary(r2, contrary_of_r2).\n"
        "contrary(r3, contrary_of_r3).\n"
        "contrary(r4, contrary_of_r4).\n"
        "contrary(r8, contrary_of_r8).\n"
        "rule(Blood_Pressure, []).\n"
        "rule(Decrease_Fatigue, [Low_Pace_Exercise]).\n"
        "rule(Decrease_Fatigue, [Std_Exercise]).\n"
        "rule(Decrease_Fitness, [Low_Pace_Exercise]).\n"
        "rule(Decrease_Fitness, [Std_Exercise]).\n"
        "rule(Decrease_Pain, [Low_Pace_Exercise]).\n"
        "rule(Decrease_Pain, [Std_Exercise]).\n"
        "rule(High_Body_Temperature, []).\n"
        "rule(Increase_Lymphedema, [Std_Exercise]).\n"
        "rule(Low_Pace_Exercise, [r3]).\n"
        "rule(Std_Exercise, [r2]).\n"
        "rule(contrary_of_r2, [Blood_Pressure, int_r2_r8, r8]).\n"
        "rule(contrary_of_r2, [High_Body_Temperature, int_r2_r4, r4]).\n"
        "rule(contrary_of_r2, [int_r2_r8, r8]).\n"
        "rule(contrary_of_r3, [High_Body_Temperature, int_r3_r4, r4]).\n"
        "rule(contrary_of_r4, [int_r2_r4, r2]).\n"
        "rule(contrary_of_r4, [int_r3_r4, r3]).\n"
        "rule(contrary_of_r8, [int_r2_r8, r2]).\n"
        "rule(int_r2_r4, []).\n"
        "rule(int_r2_r8, []).\n"
        "rule(int_r3_r4, []).\n"
        "rule(¬Exercise, [r4]).\n"
        "rule(¬High_Intensity_Exercise, [r8]).\n"
        "rule(¬Increase_Blood_Pressure, [¬High_Intensity_Exercise]).\n"
        "rule(¬Increase_Body_Temperature, [¬Exercise]).\n"
        "prefer(r2, r8).\n"
        "prefer(r3, r8).\n"
        "prefer(r4, r8).\n"
        "goal(Decrease_Fatigue).\n"
        "goal(Decrease_Pain).\n"
        "goal(¬Increase_Blood_Pressure).\n"
        "goal(¬Increase_Body_Temperature).\n"
        "priority(Decrease_Fatigue, Decrease_Pain).\n"
        "priority(Decrease_Fatigue, ¬Increase_Blood_Pressure).\n"
        "priority(Decrease_Fatigue, ¬Increase_Body_Temperature).\n"
        "priority(¬Increase_Blood_Pressure, Decrease_Pain).\n"
        "priority(¬Increase_Body_Temperature, Decrease_Fatigue).\n"
        "priority(¬Increase_Body_Temperature, Decrease_Pain).\n"
        "priority(¬Increase_Body_Temperature, ¬Increase_Blood_Pressure).\n"
        "# rule counts: action_rules_negative=2, action_rules_positive=2, "
        "contradiction_rules_contrapositive=1, contradiction_rules_negative=3, "
        "contradiction_rules_positive=3, effect_rules_negative=2, "
        "effect_rules_positive=7, interaction_facts=3, state_facts=2\n"
        "# symbol: Exercise := action 'Exercise'\n"
        "# symbol: High_Intensity_Exercise := action 'High Intensity Exercise'\n"
        "# symbol: Low_Pace_Exercise := action 'Low Pace Exercise'\n"
        "# symbol: Std_Exercise := action 'Std Exercise'\n"
        "# symbol: ¬Exercise := avoided_action 'Exercise'\n"
        "# symbol: ¬High_Intensity_Exercise := avoided_action 'High Intensity Exercise'\n"
        "# symbol: contrary_of_r2 := contrary 'r2'\n"
        "# symbol: contrary_of_r3 := contrary 'r3'\n"
        "# symbol: contrary_of_r4 := contrary 'r4'\n"
        "# symbol: contrary_of_r8 := contrary 'r8'\n"
        "# symbol: Decrease_Fatigue := effect 'Decrease Fatigue'\n"
        "# symbol: Decrease_Fitness := effect 'Decrease Fitness'\n"
        "# symbol: Decrease_Pain := effect 'Decrease Pain'\n"
        "# symbol: Increase_Lymphedema := effect 'Increase Lymphedema'\n"
        "# symbol: int_r2_r4 := interaction 'r2 / r4'\n"
        "# symbol: int_r2_r8 := interaction 'r2 / r8'\n"
        "# symbol: int_r3_r4 := interaction 'r3 / r4'\n"
        "# symbol: ¬Increase_Blood_Pressure := prevented_effect 'Increase Blood Pressure'\n"
        "# symbol: ¬Increase_Body_Temperature := "
        "prevented_effect 'Increase Body Temperature'\n"
        "# symbol: r2 := recommendation 'r2'\n"
        "# symbol: r3 := recommendation 'r3'\n"
        "# symbol: r4 := recommendation 'r4'\n"
        "# symbol: r8 := recommendation 'r8'\n"
        "# symbol: Blood_Pressure := state 'Blood Pressure'\n"
        "# symbol: High_Body_Temperature := state 'High Body Temperature'\n"
    )


def test_map_prints_the_whole_drug_clash_translation(capsys):
    code, out, err = run(capsys, "map", "--bundle", ASPIRIN_PREF)
    assert (code, err) == (0, "")
    assert out == (
        "assumption(r1).\n"
        "assumption(r2).\n"
        "contrary(r1, contrary_of_r1).\n"
        "contrary(r2, contrary_of_r2).\n"
        "rule(Adm._NSAID, [r1]).\n"
        "rule(Decrease_Blood_Coagulation, [Adm._NSAID]).\n"
        "rule(Gastrointestinal_Bleeding, []).\n"
        "rule(contrary_of_r1, [Gastrointestinal_Bleeding, int_r1_r2, r2]).\n"
        "rule(contrary_of_r2, [int_r1_r2, r1]).\n"
        "rule(int_r1_r2, []).\n"
        "rule(¬Adm._Aspirin, [r2]).\n"
        "rule(¬Increase_Gastrointestinal_Bleeding, [¬Adm._Aspirin]).\n"
        "prefer(r2, r1).\n"
        "goal(Decrease_Blood_Coagulation).\n"
        "goal(¬Increase_Gastrointestinal_Bleeding).\n"
        "priority(Decrease_Blood_Coagulation, ¬Increase_Gastrointestinal_Bleeding).\n"
        "# rule counts: action_rules_negative=1, action_rules_positive=1, "
        "contradiction_rules_negative=1, contradiction_rules_positive=1, "
        "effect_rules_negative=1, effect_rules_positive=1, interaction_facts=1, "
        "state_facts=1\n"
        "# symbol: Adm._Aspirin := action 'Adm. Aspirin'\n"
        "# symbol: Adm._NSAID := action 'Adm. NSAID'\n"
        "# symbol: ¬Adm._Aspirin := avoided_action 'Adm. Aspirin'\n"
        "# symbol: contrary_of_r1 := contrary 'r1'\n"
        "# symbol: contrary_of_r2 := contrary 'r2'\n"
        "# symbol: Decrease_Blood_Coagulation := effect 'Decrease Blood Coagulation'\n"
        "# symbol: int_r1_r2 := interaction 'r1 / r2'\n"
        "# symbol: ¬Increase_Gastrointestinal_Bleeding := "
        "prevented_effect 'Increase Gastrointestinal Bleeding'\n"
        "# symbol: r1 := recommendation 'r1'\n"
        "# symbol: r2 := recommendation 'r2'\n"
        "# symbol: Gastrointestinal_Bleeding := state 'Gastrointestinal Bleeding'\n"
    )


NOTES_BUNDLE = {
    "recommendations": [
        {"name": "r1", "action": "walk", "deontic_strength": "should", "tracks": [
            {"property": "Pain", "effect": "Decrease", "initial_value": None, "contribution": "+"}]},
        {"name": "r2", "action": "swim", "deontic_strength": "must", "tracks": [
            {"property": "Pain", "effect": "Decrease", "initial_value": None, "contribution": "+"}]},
        {"name": "r3", "action": "rest", "deontic_strength": "should", "tracks": [
            {"property": "Pain", "effect": "Increase", "initial_value": None, "contribution": "-"}]},
    ],
    "interactions": [{"first": "r1", "second": "r2", "modal": "certain"}],
    "context": {"goals": ["not Increase Pain"]},
}


def test_mapping_notes_reach_map_check_and_solve(tmp_path, capsys):
    # r1 and r2 are both positive, so their certain interaction is read as a
    # symmetric conflict; only r3 tracks Increase Pain, and it is positive, so
    # the goal of preventing it has no deriving rule.
    bundle = tmp_path / "notes.json"
    bundle.write_text(json.dumps(NOTES_BUNDLE), encoding="utf-8")
    warning = "goal '¬Increase Pain' cannot be concluded by any rule; dropped"
    code, out, err = run(capsys, "map", "--bundle", str(bundle))
    assert (code, err) == (0, "")
    assert out.endswith(
        "# same-sign interaction treated as symmetric conflict: r1 ~ r2\n"
        f"# warning: {warning}\n"
    )
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, "--bundle", str(bundle))
        assert (code, err) == (0, "")
        assert f"\nwarning: {warning}\n" in out


def test_check_summarises_a_bundle(capsys):
    code, out, _ = run(capsys, "check", "--bundle", PATIENT_A)
    assert code == 0
    assert out == (
        "ok: 4 recommendations, 3 interactions -> "
        "4 assumptions, 25 rules, 4 goals\n"
    )


def test_check_summarises_a_textual_framework(tmp_path, capsys):
    program = tmp_path / "case.aba"
    program.write_text(GOAL_PROGRAM)
    code, out, _ = run(capsys, "check", "--aba", str(program))
    assert code == 0
    assert out == "ok: 2 assumptions, 4 rules, 2 goals\n"


def test_solve_quiet_reads_textual_frameworks(tmp_path, capsys):
    program = tmp_path / "case.aba"
    program.write_text(GOAL_PROGRAM)
    code, out, err = run(capsys, "solve", "--quiet", "--aba", str(program))
    assert (code, out, err) == (0, "{a}\n{b}\n", "")


def test_solve_json_on_a_textual_framework_with_goals(tmp_path, capsys):
    program = tmp_path / "case.aba"
    program.write_text(GOAL_PROGRAM)
    code, out, err = run(capsys, "solve", "--format", "json", "--aba", str(program))
    expected = {
        "goal_extensions": [
            {"achieved": ["p"], "sources": [["a"]]},
            {"achieved": ["q"], "sources": [["b"]]},
        ],
        "preferred_extensions": [["a"], ["b"]],
        "top_goal_extensions": [{"achieved": ["p"], "sources": [["a"]]}],
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_solve_json_on_a_textual_framework_without_goals(tmp_path, capsys):
    program = tmp_path / "plain.aba"
    program.write_text("assumption(a).\nrule(p, [a]).\n")
    code, out, err = run(capsys, "solve", "--format", "json", "--aba", str(program))
    assert (code, err) == (0, "")
    assert out == '{\n  "preferred_extensions": [\n    [\n      "a"\n    ]\n  ]\n}\n'


def test_explain_lists_supports_attacks_and_attackers(capsys):
    code, out, _ = run(capsys, "explain", "--bundle", ASPIRIN_PREF)
    assert code == 0
    assert "  Decrease_Blood_Coagulation <- {r1}\n" in out
    assert "  Gastrointestinal_Bleeding <- {}\n" in out
    assert (
        "  {r1} attacks {r2} [normal] via contrary_of_r2 <- {r1}\n" in out
    )
    assert (
        "  {r1} attacks {r2} [reverse] via contrary_of_r1 <- {r2}\n" in out
    )
    assert "  of {r1}: none\n" in out
    assert "  of {r2}: {r1}\n" in out


def test_explain_prints_the_whole_patient_report(capsys):
    code, out, err = run(capsys, "explain", "--bundle", PATIENT_A)
    assert (code, err) == (0, "")
    assert out == (
        "supports:\n"
        "  Blood_Pressure <- {}\n"
        "  Decrease_Fatigue <- {r2}, {r3}\n"
        "  Decrease_Fitness <- {r2}, {r3}\n"
        "  Decrease_Pain <- {r2}, {r3}\n"
        "  High_Body_Temperature <- {}\n"
        "  Increase_Lymphedema <- {r2}\n"
        "  Low_Pace_Exercise <- {r3}\n"
        "  Std_Exercise <- {r2}\n"
        "  contrary_of_r2 <- {r4}, {r8}\n"
        "  contrary_of_r3 <- {r4}\n"
        "  contrary_of_r4 <- {r2}, {r3}\n"
        "  contrary_of_r8 <- {r2}\n"
        "  int_r2_r4 <- {}\n"
        "  int_r2_r8 <- {}\n"
        "  int_r3_r4 <- {}\n"
        "  r2 <- {r2}\n"
        "  r3 <- {r3}\n"
        "  r4 <- {r4}\n"
        "  r8 <- {r8}\n"
        "  ¬Exercise <- {r4}\n"
        "  ¬High_Intensity_Exercise <- {r8}\n"
        "  ¬Increase_Blood_Pressure <- {r8}\n"
        "  ¬Increase_Body_Temperature <- {r4}\n"
        "singleton attacks:\n"
        "  {r2} attacks {r4} [normal] via contrary_of_r4 <- {r2}\n"
        "  {r3} attacks {r4} [normal] via contrary_of_r4 <- {r3}\n"
        "  {r4} attacks {r2} [normal] via contrary_of_r2 <- {r4}\n"
        "  {r4} attacks {r3} [normal] via contrary_of_r3 <- {r4}\n"
        "  {r8} attacks {r2} [normal] via contrary_of_r2 <- {r8}\n"
        "  {r8} attacks {r2} [reverse] via contrary_of_r8 <- {r2}\n"
        "canonical attackers:\n"
        "  of {r2}: {r4}, {r8}\n"
        "  of {r3}: {r4}\n"
        "  of {r4}: {r2}, {r3}\n"
        "  of {r8}: none\n"
    )


def test_explain_lists_a_shared_support_once(tmp_path, capsys):
    # x and y, the contraries of a and b, share the support {c}, which also
    # attacks a in reverse: three routes to one canonical attacker of {a}
    program = tmp_path / "shared.aba"
    program.write_text(
        "assumption(a).\nassumption(b).\nassumption(c).\n"
        "contrary(a, x).\ncontrary(b, y).\ncontrary(c, w).\n"
        "rule(x, [c]).\nrule(y, [c]).\nrule(w, [a]).\nprefer(a, c).\n"
    )
    code, out, err = run(capsys, "explain", "--aba", str(program))
    assert (code, err) == (0, "")
    assert out.endswith(
        "canonical attackers:\n"
        "  of {a}: {c}\n"
        "  of {b}: {c}\n"
        "  of {c}: none\n"
    )


def test_explain_reads_textual_frameworks(tmp_path, capsys):
    program = tmp_path / "case.aba"
    program.write_text(GOAL_PROGRAM)
    code, out, err = run(capsys, "explain", "--aba", str(program))
    assert (code, err) == (0, "")
    assert out == (
        "supports:\n"
        "  a <- {a}\n"
        "  b <- {b}\n"
        "  ca <- {b}\n"
        "  cb <- {a}\n"
        "  p <- {a}\n"
        "  q <- {b}\n"
        "singleton attacks:\n"
        "  {a} attacks {b} [normal] via cb <- {a}\n"
        "  {b} attacks {a} [normal] via ca <- {b}\n"
        "canonical attackers:\n"
        "  of {a}: {b}\n"
        "  of {b}: {a}\n"
    )


CYCLIC_PROGRAM = """\
assumption(a).
assumption(b).
assumption(c).
assumption(d).
contrary(a, r).
contrary(b, t).
contrary(c, s).
contrary(d, nothing).
rule(p, [q]).
rule(q, [p]).
rule(p, [a]).
rule(q, [b]).
rule(s, [s, c]).
rule(s, [b, s]).
rule(s, [d]).
rule(r, [q, d]).
rule(r, [s]).
rule(t, [r, c]).
rule(u, [t, nothing]).
prefer(d, a).
"""


def test_explain_prints_the_supports_of_a_cyclic_program(tmp_path):
    # p and q derive each other, s derives itself, r and t lie downstream of
    # both cycles, and u needs a sentence nothing derives; the supports print
    # sorted under any hash seed
    program = tmp_path / "cyclic.aba"
    program.write_text(CYCLIC_PROGRAM)
    for seed in ("0", "1", "2"):
        done = run_fresh("-m", "argclinic.cli", "explain", "--aba", str(program),
                         PYTHONHASHSEED=seed)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            "supports:\n"
            "  a <- {a}\n"
            "  b <- {b}\n"
            "  c <- {c}\n"
            "  d <- {d}\n"
            "  p <- {a}, {b}\n"
            "  q <- {a}, {b}\n"
            "  r <- {a, d}, {b, c, d}, {b, d}, {c, d}, {d}\n"
            "  s <- {b, c, d}, {b, d}, {c, d}, {d}\n"
            "  t <- {a, c, d}, {b, c, d}, {c, d}\n"
            "singleton attacks:\n"
            "  {a} attacks {d} [reverse] via r <- {d}\n"
            "  {d} attacks {c} [normal] via s <- {d}\n"
            "canonical attackers:\n"
            "  of {a}: none\n"
            "  of {b}: {a, c, d}, {b, c, d}, {c, d}\n"
            "  of {c}: {b, c, d}, {b, d}, {c, d}, {d}\n"
            "  of {d}: {a}\n"
        )


# ---------------------------------------------------------------------------
# failure exit codes


def test_validation_failures_exit_1(capsys):
    code, out, err = run(capsys, "check", "--bundle", BROKEN)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Kidney Function" in err


def test_parse_failures_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.aba"
    bad.write_text("prefer(a).\n")
    code, _, err = run(capsys, "solve", "--aba", str(bad))
    assert code == 2
    assert "line 1, column 9" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "solve", "--bundle", str(bad))
    assert code == 2


def test_shape_errors_print_one_short_line(tmp_path, capsys):
    data = json.loads(Path(PATIENT_A).read_text(encoding="utf-8"))
    data["recommendations"] = {f"r{i}": {"action": i} for i in range(2000)}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", "--bundle", str(big))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert len(err.encode("utf-8")) < 300
    assert err.startswith("error: /recommendations: {'r0': {'action': 0}, ")
    assert err.endswith("... is not of type 'array'\n")


LONG = "x" * 20000


def _long_endpoint(data):
    data["interactions"][0]["first"] = LONG


def _long_state_term(data):
    data["context"]["patient_state"][0] = LONG


def _long_duplicate_name(data):
    data["recommendations"][0]["name"] = data["recommendations"][1]["name"] = LONG


def _long_preference_name(data):
    data["context"]["action_preference"][0][0] = LONG


def _long_goal_property(data):
    data["context"]["goals"][0] = "Decrease " + LONG


def _huge_strength(data):
    data["recommendations"][0]["deontic_strength"] = 1e308


@pytest.mark.parametrize(
    "edit, exit_code",
    [
        (_long_endpoint, 1),
        (_long_state_term, 1),
        (_long_duplicate_name, 2),
        (_long_preference_name, 1),
        (_long_goal_property, 1),
        (_huge_strength, 1),
    ],
    ids=["endpoint", "state-term", "duplicate-name", "preference-name", "goal-property",
         "strength"],
)
def test_semantic_errors_print_one_short_line(tmp_path, capsys, edit, exit_code):
    data = json.loads(Path(PATIENT_A).read_text(encoding="utf-8"))
    edit(data)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", "--bundle", str(case))
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 300


@pytest.mark.parametrize(
    "program, exit_code",
    [
        (f"assumption({LONG}).\nrule({LONG}, []).\n", 1),
        (f"assumption(a).\ncontrary({LONG}, c).\n", 1),
        (f"assumption(a).\ncontrary(a, {LONG}).\ncontrary(a, c).\n", 1),
        (f"assumption(a).\nprefer(a, {LONG}).\n", 1),
        (f"assumption(a).\ngoal({LONG}).\n", 1),
        (f"assumption(a {LONG}).\n", 2),
    ],
    ids=["flatness", "contrary-target", "two-contraries", "preference", "goal", "syntax"],
)
def test_framework_errors_print_one_short_line(tmp_path, capsys, program, exit_code):
    case = tmp_path / "case.aba"
    case.write_text(program, encoding="utf-8")
    code, out, err = run(capsys, "check", "--aba", str(case))
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 300


def test_missing_files_exit_2(capsys):
    code, _, err = run(capsys, "solve", "--bundle", "no/such/file.json")
    assert code == 2
    assert "error:" in err


def _error_classes(base=errors.ArgClinicError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch, error):
    raised = error("boom", 1, 1) if issubclass(error, errors.ParseError) else error("boom")

    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "_cmd_check", fail)
    program = tmp_path / "case.aba"
    program.write_text("assumption(a).\n")
    if issubclass(error, errors.SizeLimitExceeded):
        expected = 3
    else:
        expected = 1 if issubclass(error, errors.ValidationError) else 2
    assert run(capsys, "check", "--aba", str(program)) == (expected, "", f"error: {raised}\n")


def test_a_pair_listed_as_both_certain_and_uncertain_exits_1(tmp_path, capsys):
    data = json.loads(Path(PATIENT_A).read_text(encoding="utf-8"))
    data["interactions"].append({"first": "r2", "second": "r4", "modal": "uncertain"})
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data), encoding="utf-8")
    for command in ("check", "solve"):
        assert run(capsys, command, "--bundle", str(case)) == (
            1, "", "error: interaction 'r2' / 'r4' is listed as both certain and uncertain\n"
        )


@pytest.mark.parametrize("flag", ["--bundle", "--aba"])
def test_non_utf8_input_exits_2(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe{}")
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, flag, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1, column 1: ")
        assert "not UTF-8" in err


def test_a_bundle_with_a_byte_order_mark_solves_like_the_plain_file(tmp_path, capsys):
    marked = tmp_path / "bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(ASPIRIN_PREF).read_bytes())
    plain = run(capsys, "solve", "--bundle", ASPIRIN_PREF)
    assert plain[0] == 0
    assert run(capsys, "solve", "--bundle", str(marked)) == plain


def test_a_textual_framework_with_a_byte_order_mark_parses(tmp_path, capsys):
    marked = tmp_path / "bom.aba"
    marked.write_bytes(b"\xef\xbb\xbf" + GOAL_PROGRAM.encode())
    code, out, err = run(capsys, "check", "--aba", str(marked))
    assert (code, out, err) == (0, "ok: 2 assumptions, 4 rules, 2 goals\n", "")


@pytest.mark.parametrize("value", ["abc", "-1", ""])
def test_malformed_size_cap_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("ARGCLINIC_MAX_ASSUMPTIONS", value)
    code, out, err = run(capsys, "solve", "--bundle", PATIENT_A)
    assert (code, out) == (2, "")
    assert err == (
        "error: ARGCLINIC_MAX_ASSUMPTIONS must be a non-negative integer, "
        f"got {value!r}\n"
    )


def test_size_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARGCLINIC_MAX_ASSUMPTIONS", "3")
    program = tmp_path / "big.aba"
    lines = []
    for i in range(4):
        lines.append(f"assumption(a{i}).")
        lines.append(f"contrary(a{i}, c{i}).")
    program.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "solve", "--aba", str(program))
    assert code == 3
    assert "4 assumptions" in err


@pytest.mark.parametrize(
    "pairs, free, kept",
    [
        (1, 22, [f"a{i}" for i in range(1, 24)]),
        (12, 0, [f"a{2 * i + 1}" for i in range(12)]),
    ],
)
def test_solve_at_the_default_cap_gives_the_closed_form(
    tmp_path, capsys, monkeypatch, pairs, free, kept
):
    monkeypatch.delenv("ARGCLINIC_MAX_ASSUMPTIONS", raising=False)
    program = tmp_path / "pairs.aba"
    program.write_text(serialize_framework(attacked_pairs(pairs, free)))
    code, out, err = run(capsys, "solve", "--aba", str(program))
    assert (code, err) == (0, "")
    assert out == "preferred extensions:\n  {" + ", ".join(sorted(kept)) + "}\n"


@pytest.mark.parametrize("command", ["solve", "explain"])
def test_default_cap_still_rejects_25_assumptions(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("ARGCLINIC_MAX_ASSUMPTIONS", raising=False)
    program = tmp_path / "pairs.aba"
    program.write_text(serialize_framework(attacked_pairs(12, free=1)))
    code, out, err = run(capsys, command, "--aba", str(program))
    assert (code, out) == (3, "")
    assert err == "error: 25 assumptions exceed the enumeration cap of 24\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "assumption(a).\n"
            "rule(p, [a]).\nrule(q, [a]).\nrule(s, [a]).\n"
            "goal(p).\ngoal(q).\ngoal(s).\n",
            "goals 'p' and 'q' are incomparable",
        ),
        (
            "assumption(a).\nassumption(b).\nassumption(c).\n"
            "rule(a, []).\nrule(b, []).\nrule(c, [a]).\n",
            "assumption 'a' appears as a rule head",
        ),
    ],
    ids=["incomparable-goals", "flatness"],
)
def test_incomparable_goal_message_ignores_the_hash_seed(tmp_path, text, message):
    program = tmp_path / "goals.aba"
    program.write_text(text)
    src = str(Path(argclinic.__file__).resolve().parent.parent)
    results = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "argclinic.cli", "check", "--aba", str(program)],
            env=env,
            capture_output=True,
            text=True,
        )
        results.add((done.returncode, done.stdout, done.stderr))
    assert results == {(1, "", f"error: {message}\n")}


def run_fresh(*args, **env):
    """Run Python in a fresh interpreter that imports this checkout's package.

    Keyword arguments are extra environment variables.
    """
    src = str(Path(argclinic.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("command", ["solve", "map"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(command):
    # The read end is closed before the child starts, so every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(argclinic.__file__).resolve().parent.parent)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "argclinic.cli", command, "--bundle",
             str(FIXTURES / "patient_a.json")],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_solve_and_explain_output_ignores_the_hash_seed(tmp_path):
    paths = sorted(str(p) for p in FIXTURES.glob("*.json"))
    rng = random.Random(41)
    for index in range(10):
        program = tmp_path / f"program_{index}.aba"
        program.write_text(serialize_abapg(random_abapg(rng)))
        paths.append(str(program))
    probe = (
        "import contextlib, io, sys\n"
        "from argclinic.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    flag = '--aba' if path.endswith('.aba') else '--bundle'\n"
        "    for argv in (['solve', '--format', 'json', flag, path], ['explain', flag, path]):\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = main(argv)\n"
        "        print(argv, code, out.getvalue(), err.getvalue())\n"
    )
    outputs = set()
    for seed in ("0", "1", "2"):
        done = run_fresh("-c", probe, *paths, PYTHONHASHSEED=seed)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.add(done.stdout)
    assert len(outputs) == 1
    # every input solves but broken.json, which fails validation
    assert outputs.pop().count("preferred_extensions") == len(paths) - 1


def strength_bundle(strength: str) -> str:
    return (
        '{"recommendations": [{"name": "r1", "action": "walk", '
        f'"deontic_strength": {strength}, "tracks": [{{"property": "Pain", '
        '"effect": "Decrease", "initial_value": null, "contribution": "+"}]}]}'
    )


@pytest.mark.parametrize("strength", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_strengths_exit_1(tmp_path, strength):
    bundle = tmp_path / "case.json"
    bundle.write_text(strength_bundle(strength))
    for command in ("check", "solve"):
        done = run_fresh("-m", "argclinic.cli", command, "--bundle", str(bundle))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: deontic strength ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 200000 + "]" * 200000, "nest too deeply"),
        (strength_bundle("1" * 5000), "integer string conversion"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_unreadable_json_exits_2(tmp_path, text, message):
    bundle = tmp_path / "case.json"
    bundle.write_text(text)
    done = run_fresh("-m", "argclinic.cli", "check", "--bundle", str(bundle))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: line 1, column 1: ")
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_importing_the_cli_loads_only_the_standard_library():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import argclinic.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "    if m.partition('.')[0] not in sys.stdlib_module_names\n"
        "    and m.partition('.')[0] != 'argclinic'))\n"
    )
    done = run_fresh("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_oracle_cap_exits_3(capsys):
    code, _, err = run(capsys, "oracle", "--max-assumptions", "16")
    assert code == 3
    assert "oracle cap" in err


def test_oracle_agreement_exits_0(capsys):
    code, out, _ = run(
        capsys, "oracle", "--count", "4", "--max-assumptions", "4", "--seed", "7"
    )
    assert code == 0
    assert out == (
        "agreement: 4 frameworks, 2 goal instances (seed 7, max 4 assumptions)\n"
    )


def _rendered(extensions) -> str:
    return ", ".join("{" + ", ".join(sorted(e)) + "}" for e in extensions) or "(none)"


def test_oracle_disagreement_on_preferred_extensions_exits_4(capsys, monkeypatch):
    real = argclinic.cli.preferred_extensions
    monkeypatch.setattr(argclinic.cli, "preferred_extensions", lambda f: real(f)[1:])
    code, out, _ = run(capsys, "oracle", "--count", "3", "--max-assumptions", "4")
    assert code == 4
    framework = random_framework(random.Random(0), max_assumptions=4)
    extensions = real(framework)
    assert out == (
        "disagreement on preferred extensions (instance 0):\n"
        + serialize_framework(framework)
        + f"  engine: {_rendered(extensions[1:])}\n"
        + f"  oracle: {_rendered(extensions)}\n"
    )


def test_oracle_disagreement_on_top_goal_extensions_exits_4(capsys, monkeypatch):
    from types import SimpleNamespace

    monkeypatch.setattr(
        argclinic.cli, "rank_goals", lambda f: SimpleNamespace(top_goal_extensions=())
    )
    code, out, _ = run(capsys, "oracle", "--count", "3", "--max-assumptions", "4")
    assert code == 4
    rng = random.Random(0)
    for _ in range(3):  # the preferred-extension round draws first
        random_framework(rng, max_assumptions=4)
    assert out == (
        "disagreement on top goal extensions (instance 0):\n"
        + serialize_abapg(random_abapg(rng, max_assumptions=4))
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-assumptions", "0"),
        ("--max-assumptions", "-2"),
        ("--count", "0"),
        ("--count", "-3"),
        ("--count", "many"),
    ],
)
def test_oracle_sizes_below_one_exit_2(flag, value):
    done = run_fresh("-m", "argclinic.cli", "oracle", flag, value)
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {flag}: " in errors[0]
    assert value in errors[0]


BENCH_FIXTURES = Path(__file__).parent.parent / "bench" / "fixtures"

# `solve --aba` on the `map` output of each benchmark bundle, or the map error.
COMPILED_SOLUTIONS = {
    "aspirin_clinician_priority.json": (
        "preferred extensions:\n"
        "  {r1}\n"
        "  {r2}\n"
        "goal extensions:\n"
        "  {Decrease_Blood_Coagulation}  <-  {r1}\n"
        "  {¬Increase_Gastrointestinal_Bleeding}  <-  {r2}\n"
        "top goal extensions:\n"
        "  {¬Increase_Gastrointestinal_Bleeding}  <-  {r2}\n"
    ),
    "aspirin_patient_pref.json": (
        "preferred extensions:\n"
        "  {r1}\n"
        "goal extensions:\n"
        "  {Decrease_Blood_Coagulation}  <-  {r1}\n"
        "top goal extensions:\n"
        "  {Decrease_Blood_Coagulation}  <-  {r1}\n"
    ),
    "broken.json": "error: no recommendation tracks the property 'Kidney Function' (at /context)\n",
    "patient_a.json": (
        "preferred extensions:\n"
        "  {r3, r8}\n"
        "  {r4, r8}\n"
        "goal extensions:\n"
        "  {Decrease_Fatigue, Decrease_Pain, ¬Increase_Blood_Pressure}  <-  {r3, r8}\n"
        "  {¬Increase_Blood_Pressure, ¬Increase_Body_Temperature}  <-  {r4, r8}\n"
        "top goal extensions:\n"
        "  {Decrease_Fatigue, Decrease_Pain, ¬Increase_Blood_Pressure}  <-  {r3, r8}\n"
    ),
}


def map_then_solve(capsys, tmp_path, bundle):
    code, out, err = run(capsys, "map", "--bundle", str(bundle))
    if code != 0:
        return code, err
    program = tmp_path / "compiled.aba"
    program.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "solve", "--aba", str(program))
    assert err == ""
    return code, out


def test_every_benchmark_bundle_compiles_to_the_same_solution(tmp_path, capsys):
    names = sorted(p.name for p in BENCH_FIXTURES.glob("*.json"))
    assert names == sorted(COMPILED_SOLUTIONS)
    for name in names:
        code, out = map_then_solve(capsys, tmp_path, BENCH_FIXTURES / name)
        assert (code, out) == (1 if name == "broken.json" else 0, COMPILED_SOLUTIONS[name])


def test_map_output_with_dot_led_names_reads_back(tmp_path, capsys):
    bundle = json.loads(Path(ASPIRIN_PREF).read_text(encoding="utf-8"))
    for rec in bundle["recommendations"]:
        rec["name"] = "." + rec["name"]
    bundle["interactions"][0].update(first=".r1", second=".r2")
    bundle["context"]["action_preference"] = [[".r2", ".r1"]]
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code, out, _ = run(capsys, "solve", "--quiet", "--bundle", str(path))
    assert (code, out) == (0, "{.r1}\n")
    assert map_then_solve(capsys, tmp_path, path) == (
        0,
        "preferred extensions:\n"
        "  {.r1}\n"
        "goal extensions:\n"
        "  {Decrease_Blood_Coagulation}  <-  {.r1}\n"
        "top goal extensions:\n"
        "  {Decrease_Blood_Coagulation}  <-  {.r1}\n",
    )


def test_a_recommendation_named_like_a_minted_contrary_bumps_the_contrary(tmp_path, capsys):
    # r2, renamed contrary_of_r1, holds the name the mapper would give r1's contrary
    text = Path(ASPIRIN_PREF).read_text(encoding="utf-8").replace('"r2"', '"contrary_of_r1"')
    data = json.loads(text)
    data["interactions"][0]["modal"] = "uncertain"
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    b = argclinic.parse_bundle(json.dumps(data))
    built, _ = build_patient_framework(b.recommendations, b.interactions, b.context)
    assert built.base.contrary("r1") == "contrary_of_r1_"
    assert built.base.contrary("contrary_of_r1") == "contrary_of_contrary_of_r1"

    code, out, _ = run(capsys, "map", "--bundle", str(path))
    assert code == 0
    program = parse_aba_text(out)
    reparsed = validate_framework(program.raw)
    assert reparsed == built.base
    assert argclinic.validate_abapg(reparsed, program.goals, program.priorities) == built
    program_path = tmp_path / "clash.aba"
    program_path.write_text(out, encoding="utf-8")
    by_text = run(capsys, "solve", "--quiet", "--aba", str(program_path))
    by_bundle = run(capsys, "solve", "--quiet", "--bundle", str(path))
    assert by_text == by_bundle == (0, "{int_r1_contrary_of_r1, r1}\n", "")
