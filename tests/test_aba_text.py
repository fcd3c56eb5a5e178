"""The line-oriented textual format: parsing, errors, round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argclinic import (
    ParseError,
    RawFramework,
    parse_aba_text,
    serialize_abapg,
    serialize_framework,
    validate_abapg,
    validate_framework,
)
from argclinic.generators import random_abapg, random_framework

seeds = st.integers(min_value=0, max_value=10**6)

ASPIRIN_TEXT = """\
# two clashing drug recommendations
assumption(r1).
assumption(r2).
contrary(r1, c_r1).
contrary(r2, c_r2).
rule(nsaid, [r1]).
rule(no_aspirin, [r2]).
rule(c_r2, [r1, int12]).
rule(c_r1, [r2, int12, bleeding]).
rule(int12, []).
rule(bleeding, []).
prefer(r2, r1).
"""


def test_parsing_collects_every_statement_kind():
    program = parse_aba_text(ASPIRIN_TEXT)
    assert program.raw.assumptions == ("r1", "r2")
    assert ("c_r2", ("r1", "int12")) in program.raw.rules
    assert ("int12", ()) in program.raw.rules
    assert program.raw.preferences == (("r2", "r1"),)
    assert not program.has_goals
    framework = validate_framework(program.raw)
    assert len(framework.rules) == 6


def test_goal_statements_are_kept_apart():
    program = parse_aba_text(
        "assumption(a).\nrule(p, [a]).\ngoal(p).\npriority(p, p).\n"
    )
    assert program.goals == ("p",)
    assert program.priorities == (("p", "p"),)
    assert program.has_goals


def test_comments_blank_lines_and_spacing_are_free():
    program = parse_aba_text(
        "\n"
        "  # leading comment\n"
        "assumption( a ).   # trailing comment\n"
        "\t\n"
        "rule(p,[ a ]).\n"
    )
    assert program.raw.assumptions == ("a",)
    assert program.raw.rules == (("p", ("a",)),)


def test_symbols_may_use_dots_dashes_and_negation_marks():
    program = parse_aba_text(
        "assumption(r-1).\nrule(¬Adm._Aspirin, [r-1]).\n"
    )
    assert program.raw.rules == (("¬Adm._Aspirin", ("r-1",)),)


def test_undeclared_symbols_parse_fine():
    # the parser does no validation; unknown bodies surface later
    program = parse_aba_text("rule(p, [nowhere]).\n")
    assert program.raw.rules == (("p", ("nowhere",)),)


def test_empty_input_gives_an_empty_program():
    program = parse_aba_text("")
    assert program.raw.assumptions == ()
    assert not program.has_goals


# ---------------------------------------------------------------------------
# parse errors carry exact positions


def test_missing_pair_member_is_located():
    with pytest.raises(ParseError) as err:
        parse_aba_text("prefer(a).")
    assert err.value.line == 1
    assert err.value.column == 9
    assert "expected ','" in str(err.value)
    assert "found ')'" in str(err.value)


def test_missing_final_dot_is_located_at_end_of_line():
    with pytest.raises(ParseError) as err:
        parse_aba_text("rule(p, [a, b])")
    assert (err.value.line, err.value.column) == (1, 16)
    assert "found end of line" in str(err.value)


def test_unknown_keywords_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_aba_text("assume(a).")
    assert err.value.line == 1
    assert "statement keyword" in str(err.value)


def test_unexpected_characters_are_located():
    with pytest.raises(ParseError) as err:
        parse_aba_text("assumption(a).\nrule(p, [a; b]).\n")
    assert err.value.line == 2
    assert err.value.column == 11
    assert "';'" in str(err.value)


def test_trailing_tokens_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_aba_text("assumption(a). extra")
    assert "end of line" in str(err.value)


def test_rule_body_must_be_bracketed():
    with pytest.raises(ParseError) as err:
        parse_aba_text("rule(p, a).")
    assert err.value.column == 9
    assert "'['" in str(err.value)


MALFORMED_LINES = [
    # (text, line, column, message)
    ("assumption(a). ;", 1, 16, "unexpected character ';'"),
    ("assumption(a).\xa0", 1, 15, "unexpected character '\\xa0'"),
    ("assumption(\xa0a).", 1, 12, "unexpected character '\\xa0'"),
    ("assumption(a)\u3000.", 1, 14, "unexpected character '\\u3000'"),
    ("assumption(a).\x00", 1, 15, "unexpected character '\\x00'"),
    ("prefer(a,\tb)\t.\t;", 1, 16, "unexpected character ';'"),
    ("rule(¬p, [¬a; b]).", 1, 13, "unexpected character ';'"),
    ("assumption(a)\t", 1, 15, "expected '.', found end of line"),
    ("\tassumption(a) x\t", 1, 16, "expected '.', found 'x'"),
    ("assumption(a # b).", 1, 19, "expected ')', found end of line"),
    ("rule(p, [a, #b]).", 1, 18, "expected a symbol, found end of line"),
    ("rule(., [.).", 1, 11, "expected ']', found ')'"),
    ("contrary(., .", 1, 14, "expected ')', found end of line"),
    (". assumption(a).", 1, 1, "expected a statement keyword "
     "assumption/contrary/rule/prefer/goal/priority, found '.'"),
    ("assumption(a)..", 1, 15, "expected end of line, found '.'"),
    ("goal(a)b.", 1, 8, "expected '.', found 'b.'"),
    ("assumption(¬a ¬b).", 1, 15, "expected ')', found '¬b'"),
    ("assumption(a).\nrule(p, [a,, b]).", 2, 12, "expected a symbol, found ','"),
    ("assumption(a).\n\n  # c\n  prefer(a b).", 4, 12, "expected ',', found 'b'"),
    ("assumption", 1, 11, "expected '(', found end of line"),
]


@pytest.mark.parametrize("text, line, column, message", MALFORMED_LINES)
def test_malformed_lines_are_located_exactly(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_aba_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    if message.startswith("unexpected character"):
        assert err.value.expected == "a symbol, punctuation, or '#'"
    else:
        assert err.value.expected == message[len("expected "):].split(", found")[0]


def test_dots_are_punctuation_alone_and_symbol_characters_otherwise():
    program = parse_aba_text("assumption(.).\nassumption(a.).\nrule(¬p, [¬a, b.c]). # ; ¬")
    assert program.raw.assumptions == (".", "a.")
    assert program.raw.rules == (("¬p", ("¬a", "b.c")),)


# ---------------------------------------------------------------------------
# round-trips


def test_serialization_reparses_to_the_same_framework():
    framework = validate_framework(parse_aba_text(ASPIRIN_TEXT).raw)
    text = serialize_framework(framework)
    again = validate_framework(parse_aba_text(text).raw)
    assert again == framework


def test_serialized_preferences_skip_reflexive_pairs():
    framework = validate_framework(parse_aba_text(ASPIRIN_TEXT).raw)
    text = serialize_framework(framework)
    assert "prefer(r2, r1)." in text
    assert "prefer(r1, r1)." not in text


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_random_frameworks_round_trip(seed):
    rng = random.Random(seed)
    framework = random_framework(rng)
    text = serialize_framework(framework)
    again = validate_framework(parse_aba_text(text).raw)
    assert again == framework


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_goal_frameworks_round_trip(seed):
    rng = random.Random(seed)
    abapg = random_abapg(rng)
    text = serialize_abapg(abapg)
    program = parse_aba_text(text)
    again = validate_abapg(
        validate_framework(program.raw), program.goals, program.priorities
    )
    assert again == abapg


# ---------------------------------------------------------------------------
# symbols that start with '.', and line ends


def test_symbols_may_start_with_a_dot():
    program = parse_aba_text("assumption(.a).\nrule(.h, [.a, b, ..]).\nprefer(.a, b).\n")
    assert program.raw.assumptions == (".a",)
    assert program.raw.rules == ((".h", (".a", "b", "..")),)
    assert program.raw.preferences == ((".a", "b"),)


def test_frameworks_with_dot_led_symbols_round_trip():
    framework = validate_framework(
        RawFramework.of(
            rules=[("c_b", [".a"])],
            assumptions=[".a", "b"],
            contraries=[("b", "c_b")],
            preferences=[(".a", "b")],
        )
    )
    text = serialize_framework(framework)
    assert "assumption(.a)." in text
    assert validate_framework(parse_aba_text(text).raw) == framework


# Where str.splitlines() also breaks a line.
OTHER_LINE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_lines_end_only_at_newline_carriage_return_or_both():
    program = parse_aba_text("assumption(a).\r\nassumption(b).\rassumption(c).\n")
    assert program.raw.assumptions == ("a", "b", "c")
    with pytest.raises(ParseError) as err:
        parse_aba_text("assumption(a).\r\n\rprefer(a).")
    assert (err.value.line, err.value.column) == (3, 9)


@pytest.mark.parametrize("separator", OTHER_LINE_SEPARATORS)
def test_other_line_separators_are_comment_text_inside_a_comment(separator):
    program = parse_aba_text(
        f"# note {separator} see page 2\nassumption(a).\n# a{separator}b\nassumption(b).  # c{separator}d"
    )
    assert program.raw.assumptions == ("a", "b")


@pytest.mark.parametrize("separator", OTHER_LINE_SEPARATORS)
def test_other_line_separators_are_unexpected_outside_a_comment(separator):
    with pytest.raises(ParseError) as err:
        parse_aba_text(f"assumption(a).\nassumption({separator}b).\nassumption(c).")
    assert (err.value.line, err.value.column) == (2, 12)
    assert str(err.value) == f"line 2, column 12: unexpected character {separator!r}"
    with pytest.raises(ParseError) as err:
        parse_aba_text(f"assumption(a).{separator}assumption(b).")
    assert (err.value.line, err.value.column) == (1, 15)
