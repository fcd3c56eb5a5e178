"""Textual framework format: one statement per line, Prolog-ish syntax.

    # comment
    assumption(a).
    contrary(a, c_a).
    rule(head, [b1, b2]).
    rule(fact, []).
    prefer(a, b).      # a is at most as preferred as b
    goal(g).
    priority(g1, g2).  # g1 is at most as important as g2

A symbol is a maximal run of [A-Za-z0-9_.¬-] inside the parentheses, so it
may start with '.'; symbols are case-sensitive.  Spaces and tabs are free
within a line; '#' starts a comment.  A line ends only at '\n', '\r\n' or
'\r'; any other line separator is comment text inside a comment and an
unexpected character elsewhere.

One pattern accepts or rejects each line.  A rejected line is explained by
walking its tokens along the keyword's shape in ``_SHAPES``; the ParseError
reads ``line L, column C: expected X, found Y`` for the first token out of
place, with C one past the last character when the line is cut short.  A
stray character anywhere on the line is reported before any such fault.
"""

from __future__ import annotations

import re
from typing import Iterable, NoReturn

from .aba_core import AbaFramework, RawFramework, _nonreflexive
from .aba_goals import AbapgFramework
from .errors import ParseError, Record, _cut

SYMBOL_RE = re.compile(r"[A-Za-z0-9_.¬-]+")

# One alternative per token class: whitespace (skipped), punctuation or
# symbol (punctuation first, so a lone '.' is punctuation), a comment, and a
# stray character.  ``lastindex`` names the class; whitespace has none.
_TOKEN_RE = re.compile(r"[ \t]+|([()\[\],.]|" + SYMBOL_RE.pattern + r")|(#)|(.)")
_TOKEN, _COMMENT = 1, 2

# The whole grammar of a line, blank or one statement, as one pattern.  Every
# symbol is followed by a space, tab, ',', ']' or ')', none of which is a
# symbol character, so a greedy run cannot backtrack into another split; and
# no two whitespace runs are adjacent, so a rejected line fails in linear time.
_SYMBOL = SYMBOL_RE.pattern
_STATEMENT_RE = re.compile(
    r"[ \t]*(?:(?:"
    rf"(assumption|goal)[ \t]*\([ \t]*({_SYMBOL})"
    rf"|(contrary|prefer|priority)[ \t]*\([ \t]*({_SYMBOL})[ \t]*,[ \t]*({_SYMBOL})"
    rf"|rule[ \t]*\([ \t]*({_SYMBOL})[ \t]*,[ \t]*"
    rf"\[[ \t]*((?:{_SYMBOL}(?:[ \t]*,[ \t]*{_SYMBOL})*[ \t]*)?)\]"
    r")[ \t]*\)[ \t]*\.[ \t]*)?(?:#.*)?"
)

# The statement shapes, in the keyword order that errors list.  In a shape,
# 's' is a symbol, 'b' the symbols of a rule body split by ',' (maybe none),
# and any other character is that punctuation.
_SHAPES = {
    "assumption": "(s).",
    "contrary": "(s,s).",
    "rule": "(s,[b]).",
    "prefer": "(s,s).",
    "goal": "(s).",
    "priority": "(s,s).",
}


class ParsedProgram(Record):
    """A parsed file: framework statements plus any goal statements."""

    raw: RawFramework
    goals: tuple[str, ...] = ()
    priorities: tuple[tuple[str, str], ...] = ()

    @property
    def has_goals(self) -> bool:
        return bool(self.goals) or bool(self.priorities)


def _explain(line: str, line_no: int) -> NoReturn:
    """Raise the ParseError of a line the statement pattern rejected.

    The whole line is tokenized before the walk, so a stray character is
    reported first.  The end of the line is one more token, ``None``, one
    column past the last character.
    """
    tokens: list[tuple[str | None, int]] = []
    for match in _TOKEN_RE.finditer(line):
        kind = match.lastindex
        if kind == _TOKEN:
            tokens.append((match.group(_TOKEN), match.start() + 1))
        elif kind == _COMMENT:
            break
        elif kind is not None:
            raise ParseError(
                f"unexpected character {match.group()!r}",
                line_no,
                match.start() + 1,
                expected="a symbol, punctuation, or '#'",
            )
    tokens.append((None, len(line) + 1))
    at = 0

    def take(expected: str, fits) -> str | None:
        nonlocal at
        text, column = tokens[at]
        if not fits(text):
            found = "end of line" if text is None else _cut(repr(text))
            raise ParseError(
                f"expected {expected}, found {found}", line_no, column, expected=expected
            )
        at += 1
        return text

    def is_symbol(text: str | None) -> bool:
        return text is not None and SYMBOL_RE.fullmatch(text) is not None

    keyword = take("a statement keyword " + "/".join(_SHAPES), _SHAPES.__contains__)
    for char in _SHAPES[keyword]:
        if char == "s":
            take("a symbol", is_symbol)
        elif char != "b":
            take(repr(char), lambda text: text == char)
        elif tokens[at][0] not in (None, "]"):
            take("a symbol", is_symbol)
            while tokens[at][0] == ",":
                at += 1
                take("a symbol", is_symbol)
    take("end of line", lambda text: text is None)
    raise AssertionError(f"line {line_no}: the token walk accepts what the pattern rejects")


def parse_aba_text(text: str) -> ParsedProgram:
    """Parse a textual framework into raw statements (unvalidated)."""
    statements: dict[str, list] = {keyword: [] for keyword in _SHAPES}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        match = _STATEMENT_RE.fullmatch(line)
        if match is None:
            _explain(line, line_no)
        single, symbol, pair, first, second, head, body = match.groups()
        if single:
            statements[single].append(symbol)
        elif pair:
            statements[pair].append((first, second))
        elif head:
            statements["rule"].append((head, tuple(SYMBOL_RE.findall(body))))

    # Each rule is already a (head, body tuple) pair, so no RawFramework.of.
    return ParsedProgram(
        raw=RawFramework(
            tuple(statements["rule"]),
            tuple(statements["assumption"]),
            tuple(statements["contrary"]),
            tuple(statements["prefer"]),
        ),
        goals=tuple(statements["goal"]),
        priorities=tuple(statements["priority"]),
    )


def serialize_framework(
    framework: AbaFramework,
    goals: Iterable = (),
    priority_pairs: Iterable[tuple] = (),
) -> str:
    """Render a framework (and optional goal layer) in the textual format.

    The preference and priority are emitted as their closures minus the
    reflexive pairs; re-parsing and re-validating reproduces the closure, so
    serialize/parse round-trips are exact.
    """
    lines: list[str] = []
    for asm in sorted(framework.assumptions):
        lines.append(f"assumption({asm.symbol}).")
    for asm, contrary in framework.contrary_items:
        lines.append(f"contrary({asm.symbol}, {contrary.symbol}).")
    for rule in sorted(framework.rules, key=lambda r: r.sort_key()):
        body = ", ".join(sorted(s.symbol for s in rule.body))
        lines.append(f"rule({rule.head.symbol}, [{body}]).")
    for low, high in _nonreflexive(framework.preference.pairs):
        lines.append(f"prefer({low}, {high}).")
    for goal in sorted(str(g) for g in goals):
        lines.append(f"goal({goal}).")
    for low, high in _nonreflexive(priority_pairs):
        lines.append(f"priority({low}, {high}).")
    return "\n".join(lines) + "\n"


def serialize_abapg(framework: AbapgFramework) -> str:
    return serialize_framework(
        framework.base,
        goals=framework.goals,
        priority_pairs=framework.priority.pairs,
    )
