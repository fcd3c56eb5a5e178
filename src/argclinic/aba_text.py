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
unexpected character elsewhere.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from typing import Iterable, NoReturn

from .aba_core import AbaFramework, RawFramework
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

STATEMENT_KEYWORDS = (
    "assumption",
    "contrary",
    "rule",
    "prefer",
    "goal",
    "priority",
)


class ParsedProgram(Record):
    """A parsed file: framework statements plus any goal statements."""

    raw: RawFramework
    goals: tuple[str, ...] = ()
    priorities: tuple[tuple[str, str], ...] = ()

    @property
    def has_goals(self) -> bool:
        return bool(self.goals) or bool(self.priorities)


def _tokenize_line(line: str, line_no: int) -> list[tuple[str, int]]:
    """The ``(text, column)`` tokens of one line, up to any comment."""
    tokens = []
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
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, int]], line_no: int, line_length: int):
        self.tokens = tokens
        self.line_no = line_no
        self.line_length = line_length
        self.pos = 0

    def _fail(self, expected: str) -> ParseError:
        if self.pos < len(self.tokens):
            text, column = self.tokens[self.pos]
            return ParseError(
                f"expected {expected}, found {_cut(repr(text))}",
                self.line_no,
                column,
                expected=expected,
            )
        return ParseError(
            f"expected {expected}, found end of line",
            self.line_no,
            self.line_length + 1,
            expected=expected,
        )

    def peek(self) -> str | None:
        """The text of the next token, or None at the end of the line."""
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def expect(self, text: str) -> None:
        if self.peek() != text:
            raise self._fail(f"{text!r}")
        self.pos += 1

    def symbol(self) -> str:
        text = self.peek()
        if text is None or not SYMBOL_RE.fullmatch(text):
            raise self._fail("a symbol")
        self.pos += 1
        return text

    def keyword(self) -> str:
        text = self.peek()
        if text not in STATEMENT_KEYWORDS:
            raise self._fail("a statement keyword " + "/".join(STATEMENT_KEYWORDS))
        self.pos += 1
        return text

    def end(self) -> None:
        if self.pos != len(self.tokens):
            raise self._fail("end of line")


def _explain(line: str, line_no: int) -> NoReturn:
    """Raise the ParseError of a line the statement pattern rejected.

    The token walk stops at the first token out of place, which gives the
    error its column and the ``expected`` text.
    """
    parser = _LineParser(_tokenize_line(line, line_no), line_no, len(line))
    keyword = parser.keyword()
    parser.expect("(")
    parser.symbol()
    if keyword in ("contrary", "prefer", "priority"):
        parser.expect(",")
        parser.symbol()
    elif keyword == "rule":
        parser.expect(",")
        parser.expect("[")
        if parser.peek() not in (None, "]"):
            parser.symbol()
            while parser.peek() == ",":
                parser.expect(",")
                parser.symbol()
        parser.expect("]")
    parser.expect(")")
    parser.expect(".")
    parser.end()
    raise AssertionError(f"line {line_no}: the token walk accepts what the pattern rejects")


def parse_aba_text(text: str) -> ParsedProgram:
    """Parse a textual framework into raw statements (unvalidated)."""
    statements: dict[str, list] = {keyword: [] for keyword in STATEMENT_KEYWORDS}
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


def _nonreflexive(pairs: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    return sorted((a, b) for a, b in pairs if a != b)


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
    for low, high in _nonreflexive(
        (a.symbol, b.symbol) for a, b in framework.preference.pairs
    ):
        lines.append(f"prefer({low}, {high}).")
    for goal in sorted(str(g) for g in goals):
        lines.append(f"goal({goal}).")
    for low, high in _nonreflexive(
        (str(a), str(b)) for a, b in priority_pairs
    ):
        lines.append(f"priority({low}, {high}).")
    return "\n".join(lines) + "\n"


def serialize_abapg(framework: AbapgFramework) -> str:
    return serialize_framework(
        framework.base,
        goals=framework.goals,
        priority_pairs=framework.priority.pairs,
    )
