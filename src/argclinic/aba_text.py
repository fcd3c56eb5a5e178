"""Textual framework format: one statement per line, Prolog-ish syntax.

    # comment
    assumption(a).
    contrary(a, c_a).
    rule(head, [b1, b2]).
    rule(fact, []).
    prefer(a, b).      # a is at most as preferred as b
    goal(g).
    priority(g1, g2).  # g1 is at most as important as g2

Symbols match [A-Za-z0-9_.¬-]+ and are case-sensitive.  Whitespace is free
within a line; '#' starts a comment.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .aba_core import AbaFramework, RawFramework
from .aba_goals import AbapgFramework
from .errors import ParseError

SYMBOL_RE = re.compile(r"[A-Za-z0-9_.¬-]+")

# One alternative per token class: whitespace (skipped), punctuation or
# symbol (punctuation first, so a lone '.' is punctuation), a comment, and a
# stray character.  ``lastindex`` names the class; whitespace has none.
_TOKEN_RE = re.compile(r"[ \t]+|([()\[\],.]|" + SYMBOL_RE.pattern + r")|(#)|(.)")
_TOKEN, _COMMENT = 1, 2

STATEMENT_KEYWORDS = (
    "assumption",
    "contrary",
    "rule",
    "prefer",
    "goal",
    "priority",
)


@dataclass(frozen=True)
class ParsedProgram:
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
                f"expected {expected}, found {text!r}",
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


def parse_aba_text(text: str) -> ParsedProgram:
    """Parse a textual framework into raw statements (unvalidated)."""
    rules: list[tuple[str, tuple[str, ...]]] = []
    assumptions: list[str] = []
    contraries: list[tuple[str, str]] = []
    preferences: list[tuple[str, str]] = []
    goals: list[str] = []
    priorities: list[tuple[str, str]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, line_no)
        if not tokens:
            continue
        parser = _LineParser(tokens, line_no, len(line))
        keyword = parser.keyword()
        parser.expect("(")
        if keyword == "assumption":
            assumptions.append(parser.symbol())
        elif keyword == "goal":
            goals.append(parser.symbol())
        elif keyword in ("contrary", "prefer", "priority"):
            first = parser.symbol()
            parser.expect(",")
            second = parser.symbol()
            pair = (first, second)
            if keyword == "contrary":
                contraries.append(pair)
            elif keyword == "prefer":
                preferences.append(pair)
            else:
                priorities.append(pair)
        else:  # rule
            head = parser.symbol()
            parser.expect(",")
            parser.expect("[")
            body: list[str] = []
            if parser.peek() not in (None, "]"):
                body.append(parser.symbol())
                while parser.peek() == ",":
                    parser.expect(",")
                    body.append(parser.symbol())
            parser.expect("]")
            rules.append((head, tuple(body)))
        parser.expect(")")
        parser.expect(".")
        parser.end()

    return ParsedProgram(
        raw=RawFramework.of(
            rules=rules,
            assumptions=assumptions,
            contraries=contraries,
            preferences=preferences,
        ),
        goals=tuple(goals),
        priorities=tuple(priorities),
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
