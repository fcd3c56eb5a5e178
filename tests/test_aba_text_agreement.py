"""The statement pattern against the token walk it replaced as the parser.

``parse_aba_text`` accepts a line when one pattern matches it, and walks the
line's tokens only to explain a rejection.  The reference below is the token
walk as it parsed on its own, kept verbatim so the two can be compared:

- every line the walk accepts, the pattern accepts, with the same statement;
- every line the pattern rejects, the walk rejects, with the same error;
- the pattern accepts more only where a symbol starts with '.', which the
  walk read as a lone '.' followed by a second symbol.
"""

import re
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from argclinic import ParseError, RawFramework, parse_aba_text
from argclinic.aba_text import ParsedProgram

# ---------------------------------------------------------------------------
# the reference: the whole-line token walk that used to be the parser

SYMBOL_RE = re.compile(r"[A-Za-z0-9_.¬-]+")
_TOKEN_RE = re.compile(r"[ \t]+|([()\[\],.]|" + SYMBOL_RE.pattern + r")|(#)|(.)")
_TOKEN, _COMMENT = 1, 2
STATEMENT_KEYWORDS = ("assumption", "contrary", "rule", "prefer", "goal", "priority")


def _tokenize_line(line, line_no):
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
    def __init__(self, tokens, line_no, line_length):
        self.tokens = tokens
        self.line_no = line_no
        self.line_length = line_length
        self.pos = 0

    def _fail(self, expected):
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

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def expect(self, text):
        if self.peek() != text:
            raise self._fail(f"{text!r}")
        self.pos += 1

    def symbol(self):
        text = self.peek()
        if text is None or not SYMBOL_RE.fullmatch(text):
            raise self._fail("a symbol")
        self.pos += 1
        return text

    def keyword(self):
        text = self.peek()
        if text not in STATEMENT_KEYWORDS:
            raise self._fail("a statement keyword " + "/".join(STATEMENT_KEYWORDS))
        self.pos += 1
        return text

    def end(self):
        if self.pos != len(self.tokens):
            raise self._fail("end of line")


def reference_parse(text):
    rules, assumptions, contraries, preferences, goals, priorities = [], [], [], [], [], []
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
            body = []
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
            rules=rules, assumptions=assumptions, contraries=contraries, preferences=preferences
        ),
        goals=tuple(goals),
        priorities=tuple(priorities),
    )


# ---------------------------------------------------------------------------
# lines: well-formed statements with a few pieces changed, and free mixtures

SYMBOLS = ["a", "b1", "¬p", "a.b", "a.", ".", ".a", "..", "-", "x_y", "Adm._NSAID", "¬", "rule"]
PUNCTUATION = ["(", ")", "[", "]", ",", "."]
SPACES = ["", " ", "\t", "  ", " \t "]
# No line separator here: splitting text into lines is tested on its own.
STRAYS = [";", "\xa0", "\u3000", "\x00", "é", ":", "@", '"']
PIECES = list(STATEMENT_KEYWORDS) + SYMBOLS + PUNCTUATION + SPACES[1:] + STRAYS + ["#", "# c"]

pieces = st.sampled_from(PIECES)
spaces = st.sampled_from(SPACES)
symbols = st.sampled_from(SYMBOLS)


@st.composite
def statements(draw):
    """The pieces of one well-formed statement, spaced at random."""
    keyword = draw(st.sampled_from(STATEMENT_KEYWORDS))
    if keyword in ("assumption", "goal"):
        args = [draw(symbols)]
    elif keyword == "rule":
        body = draw(st.lists(symbols, max_size=3))
        inner = []
        for i, symbol in enumerate(body):
            inner += ([draw(spaces), ","] if i else []) + [draw(spaces), symbol]
        args = [draw(symbols), draw(spaces), ",", draw(spaces), "[", *inner, draw(spaces), "]"]
    else:
        args = [draw(symbols), draw(spaces), ",", draw(spaces), draw(symbols)]
    tail = [draw(st.sampled_from(["", "#", "# ; ¬  x"]))]
    return [draw(spaces), keyword, draw(spaces), "(", draw(spaces), *args,
            draw(spaces), ")", draw(spaces), ".", draw(spaces), *tail]


@st.composite
def edited_statements(draw):
    """A statement with up to three pieces deleted, inserted or replaced."""
    parts = draw(statements())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(parts)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "insert" or at == len(parts):
            parts.insert(at, draw(pieces))
        elif edit == "delete":
            del parts[at]
        else:
            parts[at] = draw(pieces)
    return "".join(parts)


lines = st.one_of(edited_statements(), st.lists(pieces, max_size=12).map("".join))

# A run of symbol characters that starts with '.' and does not stop there,
# before any comment.
DOT_LED_SYMBOL = re.compile(r"(?<![A-Za-z0-9_.¬-])\.[A-Za-z0-9_.¬-]")


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as error:
        return (error.line, error.column, str(error), error.expected)


@seed(20190708)
@settings(max_examples=1500, deadline=None)
@given(lines)
def test_the_pattern_accepts_what_the_walk_accepts_and_rejects_with_its_error(line):
    expected = outcome(reference_parse, line)
    actual = outcome(parse_aba_text, line)
    if isinstance(expected, ParsedProgram) or isinstance(actual, tuple):
        assert actual == expected
    else:
        assert DOT_LED_SYMBOL.search(line.split("#")[0])


# ---------------------------------------------------------------------------
# every step of every statement shape: each token prefix of one valid line per
# keyword, and the line with each token in turn replaced by a wrong one

VALID_LINES = [
    "assumption(a).",
    " contrary(a,\tc_a) .",
    "rule(h, [b1 ,b2]).",
    "prefer( a, b ).",
    "\tgoal(¬g).",
    "priority(g1, g2).  ",
]


def wrong_tokens(token, first):
    """Punctuation and symbols that cannot stand where ``token`` stands."""
    if token in PUNCTUATION:
        return [t for t in PUNCTUATION + ["x"] if t != token]
    if first:
        return PUNCTUATION + ["x"]
    return [t for t in PUNCTUATION if t != "."]  # a lone '.' is a symbol too


def shape_steps():
    for line in VALID_LINES:
        keyword = line.split("(")[0].strip()
        spans = [m.span() for m in _TOKEN_RE.finditer(line) if m.lastindex == _TOKEN]
        for k, (_, end) in enumerate(spans[:-1], start=1):
            yield pytest.param(line[:end], id=f"{keyword}-prefix-{k}")
        for k, (start, end) in enumerate(spans):
            for wrong in wrong_tokens(line[start:end], k == 0):
                edited = f"{line[:start]} {wrong} {line[end:]}"
                yield pytest.param(edited, id=f"{keyword}-token-{k}-{wrong}")


@pytest.mark.parametrize("line", shape_steps())
def test_each_step_of_each_shape_rejects_with_the_walks_error(line):
    expected = outcome(reference_parse, line)
    assert isinstance(expected, tuple)
    assert outcome(parse_aba_text, line) == expected


# ---------------------------------------------------------------------------
# long lines parse or fail in linear time

LONG = 10**5
LONG_LINES = {
    "spaces": " " * LONG,
    "unclosed body": "rule(h, [" + "a, " * (LONG // 3),
    "long symbol": "assumption(" + "a" * LONG,
    "spaced list": "rule(h, [" + "a  ,  " * (LONG // 6) + "a ]).",
    "spaced unclosed list": "rule(h, [" + " a ,\t" * (LONG // 5),
    "spaces after a bracket": "rule(h, [" + " " * LONG,
}


@pytest.mark.parametrize("name", LONG_LINES)
def test_a_long_line_parses_or_fails_within_a_second(name):
    start = time.perf_counter()
    try:
        parse_aba_text(LONG_LINES[name])
    except ParseError:
        pass
    assert time.perf_counter() - start < 1.0
