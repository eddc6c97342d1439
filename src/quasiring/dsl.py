"""Parser for the declarative input language.

Grammar (whitespace-insensitive, ``#`` starts a comment running to end of
line)::

    file    := stmt*
    stmt    := space | algebra | ring | check
    space   := "space" NAME ("discrete" INT | "seq" | "opens" "{" set* "}")
    set     := "{" INT* "}"
    algebra := "algebra" NAME ("zmod" INT
                               | "table" INT "{" INT* "}" ["add" "{" INT* "}"])
    ring    := "ring" NAME "=" "C" "(" NAME "," NAME ")"
    check   := "check" (NAME | "all")+

A ``discrete`` space needs at least one point and a ``zmod`` modulus is at
least 2.  A ``table`` algebra lists its n x n multiplication table row by
row; ``add`` optionally supplies an addition table of the same shape.  0 is
always the zero element; a two-sided unit is detected from the table when
present.

Each space and algebra is built as soon as its statement is parsed, so the
first error in source order is the one reported, whether it is a syntax
error, a refused table or a space past its budget.  A ring may name a space
or algebra defined later in the file; references are checked at the end.

``check`` directives name checker ids to run by default; they are plumbing
for spec files driven through the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import make_table, make_zmod
from .errors import DslSyntaxError, DuplicateName, UnknownReference
from .topology import (
    SequenceSpace,
    discrete_space,
    validate_topology,
)

_STMT_KEYWORDS = {"space", "algebra", "ring", "check"}

#: one token of a line, after the blanks before it; "other" is any character
#: no token starts with, reported as unexpected
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?: (?P<int>     \d+        )
      | (?P<name>    [A-Za-z_][A-Za-z0-9_.]* )
      | (?P<punct>   [{}(),=]   )
      | (?P<comment> \#.*       )
      | (?P<other>   [^ \t\r]  ) )
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str          # "int" | "name" | one of "{}(),=" | "eof"
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """The tokens of text, ending with "eof".  Each line is read by one
    regex pass; a token's column is its offset in the line, plus one."""
    tokens = []
    lines = text.split("\n")
    for line, s in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(s):
            kind = m.lastgroup
            if kind == "int" or kind == "name":
                tokens.append(Token(kind, m[kind], line, m.start(kind) + 1))
            elif kind == "punct":
                value = m[kind]
                tokens.append(Token(value, value, line, m.start(kind) + 1))
            elif kind == "other":
                raise DslSyntaxError(f"unexpected character {m[kind]!r}",
                                     line, m.start(kind) + 1)
    tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


@dataclass(frozen=True)
class RingDef:
    name: str
    space: str
    algebra: str


@dataclass
class SpecFile:
    spaces: dict = field(default_factory=dict)      # name -> built space
    algebras: dict = field(default_factory=dict)    # name -> AlgebraTable
    ring_defs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)      # checker ids, or "all"


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expected(self, want: str):
        """Raise "expected <want>, got <token>" at the current token."""
        tok = self.here
        got = tok.value or "end of input"
        raise DslSyntaxError(f"expected {want}, got {got!r}",
                             tok.line, tok.column)

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.here.kind != kind:
            self._expected(what or kind)
        return self.take()

    def expect_word(self, word: str) -> Token:
        if self.here.kind != "name" or self.here.value != word:
            self._expected(repr(word))
        return self.take()

    def int_value(self) -> int:
        return int(self.expect("int", "an integer").value)

    def int_at_least(self, low: int, message: str) -> int:
        tok = self.here
        n = self.int_value()
        if n < low:
            raise DslSyntaxError(message, tok.line, tok.column)
        return n

    def parse(self) -> SpecFile:
        spec = SpecFile()
        while self.here.kind != "eof":
            tok = self.here
            if tok.kind != "name" or tok.value not in _STMT_KEYWORDS:
                self._expected("one of space/algebra/ring/check")
            getattr(self, "_stmt_" + tok.value)(spec)
        for d in spec.ring_defs.values():
            if d.space not in spec.spaces:
                raise UnknownReference(
                    f"ring {d.name!r} references undefined space {d.space!r}")
            if d.algebra not in spec.algebras:
                raise UnknownReference(
                    f"ring {d.name!r} references undefined algebra {d.algebra!r}")
        return spec

    # statements

    def _stmt_space(self, spec: SpecFile):
        self.take()
        name = self.expect("name", "a space name").value
        if name in spec.spaces:
            raise DuplicateName(f"space {name!r} defined twice")
        tok = self.here
        if tok.kind == "name" and tok.value == "discrete":
            self.take()
            spec.spaces[name] = discrete_space(self.int_at_least(
                1, "a discrete space needs at least one point"))
        elif tok.kind == "name" and tok.value == "seq":
            self.take()
            spec.spaces[name] = SequenceSpace()
        elif tok.kind == "name" and tok.value == "opens":
            self.take()
            self.expect("{")
            sets = []
            while self.here.kind == "{":
                self.take()
                pts = []
                while self.here.kind == "int":
                    pts.append(self.int_value())
                self.expect("}", "'}' closing the point set")
                sets.append(frozenset(pts))
            self.expect("}", "'}' closing the opens block")
            n = 1 + max((p for s in sets for p in s), default=-1)
            if n == 0:
                raise DslSyntaxError("an opens block needs at least one point",
                                     tok.line, tok.column)
            spec.spaces[name] = validate_topology(n, sets, auto_close=True)
        else:
            self._expected("discrete/seq/opens")

    def _stmt_algebra(self, spec: SpecFile):
        self.take()
        name = self.expect("name", "an algebra name").value
        if name in spec.algebras:
            raise DuplicateName(f"algebra {name!r} defined twice")
        tok = self.here
        if tok.kind == "name" and tok.value == "zmod":
            self.take()
            spec.algebras[name] = make_zmod(self.int_at_least(
                2, "zmod needs a modulus of at least 2"))
        elif tok.kind == "name" and tok.value == "table":
            self.take()
            n = self.int_value()
            mul = self._rows(n)
            add = None
            if self.here.kind == "name" and self.here.value == "add":
                self.take()
                add = self._rows(n)
            spec.algebras[name] = make_table(
                mul, zero=0, unit=_detect_unit(mul), add=add, name=name)
        else:
            self._expected("zmod/table")

    def _rows(self, n: int) -> tuple:
        open_tok = self.expect("{")
        vals = []
        while self.here.kind == "int":
            vals.append(self.int_value())
        self.expect("}", "'}' closing the table")
        if len(vals) != n * n:
            raise DslSyntaxError(
                f"table needs {n * n} entries, got {len(vals)}",
                open_tok.line, open_tok.column)
        bad = [v for v in vals if v >= n]
        if bad:
            raise DslSyntaxError(
                f"table entry {bad[0]} out of range 0..{n - 1}",
                open_tok.line, open_tok.column)
        return tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n))

    def _stmt_ring(self, spec: SpecFile):
        self.take()
        name = self.expect("name", "a ring name").value
        if name in spec.ring_defs:
            raise DuplicateName(f"ring {name!r} defined twice")
        self.expect("=")
        self.expect_word("C")
        self.expect("(")
        space = self.expect("name", "a space name").value
        self.expect(",")
        algebra = self.expect("name", "an algebra name").value
        self.expect(")")
        spec.ring_defs[name] = RingDef(name, space, algebra)

    def _stmt_check(self, spec: SpecFile):
        self.take()
        got_any = False
        while (self.here.kind == "name"
               and self.here.value not in _STMT_KEYWORDS):
            spec.checks.append(self.take().value)
            got_any = True
        if not got_any:
            self._expected("checker ids after 'check'")


def _detect_unit(mul: tuple) -> int | None:
    n = len(mul)
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            return e
    return None


def parse_spec(text: str) -> SpecFile:
    return _Parser(text).parse()
