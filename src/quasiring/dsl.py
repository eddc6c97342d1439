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

A ``table`` algebra lists its n x n multiplication table row by row; ``add``
optionally supplies an addition table of the same shape.  0 is always the
zero element; a two-sided unit is detected from the table when present.

``check`` directives name checker ids to run by default; they are plumbing
for spec files driven through the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import AlgebraTable, make_table, make_zmod
from .errors import DslSyntaxError, DuplicateName, UnknownReference
from .topology import (
    SequenceSpace,
    discrete_space,
    validate_topology,
)

_STMT_KEYWORDS = {"space", "algebra", "ring", "check"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>      [ \t\r\n]+ )
  | (?P<comment> \#[^\n]*   )
  | (?P<int>     \d+        )
  | (?P<name>    [A-Za-z_][A-Za-z0-9_.]* )
  | (?P<punct>   [{}(),=]   )
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str          # "int" | "name" | one of "{}(),=" | "eof"
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "punct":
            tokens.append(Token(value, value, line, col))
        elif kind in ("int", "name"):
            tokens.append(Token(kind, value, line, col))
        # whitespace and comments advance position only
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceDef:
    name: str
    kind: str                   # "discrete" | "seq" | "opens"
    n: int = 0
    opens: tuple = ()           # for "opens": tuple of frozensets as given


@dataclass(frozen=True)
class AlgebraDef:
    name: str
    kind: str                   # "zmod" | "table"
    n: int = 0
    mul: tuple = ()
    add: tuple | None = None


@dataclass(frozen=True)
class RingDef:
    name: str
    space: str
    algebra: str


@dataclass
class SpecFile:
    space_defs: dict = field(default_factory=dict)
    algebra_defs: dict = field(default_factory=dict)
    ring_defs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)      # checker ids, or "all"
    spaces: dict = field(default_factory=dict)      # name -> built space
    algebras: dict = field(default_factory=dict)    # name -> AlgebraTable


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

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.here
        if tok.kind != kind:
            want = what or kind
            got = tok.value or "end of input"
            raise DslSyntaxError(f"expected {want}, got {got!r}",
                                 tok.line, tok.column)
        return self.take()

    def expect_word(self, word: str) -> Token:
        tok = self.here
        if tok.kind != "name" or tok.value != word:
            got = tok.value or "end of input"
            raise DslSyntaxError(f"expected {word!r}, got {got!r}",
                                 tok.line, tok.column)
        return self.take()

    def int_value(self) -> int:
        return int(self.expect("int", "an integer").value)

    def parse(self) -> SpecFile:
        spec = SpecFile()
        while self.here.kind != "eof":
            tok = self.here
            if tok.kind != "name" or tok.value not in _STMT_KEYWORDS:
                got = tok.value or "end of input"
                raise DslSyntaxError(
                    f"expected one of space/algebra/ring/check, got {got!r}",
                    tok.line, tok.column)
            getattr(self, "_stmt_" + tok.value)(spec)
        _build(spec)
        return spec

    # statements

    def _stmt_space(self, spec: SpecFile):
        self.take()
        name = self.expect("name", "a space name").value
        if name in spec.space_defs:
            raise DuplicateName(f"space {name!r} defined twice")
        tok = self.here
        if tok.kind == "name" and tok.value == "discrete":
            self.take()
            count = self.here
            n = self.int_value()
            if n < 1:
                raise DslSyntaxError("a discrete space needs at least one point",
                                     count.line, count.column)
            spec.space_defs[name] = SpaceDef(name, "discrete", n)
        elif tok.kind == "name" and tok.value == "seq":
            self.take()
            spec.space_defs[name] = SpaceDef(name, "seq")
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
            spec.space_defs[name] = SpaceDef(name, "opens", n, tuple(sets))
        else:
            got = tok.value or "end of input"
            raise DslSyntaxError(
                f"expected discrete/seq/opens, got {got!r}", tok.line, tok.column)

    def _stmt_algebra(self, spec: SpecFile):
        self.take()
        name = self.expect("name", "an algebra name").value
        if name in spec.algebra_defs:
            raise DuplicateName(f"algebra {name!r} defined twice")
        tok = self.here
        if tok.kind == "name" and tok.value == "zmod":
            self.take()
            spec.algebra_defs[name] = AlgebraDef(name, "zmod", self.int_value())
        elif tok.kind == "name" and tok.value == "table":
            self.take()
            n = self.int_value()
            mul = self._rows(n)
            add = None
            if self.here.kind == "name" and self.here.value == "add":
                self.take()
                add = self._rows(n)
            spec.algebra_defs[name] = AlgebraDef(name, "table", n, mul, add)
        else:
            got = tok.value or "end of input"
            raise DslSyntaxError(
                f"expected zmod/table, got {got!r}", tok.line, tok.column)

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
            tok = self.here
            got = tok.value or "end of input"
            raise DslSyntaxError(
                f"expected checker ids after 'check', got {got!r}",
                tok.line, tok.column)


def _detect_unit(mul: tuple) -> int | None:
    n = len(mul)
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            return e
    return None


def _build(spec: SpecFile):
    """Resolve definitions into space and algebra objects."""
    for d in spec.space_defs.values():
        if d.kind == "discrete":
            spec.spaces[d.name] = discrete_space(d.n)
        elif d.kind == "seq":
            spec.spaces[d.name] = SequenceSpace()
        else:
            spec.spaces[d.name] = validate_topology(d.n, d.opens,
                                                    auto_close=True)
    for d in spec.algebra_defs.values():
        if d.kind == "zmod":
            spec.algebras[d.name] = make_zmod(d.n)
        else:
            spec.algebras[d.name] = make_table(
                d.mul, zero=0, unit=_detect_unit(d.mul), add=d.add,
                name=d.name)
    for d in spec.ring_defs.values():
        if d.space not in spec.space_defs:
            raise UnknownReference(
                f"ring {d.name!r} references undefined space {d.space!r}")
        if d.algebra not in spec.algebra_defs:
            raise UnknownReference(
                f"ring {d.name!r} references undefined algebra {d.algebra!r}")


def parse_spec(text: str) -> SpecFile:
    return _Parser(text).parse()

