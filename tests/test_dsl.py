import random
import re
from pathlib import Path

import pytest

from quasiring.dsl import Token, parse_spec, tokenize
from quasiring.errors import DslSyntaxError, DuplicateName, UnknownReference
from quasiring.topology import SequenceSpace, discrete_space, sierpinski_space


def test_basic_spec():
    spec = parse_spec("space Z discrete 3\nalgebra Y zmod 2\nring R = C(Z, Y)")
    assert spec.spaces["Z"] == discrete_space(3)
    assert spec.algebras["Y"].carrier_size == 2
    assert spec.ring_defs["R"].space == "Z"


def test_opens_space_sierpinski():
    spec = parse_spec("space Z opens { {} {0} {0 1} }")
    assert spec.spaces["Z"] == sierpinski_space()


def test_opens_space_auto_closes():
    spec = parse_spec("space Z opens { {0} {1} }")
    z = spec.spaces["Z"]
    assert z.is_open({0, 1}) and z.is_open(frozenset())


def test_seq_space():
    spec = parse_spec("space Z seq")
    assert isinstance(spec.spaces["Z"], SequenceSpace)


def test_table_algebra_with_add_and_unit_detection():
    spec = parse_spec(
        "algebra Y table 2 { 0 0 0 1 } add { 0 1 1 0 }")
    y = spec.algebras["Y"]
    assert y.unit == 1
    assert y.add[1][1] == 0


def test_check_directive_and_comments():
    spec = parse_spec(
        "# a comment\n"
        "space Z discrete 2   # trailing comment\n"
        "algebra Y zmod 3\n"
        "ring R = C(Z, Y)\n"
        "check T34 L59.10 all\n")
    assert spec.checks == ["T34", "L59.10", "all"]


def test_unknown_reference():
    with pytest.raises(UnknownReference):
        parse_spec("space Z discrete 2\nring R = C(Z, W)")


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        parse_spec("space Z discrete 2\nspace Z seq")


def test_syntax_error_location():
    with pytest.raises(DslSyntaxError) as err:
        parse_spec("space Z discrete\nalgebra Y zmod 2")
    assert err.value.line == 2 and err.value.column == 1


def test_bad_character():
    with pytest.raises(DslSyntaxError):
        parse_spec("space Z discrete 2; ring")


def test_table_arity_checked():
    with pytest.raises(DslSyntaxError):
        parse_spec("algebra Y table 2 { 0 0 0 }")



def test_a_ring_may_name_definitions_made_later():
    spec = parse_spec("ring R = C(Z, Y)\nspace Z discrete 2\nalgebra Y zmod 2")
    assert spec.ring_defs["R"].algebra == "Y"
    assert spec.spaces["Z"] == discrete_space(2)


# -- the tokenizer against a reference ----------------------------------------

_REFERENCE_RE = re.compile(r"""
    (?P<ws>      [ \t\r\n]+ )
  | (?P<comment> \#[^\n]*   )
  | (?P<int>     \d+        )
  | (?P<name>    [A-Za-z_][A-Za-z0-9_.]* )
  | (?P<punct>   [{}(),=]   )
""", re.VERBOSE)


def reference_tokenize(text: str) -> list:
    """One regex match per token, whitespace included, over the whole text,
    counting lines and columns as it goes: the reference ``tokenize`` is
    checked against."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "punct":
            tokens.append(Token(value, value, line, col))
        elif kind in ("int", "name"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _outcome(tokenizer, text):
    """The tokens, or the message, line and column of the syntax error."""
    try:
        return tokenizer(text)
    except DslSyntaxError as err:
        return str(err), err.line, err.column


def bench_shaped_spec(rng: random.Random) -> str:
    """A spec shaped like those `quasiring analyze` is timed on: a comment
    line, a space of glued connected blocks (one line of generating sets,
    shuffled), discrete or auto-closed singletons, a zmod algebra and a
    ring; the blanks between tokens are drawn from spaces, tabs and
    carriage returns, and lines end in LF or CRLF."""
    n = rng.randint(7, 11)
    kind = rng.choice(["discrete", "singletons", "blocks"])
    if kind == "discrete":
        space = f"discrete {n}"
    else:
        labels = list(range(n))
        rng.shuffle(labels)
        if kind == "singletons":
            sets = [[p] for p in labels]
        else:
            sets, base = [], 0
            while base < n:
                block = labels[base:base + rng.randint(1, 4)]
                sets += [[block[0]], *([block[0], b] for b in block[1:])]
                base += len(block)
            rng.shuffle(sets)
        space = "opens { " + " ".join(
            "{" + " ".join(map(str, s)) + "}" for s in sets) + " }"
    lines = [f"# analyze slot {kind}-{n} over Z_2", f"space Z {space}",
             f"algebra Y zmod {rng.randint(2, 6)}", "ring R = C(Z, Y)"]
    blanks = [" ", " ", "\t", "  ", " \r", "\t "]
    return "".join(
        rng.choice(["", "\t", " "])
        + re.sub(" ", lambda m: rng.choice(blanks), line)
        + rng.choice(["", " ", "\r"]) + rng.choice(["\n", "\r\n", "\n\n"])
        for line in lines)


def test_tokenize_matches_the_reference():
    """Identical tokens, eof position and errors on the spec corpus, on
    seeded bench-shaped specs, on edge texts, and on each of those with an
    unexpected character at the start of a line, mid-line and last."""
    corpus = [p.read_text() for p in
              sorted((Path(__file__).parent / "specs").glob("*.qr"))]
    assert len(corpus) >= 6
    rng = random.Random(28)
    texts = corpus + [bench_shaped_spec(rng) for _ in range(200)]
    texts += [t.replace("\n", "\r\n") for t in corpus]
    texts += ["", "\n", "\r\n", " \t\r", "# comment at eof", "x # c",
              "space Z discrete 3 # no newline", "\tspace\tZ\tdiscrete\t2\n",
              "a\r\n\r\nb\r", "12abc 3.4 a.b_c", "{}(),=", "#\n#\n",
              "space Z discrete 2\n\n\n", "\n\nspace", "\x0b", "a\x0cb",
              "é", "a\u2028b", "space Z discrete ٣"]
    for text in list(texts):
        for bad in ";@\x0c":
            texts.append(bad + text)                      # line start
            texts.append(text + bad)                      # last
            cut = len(text) // 2
            texts.append(text[:cut] + bad + text[cut:])   # mid-line
    errors = 0
    for text in texts:
        want = _outcome(reference_tokenize, text)
        assert _outcome(tokenize, text) == want, repr(text)
        errors += isinstance(want, tuple)
    assert errors > len(texts) // 2
