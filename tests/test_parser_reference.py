"""The formula parser against the per-character tokenizer and parser it
replaced (``parser_reference.py``): on mutated formula strings both give
equal trees, or errors of equal type, message, line and column."""

import pytest
from hypothesis import given, settings, strategies as st

from catlogic.errors import UnknownSymbol, WorkbenchError
from catlogic.logic import MAX_NESTING, parse_formula, parse_theory

from parser_reference import ref_parse_formula

SIG = parse_theory("""\
sort s
sort t
fun c : s
fun d : s
fun f : s -> s
fun g : s * t -> s
fun k : t
rel B : s
rel P
rel R : s * t
""").signature

SEEDS = (
    "forall x:s. (B(x) -> P)",
    "exists x:s. B(x) & (P | B(c))",
    "R(g(c, k), k) -> forall y:t. exists x:s. R(f(x), y)",
    "(0 | 1) & P -> B(f(f(d)))",
    "forall c:s. B(c) & B(c(d))",
    "exists x:s.\n  B(x) &\r\n  P",
    "(" * (MAX_NESTING + 1) + "P" + ")" * (MAX_NESTING + 1),
    # a parse error comes before the nesting error, and at the end of input
    # an error has no position
    " & ".join(["P"] * MAX_NESTING + ["Q"]),
    "forall x:",
)

# pieces a mutation inserts: tokens, near-tokens, and characters of every
# class the tokenizer treats apart (whitespace of several kinds, every line
# break, digits besides 0 and 1, non-ASCII letters)
PIECES = ("(", ")", "&", "|", "->", "-", ">", ".", ",", ":", "*", "=", "0", "1", "2",
          "forall", "exists", "x", "y", "x'", "_z", "s", "t", "c", "f", "g", "k", "B",
          "P", "R", "Q", " ", "\t", "\n", "\r\n", "\x0b", " ", "\xa0", "é", "#", "$",
          # the other line boundaries of str.splitlines, and a space that is none
          "\r", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2029", "\x1f")


@st.composite
def _mutated(draw):
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(("",) + PIECES)) + text[j:]
    return text


def _outcome(parse, text, env, offset):
    try:
        return parse(text, SIG, env, offset)
    except WorkbenchError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


@settings(max_examples=300, deadline=None)
@given(text=_mutated(), env=st.sampled_from((None, {"x": "s"}, {"y": "t", "c": "t"})),
       offset=st.integers(0, 3))
def test_parser_matches_reference(text, env, offset):
    assert _outcome(parse_formula, text, env, offset) == \
        _outcome(ref_parse_formula, text, env, offset)


def test_an_axiom_error_keeps_its_theory_line():
    text = "sort s\nrel P\n\n  axiom P &\tQ  # Q is not declared\n"
    with pytest.raises(UnknownSymbol) as err:
        parse_theory(text)
    assert (str(err.value), err.value.line, err.value.col) == ("unknown relation Q at 4:5", 4, 5)
