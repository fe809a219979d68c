"""The formula parser against the per-character tokenizer and parser it
replaced (``parser_reference.py``): on mutated formula strings both give
equal trees, or errors of equal type, message, line and column."""

from hypothesis import given, settings, strategies as st

from catlogic.errors import WorkbenchError
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
)

# pieces a mutation inserts: tokens, near-tokens, and characters of every
# class the tokenizer treats apart (whitespace of several kinds, line breaks,
# digits besides 0 and 1, non-ASCII letters)
PIECES = ("(", ")", "&", "|", "->", "-", ">", ".", ",", ":", "*", "=", "0", "1", "2",
          "forall", "exists", "x", "y", "x'", "_z", "s", "t", "c", "f", "g", "k", "B",
          "P", "R", "Q", " ", "\t", "\n", "\r\n", "\x0b", " ", "\xa0", "é", "#", "$")


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
