"""The category file parser and ``FinCategory.build`` against the parser and
builder that the one declaration assembler replaced
(``category_parser_reference.py``): on mutated category files both give the
same category, or errors of equal type, message and line, and every
category a file gives survives ``format_category`` and a parse back."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from catlogic.errors import WorkbenchError
from catlogic.heyting import gen_chain, gen_diamond, gen_powerset
from catlogic.kernel import (
    MAX_ARROW_LINES,
    MAX_OBJECTS,
    FinCategory,
    format_category,
    gen_finset,
    parse_category,
)

from category_parser_reference import ref_build, ref_parse_category

# an identity declared mid-file and one reused by ``auto`` before its arrow
# line, and compose lines before the arrows they name
MIXED = """\
object a
object b
id a = auto
compose g . f = id_a
arrow f : a -> b
arrow id_a : a -> a
arrow g : b -> a
arrow e : b -> b
id b = e
compose f . g = e
"""

SEEDS = tuple(text.splitlines() for text in (
    format_category(gen_chain(4).category()),
    format_category(gen_powerset(2).category()),
    format_category(gen_diamond().category()),
    format_category(gen_finset(2)),
    MIXED,
))

NAMES = sorted({name for lines in SEEDS for line in lines if not line.startswith("#")
                for name in line.split()[1:] if re.fullmatch(r"\w+", name)}
               | {"zz", "id_zz", "auto", "id_", "a b", "->", ".", "=", ":", "#"})


# whitespace to ``str.split`` and the patterns' ``\s`` but no line break to
# ``str.splitlines``, and one character that is not whitespace
SPACES = (" ", "\t", "  ", "\xa0", "\u2003", "\u3000", "\x1f", "\u200b")


def _decl(name):
    return st.one_of(
        st.builds("object {}".format, name),
        st.builds("arrow {} : {} -> {}".format, name, name, name),
        st.builds("id {} = {}".format, name, name),
        st.builds("compose {} . {} = {}".format, name, name, name),
    )


def _past_limit(lines, kind, limit, make):
    """Lines of ``kind`` added at the end of the declarations of that kind,
    so that the file has ``limit`` + 1 of them."""
    at = [i for i, line in enumerate(lines) if line.lstrip().startswith(kind + " ")]
    extra = [make(k) for k in range(limit + 1 - len(at))]
    i = at[-1] + 1 if at else 0
    return lines[:i] + extra + lines[i:]


@st.composite
def _mutated(draw):
    lines = list(draw(st.sampled_from(SEEDS)))
    index = st.integers(0, len(lines) + 8)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "move", "insert",
                                   "rename", "comment", "cr", "space", "past")))
        n = len(lines)
        i, j = draw(index) % max(n, 1), draw(index) % max(n, 1)
        if op == "insert" or not lines:
            lines.insert(i, draw(_decl(st.sampled_from(NAMES))))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "move":  # to the front, after the object lines
            first = next((k for k, line in enumerate(lines)
                          if not line.startswith(("#", "object"))), 0)
            lines.insert(first, lines.pop(i))
        elif op == "rename":
            tokens = lines[i].split(" ")
            tokens[j % len(tokens)] = draw(st.sampled_from(NAMES))
            lines[i] = " ".join(tokens)
        elif op == "comment":
            lines[i] += draw(st.sampled_from(("#", " # note", "#object x")))
        elif op in ("cr", "space"):
            k = draw(st.integers(0, len(lines[i])))
            piece = draw(st.sampled_from(("\r",) if op == "cr" else SPACES))
            lines[i] = lines[i][:k] + piece + lines[i][k:]
        elif draw(st.booleans()):
            lines = _past_limit(lines, "object", MAX_OBJECTS, "object past{}".format)
        else:
            end = next((line.split()[1] for line in lines
                        if line.startswith("object ") and len(line.split()) == 2), "a")
            lines = _past_limit(lines, "arrow", MAX_ARROW_LINES,
                                f"arrow past{{}} : {end} -> {end}".format)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\r\n")))


def _contents(cat):
    return {"objects": [o.name for o in cat.objects],
            "arrows": [(a.index, a.name, a.dom, a.cod) for a in cat.arrows],
            "identity": [cat.identity_of(o).index for o in cat.objects],
            "table": cat.index().table}


def _outcome(parse, text):
    try:
        return _contents(parse(text, name="mutant"))
    except WorkbenchError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=500, deadline=None)
@given(_mutated())
def test_mutated_files_parse_as_the_reference_parses_them(text):
    got = _outcome(parse_category, text)
    assert got == _outcome(ref_parse_category, text)
    if isinstance(got, dict):
        again = parse_category(format_category(parse_category(text, name="mutant")), "mutant")
        assert _contents(again) == got


# one object with endomorphisms named by the compose lines below
ENDOS = "object o\nid o = auto\n" + "".join(
    f"arrow {name} : o -> o\n" for name in ("f", "g", "h", "a.", "b", "c", "="))


# lines on both sides of the six-word split that reads compose lines
@pytest.mark.parametrize("line, parses", [
    ("compose g .f = h", True),
    ("compose a. . b = c", True),
    ("compose a . = = c", False),  # unknown arrow a
    ("compose = . = = c", True),
    ("compose g\t.\xa0f = h # note", True),
    ("compose g . f = h#", True),
    ("compose g . f = #h", False),
    ("compose g . f = h extra", False),
    ("compose g . f == h", False),
])
def test_compose_lines_parse_as_the_reference_parses_them(line, parses):
    text = ENDOS + line + "\n"
    got = _outcome(parse_category, text)
    assert got == _outcome(ref_parse_category, text)
    assert isinstance(got, dict) == parses


GENERATED = {
    **{f"chain-{n}": lambda n=n: gen_chain(n).category() for n in (*range(1, 9), 32)},
    **{f"powerset-{k}": lambda k=k: gen_powerset(k).category() for k in range(5)},
    "diamond": lambda: gen_diamond().category(),
    **{f"finset-{k}": lambda k=k: gen_finset(k) for k in range(5)},
}


@pytest.mark.parametrize("name", GENERATED)
def test_generators_build_what_the_reference_builds(name, monkeypatch):
    built = GENERATED[name]()
    monkeypatch.setattr(FinCategory, "build",
                        classmethod(lambda cls, *args, **kwargs: ref_build(*args, **kwargs)))
    assert _contents(GENERATED[name]()) == _contents(built)
