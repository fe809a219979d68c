import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from catlogic import kernel
from catlogic.cli import run_cli
from catlogic.errors import (
    CategoryFileError,
    MalformedInput,
    NotComposable,
    ShapeMismatch,
)
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import (
    MAX_ARROW_LINES,
    MAX_OBJECTS,
    UNDEFINED,
    ArrId,
    FinCategory,
    ObjId,
    format_category,
    gen_finset,
    inverses,
    mutually_inverse,
    parse_category,
    validate_category,
)

from conftest import composable_pairs, make_h2, subset_of, with_composition


def test_h2_is_valid(h2):
    assert validate_category(h2).ok
    u = h2.arrow("u")
    assert h2.compose(u, h2.identity_of(h2.obj("bot"))) == u
    assert h2.compose(h2.identity_of(h2.obj("top")), u) == u


def test_h2_with_redirected_identity_composite_detected():
    cat = make_h2()
    bad = with_composition(cat, cat.arrow("id_top"), cat.arrow("u"),
                           cat.arrow("id_top"))
    report = validate_category(bad)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds & {"identity-law", "compose-endpoints"}
    assert any("u" in v.message for v in report.violations)


def test_b4_is_valid_against_order_oracle():
    model = gen_powerset(2)
    # oracle: the declared order must be reflexive and transitive, and the
    # category arrows must match it exactly
    n = len(model.elements)
    for i in range(n):
        assert model.leq[i][i]
        for j in range(n):
            for k in range(n):
                if model.leq[i][j] and model.leq[j][k]:
                    assert model.leq[i][k]
    cat = model.category()
    assert len(cat.objects) == 4 and len(cat.arrows) == 9
    assert validate_category(cat).ok
    for a in cat.objects:
        for b in cat.objects:
            expected = subset_of(a.name) <= subset_of(b.name)
            assert (len(cat.hom(a, b)) == 1) == expected


def test_compose_requires_matching_endpoints(h2):
    u = h2.arrow("u")
    with pytest.raises(NotComposable):
        h2.compose(u, u)


def test_b4_composition_follows_inclusion_chain():
    cat = gen_powerset(2).category()
    f = cat.hom(cat.obj("e"), cat.obj("e1"))[0]
    g = cat.hom(cat.obj("e1"), cat.obj("e12"))[0]
    expected = cat.hom(cat.obj("e"), cat.obj("e12"))[0]  # unique by thinness
    assert cat.compose(g, f) == expected


def test_hom_queries(h2):
    assert [a.name for a in h2.hom(h2.obj("bot"), h2.obj("top"))] == ["u"]
    assert h2.hom(h2.obj("top"), h2.obj("bot")) == ()


def test_hom_partitions_arrows():
    cat = gen_powerset(3).category()
    seen = []
    for a in cat.objects:
        for b in cat.objects:
            seen.extend(cat.hom(a, b))
    assert sorted(f.index for f in seen) == list(range(len(cat.arrows)))


def test_mutually_inverse(h2):
    id_top = h2.identity_of(h2.obj("top"))
    assert mutually_inverse(h2, id_top, id_top)
    u = h2.arrow("u")
    with pytest.raises(ShapeMismatch):
        mutually_inverse(h2, u, u)


def test_inverses():
    z2 = FinCategory.build(["o"], [("s", "o", "o")],
                           compositions=[("s", "s", "id_o")], name="Z2")
    s, ido = z2.arrow("s"), z2.arrow("id_o")
    assert inverses(z2, s) == [s] and inverses(z2, ido) == [ido]
    h2 = make_h2()
    assert inverses(h2, h2.arrow("u")) == []


def test_mutually_inverse_identity_pair_b4():
    cat = gen_powerset(2).category()
    i = cat.identity_of(cat.obj("e1"))
    assert mutually_inverse(cat, i, i)


def test_single_entry_corruptions_are_detected():
    cat = gen_powerset(2).category()
    assert validate_category(cat).ok
    rng = random.Random(20240817)
    pairs = [(g, f) for g, f in composable_pairs(cat)]
    for _ in range(100):
        g, f = rng.choice(pairs)
        current = cat.table_entry(g, f)
        wrong = rng.randrange(len(cat.arrows) + 1)
        if wrong == current:
            wrong = (wrong + 1) % (len(cat.arrows) + 1)
        h = None if wrong == len(cat.arrows) else cat.arrows[wrong]
        mutated = with_composition(cat, g, f, h)
        assert not validate_category(mutated).ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_single_flip_is_detected_hypothesis(data):
    cat = gen_powerset(2).category()
    pairs = list(composable_pairs(cat))
    g, f = data.draw(st.sampled_from(pairs))
    k = data.draw(st.integers(min_value=-1, max_value=len(cat.arrows) - 1))
    if k == cat.table_entry(g, f):
        k = -1 if k != -1 else cat.identity_of(cat.objects[0]).index
        if k == cat.table_entry(g, f):
            return
    mutated = with_composition(cat, g, f, None if k == -1 else cat.arrows[k])
    assert not validate_category(mutated).ok


def test_spurious_entry_on_non_composable_pair_detected(h2):
    u = h2.arrow("u")
    mutated = with_composition(h2, u, u, u)  # u . u is not composable
    report = validate_category(mutated)
    assert any(v.kind == "compose-spurious" for v in report.violations)


def test_missing_identity_raises():
    with pytest.raises(MalformedInput):
        FinCategory.build(["a"], [], identities={}, name="broken")


@pytest.mark.parametrize("args, message", [
    ((["a", "a"], []), "object a already declared"),
    ((["a"], [("f", "a", "b")]), "arrow f: unknown object b"),
    ((["a"], [], {}), "object a has no id line"),
    ((["a"], [], {"a": "f"}), "id a names unknown arrow f"),
    ((["a"], [], "auto", [("f", "id_a", "id_a")]), "compose line names unknown arrow f"),
    # a repeated composite is refused, as in a file, not overridden
    ((["m"], [("s", "m", "m")], "auto", [("s", "s", "id_m"), ("s", "s", "s")]),
     "composite s . s already given"),
    (([f"o{i}" for i in range(MAX_OBJECTS + 1)], []),
     f"object o{MAX_OBJECTS}: more than {MAX_OBJECTS} objects exceeds desk scale"),
    ((["a"], [(f"f{i}", "a", "a") for i in range(MAX_ARROW_LINES + 1)]),
     f"arrow f{MAX_ARROW_LINES}: more than {MAX_ARROW_LINES} arrow lines exceeds desk scale"),
])
def test_build_raises_the_file_error_with_no_line(args, message):
    with pytest.raises(CategoryFileError) as exc:
        FinCategory.build(*args)
    assert str(exc.value) == message and exc.value.line is None


def test_build_auto_identity_reuses_a_declared_id_arrow():
    cat = FinCategory.build(["a", "b"], [("id_a", "a", "a"), ("f", "a", "b")])
    assert [f.name for f in cat.arrows] == ["id_a", "f", "id_b"]
    assert cat.identity_of(cat.obj("a")) == cat.arrow("id_a")
    assert validate_category(cat).ok


def test_dangling_endpoint_raises():
    with pytest.raises(MalformedInput):
        FinCategory.build(["a"], [("f", "a", "nowhere")])


# the constructor's arguments for a -> b with its two identities, each
# refused with one part changed; ``build`` refuses such names before it
# reaches the constructor, so these call it directly
_A, _B = ObjId(0, "a"), ObjId(1, "b")
_ID_A, _ID_B, _F = ArrId(0, "id_a", 0, 0), ArrId(1, "id_b", 1, 1), ArrId(2, "f", 0, 1)
_U = UNDEFINED
_SHAPE = {"objects": [_A, _B], "arrows": [_ID_A, _ID_B, _F], "identity": [0, 1],
          "table": [[0, _U, _U], [_U, 1, 2], [2, _U, _U]]}


@pytest.mark.parametrize("changed, message", [
    ({"objects": [ObjId(1, "a"), _B]}, "object a has index 1, expected 0"),
    ({"arrows": [_ID_A, _ID_B, ArrId(5, "f", 0, 1)]}, "arrow f has index 5, expected 2"),
    ({"objects": [_A, ObjId(1, "a")]}, "duplicate object names"),
    ({"arrows": [_ID_A, _ID_B, ArrId(2, "id_b", 0, 1)]}, "duplicate arrow names"),
    ({"arrows": [_ID_A, _ID_B, ArrId(2, "f", 0, 2)]}, "arrow f has dangling endpoint"),
    ({"identity": [0]}, "identity map does not cover every object"),
    ({"identity": [0, 3]}, "identity map has dangling arrow index"),
    ({"table": [[0, _U, _U], [_U, 1, 2]]}, "composition table is not |Arr| x |Arr|"),
    ({"table": [[0, _U, _U], [_U, 1, 2], [2, _U]]}, "composition table is not |Arr| x |Arr|"),
    ({"table": [[0, _U, _U], [_U, 1, 3], [2, _U, _U]]},
     "composition table has dangling arrow index"),
    ({"table": [[0, _U, _U], [_U, 1, 2], [2, -2, _U]]},
     "composition table has dangling arrow index"),
], ids=["object-index", "arrow-index", "duplicate-objects", "duplicate-arrows",
        "dangling-endpoint", "identity-short", "identity-dangling", "table-rows",
        "table-row-short", "table-dangling", "table-below-undefined"])
def test_the_constructor_refuses_a_malformed_shape(changed, message):
    assert FinCategory("ok", **_SHAPE).hom(_A, _B) == (_F,)
    with pytest.raises(MalformedInput) as exc:
        FinCategory("bad", **{**_SHAPE, **changed})
    assert str(exc.value) == message


# -- file format ---------------------------------------------------------------

H2_FILE = """\
# two-element chain
object bot
object top
arrow u : bot -> top
id bot = auto
id top = auto
"""


def test_parse_category_roundtrip():
    cat = parse_category(H2_FILE, name="H2")
    assert validate_category(cat).ok
    again = parse_category(format_category(cat), name="H2")
    assert [o.name for o in again.objects] == [o.name for o in cat.objects]
    assert [(a.name, a.dom, a.cod) for a in again.arrows] == \
        [(a.name, a.dom, a.cod) for a in cat.arrows]
    for g in cat.arrows:
        for f in cat.arrows:
            assert again.table_entry(g, f) == cat.table_entry(g, f)


def test_generated_models_roundtrip():
    for k in (2, 3):
        cat = gen_powerset(k).category()
        again = parse_category(format_category(cat), name=cat.name)
        assert validate_category(again).ok
        assert len(again.arrows) == len(cat.arrows)
        for g in cat.arrows:
            for f in cat.arrows:
                assert again.table_entry(g, f) == cat.table_entry(g, f)


@pytest.mark.parametrize("text", [
    # auto identities in id-line order, not object order
    "object a\nobject b\narrow f : a -> b\nid b = auto\nid a = auto\n",
    # an identity declared before other arrows keeps its place
    "object a\nobject b\narrow id_a : a -> a\narrow f : a -> b\nid a = auto\nid b = auto\n",
])
def test_format_keeps_the_arrow_order(text):
    cat = parse_category(text)
    again = parse_category(format_category(cat))
    assert [(f.name, f.dom, f.cod) for f in again.arrows] == \
        [(f.name, f.dom, f.cod) for f in cat.arrows]
    assert again.index() == cat.index()
    assert validate_category(again).ok


def test_format_keeps_a_broken_table_broken():
    text = ("object a\nobject b\narrow f : a -> b\nid b = auto\nid a = auto\n"
            "compose id_b . f = id_a\n")
    cat = parse_category(text)
    assert not validate_category(cat).ok
    again = parse_category(format_category(cat))
    assert again.index() == cat.index()
    assert [str(v) for v in validate_category(again).violations] == \
        [str(v) for v in validate_category(cat).violations]


@pytest.mark.parametrize("g, f", [("id_c1", "le_c0_c1"), ("le_c0_c1", "id_c0")])
def test_format_refuses_a_table_it_cannot_write(g, f):
    # no line clears an identity composite, so a file would come back repaired
    cat = gen_chain(2).category()
    broken = with_composition(cat, cat.arrow(g), cat.arrow(f), None)
    assert not validate_category(broken).ok
    with pytest.raises(ShapeMismatch, match=rf"{g} \. {f} is undefined, and the file "
                                            r"format fills in every identity composite"):
        format_category(broken)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CategoryFileError) as exc:
        parse_category("object a\narrow f : a -> b\nid a = auto\n")
    assert "line 2" in str(exc.value)

    with pytest.raises(CategoryFileError) as exc:
        parse_category("object a\nid a = auto\ncompose f . g = h\n")
    assert "line 3" in str(exc.value)

    with pytest.raises(CategoryFileError):
        parse_category("object a\n")  # no id line


class _CountingPattern:
    def __init__(self, kind, rx, calls):
        self.kind, self.rx, self.calls = kind, rx, calls

    def match(self, line):
        self.calls[self.kind] += 1
        return self.rx.match(line)


def test_compose_lines_are_read_without_their_pattern(monkeypatch):
    text = format_category(gen_finset(3))
    calls = Counter()
    monkeypatch.setattr(kernel, "_LINE_RES", {kind: _CountingPattern(kind, rx, calls)
                                              for kind, rx in kernel._LINE_RES.items()})
    cat = parse_category(text)
    kinds = Counter(line.split()[0] for line in text.splitlines()
                    if not line.startswith("#"))
    assert kinds["compose"] > 1000 and len(cat.arrows) == 60
    assert calls == {"object": kinds["object"], "arrow": kinds["arrow"], "id": kinds["id"]}


@pytest.mark.parametrize("line", [
    "object",                     # no name
    "objectX a",                  # keyword run into the name
    "compose u . id_bot u",       # no '='
    "arrow v : bot top",          # no '->'
    "arrow",
    "morphism v : bot -> top",
])
def test_malformed_line_is_unrecognized(line):
    with pytest.raises(CategoryFileError) as exc:
        parse_category(H2_FILE + line + "\n")
    assert str(exc.value) == f"line 7: unrecognized line: {line}"


@pytest.mark.parametrize("extra, first, second", [
    ("id top = auto\n", 6, 7),
    ("compose id_top . u = u\ncompose id_top . u = id_top\n", 7, 8),
])
def test_duplicate_lines_name_both_line_numbers(extra, first, second, tmp_path, capsys):
    with pytest.raises(CategoryFileError) as exc:
        parse_category(H2_FILE + extra)
    assert f"line {second}:" in str(exc.value) and f"line {first}" in str(exc.value)
    model = tmp_path / "dup.cat"
    model.write_text(H2_FILE + extra)
    assert run_cli(["validate", "--model", str(model)]) == 2
    assert f"line {first}" in capsys.readouterr().err


def test_explicit_compose_line_overrides_autofill():
    text = H2_FILE + "compose id_top . u = id_top\n"
    cat = parse_category(text)
    report = validate_category(cat)
    assert not report.ok


def test_undefined_composite_reported_as_missing():
    # a three-arrow chain whose non-identity composite is left out
    text = """\
object a
object b
object c
arrow f : a -> b
arrow g : b -> c
id a = auto
id b = auto
id c = auto
"""
    cat = parse_category(text)
    report = validate_category(cat)
    assert any(v.kind == "compose-missing" for v in report.violations)
    fixed = parse_category(text + "arrow h : a -> c\ncompose g . f = h\n")
    assert validate_category(fixed).ok


def _discrete_file(n: int) -> str:
    return "".join(f"object o{i}\nid o{i} = auto\n" for i in range(n))


def test_object_lines_past_desk_scale_exit_2(tmp_path, capsys):
    text = _discrete_file(MAX_OBJECTS + 1)
    with pytest.raises(CategoryFileError) as exc:
        parse_category(text)
    line = 2 * MAX_OBJECTS + 1  # the 33rd object line
    assert f"line {line}:" in str(exc.value) and exc.value.line == line
    model = tmp_path / "big.cat"
    model.write_text(text)
    assert run_cli(["validate", "--model", str(model)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_desk_scale_files_still_run(tmp_path, capsys):
    model = tmp_path / "chain-32.cat"
    assert run_cli(["gen", "--kind", "chain", "--n", str(MAX_OBJECTS),
                    "--out", str(model)]) == 0
    assert run_cli(["validate", "--model", str(model)]) == 0
    model.write_text(_discrete_file(MAX_OBJECTS))
    assert run_cli(["validate", "--model", str(model)]) == 0
    assert "model.objects = 32" in capsys.readouterr().out


def test_arrow_lines_past_desk_scale_exit_2(tmp_path, capsys):
    arrows = "".join(f"arrow f{i} : a -> b\n" for i in range(MAX_ARROW_LINES + 1))
    text = "object a\nobject b\n" + arrows + "id a = auto\nid b = auto\n"
    line = 2 + MAX_ARROW_LINES + 1
    with pytest.raises(CategoryFileError) as exc:
        parse_category(text)
    assert f"line {line}:" in str(exc.value)
    parse_category(text.replace(f"arrow f{MAX_ARROW_LINES} : a -> b\n", ""))
    model = tmp_path / "wide.cat"
    model.write_text(text)
    assert run_cli(["validate", "--model", str(model)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("k, n_arrows", [(3, 60), (4, 499)])
def test_gen_finset_writes_a_valid_skeleton(k, n_arrows, tmp_path):
    model = tmp_path / f"finset-{k}.cat"
    assert run_cli(["gen", "--kind", "finset", "--n", str(k), "--out", str(model)]) == 0
    cat = parse_category(model.read_text())
    assert len(cat.objects) == k + 1 and len(cat.arrows) == n_arrows
    for a in cat.objects:
        for b in cat.objects:
            m, n = int(a.name[1:]), int(b.name[1:])
            assert len(cat.hom(a, b)) == n ** m
    assert validate_category(cat).ok


def test_gen_finset_past_object_limit_exits_2_at_once(capsys):
    # the object limit is checked before the arrow-line count, whose sum
    # over all sizes would take minutes here
    start = time.monotonic()
    assert run_cli(["gen", "--kind", "finset", "--n", "100000"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: finset-100000: 100001 objects exceeds desk scale {MAX_OBJECTS}\n"


def test_gen_finset_past_arrow_limit_exits_2(capsys):
    assert run_cli(["gen", "--kind", "finset", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_ARROW_LINES" in captured.err and str(MAX_ARROW_LINES) in captured.err


# sha256 of ``catlogic gen`` output: the thin-check inputs (powerset-4 and
# chain-32), the diamond and the finset ladder models.  A change to
# ``FinCategory.build`` or ``format_category`` that moves a byte of them
# changes the benchmark's inputs and the ladder.
GEN_DIGESTS = {
    ("powerset", 4): "a77b4f19f584bbc5a04f1d4e26e546b4bca2dfb69e5a6bdb67f3f7c232e1b966",
    ("chain", 32): "3d9994b486a192d78783a2ca4c90624fb922d4bf30c74c9c4293cb93e57b9133",
    ("diamond", 2): "077a84030a162b25c077e74a273a126769b70ca88df2e43d8204fa4aa33e1e4f",
    ("finset", 3): "ea8074b321dd0feacf52d86f074d6a9fe34f1d795ce98686921aac25bb2377b7",
    ("finset", 4): "108d8443e24e5c4ea658a620c2f563f21e5643c12e8db1ae300b0d0b67514114",
}


@pytest.mark.parametrize("kind, n", GEN_DIGESTS)
def test_gen_output_is_pinned(kind, n, capsys):
    assert run_cli(["gen", "--kind", kind, "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[kind, n]
