"""Golden digests of timing-stripped ``check`` and ``redundancy`` reports.

A change that alters any report line on these inputs fails here.  A change
that alters reports on purpose updates the digests and says so in
CHANGES.md.  ``VERDICTS`` holds digests of the same reports with the text
that explains a failure removed (see ``strip_fail_text``): they move only
when a verdict, witness or certificate moves, not when a FAIL is worded
differently.  To print the current digests:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from catlogic.bundles import bundled_suites
from catlogic.cli import run_cli
from catlogic.heyting import gen_chain, gen_powerset
from catlogic.kernel import format_category
from catlogic.report import strip_timing

from conftest import PAIR_CONST_THEORY, make_finset, two_sort_theory, with_arrow_order


# a catbench.gen.theory_text output (seed 1) for finset-0123's objects, copied
# so that tier-1 does not import catbench: function terms, six-leg
# quantifier diagrams and a binary relation on a non-thin model
THREE_CONST_THEORY = """\
# benchmark theory: three constants, f at depth 2, B, P and R
sort s
fun c : s
fun d : s
fun e : s
fun f : s -> s
rel B : s
rel P
rel R : s * s
depth 2
axiom exists x:s. (P & B(x))
axiom forall x:s. (R(x, d) -> B(f(d)))
axiom exists y:s. (R(c, y) & (P | B(e)))
interp B(c) = x0n0
interp B(d) = x1n1
interp B(e) = x2n2
interp B(f(c)) = x3n3
interp B(f(d)) = x0n0
interp B(f(e)) = x1n1
interp P = x2n2
interp R(c, c) = x3n3
interp R(c, d) = x0n0
interp R(c, e) = x1n1
interp R(c, f(c)) = x2n2
interp R(c, f(d)) = x3n3
interp R(c, f(e)) = x0n0
interp R(d, c) = x1n1
interp R(d, d) = x2n2
interp R(d, e) = x3n3
interp R(d, f(c)) = x0n0
interp R(d, f(d)) = x1n1
interp R(d, f(e)) = x2n2
interp R(e, c) = x3n3
interp R(e, d) = x0n0
interp R(e, e) = x1n1
interp R(e, f(c)) = x2n2
interp R(e, f(d)) = x3n3
interp R(e, f(e)) = x0n0
interp R(f(c), c) = x1n1
interp R(f(c), d) = x2n2
interp R(f(c), e) = x3n3
interp R(f(c), f(c)) = x0n0
interp R(f(c), f(d)) = x1n1
interp R(f(c), f(e)) = x2n2
interp R(f(d), c) = x3n3
interp R(f(d), d) = x0n0
interp R(f(d), e) = x1n1
interp R(f(d), f(c)) = x2n2
interp R(f(d), f(d)) = x3n3
interp R(f(d), f(e)) = x0n0
interp R(f(e), c) = x1n1
interp R(f(e), d) = x2n2
interp R(f(e), e) = x3n3
interp R(f(e), f(c)) = x0n0
interp R(f(e), f(d)) = x1n1
interp R(f(e), f(e)) = x2n2
"""


def finset_identities_last(sizes, name):
    """``make_finset(sizes, name)`` with its identities after its other
    arrows, in object order: the model files of the finset cases, written
    so when ``format_category`` moved every identity to the end."""
    cat = make_finset(sizes, name)
    ids = [cat.identity_of(o).index for o in cat.objects]
    return with_arrow_order(cat, [f for f in range(len(cat.arrows)) if f not in ids] + ids)


def _cases():
    cases = {s.suite_id: (lambda s=s: (s.model.category(), s.theory_text))
             for s in bundled_suites()}
    cases["powerset-4"] = lambda: (gen_powerset(4).category(),
                                   PAIR_CONST_THEORY.format("e1", "e2", "e3"))
    cases["finset-0123"] = lambda: (finset_identities_last([0, 1, 2, 3], "finset-0123"),
                                    PAIR_CONST_THEORY.format("x2n2", "x3n3", "x1n1"))
    cases["finset-0123/three-const"] = lambda: (
        finset_identities_last([0, 1, 2, 3], "finset-0123"), THREE_CONST_THEORY)
    cases["finset-012333"] = lambda: (
        finset_identities_last([0, 1, 2, 3, 3, 3], "finset-012333"),
        PAIR_CONST_THEORY.format("x2n2", "x3n3", "x1n1"))
    # the ladder's largest model, and a theory with a sort without closed
    # terms (empty diagrams) and a universe cut short
    cases["chain-32"] = lambda: (gen_chain(32).category(),
                                 PAIR_CONST_THEORY.format("c1", "c2", "c3"))

    def two_sort():
        cat = gen_powerset(3).category()
        return cat, two_sort_theory(cat.objects[1:])
    cases["powerset-3/two-sort"] = two_sort
    return cases


CASES = _cases()

GOLDEN = {
    "chain-4/pair-const:check":
        "0e3de41d836575d7921ba3064f2ea47bd2e9a74a1c51df9b44d217b6b315873e",
    "chain-4/pair-const:redundancy":
        "bc53142b33a5187c4cc1540ace25aef4a9f7dc4354608d2858f7de3d12f5c91d",
    "chain-4/unary-fun:check":
        "4e14e9b04f7c03c220daf16b46504ccaf7592cc01184a6e11a1473f8dfb6f433",
    "chain-4/unary-fun:redundancy":
        "9d63412cf4e0c18368c6daa0d3b3f2cda71772a393d9bd49da45a275dc28e16d",
    "powerset-2/pair-const:check":
        "c99825947b400470fa8005535ed5d745aa550e9aa3f90c534965500c2bf7a691",
    "powerset-2/pair-const:redundancy":
        "442cd8e61f2ce6aa1f668ffc1c6928b61e042b15f6dda10d4721b1251cdc1ba0",
    "powerset-2/unary-fun:check":
        "3819e5bd49d9847fb341735557b33af90ca7110438429b244206aaefefca5d97",
    "powerset-2/unary-fun:redundancy":
        "096f4d3227d93cbbb45138a859248f0ed7cb506977832b46fc5c7366a0cee317",
    "powerset-3/pair-const:check":
        "94ab229bf4b55f8ae6d2d637f409e7a1a5ca6b3ed5caab454cb4b2f2b8629c5f",
    "powerset-3/pair-const:redundancy":
        "2da48872c33a0b93e67fadda512808b7872dda274d68e1107a65c9e7773cbcd1",
    "powerset-3/unary-fun:check":
        "04c9c8d5da6c928cfbde18f467a532fc61b4849da79402d9e36be9c6287f9780",
    "powerset-3/unary-fun:redundancy":
        "383782865ef99b24fc6aa0fa09833fa74e82266858306ae3e3ef40ab6790c211",
    "powerset-4:check":
        "9c20e5b007bafd86cb3fe2abcfb2a6dd3f7658d0aa2eb2e2e94e4b76bb185dc9",
    "powerset-4:redundancy":
        "c2e8db99e341f6dddbe09f39f830fe374d00afa5f862fcd466c4a9ddcf2ca6c1",
    "finset-0123:check":
        "f3a9042593aa2c56787ea9d642b52e279a8ceb76f3d6d1e6128c40b30daef1bb",
    "finset-0123:redundancy":
        "aed90cfc273697a615f4940a483bc111b90007ff18c0ef8be609108cffb38fde",
    "finset-0123/three-const:check":
        "5584d39ccb07ae36aa2e7e40b1c53fc67a656a67442667b789ded909cf91ea4e",
    "finset-0123/three-const:redundancy":
        "03057f0ff467604357437a252354ebf2343e738d1fd0ea9a7882f42ebedd20bc",
    "finset-012333:check":
        "66dbacc09c7558d0456a6cb330862f387655c84e2b113be891cd31d48e42ea0c",
    "finset-012333:redundancy":
        "994fafdfd92c0f4b4f5d332efdbdb69e325bba2fe727794d1922e95840a31f62",
    "chain-32:check":
        "87255b0396969bae84ae89a649fdbdeef595025832a199d9e795b1dd09e3fdf7",
    "chain-32:redundancy":
        "e6a6f5b1e1caef64582be2a000ca40eff4510793b1fa7723d35c6834a9008017",
    "powerset-3/two-sort:check":
        "c7d2373863982fafd1962d0807d374899fe69028f7bdeccb4946adaeb3957346",
    "powerset-3/two-sort:redundancy":
        "4d0b2ec5e475edc1c710b96ec2249fc96105593d8531c6fa2ba254af666cf1ba",
}


# recorded before FAIL explanations became hom-count refutations (the
# finset-012333 ones before quantifier failures did); they cover the cases
# whose reports have FAIL lines
VERDICTS = {
    "finset-0123:check":
        "8060ac3e2e45ce7420a0fad5794806c8b6e284300f6b15227ba0a9dcecbc85e4",
    "finset-0123:redundancy":
        "b188f83211ae25140750a1d61b2b49d2bf40427aaf912b9b4a49b3bc0411679b",
    "finset-012333:check":
        "de0d12a97c9f71352d4758c83d13fab69c599f86270220b652bdb66c6df294ef",
    "finset-012333:redundancy":
        "944053a9cb7b15234dc223c8af6aef1f70a4d6566fb3dc0ee028b524151f202e",
    "powerset-3/two-sort:check":
        "b34d9e1beb682ba89a71c7a7d9fbeab5d701b6ac9ce3006de1cdeca79a29e556",
    "powerset-3/two-sort:redundancy":
        "62d7b2e5cc1f9c1815885ab6eb31ea3c95000f1f935530f25b89ae1272c92898",
}


def strip_fail_text(text: str) -> str:
    """``text`` without its timing lines, the values of its ``*.detail.*``
    lines and the explanation after ``FAIL: `` or ``(failed: ``."""
    out = []
    for line in strip_timing(text).splitlines():
        key, sep, value = line.partition(" = ")
        if ".detail." in key:
            value = ""
        for mark in ("FAIL: ", "(failed: "):
            if value.startswith(mark):
                value = mark
        out.append(key + sep + value + "\n")
    return "".join(out)


def report_text(name: str, command: str, workdir: Path) -> str:
    cat, theory_text = CASES[name]()
    model, theory = workdir / "model.cat", workdir / "model.th"
    model.write_text(format_category(cat))
    theory.write_text(theory_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run_cli([command, "--model", str(model), "--theory", str(theory)])
    return out.getvalue()


def report_digest(name: str, command: str, workdir: Path,
                  strip=strip_timing) -> str:
    return hashlib.sha256(strip(report_text(name, command, workdir)).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_digest(key, tmp_path):
    name, command = key.rsplit(":", 1)
    assert report_digest(name, command, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(VERDICTS))
def test_verdicts_match_golden_digest(key, tmp_path):
    name, command = key.rsplit(":", 1)
    assert report_digest(name, command, tmp_path, strip_fail_text) == VERDICTS[key]


def test_strip_fail_text_keeps_verdicts():
    text = ("condition.1.products = FAIL\n"
            "condition.1.detail.001 = no product for (a, b); why\n"
            "delta.0001.verdict = FAIL: no coproduct for (a, b); why\n"
            "delta.0002.verdict = PASS\n"
            "interpret.001.object = (failed: no product for (a, b); why)\n"
            "interpret.002.object = x1\n"
            "timing.total_ms = 1.0\n")
    assert strip_fail_text(text) == ("condition.1.products = FAIL\n"
                                     "condition.1.detail.001 = \n"
                                     "delta.0001.verdict = FAIL: \n"
                                     "delta.0002.verdict = PASS\n"
                                     "interpret.001.object = (failed: \n"
                                     "interpret.002.object = x1\n")


def test_golden_covers_every_case():
    assert set(GOLDEN) == {f"{name}:{command}" for name in CASES
                           for command in ("check", "redundancy")}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for command in ("check", "redundancy"):
                key = f"{name}:{command}"
                print(f'    "{key}":\n        "{report_digest(name, command, Path(tmp))}",')
        for key in VERDICTS:
            name, command = key.rsplit(":", 1)
            digest = report_digest(name, command, Path(tmp), strip_fail_text)
            print(f'    "{key}":\n        "{digest}",')
