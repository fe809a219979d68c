import contextlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import catlogic

from catlogic.bundles import bundled_suites
from catlogic.cli import run_cli
from catlogic.errors import ScaleExceeded
from catlogic.heyting import (
    gen_chain,
    gen_diamond,
    gen_powerset,
    oracle_atom_map,
    oracle_interpret,
)
from catlogic.kernel import format_category, gen_finset, parse_category, validate_category
from catlogic.logic import (
    MAX_NESTING,
    MAX_TERMS,
    Zero,
    enumerate_closed_terms,
    parse_formula,
    parse_theory,
)
from catlogic.report import Report, strip_timing
from catlogic.semantics import check_conditions
from catlogic.structure import discover_structure

from conftest import PAIR_CONST_THEORY, subset_of, two_sort_theory


# -- generators -----------------------------------------------------------------

def test_gen_chain_2_is_h2():
    model = gen_chain(2)
    assert model.elements == ("c0", "c1")
    assert model.impl[model.top][model.bottom] == model.bottom


def test_gen_powerset_2_implication():
    model = gen_powerset(2)
    e1, e2 = model.index("e1"), model.index("e2")
    # oracle: implication in a powerset algebra is complement-union
    assert subset_of(model.elements[model.impl[e1][e2]]) == \
        (subset_of("e12") - subset_of("e1")) | subset_of("e2")
    assert model.elements[model.impl[e1][e2]] == "e2"


def test_gen_diamond_isomorphic_to_powerset_2():
    d = gen_diamond()
    b4 = gen_powerset(2)
    # match by order-profile: send bot->e, top->e12, left/right to the atoms
    mapping = {0: 0, 1: 1, 2: 2, 3: 3}
    for i in range(4):
        for j in range(4):
            assert d.leq[i][j] == b4.leq[mapping[i]][mapping[j]]
            assert mapping[d.meet[i][j]] == b4.meet[mapping[i]][mapping[j]]
            assert mapping[d.join[i][j]] == b4.join[mapping[i]][mapping[j]]


def test_generators_produce_valid_structured_categories():
    for model in (gen_chain(4), gen_powerset(2), gen_powerset(3), gen_diamond()):
        cat = model.category()
        assert validate_category(cat).ok
        st = discover_structure(cat)
        assert st.complete, model.name
        # the categorical structure must agree with the lattice tables
        for a in cat.objects:
            for b in cat.objects:
                ai, bi = a.index, b.index
                assert st.product(a, b).apex.index == model.meet[ai][bi]
                assert st.coproduct(a, b).apex.index == model.join[ai][bi]
                assert st.exponential(a, b).apex.index == model.impl[ai][bi]
        assert st.terminal_obj().index == model.top
        assert st.initial_obj().index == model.bottom


def test_scale_limits():
    with pytest.raises(ScaleExceeded):
        gen_powerset(5)
    with pytest.raises(ScaleExceeded):
        gen_chain(0)
    with pytest.raises(ScaleExceeded):
        gen_chain(33)
    gen_powerset(4)  # 16 objects is still desk scale


# -- the lattice oracle -----------------------------------------------------------

def test_oracle_zero_is_bottom(b4_prepared):
    suite, _, _, interp = b4_prepared
    elems = oracle_atom_map(suite.model, interp.theory.atom_interp)
    assert oracle_interpret(suite.model, interp.universe, elems, Zero()) == \
        suite.model.bottom


def test_oracle_worked_examples():
    model = gen_powerset(2)
    from catlogic.logic import parse_theory
    theory = parse_theory(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "interp B(c) = e2\ninterp B(d) = e12\ninterp P = e1\n")
    from catlogic.logic import enumerate_closed_terms
    u = enumerate_closed_terms(theory.signature, 1)
    elems = oracle_atom_map(model, theory.atom_interp)
    f = parse_formula("exists x:s. B(x)", theory.signature)
    assert model.elements[oracle_interpret(model, u, elems, f)] == "e12"
    g = parse_formula("P & (exists x:s. B(x))", theory.signature)
    assert model.elements[oracle_interpret(model, u, elems, g)] == "e1"


def test_oracle_agrees_with_engine_on_axioms(prepared_suites):
    for suite, _, _, interp in prepared_suites:
        elems = oracle_atom_map(suite.model, interp.theory.atom_interp)
        for ax in interp.theory.signature.axioms:
            want = oracle_interpret(suite.model, interp.universe, elems, ax)
            assert interp.interpret(ax).index == want


# -- reports ------------------------------------------------------------------------

def test_report_rendering_and_strip():
    r = Report()
    r.add("alpha", 1)
    r.add("beta.gamma", "x y")
    r.add_timing("total_ms", 12.34)
    r.add_rendered("delta.0001.arrow = f\ndelta.0001.verdict = PASS\n")
    text = r.render()
    assert "alpha = 1\n" in text
    assert "timing.total_ms = 12.3\n" in text
    assert strip_timing(text) == ("alpha = 1\nbeta.gamma = x y\n"
                                  "delta.0001.arrow = f\ndelta.0001.verdict = PASS\n")
    assert text.endswith("PASS\ntiming.total_ms = 12.3\n")


def test_report_rejects_multiline_values():
    r = Report()
    with pytest.raises(ValueError):
        r.add("key", "two\nlines")


@pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_report_rejects_every_line_boundary(brk):
    # each is a boundary str.splitlines splits at, so strip_timing would
    # split the value into a line that is not key = value
    assert len(f"a{brk}b".splitlines()) == 2
    with pytest.raises(ValueError):
        Report().add("key", f"a{brk}b")


def test_report_block_splits_at_every_line_boundary():
    r = Report()
    r.add_block("input.model", "a\rb\r\nc\x0bd\x0ce\u2028f\n\ng")
    r.add("tail", "x")
    assert r.render() == ("input.model.001 = a\n"
                          "input.model.002 = b\n"
                          "input.model.003 = c\n"
                          "input.model.004 = d\n"
                          "input.model.005 = e\n"
                          "input.model.006 = f\n"
                          "input.model.007 = \n"
                          "input.model.008 = g\n"
                          "tail = x\n")


# -- the CLI ----------------------------------------------------------------------------

@pytest.fixture()
def workdir(tmp_path):
    model = tmp_path / "b4.cat"
    assert run_cli(["gen", "--kind", "powerset", "--n", "2",
                    "--out", str(model)]) == 0
    theory = tmp_path / "theory.th"
    theory.write_text(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "axiom exists x:s. (P & B(x))\n"
        "interp B(c) = e1\ninterp B(d) = e2\ninterp P = e1\n")
    return tmp_path, model, theory


def test_cli_validate_ok(workdir, capsys):
    _, model, _ = workdir
    assert run_cli(["validate", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "validation = PASS" in out


def test_cli_validate_dangling_arrow_name_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("object a\narrow f : a -> ghost\nid a = auto\n")
    assert run_cli(["validate", "--model", str(bad)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_cli_validate_law_violation_exits_1(workdir, capsys):
    tmp_path, model, _ = workdir
    text = model.read_text() + "compose id_e12 . le_e_e12 = id_e12\n"
    broken = tmp_path / "broken.cat"
    broken.write_text(text)
    assert run_cli(["validate", "--model", str(broken)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_interpret(workdir, capsys):
    _, model, theory = workdir
    rc = run_cli(["interpret", "--model", str(model), "--theory", str(theory),
                  "--formula", "exists x:s. B(x)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "e12"


def test_cli_interpret_open_formula_exits_2(workdir, capsys):
    # the parser, given no variables, refuses a free one as an unknown symbol
    _, model, theory = workdir
    for formula, at in (("B(zzz)", "zzz at 1:3"), ("exists x:s. B(x) & B(y)", "y at 1:22")):
        rc = run_cli(["interpret", "--model", str(model), "--theory", str(theory),
                      "--formula", formula])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown term symbol {at}\n"


DEEP = {
    "parentheses": lambda k: "(" * k + "1" + ")" * k,
    "conjunction": lambda k: " & ".join(["1"] * (k + 1)),
    "implication": lambda k: "P -> " * k + "P",
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_cli_formula_nesting_limit(shape, workdir, capsys):
    tmp_path, model, theory = workdir
    deep = DEEP[shape]
    assert run_cli(["interpret", "--model", str(model), "--theory", str(theory),
                    "--formula", deep(3000)]) == 2
    assert f"more than {MAX_NESTING} levels" in capsys.readouterr().err
    assert run_cli(["interpret", "--model", str(model), "--theory", str(theory),
                    "--formula", deep(MAX_NESTING + 1)]) == 2
    text = theory.read_text()
    over = tmp_path / "over.th"
    over.write_text(text + f"axiom {deep(MAX_NESTING + 1)}\n")
    assert run_cli(["check", "--model", str(model), "--theory", str(over)]) == 2
    assert "at 11:" in capsys.readouterr().err
    at_limit = tmp_path / "at_limit.th"
    at_limit.write_text(text + f"axiom {deep(MAX_NESTING)}\n")
    assert run_cli(["check", "--model", str(model), "--theory", str(at_limit)]) in (0, 1)
    assert "condition.6" in capsys.readouterr().out


def test_cli_check_powerset2(workdir, capsys, tmp_path):
    _, model, theory = workdir
    rpt = tmp_path / "out.rpt"
    rc = run_cli(["check", "--model", str(model), "--theory", str(theory),
                  "--report", str(rpt)])
    assert rc == 0
    text = rpt.read_text()
    for n, name in [(1, "products"), (2, "coproducts"), (3, "exponentials"),
                    (4, "distributivity"), (5, "quantifier-objects"),
                    (6, "interpretation-clauses"), (7, "frobenius")]:
        assert f"condition.{n}.{name} = PASS" in text
    assert "conditions.overall = PASS" in text


def test_cli_check_report_deterministic(workdir, tmp_path, capsys):
    _, model, theory = workdir
    r1, r2 = tmp_path / "r1.rpt", tmp_path / "r2.rpt"
    assert run_cli(["check", "--model", str(model), "--theory", str(theory),
                    "--report", str(r1)]) == 0
    assert run_cli(["check", "--model", str(model), "--theory", str(theory),
                    "--report", str(r2)]) == 0
    assert strip_timing(r1.read_text()) == strip_timing(r2.read_text())
    assert strip_timing(r1.read_text())  # non-empty


def test_cli_check_mutated_model_never_exits_0(workdir, tmp_path, capsys):
    _, model, theory = workdir
    base = model.read_text()
    # corrupt one compose line in place
    lines = base.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("compose le_e1_e12 . le_e_e1"):
            lines[i] = "compose le_e1_e12 . le_e_e1 = le_e_e2"
            break
    mutated = tmp_path / "mutated.cat"
    mutated.write_text("\n".join(lines) + "\n")
    rc = run_cli(["check", "--model", str(mutated), "--theory", str(theory)])
    assert rc in (1, 2)


def test_cli_redundancy_chain3(tmp_path, capsys):
    model = tmp_path / "chain3.cat"
    assert run_cli(["gen", "--kind", "chain", "--n", "3",
                    "--out", str(model)]) == 0
    theory = tmp_path / "t.th"
    theory.write_text(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "axiom exists x:s. (P & B(x))\n"
        "interp B(c) = c1\ninterp B(d) = c1\ninterp P = c1\n")
    rpt = tmp_path / "red.rpt"
    rc = run_cli(["redundancy", "--model", str(model), "--theory", str(theory),
                  "--report", str(rpt)])
    assert rc == 0
    text = rpt.read_text()
    assert "delta.count = 27" in text  # 3^3 object triples, exhaustive
    assert text.count(".verdict = PASS") >= 27
    assert "redundancy.overall = PASS" in text


def test_cli_gen_rejects_scale(capsys):
    assert run_cli(["gen", "--kind", "powerset", "--n", "9"]) == 2
    assert "desk scale" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    assert run_cli(["check", "--model"]) == 2
    assert run_cli(["frobnicate"]) == 2


def test_cli_missing_file_exits_2(capsys):
    assert run_cli(["validate", "--model", "/nonexistent/x.cat"]) == 2


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("command, renamed", [
    ("validate", "model"), ("interpret", "model"), ("interpret", "theory"),
    ("check", "model"), ("check", "theory"), ("redundancy", "theory")])
def test_cli_file_name_with_a_line_break_exits_2(brk, command, renamed, workdir, capsys):
    # the stem is the model's or theory's id in the report and in messages
    _, model, theory = workdir
    paths = {"model": model, "theory": theory}
    src = paths[renamed]
    bad = paths[renamed] = src.with_name(f"a{brk}b{src.suffix}")
    bad.write_text(src.read_text())
    argv = [command, "--model", str(paths["model"])]
    if command != "validate":
        argv += ["--theory", str(paths["theory"])]
    if command == "interpret":
        argv += ["--formula", "P"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {str(bad)!r}: a file name must not hold a line break\n"


@pytest.mark.parametrize("command, renamed, byte", [
    ("validate", "model", b"\xff"), ("check", "theory", b"\xfe")], ids=["model", "theory"])
def test_cli_file_that_is_not_utf8_exits_2(command, renamed, byte, workdir, capsys):
    _, model, theory = workdir
    paths = {"model": model, "theory": theory}
    text = paths[renamed].read_bytes()
    paths[renamed].write_bytes(text[:5] + byte + text[5:])
    argv = [command, "--model", str(paths["model"])]
    if command != "validate":
        argv += ["--theory", str(paths["theory"])]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {str(paths[renamed])!r}: not UTF-8 at byte offset 5\n"


def test_bundled_suites_cover_the_matrix():
    ids = [s.suite_id for s in bundled_suites()]
    assert len(ids) == 6
    for model in ("chain-4", "powerset-2", "powerset-3"):
        assert f"{model}/pair-const" in ids
        assert f"{model}/unary-fun" in ids


def test_report_is_self_contained(workdir, tmp_path):
    # re-running from the inputs embedded in a report reproduces the report
    _, model, theory = workdir
    r1 = tmp_path / "first.rpt"
    assert run_cli(["check", "--model", str(model), "--theory", str(theory),
                    "--report", str(r1)]) == 0
    text = r1.read_text()
    model_lines, theory_lines = [], []
    for line in text.splitlines():
        if line.startswith("input.model."):
            model_lines.append(line.split(" = ", 1)[1])
        elif line.startswith("input.theory."):
            theory_lines.append(line.split(" = ", 1)[1])
    redo = tmp_path / "redo"
    redo.mkdir()
    m2 = redo / model.name
    t2 = redo / theory.name
    m2.write_text("\n".join(model_lines) + "\n")
    t2.write_text("\n".join(theory_lines) + "\n")
    r2 = tmp_path / "second.tmp"
    assert run_cli(["check", "--model", str(m2), "--theory", str(t2),
                    "--report", str(r2)]) == 0
    assert strip_timing(r2.read_text()) == strip_timing(text)


@pytest.mark.parametrize("option, value, message", [
    ("--depth", "-1", "argument --depth: must be at least 1, got -1"),
    ("--depth", "0", "argument --depth: must be at least 1, got 0"),
    ("--depth", "2000", f"argument --depth: must be at most {MAX_NESTING}, got 2000"),
    ("--reach", "-1", "argument --reach: must be at least 0, got -1"),
    ("--depth", "one", "argument --depth: invalid int value: 'one'"),
])
def test_cli_out_of_range_depth_and_reach_exit_2(option, value, message, workdir, capsys):
    # --depth 0 ran at the theory's depth, --depth -1 ended in a traceback
    # and --reach -1 was taken as given
    _, model, theory = workdir
    for command in ("check", "redundancy", "interpret"):
        extra = ["--formula", "P"] if command == "interpret" else []
        assert run_cli([command, "--model", str(model), "--theory", str(theory),
                        option, value, *extra]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out


def test_cli_lowest_depth_and_reach_are_accepted(workdir, capsys):
    _, model, theory = workdir
    assert run_cli(["check", "--model", str(model), "--theory", str(theory),
                    "--depth", "1", "--reach", "0"]) in (0, 1)
    out = capsys.readouterr().out
    assert "universe.depth = 1" in out and "reach.depth = 0" in out


def _python_m_catlogic(*argv, cwd, module="catlogic"):
    """``python -m module argv`` in a fresh interpreter with runtime warnings
    raised as errors, stopped after 20 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(catlogic.__file__).parents[1]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=20)


def test_python_m_catlogic_runs_the_cli(workdir):
    tmp, model, _ = workdir
    done = _python_m_catlogic("validate", "--model", str(model), cwd=tmp)
    assert (done.returncode, done.stderr) == (0, "")
    assert "validation = PASS" in done.stdout


def test_python_m_catlogic_cli_runs_the_cli(workdir):
    # cli.py had no __main__ block: the command exited 0 and did nothing.
    # Then runpy warned that the package had imported catlogic.cli before
    # running it, so cli.py ran as two modules; as an error, that warning
    # fails the command.
    tmp, model, _ = workdir
    done = _python_m_catlogic("validate", "--model", str(model), cwd=tmp,
                              module="catlogic.cli")
    assert (done.returncode, done.stderr) == (0, "")
    assert "validation = PASS" in done.stdout


def test_a_report_file_is_utf8_under_the_c_locale(tmp_path):
    # models are read as UTF-8, but --report wrote the locale's encoding:
    # under the C locale a model with object é ended in UnicodeEncodeError
    model = tmp_path / "m.cat"
    model.write_text("object é\narrow id_e : é -> é\nid é = id_e\n"
                     "compose id_e . id_e = id_e\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(catlogic.__file__).parents[1]),
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C", PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "catlogic", "validate", "--model", str(model),
                           "--report", "r.txt"], cwd=tmp_path, env=env, capture_output=True,
                          timeout=20)
    assert (done.returncode, done.stderr) == (0, b"")
    assert (tmp_path / "r.txt").read_bytes() == done.stdout
    assert "input.model.001 = object é\n".encode() in done.stdout


def test_a_report_stdout_cannot_encode_exits_2(tmp_path):
    # with no PYTHONIOENCODING, stdout under the C locale is ASCII: a report
    # naming object é ended in a UnicodeEncodeError traceback and exit 1
    model = tmp_path / "m.cat"
    model.write_text("object é\narrow id_e : é -> é\nid é = id_e\n"
                     "compose id_e . id_e = id_e\n", encoding="utf-8")
    theory = tmp_path / "t.th"
    theory.write_text("sort s\nrel P\ninterp P = é\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(Path(catlogic.__file__).parents[1]),
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C")
    files = ["--model", str(model), "--theory", str(theory)]
    for argv in (["validate", "--model", str(model)], ["check", *files], ["redundancy", *files],
                 ["interpret", *files, "--formula", "P"]):
        done = subprocess.run([sys.executable, "-m", "catlogic", *argv, "--report", "r.txt"],
                              cwd=tmp_path, env=env, capture_output=True, timeout=20)
        assert (done.returncode, done.stdout) == (2, b""), argv
        assert done.stderr.startswith(b"error: stdout: 'ascii' codec can't encode ")
        assert done.stderr.count(b"\n") == 1
        assert not (tmp_path / "r.txt").exists()


def _report_commands(tmp_path):
    """The four commands that take --report, on chain-3 with pair-const atoms."""
    model, theory = tmp_path / "m.cat", tmp_path / "t.th"
    model.write_text(format_category(gen_chain(3).category()))
    theory.write_text(PAIR_CONST_THEORY.format("c0", "c1", "c2"))
    files = ["--model", str(model), "--theory", str(theory)]
    return [["validate", "--model", str(model)], ["check", *files], ["redundancy", *files],
            ["interpret", *files, "--formula", "P"]]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_cli(argv)
    return rc, out.getvalue(), err.getvalue()


def test_an_unwritable_report_path_exits_2_before_any_output(tmp_path):
    # validate printed its whole report to stdout and then exited 2 on a
    # --report path it could not write
    commands = _report_commands(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    for dest in (tmp_path / "missing" / "r.txt", tmp_path / "m.cat" / "r.txt", tmp_path):
        for argv in commands:
            rc, out, err = _run([*argv, "--report", str(dest)])
            assert (rc, out) == (2, ""), (argv, dest)
            assert err.startswith("error: ") and err.count("\n") == 1 and str(dest) in err
    assert sorted(tmp_path.iterdir()) == inputs


def test_every_report_file_holds_its_stdout(tmp_path):
    # interpret exited 0 with its --report file unwritten
    for argv in _report_commands(tmp_path):
        dest = tmp_path / f"{argv[0]}.txt"
        dest.write_text("an older report\n")
        rc, out, err = _run([*argv, "--report", str(dest)])
        assert (rc, err) == (0, "") and out
        assert dest.read_bytes() == out.encode()
    assert not list(tmp_path.glob("*.tmp"))


def test_a_report_through_a_symlink_keeps_the_link_and_the_mode(tmp_path):
    # the report was renamed over the link, as a new file made under the umask
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("an older report\n")
    target.chmod(0o640)
    link.symlink_to(target)
    rc, out, err = _run([*_report_commands(tmp_path)[1], "--report", str(link)])
    assert (rc, err) == (0, "") and out
    assert link.is_symlink() and target.read_bytes() == out.encode()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_a_stale_temporary_file_does_not_block_the_report(tmp_path):
    # a killed run's `<dest>.<pid>.tmp` made every later run with that pid exit 2
    dest = tmp_path / "r.txt"
    stale = tmp_path / f"r.txt.{os.getpid()}.tmp"
    stale.write_text("left by a killed run\n")
    rc, out, err = _run([*_report_commands(tmp_path)[1], "--report", str(dest)])
    assert (rc, err) == (0, "") and dest.read_bytes() == out.encode()
    assert stale.read_text() == "left by a killed run\n"
    assert sorted(p.name for p in tmp_path.glob("*.tmp")) == [stale.name]


@pytest.mark.skipif(os.devnull != "/dev/null", reason="needs a /dev/null device")
def test_a_device_report_is_written_through(tmp_path):
    # the report was written beside /dev/null and renamed over the device node
    before = os.stat(os.devnull)
    for argv in _report_commands(tmp_path):
        rc, out, err = _run([*argv, "--report", os.devnull])
        assert (rc, err) == (0, "") and out, argv
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)
    assert not [n for n in os.listdir(os.path.dirname(os.devnull)) if n.startswith("null.")]


@pytest.mark.parametrize("kind", ["model", "theory"])
def test_a_byte_order_mark_is_not_part_of_the_first_line(kind, tmp_path, capsys):
    # the mark was read as a character: a model or theory file that an
    # editor saved with one failed with "line 1: unrecognized line"
    text = {"model": format_category(gen_chain(3).category()),
            "theory": PAIR_CONST_THEORY.format("c0", "c1", "c2")}
    argv = ["--model", str(tmp_path / "model.txt"), "--theory", str(tmp_path / "theory.txt")]
    reports = []
    for bom in (b"", b"\xef\xbb\xbf"):
        for name, data in text.items():
            (tmp_path / f"{name}.txt").write_bytes((bom if name == kind else b"") + data.encode())
        for command in ("check", "redundancy"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run_cli([command, *argv])
            reports.append((rc, strip_timing(out.getvalue())))
    assert reports[:2] == reports[2:]
    assert [rc for rc, _ in reports] == [0, 0, 0, 0]
    # the byte offset of a refusal still counts the mark's three bytes
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(b"\xef\xbb\xbf\xff" + text[kind].encode())
    assert run_cli(["check", *argv]) == 2
    assert capsys.readouterr().err == f"error: {str(path)!r}: not UTF-8 at byte offset 3\n"


# runs each argv of the JSON list in sys.argv[1] through the CLI and prints
# the exit codes and timing-stripped reports as JSON
_RUN_ALL = """\
import contextlib, io, json, sys
from catlogic.cli import run_cli
from catlogic.report import strip_timing
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.append((run_cli(argv), strip_timing(buf.getvalue())))
print(json.dumps(out))
"""


def test_reports_are_the_same_under_every_hash_seed(tmp_path):
    # str hashes are salted per process: an order read off a set or a dict
    # filled in hash order would change the report from one run to the next
    suite = next(s for s in bundled_suites() if s.suite_id == "chain-4/unary-fun")
    powerset_3 = gen_powerset(3).category()
    inputs = {"chain-4": (format_category(suite.model.category()), suite.theory_text),
              "finset-3": (format_category(gen_finset(3)),
                           PAIR_CONST_THEORY.format("s2", "s3", "s1")),
              "two-sort": (format_category(powerset_3), two_sort_theory(powerset_3.objects[1:]))}
    argvs = []
    for name, (model, theory) in inputs.items():
        (tmp_path / f"{name}.cat").write_text(model)
        (tmp_path / f"{name}.th").write_text(theory)
        argvs += [[command, "--model", f"{name}.cat", "--theory", f"{name}.th"]
                  for command in ("check", "redundancy")]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(catlogic.__file__).parents[1]),
                   PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=20, check=True)
        runs.append(json.loads(done.stdout))
    assert [rc for rc, _ in runs[0]] == [0, 0, 1, 1, 1, 1]
    assert runs[0] == runs[1]
    # sort t of the two-sort theory has no closed terms: its empty diagrams
    # are flagged by the constructor's two warnings, and nothing else warns
    for _, report in runs[0][4:]:
        assert [line for line in report.splitlines() if line.startswith("warning.")] == [
            "warning.001 = sort t has no closed terms up to depth 2; "
            "quantifier diagrams over it are empty",
            "warning.002 = term universe not saturated at depth 2: deeper terms exist "
            "and all quantifier claims are relative to the enumerated universe"]


@pytest.mark.parametrize("model, theory, message", [
    ("object a\nobject b\nid a = auto\n", None, "line 2: object b has no id line"),
    (None, "sort s\nrel P\ninterp P = nosuch\n", "line 3: unknown object nosuch"),
    (None, "sort s\nrel P\ninterp P = e1\naxiom P &\n", "line 4: unexpected end of input"),
    (None, "sort s\nrel P\ninterp P = e1\naxiom (P\n",
     "line 4: unexpected end of input, expected ')'"),
    (None, "sort s\nrel P\ninterp P = e1\n\naxiom\n", "line 5: unexpected end of input"),
    (None, "sort s\ndepth 1\nrel P\ndepth 2\ninterp P = e1\n",
     "line 4: depth already given on line 2"),
    (None, "sort s\nsort a\tb\nrel P\ninterp P = e1\n", "line 2: sort line needs exactly one name"),
], ids=["no-id-line", "unknown-object", "trailing-connective", "open-parenthesis", "empty-axiom",
        "depth-twice", "sort-with-tab"])
def test_cli_input_errors_name_their_line(model, theory, message, workdir, capsys):
    # these exited 2 with no line: the id check ran after the loop over the
    # lines, an unknown object was met only while interpreting, and a
    # formula that ends early has no token to place its error at; the last
    # two were accepted: a second depth line replaced the first, and a sort
    # was declared under a name that the formula tokenizer splits
    tmp, model_path, theory_path = workdir
    if model is not None:
        model_path.write_text(model)
    if theory is not None:
        theory_path.write_text(theory)
    assert run_cli(["check", "--model", str(model_path), "--theory", str(theory_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_WIDE = "sort s\nfun c : s\nfun g : s * s -> s\nrel P\ninterp P = e1\n"
# 4 ** (d - 1) closed terms of each depth d: 5,461 up to depth 7
_UNARY = "sort s\nfun c : s\n" + "".join(f"fun f{k} : s -> s\n" for k in range(4))


def test_an_oversized_term_universe_exits_2(workdir):
    # depth 6 built depth 7's terms only to see whether any exist, and ran
    # for minutes
    tmp, model, theory = workdir
    theory.write_text(_WIDE + "depth 6\n")
    done = _python_m_catlogic("check", "--model", str(model), "--theory", str(theory), cwd=tmp)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == (f"error: line 6: the closed terms up to depth 6 number 458330, "
                           f"more than the {MAX_TERMS} a term universe may hold\n")


def test_a_term_universe_over_the_cap_names_its_depth(workdir, capsys):
    _, model, theory = workdir
    theory.write_text(_UNARY + "rel P\ninterp P = e1\n")
    for command in ("check", "redundancy", "interpret"):
        extra = ["--formula", "P"] if command == "interpret" else []
        assert run_cli([command, "--model", str(model), "--theory", str(theory),
                        "--depth", "7", *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: --depth 7: the closed terms up to depth 7 number 5461, "
            f"more than the {MAX_TERMS} a term universe may hold\n")
    theory.write_text(_WIDE + f"depth {MAX_NESTING + 1}\n")
    assert run_cli(["check", "--model", str(model), "--theory", str(theory)]) == 2
    assert capsys.readouterr().err == f"error: line 6: depth must be <= {MAX_NESTING}\n"


def test_term_universe_counts_a_depth_before_building_it():
    # three constants and a binary function: 147 terms up to depth 3, and
    # depth 4 would bring the count to 21,612
    sig = parse_theory("sort s\nfun a : s\nfun b : s\nfun c : s\nfun g : s * s -> s\n").signature
    universe = enumerate_closed_terms(sig, 3)
    assert len(universe.terms("s")) == 147 and not universe.saturated
    sig = parse_theory(_UNARY).signature
    assert len(enumerate_closed_terms(sig, 6).terms("s")) == 1365
    with pytest.raises(ScaleExceeded, match="up to depth 7 number 5461, more than the 4096"):
        enumerate_closed_terms(sig, 7)
    unary = parse_theory("sort s\nfun c : s\nfun f : s -> s\n").signature
    assert len(enumerate_closed_terms(unary, MAX_NESTING).terms("s")) == MAX_NESTING
    with pytest.raises(ScaleExceeded, match=f"term depth 2000 exceeds {MAX_NESTING}"):
        enumerate_closed_terms(unary, 2000)
