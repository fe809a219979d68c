"""Tests of the benchmark itself: generators, reference and tracing.

    PYTHONPATH=src python -m pytest -q catbench
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import catlogic  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from catlogic.heyting import oracle_atom_map, oracle_interpret  # noqa: E402
from tracing import Tracer  # noqa: E402


def arrow_count(text: str) -> int:
    return len(catlogic.parse_category(text).arrows)


# -- generators ---------------------------------------------------------------------

def test_finset_arrow_counts():
    assert arrow_count(gen.finset_category_text("finset-3", [0, 1, 2, 3])) == 60
    _, arrows = reference.read_category(gen.finset_category_text("finset-4", [0, 1, 2, 3, 4]))
    assert len(arrows) == 499
    assert arrow_count(gen.finset_category_text("ns", [0, 1, 2, 3, 3, 3],
                                                random.Random(7))) == 320


def test_downset_arrow_counts():
    antichain = gen.downsets([1, 2, 4, 8])
    assert len(antichain) == 16
    assert arrow_count(gen.thin_category_text("a4", antichain)) == 81
    chain = gen.downsets([(1 << (i + 1)) - 1 for i in range(31)])
    assert len(chain) == 32
    assert arrow_count(gen.thin_category_text("c32", chain)) == 528


def test_generated_models_are_valid_categories():
    for text in (gen.thin_category_text("l", gen.downset_lattice(random.Random(3), 20, 6)[1]),
                 gen.finset_category_text("f", [0, 1, 2, 3, 3], random.Random(3))):
        assert catlogic.validate_category(catlogic.parse_category(text)).ok


def test_inputs_follow_the_seed(tmp_path):
    texts = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / label
        work.mkdir()
        models = run.build_inputs(catlogic, "oracle-queries", seed, work)
        texts[label] = [(m.model_text, m.theory_text, m.formulas) for m in models]
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


# -- the reference ----------------------------------------------------------------------

def test_downset_evaluator_agrees_with_oracle_interpret():
    for suite in catlogic.bundled_suites():
        lattice = reference.DownsetLattice(catlogic.format_category(suite.model.category()))
        facts = reference.TheoryFacts(suite.theory_text)
        theory = suite.theory()
        universe = catlogic.enumerate_closed_terms(theory.signature, theory.depth)
        assert sorted(map(str, universe.terms("s"))) == sorted(facts.universe)
        elems = oracle_atom_map(suite.model, theory.atom_interp)
        formulas = catlogic.enumerate_formulas(theory.signature, universe)
        assert len(formulas) > 300
        for f in formulas:
            want = suite.model.elements[oracle_interpret(suite.model, universe, elems, f)]
            assert lattice.answer(catlogic.format_formula(f), facts) == want, str(f)


def test_random_formulas_parse_alike():
    rng = random.Random(11)
    theory = catlogic.parse_theory(gen.theory_text(rng, ["a", "b"]))
    for _ in range(200):
        text = gen.random_formula(rng)
        f = catlogic.parse_formula(text, theory.signature)
        assert not catlogic.free_vars(f)
        assert catlogic.logic.connective_depth(f) <= 4
        again = catlogic.format_formula(f)
        assert reference.parse_formula(again) == reference.parse_formula(text)


def _cli_report(tmp_path, command: str, model_text: str, theory_text: str):
    model, theory = tmp_path / "m.cat", tmp_path / "m.th"
    model.write_text(model_text)
    theory.write_text(theory_text)
    out = tmp_path / "out.rpt"
    code = catlogic.run_cli([command, "--model", str(model), "--theory", str(theory),
                             "--report", str(out)])
    return code, out.read_text()


def test_reference_accepts_engine_and_rejects_mutations(tmp_path, capsys):
    model_text = catlogic.format_category(catlogic.gen_powerset(2).category())
    theory_text = gen.theory_text(random.Random(2), reference.read_category(model_text)[0])
    for command in ("check", "redundancy"):
        code, report = _cli_report(tmp_path, command, model_text, theory_text)
        assert reference.check_report(command, code, report, model_text, theory_text, True) == []
        assert reference.check_report(command, 1, report, model_text, theory_text, True)
    code, report = _cli_report(tmp_path, "check", model_text, theory_text)
    lines = report.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("interpret.001.object"))
    wrong = "e12" if not lines[i].endswith(" e12") else "e"
    lines[i] = f"interpret.001.object = {wrong}"
    assert reference.check_report("check", code, "\n".join(lines), model_text,
                                  theory_text, True)
    code, report = _cli_report(tmp_path, "redundancy", model_text, theory_text)
    lines = report.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("delta.0002.inverse"))
    wrong = "id_e1" if not lines[i].endswith(" id_e1") else "id_e2"
    lines[i] = f"delta.0002.inverse = {wrong}"
    assert reference.check_report("redundancy", code, "\n".join(lines), model_text,
                                  theory_text, True)
    capsys.readouterr()


def test_finset_reference_on_finset_3(tmp_path, capsys):
    model_text = gen.finset_category_text("finset-3", [0, 1, 2, 3], random.Random(4))
    objects, _ = reference.read_category(model_text)
    theory_text = gen.finset_theory_text(objects)
    no_prod, no_coprod = reference.finset_failing_pairs(objects)
    assert ("s2x0", "s2x0") in no_prod and ("s2x0", "s2x0") in no_coprod
    for command in ("check", "redundancy"):
        code, report = _cli_report(tmp_path, command, model_text, theory_text)
        assert code == 1
        assert reference.check_report(command, code, report, model_text,
                                      theory_text, False) == []
    capsys.readouterr()


# -- tracing and determinism ----------------------------------------------------------

@pytest.mark.parametrize("workload", ["thin-check", "nonthin-check", "oracle-queries"])
def test_traced_counters_repeat(tmp_path, workload):
    models = run.build_inputs(catlogic, workload, 3, tmp_path)
    if workload == "thin-check":
        models = [m for m in models if m.name in ("powerset-2.unary-fun", "downsets-16")]
    elif workload == "nonthin-check":
        models = models[:1]
    else:
        models = models[:2]
        for m in models:
            m.formulas = m.formulas[:150]
    counts, prints = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(catlogic)
        try:
            if workload == "oracle-queries":
                p = run.query_pass(catlogic, models, tracer)
            else:
                p = run.cli_pass(catlogic, workload, models, tracer, keep_reports=False)
        finally:
            tracer.uninstall()
        counts.append(run.layer_counts(tracer.spans, p))
        prints.append({job: out[:2] if workload != "oracle-queries" else out
                       for job, out in p.outputs.items()})
        assert set(run.layer_times(tracer.spans)) == {
            *run.SELF_TIMES, "semantics.interpret_cold_s", "semantics.interpret_warm_s"}
    assert counts[0] == counts[1]
    assert prints[0] == prints[1]
    assert counts[0]["structure.compose_calls"] > 0
    assert catlogic.cli.run_cli is not None and not hasattr(catlogic.run_cli, "__wrapped__")


def test_bench_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "catbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = subprocess.run([sys.executable, "catbench/run.py", "--workload", "thin-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
