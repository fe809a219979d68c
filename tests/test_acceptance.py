"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Every expected value is either forced by the structure (identity-arrow
equality, zero tolerance) or cross-checked against the independent lattice
oracle; nothing is loosened to fit.
"""

import random
import time

from catlogic.cli import run_cli
from catlogic.heyting import gen_powerset, oracle_atom_map, oracle_interpret, thin_category_from_leq
from catlogic.kernel import format_category, mutually_inverse, validate_category
from catlogic.logic import enumerate_formulas
from catlogic.report import strip_timing
from catlogic.semantics import derive_instances
from catlogic.theorems import delta_certificate, verify_frobenius

from conftest import composable_pairs, with_composition

BUNDLED_TRIPLE_COUNTS = {"chain-4": 64, "powerset-2": 64, "powerset-3": 512}


def _model_suites(prepared_suites):
    """One representative (cat, st) per bundled model."""
    seen = {}
    for suite, cat, st, interp in prepared_suites:
        seen.setdefault(suite.model.name, (suite.model, cat, st))
    return seen


def test_criterion_1_delta_redundancy(prepared_suites):
    t0 = time.monotonic()
    checked = 0
    for name, (model, cat, st) in _model_suites(prepared_suites).items():
        count = 0
        for a in cat.objects:
            for b in cat.objects:
                for c in cat.objects:
                    cert = delta_certificate(st, a, b, c)
                    assert mutually_inverse(cat, cert.delta, cert.delta_inv)
                    count += 1
        assert count == BUNDLED_TRIPLE_COUNTS[name]
        checked += count
    elapsed = time.monotonic() - t0
    assert checked == 640
    assert elapsed < 10.0
    print(f"\nPASS criterion-1: delta inverse built and verified on "
          f"{checked} object triples in {elapsed:.2f}s (< 10s)")


def test_criterion_2_frobenius_redundancy(prepared_suites):
    t0 = time.monotonic()
    instances = 0
    for suite, cat, st, interp in prepared_suites:
        for inst in derive_instances(interp.theory):
            cert = verify_frobenius(interp, inst)
            # exactly the two inverse equations, as arrow identities
            assert cat.compose(cert.alpha, cert.beta) == \
                cat.identity_of(cat.objects[cert.beta.dom])
            assert cat.compose(cert.beta, cert.alpha) == \
                cat.identity_of(cat.objects[cert.alpha.dom])
            assert cert.initiality.vertexes_checked > 0
            instances += 1
    elapsed = time.monotonic() - t0
    assert instances >= 12
    assert elapsed < 30.0
    print(f"\nPASS criterion-2: frobenius certificates with passing initiality "
          f"sweeps on {instances} instances in {elapsed:.2f}s (< 30s)")


def test_criterion_3_transpose_theta_bijection(prepared_suites):
    t0 = time.monotonic()
    checked = 0
    for name, (model, cat, st) in _model_suites(prepared_suites).items():
        for w in cat.objects:
            for a in cat.objects:
                for c in cat.objects:
                    pw = st.product(w, a)
                    ew = st.exponential(a, c)
                    for f in cat.hom(pw.apex, c):
                        assert st.theta(st.transpose(f, w, a), a, c) == f
                        checked += 1
                    for g in cat.hom(w, ew.apex):
                        assert st.transpose(st.theta(g, a, c), w, a) == g
                        checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 0
    assert elapsed < 5.0
    print(f"\nPASS criterion-3: transpose/theta are mutually inverse on "
          f"{checked} arrows across every hom-set in {elapsed:.2f}s (< 5s)")


def test_criterion_4_oracle_equivalence(prepared_suites):
    t0 = time.monotonic()
    total = 0
    for suite, cat, st, interp in prepared_suites:
        elems = oracle_atom_map(suite.model, interp.theory.atom_interp)
        formulas = enumerate_formulas(interp.theory.signature, interp.universe)
        assert len(formulas) >= 500
        for f in formulas:
            got = interp.interpret(f).index
            want = oracle_interpret(suite.model, interp.universe, elems, f)
            assert got == want, (suite.suite_id, str(f))
        total += len(formulas)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion-4: categorical interpretation equals the lattice "
          f"oracle on {total} closed formulas in {elapsed:.2f}s (< 60s)")


def test_criterion_5_definition_conformance(prepared_suites, tmp_path):
    t0 = time.monotonic()

    # every bundled model+theory: seven PASS via the real CLI surface
    for suite, cat, st, interp in prepared_suites:
        mfile = tmp_path / f"{suite.suite_id.replace('/', '_')}.cat"
        tfile = tmp_path / f"{suite.suite_id.replace('/', '_')}.th"
        mfile.write_text(format_category(cat))
        tfile.write_text(suite.theory_text)
        rfile = tmp_path / f"{suite.suite_id.replace('/', '_')}.rpt"
        rc = run_cli(["check", "--model", str(mfile), "--theory", str(tfile),
                      "--report", str(rfile)])
        assert rc == 0, suite.suite_id
        text = rfile.read_text()
        assert text.count(" = PASS") >= 8  # validation + seven conditions
        assert "conditions.overall = PASS" in text

    # fault injection 1: remove an exponential candidate (a coatom of
    # powerset-3) -> condition (3) fails while (1) and (2) still pass
    model = gen_powerset(3)
    keep = [i for i, name in enumerate(model.elements) if name != "e23"]
    names = [model.elements[i] for i in keep]
    leq = tuple(tuple(model.leq[i][j] for j in keep) for i in keep)
    cut = thin_category_from_leq(names, leq, name="powerset-3-cut")
    mfile = tmp_path / "cut.cat"
    mfile.write_text(format_category(cut))
    tfile = tmp_path / "cut.th"
    tfile.write_text(
        "sort s\nfun c : s\nfun d : s\nrel B : s\nrel P\ndepth 1\n"
        "axiom exists x:s. (P & B(x))\n"
        "interp B(c) = e1\ninterp B(d) = e2\ninterp P = e3\n")
    rfile = tmp_path / "cut.rpt"
    rc = run_cli(["check", "--model", str(mfile), "--theory", str(tfile),
                  "--report", str(rfile)])
    assert rc == 1
    text = rfile.read_text()
    assert "condition.1.products = PASS" in text
    assert "condition.2.coproducts = PASS" in text
    assert "condition.3.exponentials = FAIL" in text

    # fault injection 2a: atom entry pointing at a different valid object
    # changes the downstream verdict content deterministically
    base_suite, base_cat = next(
        (s, c) for s, c, _, _ in prepared_suites
        if s.suite_id == "powerset-2/pair-const")
    mfile = tmp_path / "b4.cat"
    mfile.write_text(format_category(base_cat))
    tfile = tmp_path / "b4.th"
    tfile.write_text(base_suite.theory_text)
    r_ok = tmp_path / "b4_ok.rpt"
    assert run_cli(["check", "--model", str(mfile), "--theory", str(tfile),
                    "--report", str(r_ok)]) == 0
    corrupted = base_suite.theory_text.replace("interp P = e1", "interp P = e12")
    tfile2 = tmp_path / "b4_corrupt.th"
    tfile2.write_text(corrupted)
    r_bad = tmp_path / "b4_corrupt.rpt"
    assert run_cli(["check", "--model", str(mfile), "--theory", str(tfile2),
                    "--report", str(r_bad)]) == 0
    ok_lines = {l for l in strip_timing(r_ok.read_text()).splitlines()
                if l.startswith("interpret.")}
    bad_lines = {l for l in strip_timing(r_bad.read_text()).splitlines()
                 if l.startswith("interpret.")}
    assert ok_lines != bad_lines  # the corruption is visible downstream

    # fault injection 2b: atom entry naming a nonexistent object is an input error
    broken = base_suite.theory_text.replace("interp P = e1", "interp P = ghost")
    tfile3 = tmp_path / "b4_ghost.th"
    tfile3.write_text(broken)
    assert run_cli(["check", "--model", str(mfile), "--theory", str(tfile3)]) == 2

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion-5: seven PASS verdicts on every bundled suite and "
          f"correct verdicts under fault injection in {elapsed:.2f}s (< 30s)")


def test_criterion_6_kernel_mutation_soundness():
    t0 = time.monotonic()
    cat = gen_powerset(2).category()
    assert validate_category(cat).ok
    rng = random.Random(46_656)
    pairs = list(composable_pairs(cat))
    detected = 0
    for _ in range(100):
        g, f = rng.choice(pairs)
        current = cat.table_entry(g, f)
        choices = [k for k in range(-1, len(cat.arrows)) if k != current]
        k = rng.choice(choices)
        mutated = with_composition(cat, g, f, None if k == -1 else cat.arrows[k])
        if not validate_category(mutated).ok:
            detected += 1
    elapsed = time.monotonic() - t0
    assert detected == 100
    assert elapsed < 5.0
    print(f"\nPASS criterion-6: 100/100 random composition-table corruptions "
          f"detected in {elapsed:.2f}s (< 5s)")
