"""The package API the benchmark harness under ``catbench/`` calls and
counts, checked here without importing it: the names its tracer wraps, the
library pipeline its ``oracle-queries`` workload runs, and the attributes
its tracer reads off a structure table and an interpretation."""

import pytest

import catlogic

from conftest import PAIR_CONST_THEORY, make_finset

# (module, name) of every function the tracer wraps, on the module and, where
# the package exports it, on the package namespace the benchmark calls
WRAPPED_FUNCTIONS = (
    ("kernel", "parse_category"), ("kernel", "validate_category"),
    ("structure", "discover_structure"), ("semantics", "build_interpretation"),
    ("semantics", "check_conditions"), ("theorems", "delta_certificate"),
    ("theorems", "verify_frobenius"), ("logic", "parse_formula"),
    ("logic", "parse_theory"), ("cli", "run_cli"),
)
WRAPPED_METHODS = (("semantics", "Interpretation", "interpret"), ("report", "Report", "render"),
                   ("kernel", "FinCategory", "compose"), ("kernel", "FinCategory", "hom"),
                   ("kernel", "FinCategory", "table_entry"))


def test_every_wrapped_name_exists():
    for module, name in WRAPPED_FUNCTIONS:
        fn = getattr(getattr(catlogic, module), name)
        assert getattr(catlogic, name) is fn
    for module, cls, name in WRAPPED_METHODS:
        assert callable(getattr(getattr(getattr(catlogic, module), cls), name))


FORMULAS = ("P & B(c)", "exists x:s. (P & B(x))", "forall x:s. (B(x) -> P)", "1 | 0")


# a thin model whose structure is complete, and a non-thin one whose products,
# coproducts and exponentials are not
@pytest.mark.parametrize("make, complete", [
    (lambda: catlogic.gen_chain(4).category(), True),
    (lambda: make_finset([0, 1, 2, 3], "finset-0123"), False)], ids=["chain-4", "finset-0123"])
def test_the_library_pipeline_and_what_its_tracer_counts(make, complete):
    built = make()
    cat = catlogic.parse_category(catlogic.format_category(built), name=built.name)
    # the bundled pair-const theory, its atoms on the last three objects
    theory = catlogic.parse_theory(
        PAIR_CONST_THEORY.format(*(o.name for o in built.objects[-3:])), theory_id=built.name)
    assert catlogic.validate_category(cat).ok
    st = catlogic.discover_structure(cat)
    interp = catlogic.build_interpretation(st, theory)

    n = len(cat.objects)
    for kind in ("product", "coproduct", "exponential"):
        assert len(getattr(st, kind + "s")) + len(getattr(st, kind + "_failures")) == n * n
    for end in ("terminal", "initial"):
        assert (getattr(st, end) is None) + (getattr(st, end + "_failure") is None) == 1
    assert st.complete == complete
    assert interp.reach.members and all(m.obj in cat.objects for m in interp.reach.members)
    assert all(isinstance(text, str) for text in interp.reach_failures)
    recorded = {*st.product_failures.values(), *st.coproduct_failures.values(),
                *st.exponential_failures.values()}
    for text in FORMULAS:
        try:
            assert interp.interpret(catlogic.parse_formula(text, theory.signature)) in cat.objects
        except catlogic.NoSuchStructure as exc:
            assert not complete and str(exc) in recorded


def test_redundancy_builds_one_delta_certificate_per_triple(tmp_path, monkeypatch, capsys):
    # the tracer counts certificates by wrapping the name the CLI looks up
    built = catlogic.gen_powerset(2).category()
    model, theory = tmp_path / "b4.cat", tmp_path / "pair-const.th"
    model.write_text(catlogic.format_category(built))
    theory.write_text(PAIR_CONST_THEORY.format(*(o.name for o in built.objects[-3:])))
    calls = []
    certify = catlogic.cli.delta_certificate
    monkeypatch.setattr(catlogic.cli, "delta_certificate",
                        lambda *args: calls.append(args[1:]) or certify(*args))
    assert catlogic.run_cli(["redundancy", "--model", str(model), "--theory", str(theory)]) == 0
    assert "delta.count = 64\n" in capsys.readouterr().out
    assert len(calls) == 64 == len(set(calls))


def test_redundancy_verifies_each_derived_instance_once(tmp_path, monkeypatch, capsys):
    # the tracer times frobenius certificates by wrapping the name the CLI
    # looks up, and counts the families of each one's initiality sweep
    built = catlogic.gen_powerset(2).category()
    model, theory = tmp_path / "b4.cat", tmp_path / "pair-const.th"
    model.write_text(catlogic.format_category(built))
    theory.write_text(PAIR_CONST_THEORY.format(*(o.name for o in built.objects[-3:])))
    derived, calls = [], []
    derive, verify = catlogic.cli.derive_instances, catlogic.cli.verify_frobenius

    def verified(*args):
        cert = verify(*args)
        calls.append((args[1:], cert))
        return cert

    monkeypatch.setattr(catlogic.cli, "derive_instances",
                        lambda *args: derived.extend(derive(*args)) or tuple(derived))
    monkeypatch.setattr(catlogic.cli, "verify_frobenius", verified)
    assert catlogic.run_cli(["redundancy", "--model", str(model), "--theory", str(theory)]) == 0
    assert f"frobenius.count = {len(derived)}\n" in capsys.readouterr().out
    assert len(derived) > 1 and len(calls) == len(derived)
    for (args, cert), inst in zip(calls, derived):
        assert args == (inst,) and args[0] is inst and cert.instance is inst
        assert cert.initiality.families_checked > 0
