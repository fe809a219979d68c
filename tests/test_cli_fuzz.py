"""The command line on mutated model, theory and formula text: lines deleted,
duplicated or swapped, tokens cut short and stray symbols inserted.  Every
run of ``validate``, ``check`` and ``interpret`` must end with exit code 0, 1
or 2, with no exception escaping ``run_cli``."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from catlogic.bundles import bundled_suites
from catlogic.cli import run_cli
from catlogic.kernel import format_category

# the four-object suites keep each example to a few tens of milliseconds
SUITES = [s for s in bundled_suites() if s.model.name in ("chain-4", "powerset-2")]
FORMULAS = [
    "exists x:s. (P & B(x))",
    "forall x:s. (B(x) -> P)",
    "(P | B(c)) -> 0",
    "B(c) * 1",
]
STRAY = ["(", ")", ".", ",", ":", "=", "->", "&", "|", "*", "#", "{", "}", "~",
         "x", "s", "exists", "forall", " ", "\t", "é"]

_index = st.integers(min_value=0, max_value=200)
_op = st.one_of(
    st.tuples(st.just("delete"), _index),
    st.tuples(st.just("duplicate"), _index),
    st.tuples(st.just("swap"), _index, _index),
    st.tuples(st.just("truncate"), _index, _index),
    st.tuples(st.just("insert"), _index, _index, st.sampled_from(STRAY)),
)
_ops = st.lists(_op, max_size=3)


def mutate(items: list[str], ops) -> list[str]:
    """Apply the edits to a list of lines or tokens, indexes taken modulo its length."""
    items = list(items)
    for kind, i, *rest in ops:
        if not items:
            break
        i %= len(items)
        if kind == "delete":
            del items[i]
        elif kind == "duplicate":
            items.insert(i, items[i])
        elif kind == "swap":
            j = rest[0] % len(items)
            items[i], items[j] = items[j], items[i]
        elif kind == "truncate":
            items[i] = items[i][:rest[0] % (len(items[i]) + 1)]
        else:
            k = rest[0] % (len(items[i]) + 1)
            items[i] = items[i][:k] + rest[1] + items[i][k:]
    return items


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(suite=st.sampled_from(SUITES), formula=st.sampled_from(FORMULAS),
       model_ops=_ops, theory_ops=_ops, formula_ops=_ops)
def test_mutated_inputs_exit_cleanly(workdir, suite, formula, model_ops, theory_ops,
                                     formula_ops):
    model = workdir / "model.cat"
    theory = workdir / "theory.th"
    model.write_text("\n".join(mutate(format_category(suite.model.category()).splitlines(),
                                      model_ops)) + "\n")
    theory.write_text("\n".join(mutate(suite.theory_text.splitlines(), theory_ops)) + "\n")
    text = " ".join(mutate(formula.split(), formula_ops))
    for argv in (["validate", "--model", str(model)],
                 ["check", "--model", str(model), "--theory", str(theory)],
                 ["interpret", "--model", str(model), "--theory", str(theory),
                  "--formula", text]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
