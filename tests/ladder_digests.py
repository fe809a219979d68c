"""Digests of the CLI on the ROADMAP's ladder, for byte-identity checks.

Prints one line per case and command: the case, the command, the exit code
and the sha256 of the timing-stripped stdout followed by the stderr.  The
commands run in process through ``run_cli``, against whichever ``catlogic``
is on the path, so a change is byte-identical to its parent when the output
of one run on each is the same:

    PYTHONPATH=src python tests/ladder_digests.py > change.txt
    PYTHONPATH=../parent/src python tests/ladder_digests.py > parent.txt
    diff parent.txt change.txt

The cases are the six bundled suites, powerset-4, chain-32, finset-3 and
finset-4 (the bundled pair-const theory, its three atoms on the objects of
index 1, 2 and 3), powerset-3 with the two-sort theory, and ``check`` of
the wide theory on chain-32: 1,446 closed terms of depth 4 over c, d and
g(x, y), B of the i-th term on chain-32's object c(7i mod 32).  The wide
case takes about 15 s; the rest a few seconds.  pytest does not collect
this file, and it imports nothing from ``catbench``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from catlogic import bundled_suites, enumerate_closed_terms, format_category, parse_theory
from catlogic.cli import run_cli
from catlogic.kernel import parse_category
from catlogic.report import strip_timing

from conftest import PAIR_CONST_THEORY, two_sort_theory

COMMANDS = ("check", "redundancy")

WIDE_HEAD = """\
sort s
fun c : s
fun d : s
fun g : s * s -> s
rel B : s
depth 4
axiom exists x:s. B(x)
axiom forall x:s. exists y:s. (B(x) -> B(y))
"""


def wide_theory() -> str:
    terms = enumerate_closed_terms(parse_theory(WIDE_HEAD).signature, 4).terms("s")
    return WIDE_HEAD + "".join(f"interp B({t}) = c{7 * i % 32}\n"
                               for i, t in enumerate(terms))


def generated(kind: str, n: int, work: Path) -> str:
    """The model file ``catlogic gen`` writes for ``kind`` and ``n``."""
    path = work / f"{kind}-{n}.cat"
    if run_cli(["gen", "--kind", kind, "--n", str(n), "--out", str(path)]) != 0:
        raise SystemExit(f"gen --kind {kind} --n {n} failed")
    return path.read_text(encoding="utf-8")


def cases(work: Path):
    """(case name, model text, theory text, commands), in the order printed."""
    for s in bundled_suites():
        yield s.suite_id, format_category(s.model.category()), s.theory_text, COMMANDS
    for kind, n in (("powerset", 4), ("chain", 32), ("finset", 3), ("finset", 4)):
        model = generated(kind, n, work)
        objects = parse_category(model).objects
        theory = PAIR_CONST_THEORY.format(*(objects[i].name for i in (1, 2, 3)))
        yield f"{kind}-{n}", model, theory, COMMANDS
    model = generated("powerset", 3, work)
    yield ("powerset-3/two-sort", model,
           two_sort_theory(parse_category(model).objects[1:]), COMMANDS)
    yield "chain-32/wide", generated("chain", 32, work), wide_theory(), ("check",)


def run(command: str, model: Path, theory: Path) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([command, "--model", str(model), "--theory", str(theory)])
    text = strip_timing(out.getvalue()) + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, model_text, theory_text, commands in cases(work):
            stem = name.replace("/", "_")
            model, theory = work / f"{stem}.cat", work / f"{stem}.thy"
            model.write_text(model_text, encoding="utf-8")
            theory.write_text(theory_text, encoding="utf-8")
            for command in commands:
                code, digest = run(command, model, theory)
                print(f"{name} {command} exit={code} {digest}", flush=True)


if __name__ == "__main__":
    main()
