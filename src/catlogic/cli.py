"""Batch command line: validate, interpret, check, redundancy, gen.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 input or usage error.
Diagnostics go to stderr; reports go to stdout and, with --report, to a file.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

from .errors import (
    MalformedInput,
    MissingAtom,
    ScaleExceeded,
    TheoryFileError,
    FormulaSyntaxError,
    WorkbenchError,
)
from .heyting import gen_chain, gen_diamond, gen_powerset
from .kernel import (
    FinCategory,
    format_category,
    gen_finset,
    parse_category,
    validate_category,
)
from .logic import _BREAK_RE, MAX_NESTING, Theory, parse_formula, parse_theory
from .report import Report
from .semantics import (
    DEFAULT_REACH_DEPTH,
    Interpretation,
    build_interpretation,
    check_conditions,
    derive_instances,
)
from .structure import discover_structure
from .theorems import delta_certificate, verify_frobenius


def _load(path: str, parse):
    """``parse`` of the file at ``path``, named by its stem, and its text; a file
    not in UTF-8, or a stem with a line break (no one-line report value holds one), is refused.
    A leading byte-order mark is dropped after decoding, so an error offset counts its bytes."""
    stem = Path(path).stem
    if _BREAK_RE.search(stem):
        raise MalformedInput(f"{path!r}: a file name must not hold a line break")
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path!r}: not UTF-8 at byte offset {exc.start}") from None
    return parse(text, stem), text


def _stdout(text: str) -> None:
    """Write ``text`` to stdout whole, or nothing if stdout's encoding cannot hold it."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:
        raise MalformedInput(f"stdout: {exc}; set PYTHONIOENCODING=utf-8") from None


def _emit(text: str, args) -> None:
    """Write ``text`` to stdout and, with --report, to that file as UTF-8.

    A regular or missing destination is written first, to a fresh temporary
    file beside it (beside a symlink's target), and renamed over it with the
    old file's mode once stdout has taken the text whole: a destination that
    cannot be written stops the command before the first byte goes to stdout,
    and a text that stdout refuses leaves no file and an existing one
    untouched. Any other destination (a device, FIFO or pipe) cannot be
    replaced: it is opened before stdout is written, and written through.
    """
    dest = getattr(args, "report", None)
    if not dest:
        return _stdout(text)
    try:
        try:
            st = os.stat(dest)
        except FileNotFoundError:
            st = None
        if st is not None and stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(dest, "w", encoding="utf-8") as out:
                _stdout(text)
                out.write(text)
            return
        real = os.path.realpath(dest)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(real) + ".",
                                   dir=os.path.dirname(real))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, dest) from None
    if st is not None:
        mode = stat.S_IMODE(st.st_mode)
    else:
        mask = os.umask(0)
        os.umask(mask)
        mode = 0o666 & ~mask
    try:
        with open(fd, "w", encoding="utf-8") as out:
            if st is not None:
                with contextlib.suppress(OSError):
                    os.fchown(fd, st.st_uid, st.st_gid)
            os.fchmod(fd, mode)
            out.write(text)
        _stdout(text)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def _header(report: Report, cat: FinCategory, model_text: str,
            theory: Theory | None = None, theory_text: str | None = None) -> None:
    report.add("tool", "catlogic")
    report.add("format", 1)
    report.add("model.id", cat.name)
    report.add("model.objects", len(cat.objects))
    report.add("model.arrows", len(cat.arrows))
    report.add_block("input.model", model_text)
    if theory is not None:
        report.add("theory.id", theory.theory_id)
        report.add_block("input.theory", theory_text or "")


def _universe_section(report: Report, interp: Interpretation) -> None:
    report.add("universe.depth", interp.universe.depth)
    report.add("universe.saturated", "yes" if interp.universe.saturated else "no")
    for sort in interp.theory.signature.sorts:
        terms = " ".join(str(t) for t in interp.universe.terms(sort)) or "(none)"
        report.add(f"universe.sort.{sort}", terms)
    report.add("reach.depth", interp.reach_depth)
    report.add("reach.size", len(interp.reach.members))
    for i, m in enumerate(interp.reach.members, 1):
        report.add(f"reach.member.{i:03d}", f"{m.obj.name} <- {m.provenance}")
    for i, w in enumerate(interp.warnings, 1):
        report.add(f"warning.{i:03d}", w)


def _validation_section(report: Report, cat: FinCategory) -> bool:
    """Validate ``cat`` into ``report``; whether it passed."""
    rep = validate_category(cat)
    report.add("validation", "PASS" if rep.ok else "FAIL")
    for i, v in enumerate(rep.violations, 1):
        report.add(f"validation.violation.{i:03d}", v)
    return rep.ok


def _interpretation(args, cat: FinCategory, theory: Theory) -> Interpretation:
    """Discover the structure of ``cat`` and interpret ``theory`` in it at
    the depths ``args`` gives.  A term universe over desk scale is blamed
    on ``--depth`` or else on the theory file's depth line."""
    st = discover_structure(cat)
    try:
        return build_interpretation(st, theory, reach_depth=args.reach,
                                    universe_depth=args.depth)
    except ScaleExceeded as exc:
        if args.depth is not None:
            raise ScaleExceeded(f"--depth {args.depth}: {exc}") from None
        raise TheoryFileError(str(exc), theory.lines.get("depth")) from None


def _prepare(args) -> tuple[Report, Interpretation | None]:
    """The steps ``check`` and ``redundancy`` share: load the model and the
    theory, validate, discover and interpret, with the report so far.  The
    interpretation is None, and the report already emitted, if validation
    fails."""
    cat, model_text = _load(args.model, parse_category)
    theory, theory_text = _load(args.theory, parse_theory)
    report = Report()
    _header(report, cat, model_text, theory, theory_text)
    if not _validation_section(report, cat):
        _emit(report.render(), args)
        return report, None
    interp = _interpretation(args, cat, theory)
    _universe_section(report, interp)
    return report, interp


def cmd_validate(args) -> int:
    cat, model_text = _load(args.model, parse_category)
    report = Report()
    _header(report, cat, model_text)
    ok = _validation_section(report, cat)
    _emit(report.render(), args)
    return 0 if ok else 1


def cmd_interpret(args) -> int:
    cat, _ = _load(args.model, parse_category)
    rep = validate_category(cat)
    if not rep.ok:
        print(f"error: model fails validation: {rep.violations[0]}", file=sys.stderr)
        return 1
    theory, _ = _load(args.theory, parse_theory)
    formula = parse_formula(args.formula, theory.signature)
    obj = _interpretation(args, cat, theory).interpret(formula)
    _emit(f"{obj.name}\n", args)
    return 0


def cmd_check(args) -> int:
    t0 = time.monotonic()
    report, interp = _prepare(args)
    if interp is None:
        return 1

    cond = check_conditions(interp)
    for v in cond.verdicts:
        report.add(f"condition.{v.number}.{v.name}", v.status)
        for i, d in enumerate(v.details, 1):
            report.add(f"condition.{v.number}.detail.{i:03d}", d)
    report.add("conditions.overall", "PASS" if cond.all_pass else "FAIL")

    for i, ax in enumerate(interp.theory.signature.axioms, 1):
        report.add(f"interpret.{i:03d}.formula", ax)
        try:
            report.add(f"interpret.{i:03d}.object", interp.interpret(ax).name)
        except WorkbenchError as exc:
            report.add(f"interpret.{i:03d}.object", f"(failed: {exc})")

    report.add_timing("total_ms", (time.monotonic() - t0) * 1000)
    _emit(report.render(), args)
    return 0 if cond.all_pass else 1


def cmd_redundancy(args) -> int:
    """A delta certificate per object triple, a passing one's four lines added
    as one rendered row (parsed names hold no newline), then the frobenius ones."""
    t0 = time.monotonic()
    report, interp = _prepare(args)
    if interp is None:
        return 1
    cat, st, failed = interp.cat, interp.structure, 0

    triples = [(a, b, c) for a in cat.objects for b in cat.objects
               for c in cat.objects]
    report.add("delta.count", len(triples))
    for i, (a, b, c) in enumerate(triples, 1):
        key = f"delta.{i:04d}"
        row = f"{key}.triple = ({a.name}, {b.name}, {c.name})\n"
        try:
            cert = delta_certificate(st, a, b, c)
        except WorkbenchError as exc:
            failed += 1
            report.add_rendered(row)
            report.add(f"{key}.verdict", f"FAIL: {exc}")
            continue
        report.add_rendered(f"{row}{key}.arrow = {cert.delta.name}\n"
                            f"{key}.inverse = {cert.delta_inv.name}\n{key}.verdict = PASS\n")

    instances = derive_instances(interp.theory)
    report.add("frobenius.count", len(instances))
    for i, inst in enumerate(instances, 1):
        key = f"frobenius.{i:03d}"
        report.add(f"{key}.instance", inst.describe())
        try:
            cert = verify_frobenius(interp, inst)
        except WorkbenchError as exc:
            failed += 1
            report.add(f"{key}.verdict", f"FAIL: {exc}")
            continue
        report.add(f"{key}.alpha", cert.alpha.name)
        report.add(f"{key}.gamma", cert.gamma.name)
        report.add(f"{key}.beta", cert.beta.name)
        report.add(f"{key}.equations", " and ".join(cert.equations))
        report.add(f"{key}.initiality",
                   f"PASS ({cert.initiality.vertexes_checked} vertexes, "
                   f"{cert.initiality.families_checked} families)")
        report.add(f"{key}.verdict", "PASS")

    report.add("redundancy.overall", "PASS" if failed == 0 else f"FAIL ({failed})")
    report.add_timing("total_ms", (time.monotonic() - t0) * 1000)
    _emit(report.render(), args)
    return 0 if failed == 0 else 1


def cmd_gen(args) -> int:
    if args.kind == "chain":
        cat = gen_chain(args.n).category()
    elif args.kind == "powerset":
        cat = gen_powerset(args.n).category()
    elif args.kind == "finset":
        cat = gen_finset(args.n)
    else:
        cat = gen_diamond().category()
    text = format_category(cat)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        _stdout(text)
    return 0


def _bounded(low: int, high: int | None = None):
    """An argparse type for the integers from ``low`` up, to ``high`` if given."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer is an "invalid int value", as with type=int
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="catlogic",
        description="Check finite categories with an interpretation map against "
                    "the bicartesian-closed quantifier-semantics conditions, and "
                    "certify that the two distributivity conditions are derivable.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, theory=True):
        sp.add_argument("--model", required=True, help="category file")
        if theory:
            sp.add_argument("--theory", required=True, help="theory file")
            sp.add_argument("--depth", type=_bounded(1, MAX_NESTING), default=None,
                            help="term universe depth (default: theory file)")
            sp.add_argument("--reach", type=_bounded(0), default=DEFAULT_REACH_DEPTH,
                            help=f"reachable-set formula depth (default {DEFAULT_REACH_DEPTH})")
        sp.add_argument("--report", default=None, help="also write the report here")

    sp = sub.add_parser("validate", help="check the category laws")
    common(sp, theory=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("interpret", help="interpret one closed formula")
    common(sp)
    sp.add_argument("--formula", required=True)
    sp.set_defaults(func=cmd_interpret)

    sp = sub.add_parser("check", help="verdicts for all seven conditions")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("redundancy",
                        help="build and verify the delta and frobenius certificates")
    common(sp)
    sp.set_defaults(func=cmd_redundancy)

    sp = sub.add_parser("gen", help="generate a Heyting or finite-set model file")
    sp.add_argument("--kind", required=True,
                    choices=["chain", "powerset", "diamond", "finset"])
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gen)

    return p


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (MalformedInput, TheoryFileError, FormulaSyntaxError, MissingAtom,
            ScaleExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    console_main()
