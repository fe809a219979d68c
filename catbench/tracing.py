"""Spans and counters installed from outside the package.

``Tracer.install`` wraps the public functions ``catlogic.cli`` calls, plus
``Interpretation.interpret``, ``parse_formula`` and ``Report.render``, in
spans, and wraps ``FinCategory.compose``, ``hom`` and ``table_entry`` in
counters.  A count goes to the innermost open span.  Spans are kept in
memory with their parent and job id; ``uninstall`` restores every wrapped
name.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time


def _validate_counts(report) -> dict[str, int]:
    return {"violations": len(report.violations)}


def _discover_counts(st) -> dict[str, int]:
    found = (len(st.products) + len(st.coproducts) + len(st.exponentials)
             + (st.terminal is not None) + (st.initial is not None))
    missing = (len(st.product_failures) + len(st.coproduct_failures)
               + len(st.exponential_failures)
               + (st.terminal is None) + (st.initial is None))
    return {"witnesses": found, "failures": missing}


def _prepare_counts(interp) -> dict[str, int]:
    return {"reach_size": len(interp.reach.members),
            "reach_failures": len(interp.reach_failures)}


def _frobenius_counts(cert) -> dict[str, int]:
    return {"initiality_families": cert.initiality.families_checked}


# (module, attribute, span name, counts read off the result) for every
# wrapped function; a function is patched both where the CLI looks it up and
# on the package namespace the benchmark calls through
SPANNED_FUNCTIONS = (
    ("kernel", "parse_category", "kernel.parse", None),
    ("kernel", "validate_category", "kernel.validate", _validate_counts),
    ("structure", "discover_structure", "structure.discover", _discover_counts),
    ("semantics", "build_interpretation", "semantics.prepare", _prepare_counts),
    ("semantics", "check_conditions", "semantics.conditions", None),
    ("theorems", "delta_certificate", "theorems.delta", None),
    ("theorems", "verify_frobenius", "theorems.frobenius", _frobenius_counts),
    ("logic", "parse_formula", "logic.parse_formula", None),
    ("logic", "parse_theory", "logic.parse_theory", None),
    ("cli", "run_cli", "cli", None),
)
SPANNED_METHODS = (
    ("semantics", "Interpretation", "interpret", "semantics.interpret"),
    ("report", "Report", "render", "report.render"),
)
COUNTED_METHODS = ("compose", "hom", "table_entry")


class Span:
    __slots__ = ("sid", "name", "parent", "job", "phase", "start", "end",
                 "child_time", "counts", "failed")

    def __init__(self, sid, name, parent, job, phase):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.job = job
        self.phase = phase
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0
        self.counts: dict[str, int] = {}
        self.failed = False

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "job": self.job, "phase": self.phase,
                "start": self.start, "end": self.end,
                "self": self.self_time, "counts": self.counts,
                "failed": self.failed}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = ""
        self.phase = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), name, parent.sid if parent else None,
                        self.job, self.phase)
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span.counts.update(extract(result))
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
        return spanned

    def counted(self, key: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def counting(*args):
            if stack:
                counts = stack[-1].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return counting

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, catlogic) -> None:
        """Wrap the package's entry points; ``catlogic`` is the imported package."""
        cli = catlogic.cli
        for module, attr, name, extract in SPANNED_FUNCTIONS:
            wrapped = self.wrap(name, getattr(getattr(catlogic, module), attr), extract)
            for owner in (cli, catlogic):
                if hasattr(owner, attr):
                    self._patch(owner, attr, wrapped)
        for module, cls, attr, name in SPANNED_METHODS:
            owner = getattr(getattr(catlogic, module), cls)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for attr in COUNTED_METHODS:
            owner = catlogic.kernel.FinCategory
            self._patch(owner, attr, self.counted(attr, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
