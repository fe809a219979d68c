"""The catlogic benchmark.

    python3 catbench/run.py --workload thin-check --seed 1 --seconds 25 --trace 0

Run from the repository root.  It imports catlogic from ``src/``, writes its
seeded inputs under ``catbench/_work/``, runs the workload's jobs in a closed
loop (one caller, the next job starts when the previous one returns) for
``--seconds`` seconds, checks every answer against ``reference.py`` and
prints one metric per line, then a JSON summary as the last line.

Workloads:

* ``thin-check``: ``check`` then ``redundancy`` through ``run_cli`` on the
  six bundled suites, ``powerset-4``, ``chain-32`` and two seeded random
  down-set lattices (16 elements on 5 points, 24 on 6); every verdict is
  PASS.
* ``nonthin-check``: ``validate``, ``check`` and ``redundancy`` on the full
  subcategories of finite sets of sizes {0,1,2,3} and {0,1,2,3,3,3}, with
  the declaration order of copies and hom-sets shuffled by the seed.
* ``oracle-queries``: the library path.  For each model, parse, validate,
  discover and ``build_interpretation`` (prepare), then answer seeded random
  closed formulas with ``parse_formula`` and ``Interpretation.interpret``
  twice: a cold pass that fills the memo and a warm pass that hits it.

One pass runs every job of the workload once.  The first pass is a warm-up,
and passes repeat while the next one fits in ``--seconds``; reported times
are medians over the timed passes.  Before each job and after the last a
fixed pure-Python calibration kernel that does not touch catlogic is timed,
and ``jobs_cal`` is a pass's job time divided by its mean calibration time:
on a shared 2-core machine the speed of the processor drifts by 30% over
minutes, and the ratio cancels most of that drift while any change to
catlogic moves it in full.  ``setup_s`` is scaled the same way, by the
calibration timed before each set-up, to seconds at a nominal kernel time.
``--trace 0`` reports the end-to-end metrics.

``--trace 1`` alternates untraced passes with passes traced by
``tracing.py`` and reports the per-layer metrics: self times (medians over
traced passes), deterministic counters, and the untraced command times.  Spans of the first traced pass go to ``catbench/_out/``, as
do the sha256 fingerprints of every report with its timing lines removed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (the benchmark's own modules sit beside this file)
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("thin-check", "nonthin-check", "oracle-queries")
SETUP_REPEATS = 7
# the calibration kernel's time on the 2-core VM this benchmark was tuned on;
# setup_s is set-up time in seconds at that speed
NOMINAL_CALIBRATION_S = 0.03
QUERIES_PER_MODEL = 1200


# -- inputs ---------------------------------------------------------------------

@dataclass
class Model:
    name: str
    model_text: str
    theory_text: str
    thin: bool
    formulas: list[str] = field(default_factory=list)
    model_path: Path | None = None
    theory_path: Path | None = None


def import_catlogic():
    """Import catlogic from ``src/``, afresh each time so set-up can be timed."""
    for name in [m for m in sys.modules if m == "catlogic" or m.startswith("catlogic.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import catlogic
    return catlogic


def gen_model_text(catlogic, kind: str, n: int, work: Path) -> str:
    """A model file as ``catlogic gen`` writes it."""
    path = work / f"gen-{kind}-{n}.cat"
    with contextlib.redirect_stdout(io.StringIO()):
        code = catlogic.run_cli(["gen", "--kind", kind, "--n", str(n), "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"catlogic gen --kind {kind} --n {n} exited {code}")
    return path.read_text()


def seeded_model(name: str, model_text: str, seed: int, thin: bool = True) -> Model:
    objects, _ = reference.read_category(model_text)
    if not thin:
        return Model(name, model_text, gen.finset_theory_text(objects), thin)
    rng = random.Random(f"{seed}:{name}:theory")
    return Model(name, model_text, gen.theory_text(rng, objects), thin)


def random_lattice(size: int, points: int, seed: int) -> Model:
    name = f"downsets-{size}"
    rng = random.Random(f"{seed}:{name}")
    _, elements = gen.downset_lattice(rng, size, points)
    return seeded_model(name, gen.thin_category_text(name, elements), seed)


def build_inputs(catlogic, workload: str, seed: int, work: Path) -> list[Model]:
    if workload == "thin-check":
        models = [Model(s.suite_id.replace("/", "."),
                        catlogic.format_category(s.model.category()), s.theory_text, True)
                  for s in catlogic.bundled_suites()]
        models.append(seeded_model("powerset-4",
                                   gen_model_text(catlogic, "powerset", 4, work), seed))
        models.append(seeded_model("chain-32", gen_model_text(catlogic, "chain", 32, work), seed))
        models += [random_lattice(16, 5, seed), random_lattice(24, 6, seed)]
    elif workload == "nonthin-check":
        models = []
        for name, sizes in (("finset-3", [0, 1, 2, 3]), ("nonskeletal-3", [0, 1, 2, 3, 3, 3])):
            rng = random.Random(f"{seed}:{name}")
            models.append(seeded_model(name, gen.finset_category_text(name, sizes, rng),
                                       seed, thin=False))
    else:
        models = [seeded_model("powerset-3", gen_model_text(catlogic, "powerset", 3, work), seed),
                  seeded_model("chain-4", gen_model_text(catlogic, "chain", 4, work), seed)]
        models += [random_lattice(12, 5, seed), random_lattice(24, 6, seed)]
        for m in models:
            rng = random.Random(f"{seed}:{m.name}:formulas")
            m.formulas = [gen.random_formula(rng) for _ in range(QUERIES_PER_MODEL)]
    for m in models:
        m.model_path = work / f"{m.name}.cat"
        m.theory_path = work / f"{m.name}.th"
        m.model_path.write_text(m.model_text)
        m.theory_path.write_text(m.theory_text)
    return models


def setup(workload: str, seed: int, work: Path):
    """Import catlogic and build the inputs; return both and the time taken."""
    t0 = time.perf_counter()
    catlogic = import_catlogic()
    models = build_inputs(catlogic, workload, seed, work)
    return catlogic, models, time.perf_counter() - t0


# -- one pass over the jobs ---------------------------------------------------------

@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)   # job -> seconds
    calibration: list[float] = field(default_factory=list)  # seconds, around each job
    # "command:model" -> (exit code, report fingerprint, report) for CLI
    # jobs, the report kept only when the pass is checked against the
    # reference; "cold:model" and "warm:model" -> answers for queries
    outputs: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    memo_size: int = 0
    qmemo_size: int = 0


COMMANDS = {"thin-check": ("check", "redundancy"),
            "nonthin-check": ("validate", "check", "redundancy")}


def cli_pass(catlogic, workload: str, models: list[Model], tracer: Tracer | None,
             keep_reports: bool) -> Pass:
    p = Pass()
    for m in models:
        for cmd in COMMANDS[workload]:
            argv = [cmd, "--model", str(m.model_path)]
            if cmd != "validate":
                argv += ["--theory", str(m.theory_path)]
            job = f"{cmd}:{m.name}"
            if tracer is not None:
                tracer.job = tracer.phase = job
            out, err = io.StringIO(), io.StringIO()
            p.calibration.append(calibrate())
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = catlogic.run_cli(argv)
            except Exception as exc:  # a raising job is a failed job, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            p.times[job] = time.perf_counter() - t0
            p.attempted += 1
            report = out.getvalue()
            p.outputs[job] = (code, fingerprint(catlogic, report),
                              report if keep_reports else None)
    p.calibration.append(calibrate())
    return p


def query_pass(catlogic, models: list[Model], tracer: Tracer | None) -> Pass:
    p = Pass()
    for m in models:
        if tracer is not None:
            tracer.job = tracer.phase = f"prepare:{m.name}"
        p.calibration.append(calibrate())
        t0 = time.perf_counter()
        try:
            cat = catlogic.parse_category(m.model_text, name=m.name)
            theory = catlogic.parse_theory(m.theory_text, theory_id=m.name)
            if not catlogic.validate_category(cat).ok:
                raise ValueError(f"{m.name} fails validation")
            interp = catlogic.build_interpretation(catlogic.discover_structure(cat), theory)
        except Exception as exc:
            p.outputs[f"prepare:{m.name}"] = f"raised {type(exc).__name__}: {exc}"
            continue
        finally:
            p.times[f"prepare:{m.name}"] = time.perf_counter() - t0
            p.attempted += 1
        sig = theory.signature
        for phase in ("cold", "warm"):
            if tracer is not None:
                tracer.job = f"{phase}:{m.name}"
                tracer.phase = phase
            answers = []
            p.calibration.append(calibrate())
            t0 = time.perf_counter()
            for text in m.formulas:
                try:
                    answers.append(interp.interpret(catlogic.parse_formula(text, sig)).name)
                except Exception as exc:
                    answers.append(f"raised {type(exc).__name__}: {exc}")
            p.times[f"{phase}:{m.name}"] = time.perf_counter() - t0
            p.attempted += len(answers)
            p.outputs[f"{phase}:{m.name}"] = answers
        p.memo_size += len(interp.memo)
        p.qmemo_size += len(interp.qmemo)
    p.calibration.append(calibrate())
    return p


# -- checking ------------------------------------------------------------------------

def fingerprint(catlogic, report: str) -> str:
    return hashlib.sha256(catlogic.report.strip_timing(report).encode()).hexdigest()


def check_cli(models: list[Model], passes: list[Pass],
              problems: list[str]) -> tuple[int, dict[str, str]]:
    """Check the first pass against the reference and every later pass
    against the first; return the number of failed jobs and the fingerprints."""
    by_name = {m.name: m for m in models}
    failed = 0
    prints: dict[str, str] = {}
    for job, (code, digest, report) in passes[0].outputs.items():
        cmd, name = job.split(":", 1)
        m = by_name[name]
        if isinstance(code, str):
            bad = [code]
        else:
            try:
                bad = reference.check_report(cmd, code, report, m.model_text,
                                             m.theory_text, m.thin)
            except reference.UnmodelledInput as exc:
                bad = [f"the reference cannot read this report: {exc}"]
        prints[job] = digest
        if bad:
            failed += 1
            problems += [f"{job}: {b}" for b in bad[:5]]
    for later in passes[1:]:
        for job, (code, digest, _) in later.outputs.items():
            if (code, digest) != passes[0].outputs[job][:2]:
                failed += 1
                problems.append(f"{job}: differs from the first pass")
    return failed, prints


def check_queries(models: list[Model], passes: list[Pass],
                  problems: list[str]) -> tuple[int, dict[str, str]]:
    failed = 0
    prints: dict[str, str] = {}
    for m in models:
        lattice = reference.DownsetLattice(m.model_text)
        facts = reference.TheoryFacts(m.theory_text)
        want = [lattice.answer(text, facts) for text in m.formulas]
        for p in passes:
            if f"prepare:{m.name}" in p.outputs:
                failed += len(m.formulas) * 2 + 1
                problems.append(p.outputs[f"prepare:{m.name}"])
                continue
            for phase in ("cold", "warm"):
                answers = p.outputs[f"{phase}:{m.name}"]
                prints.setdefault(f"{phase}:{m.name}",
                                  hashlib.sha256("\n".join(answers).encode()).hexdigest())
                for text, got, exp in zip(m.formulas, answers, want):
                    if got != exp:
                        failed += 1
                        if len(problems) < 20:
                            problems.append(f"{phase} {m.name}: {text} gave {got}, expected {exp}")
    return failed, prints


# -- metrics ---------------------------------------------------------------------------

# the calibration kernel's inputs, fixed once so every kernel call does the same work
_CAL_RNG = random.Random(0)
_CAL_KEYS = [(_CAL_RNG.randrange(1000), _CAL_RNG.randrange(1000)) for _ in range(30000)]


@dataclass(frozen=True)
class _CalArrow:
    index: int
    dom: int
    cod: int


def calibrate() -> float:
    """Time a fixed pure-Python kernel doing what catlogic spends its time
    on: tuple-keyed dict fills and lookups over a few MB, and frozen
    dataclass lookups through a composition table.  About 35 ms on a 2-core
    VM.  The cyclic garbage collector is off meanwhile: otherwise the
    kernel's allocations can start a collection of the previous job's
    garbage, which made some samples four times slower."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict[tuple[int, int], tuple] = {}
        for i, k in enumerate(_CAL_KEYS):
            d[k] = (i, k)
        hits = sum(d[k][0] for k in _CAL_KEYS)
        arrows = [_CalArrow(i, i % 37, (i * 7) % 37) for i in range(1500)]
        table = [[(i + j) % 1500 for j in range(0, 1500, 25)] for i in range(1500)]
        for g in arrows[::3]:
            row = table[g.index]
            for f in arrows[:60]:
                hits += arrows[row[f.index]].dom == g.dom
        return time.perf_counter() - t0
    finally:
        gc.enable()


def median_times(passes: list[Pass]) -> dict[str, float]:
    """Each job's median time over the given passes."""
    return {job: statistics.median(p.times[job] for p in passes) for job in passes[0].times}


def calibrated(p: Pass) -> float:
    """The pass's job time in units of its mean calibration time."""
    return sum(p.times.values()) / statistics.fmean(p.calibration)


def command_metrics(workload: str, times: dict[str, float],
                    models: list[Model]) -> dict[str, float]:
    """Per-command totals of the job times ``times``."""
    total: dict[str, float] = {}
    for job, seconds in times.items():
        cmd = job.split(":", 1)[0]
        total[cmd] = total.get(cmd, 0.0) + seconds
    if workload == "oracle-queries":
        n = sum(len(m.formulas) for m in models)
        return {"prepare_s": total["prepare"],
                "query_cold_qps": n / total["cold"],
                "query_warm_qps": n / total["warm"]}
    return {f"{cmd}_s": total[cmd] for cmd in COMMANDS[workload]}


SELF_TIMES = {
    "kernel.parse_s": "kernel.parse",
    "kernel.validate_s": "kernel.validate",
    "structure.discover_s": "structure.discover",
    "semantics.prepare_s": "semantics.prepare",
    "semantics.conditions_s": "semantics.conditions",
    "logic.parse_formula_s": "logic.parse_formula",
    "logic.parse_theory_s": "logic.parse_theory",
    "theorems.delta_s": "theorems.delta",
    "theorems.frobenius_s": "theorems.frobenius",
    "report.render_s": "report.render",
    "cli.self_s": "cli",
}
COUNTERS = {
    "kernel.table_probes": ("kernel.validate", "table_entry"),
    "kernel.violations": ("kernel.validate", "violations"),
    "structure.compose_calls": ("structure.discover", "compose"),
    "structure.hom_calls": ("structure.discover", "hom"),
    "structure.witnesses": ("structure.discover", "witnesses"),
    "structure.failures": ("structure.discover", "failures"),
    "semantics.prepare.compose_calls": ("semantics.prepare", "compose"),
    "semantics.reach_size": ("semantics.prepare", "reach_size"),
    "semantics.reach_failures": ("semantics.prepare", "reach_failures"),
    "semantics.conditions.compose_calls": ("semantics.conditions", "compose"),
    "semantics.interpret.compose_calls": ("semantics.interpret", "compose"),
    "theorems.delta.compose_calls": ("theorems.delta", "compose"),
    "theorems.frobenius.compose_calls": ("theorems.frobenius", "compose"),
    "theorems.initiality_families": ("theorems.frobenius", "initiality_families"),
}


def layer_times(spans) -> dict[str, float]:
    out = dict.fromkeys(SELF_TIMES, 0.0)
    out["semantics.interpret_cold_s"] = out["semantics.interpret_warm_s"] = 0.0
    metric_of = {span: metric for metric, span in SELF_TIMES.items()}
    for s in spans:
        if s.name == "semantics.interpret":
            key = "semantics.interpret_warm_s" if s.phase == "warm" else "semantics.interpret_cold_s"
        else:
            key = metric_of[s.name]
        out[key] += s.self_time
    return out


def layer_counts(spans, p: Pass) -> dict[str, int]:
    out = dict.fromkeys(COUNTERS, 0)
    index = {}
    for metric, key in COUNTERS.items():
        index.setdefault(key[0], []).append((metric, key[1]))
    certs = failed = 0
    for s in spans:
        for metric, key in index.get(s.name, ()):
            out[metric] += s.counts.get(key, 0)
        if s.name == "theorems.delta":
            failed += s.failed
            certs += not s.failed
    out["theorems.delta.certs"] = certs
    out["theorems.delta.failed"] = failed
    out["semantics.memo_size"] = p.memo_size
    out["semantics.qmemo_size"] = p.qmemo_size
    return out


COMMAND_METRICS = ("validate_s", "check_s", "redundancy_s", "prepare_s",
                   "query_cold_qps", "query_warm_qps")
END_TO_END = ("jobs_cal", "setup_s", "peak_rss_mb")
PER_LAYER = (*SELF_TIMES, "semantics.interpret_cold_s", "semantics.interpret_warm_s",
             *COUNTERS, "theorems.delta.certs", "theorems.delta.failed",
             "semantics.memo_size", "semantics.qmemo_size",
             "structure.compose_per_witness", "trace.overhead_share",
             *(f"cmd.{name}" for name in COMMAND_METRICS))


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_cal"):
        return "cal"
    if name.endswith(("_share", "_per_witness")):
        return "ratio"
    return "count"


# -- the run ------------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the previous one's garbage
        cal = calibrate()
        catlogic, models, seconds_taken = setup(workload, seed, work)
        setups.append(seconds_taken / cal)
    setup_s = statistics.median(setups) * NOMINAL_CALIBRATION_S

    def one_pass(tracer: Tracer | None = None) -> Pass:
        gc.collect()  # start every pass from the same heap, outside the timing
        if workload == "oracle-queries":
            return query_pass(catlogic, models, tracer)
        return cli_pass(catlogic, workload, models, tracer, keep_reports=not passes)

    passes: list[Pass] = []
    traced_passes: list[tuple[Pass, dict, dict]] = []
    first_tracer: Tracer | None = None
    start = time.perf_counter()
    passes.append(one_pass())  # warm-up, checked against the reference
    while True:
        lap = time.perf_counter()
        passes.append(one_pass())
        if traced:
            tracer = Tracer()
            tracer.install(catlogic)
            try:
                p = one_pass(tracer)
            finally:
                tracer.uninstall()
            traced_passes.append((p, layer_times(tracer.spans), layer_counts(tracer.spans, p)))
            first_tracer = first_tracer or tracer
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems: list[str] = []
    every = passes + [p for p, _, _ in traced_passes]
    if workload == "oracle-queries":
        failed, prints = check_queries(models, every, problems)
    else:
        failed, prints = check_cli(models, every, problems)
    attempted = sum(p.attempted for p in every)

    timed = passes[1:]
    job_times = median_times(timed)
    commands = command_metrics(workload, job_times, models)
    metrics: dict[str, float] = {}
    if traced:
        counts = [c for _, _, c in traced_passes]
        if any(c != counts[0] for c in counts[1:]):
            failed += 1
            problems.append("traced passes disagree on their counters")
        metrics.update(counts[0])
        for key in traced_passes[0][1]:
            metrics[key] = statistics.median(t[key] for _, t, _ in traced_passes)
        metrics["structure.compose_per_witness"] = (
            metrics["structure.compose_calls"] / metrics["structure.witnesses"]
            if metrics["structure.witnesses"] else 0.0)
        untraced = sum(job_times.values())
        metrics["trace.overhead_share"] = (
            sum(median_times([p for p, _, _ in traced_passes]).values()) - untraced) / untraced
        for name in COMMAND_METRICS:
            metrics[f"cmd.{name}"] = commands.get(name, 0.0)
        write_spans(workload, seed, first_tracer)
    else:
        metrics["jobs_cal"] = statistics.median(calibrated(p) for p in timed)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
    write_fingerprints(workload, seed, prints)

    print(f"catbench {workload} seed={seed} trace={int(traced)}: "
          f"{len(timed)} timed passes after one warm-up, {len(traced_passes)} traced")
    print(f"  jobs_s = {sum(job_times.values()):.6g} s")
    for name, value in commands.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    print(f"  failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  fingerprint = {combined_fingerprint(prints)}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit(name)}
                        for name, value in metrics.items()}}


def combined_fingerprint(prints: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(prints, sort_keys=True).encode()).hexdigest()


def output_path(name: str) -> Path:
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    return out / name


def write_fingerprints(workload: str, seed: int, prints: dict[str, str]) -> None:
    output_path(f"fingerprints-{workload}-{seed}.json").write_text(
        json.dumps(prints, indent=1, sort_keys=True) + "\n")


def write_spans(workload: str, seed: int, tracer: Tracer) -> None:
    with open(output_path(f"spans-{workload}-{seed}.jsonl"), "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.record()) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "catlogic" / "__init__.py").is_file():
        print(f"error: catlogic sources not found under {SRC}", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
