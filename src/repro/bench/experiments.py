"""One entry point per table/figure of the paper.

Every function returns an object with structured ``data`` plus a rendered
text table matching the paper's layout, so benchmarks can both assert on
shapes and print the reproduction next to the paper's numbers.
"""

import threading
from functools import lru_cache

from repro import obs
from repro.analysis.selfcontained import analyze_self_contained
from repro.attack.driver import attack_split_program
from repro.bench import paperexamples
from repro.bench.tables import Table
from repro.core.pipeline import auto_split
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.runtime.channel import M_ROUND_TRIPS, M_SIM_MS, LatencyModel
from repro.runtime import DEFAULT_ENGINE
from repro.runtime.interpreter import M_STEPS
from repro.runtime.splitrun import check_equivalence, run_original, run_split
from repro.security.lattice import CType, VARYING
from repro.security.report import analyze_split_security
from repro.workloads.corpora import SPECS, build_corpus
from repro.workloads.inputs import TABLE5_RUNS

#: the paper's Table 1 column order and Table 2 row order
TABLE1_ORDER = ["jfig", "jess", "bloat", "javac", "jasmin"]
TABLE2_ORDER = ["javac", "jess", "jasmin", "bloat", "jfig"]

#: paper values for side-by-side comparison
PAPER_TABLE1 = {
    "jfig": (2987, 21, 6, 0),
    "jess": (1622, 6, 6, 0),
    "bloat": (3839, 35, 9, 1),
    "javac": (1898, 16, 8, 8),
    "jasmin": (645, 7, 5, 3),
}
PAPER_TABLE2 = {
    "javac": (7, 168, 67),
    "jess": (11, 192, 57),
    "jasmin": (6, 47, 31),
    "bloat": (16, 161, 99),
    "jfig": (17, 583, 160),
}
PAPER_TABLE3 = {
    # constant, linear, polynomial, rational, arbitrary, inputs, degree
    "javac": (5, 38, 1, 0, 23, "varying", 2),
    "jess": (8, 13, 2, 0, 34, 4, 2),
    "jasmin": (3, 15, 1, 0, 12, 4, 2),
    "bloat": (25, 22, 12, 0, 40, 5, 2),
    "jfig": (8, 62, 23, 31, 36, 7, 6),
}
PAPER_TABLE4 = {
    # paths=variable, predicates=hidden, flow=hidden
    "javac": (3, 42, 35),
    "jess": (0, 28, 16),
    "jasmin": (0, 16, 12),
    "bloat": (0, 63, 49),
    "jfig": (15, 105, 63),
}

#: latency calibrated to the paper's 2003 LAN setting relative to the
#: interpreter's 1us/statement cost model (ratio ~1400 statements per
#: round trip).
TABLE5_LATENCY = LatencyModel(per_message_ms=1.4, per_value_us=20.0)


class ExperimentResult:
    """Structured data plus a rendered table."""

    def __init__(self, name, data, table):
        self.name = name
        self.data = data
        self.table = table

    def render(self):
        return self.table.render() if isinstance(self.table, Table) else str(self.table)

    def __repr__(self):
        return "<ExperimentResult %s>" % self.name


@lru_cache(maxsize=None)
def _corpus(name, scale):
    return build_corpus(name, scale=scale)


@lru_cache(maxsize=None)
def split_corpus(name, scale=1.0):
    """Split one corpus with the paper's full selection pipeline."""
    corpus = _corpus(name, scale)
    return auto_split(corpus.program, corpus.checker)


@lru_cache(maxsize=None)
def _security_report(name, scale=1.0):
    corpus = _corpus(name, scale)
    return analyze_split_security(split_corpus(name, scale), corpus.checker, name)


# -- Table 1 -----------------------------------------------------------------


def run_table1(scale=1.0):
    """Opportunities for constructing hidden components from whole methods."""
    table = Table(
        "Table 1: self-contained methods (ours vs paper in parentheses)",
        ["Metric"] + TABLE1_ORDER,
    )
    data = {}
    reports = {}
    for name in TABLE1_ORDER:
        corpus = _corpus(name, scale)
        reports[name] = analyze_self_contained(corpus.program, name)
        data[name] = (
            reports[name].total,
            len(reports[name].self_contained),
            len(reports[name].large),
            len(reports[name].non_initializer),
        )
    labels = [
        "Number of Methods",
        "Self-contained Methods",
        "Self-contained > 10",
        "Excluding Initializers",
    ]
    for i, label in enumerate(labels):
        cells = [label]
        for name in TABLE1_ORDER:
            cells.append("%d (%d)" % (data[name][i], PAPER_TABLE1[name][i]))
        table.add_row(*cells)
    return ExperimentResult("table1", data, table)


# -- Table 2 -----------------------------------------------------------------


def run_table2(scale=1.0):
    """Split characteristics: methods sliced / statements in slice / ILPs."""
    table = Table(
        "Table 2: split characteristics (ours vs paper in parentheses)",
        ["Benchmark", "Methods Sliced", "Statements in Slice", "ILPs"],
    )
    data = {}
    for name in TABLE2_ORDER:
        sp = split_corpus(name, scale)
        row = (sp.methods_sliced(), sp.statements_in_slices(), sp.ilp_count())
        data[name] = row
        paper = PAPER_TABLE2[name]
        table.add_row(
            name,
            "%d (%d)" % (row[0], paper[0]),
            "%d (%d)" % (row[1], paper[1]),
            "%d (%d)" % (row[2], paper[2]),
        )
    return ExperimentResult("table2", data, table)


# -- Table 3 -----------------------------------------------------------------


def run_table3(scale=1.0):
    """Arithmetic complexity of ILPs."""
    table = Table(
        "Table 3: arithmetic complexity of ILPs (ours vs paper in parentheses)",
        [
            "Benchmark",
            "Constant",
            "Linear",
            "Polynomial",
            "Rational",
            "Arbitrary",
            "Inputs(max)",
            "Degree(max)",
        ],
    )
    data = {}
    for name in TABLE2_ORDER:
        report = _security_report(name, scale)
        hist = report.type_histogram()
        inputs = report.max_inputs()
        degree = report.max_degree()
        data[name] = (hist, inputs, degree)
        paper = PAPER_TABLE3[name]
        table.add_row(
            name,
            "%d (%d)" % (hist[CType.CONSTANT], paper[0]),
            "%d (%d)" % (hist[CType.LINEAR], paper[1]),
            "%d (%d)" % (hist[CType.POLYNOMIAL], paper[2]),
            "%d (%d)" % (hist[CType.RATIONAL], paper[3]),
            "%d (%d)" % (hist[CType.ARBITRARY], paper[4]),
            "%s (%s)" % (inputs, paper[5]),
            "%s (%s)" % (degree, paper[6]),
        )
    return ExperimentResult("table3", data, table)


# -- Table 4 -----------------------------------------------------------------


def run_table4(scale=1.0):
    """Control flow complexity of ILPs."""
    table = Table(
        "Table 4: control flow complexity of ILPs (ours vs paper in parentheses)",
        ["Benchmark", "Paths = variable", "Predicates = hidden", "Flow = hidden"],
    )
    data = {}
    for name in TABLE2_ORDER:
        report = _security_report(name, scale)
        row = (
            report.paths_variable_count(),
            report.predicates_hidden_count(),
            report.flow_hidden_count(),
        )
        data[name] = row
        paper = PAPER_TABLE4[name]
        table.add_row(
            name,
            "%d (%d)" % (row[0], paper[0]),
            "%d (%d)" % (row[1], paper[1]),
            "%d (%d)" % (row[2], paper[2]),
        )
    return ExperimentResult("table4", data, table)


# -- Table 5 -----------------------------------------------------------------


def run_table5(scale=1.0, latency=None, runs=None, batching=False,
               engine=DEFAULT_ENGINE):
    """Runtime overhead caused by software splitting.

    Executes each paper row's driver invocation on both the original and
    split corpus and reports component interactions and simulated runtimes.
    Channel and step numbers come from the telemetry registry
    (:mod:`repro.obs`) — each run executes under a scoped registry whose
    counters replace the old hand-rolled accounting.

    ``batching=True`` runs the split side with the communication
    optimisation layer on (send coalescing + callback batching,
    docs/PROTOCOL.md and docs/BENCHMARKS.md); the default reproduces the
    paper's one-message-per-interaction channel exactly.
    """
    latency = latency or TABLE5_LATENCY
    runs = runs if runs is not None else TABLE5_RUNS
    table = Table(
        "Table 5: runtime overhead (simulated; paper %increase in parentheses)",
        [
            "Benchmark",
            "Input",
            "Interactions",
            "Before (ms)",
            "After (ms)",
            "% Increase",
            "Paper %",
        ],
    )
    data = []
    for run in runs:
        corpus = _corpus(run.benchmark, scale)
        sp = split_corpus(run.benchmark, scale)
        args = (run.n, run.m)
        with obs.telemetry() as (reg_before, _tracer):
            before = run_original(corpus.program, args=args, engine=engine)
        with obs.telemetry() as (reg_after, _tracer):
            after = run_split(sp, args=args, latency=latency, record=False,
                              batching=batching, engine=engine)
        if before.output != after.output:
            raise AssertionError(
                "split %s diverged on %s" % (run.benchmark, run.input_name)
            )
        before_steps = reg_before.value(M_STEPS, side="open")
        open_steps = reg_after.value(M_STEPS, side="open")
        hidden_steps = reg_after.value(M_STEPS, side="hidden")
        channel_ms = reg_after.value(M_SIM_MS)
        interactions = int(reg_after.total(M_ROUND_TRIPS))
        # Per-row statement cost calibrated so the simulated baseline equals
        # the paper's: one interpreted statement stands for a fixed number
        # of real ones (see repro.workloads.inputs).
        stmt_cost_us = run.paper_before_s * 1e6 / before_steps
        before_ms = before_steps * stmt_cost_us / 1000.0
        after_ms = (
            open_steps * stmt_cost_us / 1000.0
            + hidden_steps * stmt_cost_us / 1000.0
            + channel_ms
        )
        pct = 100.0 * (after_ms - before_ms) / before_ms
        data.append(
            {
                "benchmark": run.benchmark,
                "input": run.input_name,
                "interactions": interactions,
                "before_ms": before_ms,
                "after_ms": after_ms,
                "increase_pct": pct,
                "paper_pct": run.paper_increase_pct,
            }
        )
        table.add_row(
            run.benchmark,
            run.input_name,
            interactions,
            "%.1f" % before_ms,
            "%.1f" % after_ms,
            "%.0f%%" % pct,
            "%.0f%%" % run.paper_increase_pct,
        )
    return ExperimentResult("table5", data, table)


# -- Round-trip latency attribution (the wire behind Table 5) ----------------


def run_rt_attribution(scale=0.3, runs=None):
    """Where the real wire time goes, per Table 5 corpus.

    Table 5's overhead numbers are simulated; this experiment runs each
    corpus once against an actual TCP-served hidden component with
    distributed tracing on (``--trace``, docs/OBSERVABILITY.md) and
    decomposes the measured round trips into serialize / wire / exec /
    deser.  The "Explained" column is the share of the measured wall time
    the four phases account for — 100% up to rounding, by construction.
    """
    from repro.obs import traceview
    from repro.obs.events import FlightRecorder
    from repro.runtime.remote import remote_server, run_split_remote

    runs = runs if runs is not None else TABLE5_RUNS
    picked = []
    for run in runs:  # first driver invocation of each benchmark
        if all(p.benchmark != run.benchmark for p in picked):
            picked.append(run)
    table = Table(
        "Round-trip latency attribution over the wire (us, share of wall)",
        ["Benchmark", "Round trips", "Wall (us)", "serialize", "wire",
         "exec", "deser", "Explained"],
    )
    data = {}
    for run in picked:
        sp = split_corpus(run.benchmark, scale)
        recorder = FlightRecorder(process="Of")
        with remote_server(sp) as address:
            # telemetry scoped to the client only: the server thread was
            # created outside, so its events stay out of this recorder
            with obs.telemetry(recorder=recorder):
                run_split_remote(sp, address, args=(run.n, run.m),
                                 trace=True)
        report = traceview.attribution(list(recorder.events))
        overall = report["overall"]
        data[run.benchmark] = report
        total = overall["total_us"] or 1.0
        cells = [run.benchmark, overall["round_trips"],
                 "%.1f" % overall["total_us"]]
        for phase in ("serialize", "wire", "exec", "deser"):
            us = overall["phases_us"][phase]
            cells.append("%.1f (%.0f%%)" % (us, 100.0 * us / total))
        cells.append("%.2f%%" % overall["coverage_pct"])
        table.add_row(*cells)
    return ExperimentResult("rtattr", data, table)


# -- Concurrent load against the multi-tenant daemon -------------------------


def run_loadgen_experiment(scale=0.3, clients_total=100, iterations=1,
                           runs=None):
    """Concurrent load against ONE daemon serving every Table 5 corpus.

    Each corpus becomes a tenant of a single multi-tenant daemon
    (docs/OPERATIONS.md); its session shape comes from a simulated run's
    transcript (the same extraction ``repro loadgen`` applies to a
    ``--log-events`` file).  ``clients_total`` synthetic clients — split
    evenly across the tenants, all fleets offered concurrently — replay
    those shapes over real TCP, and the table reports per-tenant
    throughput and exact p50/p95/p99 round-trip latency.
    """
    from repro.loadgen import run_loadgen
    from repro.loadgen.replay import script_from_transcript
    from repro.runtime.remote import remote_server
    from repro.runtime.server import Tenant

    runs = runs if runs is not None else TABLE5_RUNS
    picked = []
    for run in runs:  # first driver invocation of each benchmark
        if all(p.benchmark != run.benchmark for p in picked):
            picked.append(run)
    tenants, scripts = [], {}
    for run in picked:
        sp = split_corpus(run.benchmark, scale)
        tenants.append(Tenant.from_program(run.benchmark, sp))
        scripts[run.benchmark] = script_from_transcript(
            run_split(sp, args=(run.n, run.m)).channel.transcript
        )
    per_tenant = max(1, clients_total // len(picked))
    reports = {}
    with remote_server(tenants=tenants) as address:
        def fleet(name):
            reports[name] = run_loadgen(
                address, scripts[name], clients=per_tenant,
                iterations=iterations, program=name,
            )
        threads = [threading.Thread(target=fleet, args=(run.benchmark,))
                   for run in picked]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    table = Table(
        "Concurrent load: %d clients against one %d-tenant daemon"
        % (per_tenant * len(picked), len(picked)),
        ["Tenant", "Clients", "Ops", "Ops/s", "p50 (ms)", "p95 (ms)",
         "p99 (ms)", "Errors"],
    )
    for run in picked:
        report = reports[run.benchmark]
        lat = report["latency_ms"]
        errors = sum(report["errors"].values())
        table.add_row(
            run.benchmark, report["clients"], report["ops"],
            "%.0f" % report["throughput_ops_s"],
            "%.2f" % lat["p50"], "%.2f" % lat["p95"], "%.2f" % lat["p99"],
            errors,
        )
    data = {
        "scale": scale,
        "clients_total": per_tenant * len(picked),
        "tenants": [run.benchmark for run in picked],
        "reports": reports,
    }
    return ExperimentResult("loadgen", data, table)


# -- Continuous profiling over the corpora ------------------------------------


def run_profile_experiment(scale=0.3, interval_ms=1.0, min_duration_s=1.2,
                           engines=None, runs=None):
    """Sample every Table 5 corpus per engine and attribute the time.

    Each cell runs the split corpus under the stack sampler
    (:mod:`repro.obs.profile`), repeating the run until ``min_duration_s``
    of wall time was sampled, and records how much of it the frame-tag
    registry could attribute to ``(fn/fragment, engine, side)`` rows plus
    the codegen deopt attribution: the ``profile`` section of the benchmark
    ledger (``BENCH.json``, gated by ``tools/check_bench.py``: >=95%
    attribution everywhere, zero codegen deopts).
    """
    from repro.obs import profile as profmod
    from repro.obs.events import FlightRecorder
    from repro.runtime import ENGINES

    engines = list(engines) if engines else list(ENGINES)
    runs = runs if runs is not None else TABLE5_RUNS
    picked = []
    for run in runs:  # first driver invocation of each benchmark
        if all(p.benchmark != run.benchmark for p in picked):
            picked.append(run)
    table = Table(
        "Continuous profiling: sample attribution per corpus and engine",
        ["Benchmark", "Engine", "Samples", "Attributed", "Hottest (self)",
         "Deopts"],
    )
    corpora = {}
    for run in picked:
        sp = split_corpus(run.benchmark, scale)
        cells = corpora.setdefault(run.benchmark, {})
        for engine in engines:
            recorder = FlightRecorder()
            runs_done = 0
            with obs.telemetry(recorder=recorder) as (registry, _tracer):
                sampler = profmod.StackSampler(
                    interval_s=interval_ms / 1000.0)
                with sampler:
                    while True:
                        run_split(sp, args=(run.n, run.m),
                                  latency=LatencyModel.instant(),
                                  engine=engine)
                        runs_done += 1
                        if sampler.elapsed_s() >= min_duration_s:
                            break
                deopts = profmod.deopt_report(registry, recorder)
            prof = sampler.result
            doc = prof.to_dict()
            cells[engine] = {
                "samples": doc["samples"],
                "attributed": doc["attributed"],
                "attributed_pct": doc["attributed_pct"],
                "duration_s": doc["duration_s"],
                "runs": runs_done,
                "top": doc["rows"][:5],
                "deopts": deopts,
            }
            hottest = doc["rows"][0] if doc["rows"] else None
            table.add_row(
                run.benchmark, engine, doc["samples"],
                "%.1f%%" % doc["attributed_pct"],
                "%s (%s, %.0f%%)" % (
                    hottest["fn"], hottest["side"], hottest["self_pct"]
                ) if hottest else "-",
                deopts["total"],
            )
    data = {
        "scale": scale,
        "interval_ms": interval_ms,
        "min_duration_s": min_duration_s,
        "engines": engines,
        "corpora": corpora,
    }
    return ExperimentResult("profile", data, table)


# -- Figures -----------------------------------------------------------------


def _fig_setup(source, fn_name, var):
    program = parse_program(source)
    checker = check_program(program)
    sp = split_program(program, checker, [(fn_name, var)])
    return program, checker, sp


def run_fig2_experiment(engine=DEFAULT_ENGINE):
    """The paper's worked splitting example (Fig. 2)."""
    program, checker, sp = _fig_setup(
        paperexamples.FIG2_SOURCE, paperexamples.FIG2_FUNCTION, paperexamples.FIG2_VARIABLE
    )
    with obs.telemetry() as (registry, _tracer):
        before, after = check_equivalence(program, sp, engine=engine)
    report = analyze_split_security(sp, checker, "fig2")
    table = Table(
        "Fig. 2: splitting f on variable a",
        ["ILP", "kind", "AC", "CC"],
    )
    for c in report.complexities:
        table.add_row(str(c.ilp), c.ilp.kind, str(c.ac), str(c.cc))
    data = {
        "split": sp,
        "complexities": report.complexities,
        "interactions": int(registry.total(M_ROUND_TRIPS)),
        "ilp_count": len(sp.splits[paperexamples.FIG2_FUNCTION].ilps),
    }
    return ExperimentResult("fig2", data, table)


def run_fig3_experiment(engine=DEFAULT_ENGINE):
    """The estimator example (Fig. 3): definite leaks and the RAISE rule."""
    program, checker, sp = _fig_setup(
        paperexamples.FIG3_SOURCE, paperexamples.FIG3_FUNCTION, paperexamples.FIG3_VARIABLE
    )
    check_equivalence(program, sp, engine=engine)
    report = analyze_split_security(sp, checker, "fig3")
    table = Table(
        "Fig. 3: complexity estimation on the modified example",
        ["ILP", "kind", "AC", "CC"],
    )
    for c in report.complexities:
        table.add_row(str(c.ilp), c.ilp.kind, str(c.ac), str(c.cc))
    return ExperimentResult("fig3", {"complexities": report.complexities}, table)


# -- Attack ------------------------------------------------------------------


def run_attack_experiment(n_runs=60, seed=7):
    """Section 3's recovery-feasibility argument, executed: attack every ILP
    of the Fig. 2 program and correlate outcomes with complexity class."""
    import random

    program, checker, sp = _fig_setup(
        paperexamples.FIG2_SOURCE, paperexamples.FIG2_FUNCTION, paperexamples.FIG2_VARIABLE
    )
    report = analyze_split_security(sp, checker, "fig2")
    ac_by_label = {}
    for c in report.complexities:
        ac_by_label.setdefault(c.ilp.label, c.ac)

    # drive `run` directly with random inputs for a rich observation pool
    rng = random.Random(seed)
    runs = [
        (rng.randint(0, 9), rng.randint(0, 9), rng.randint(5, 40), rng.randint(0, 60))
        for _ in range(n_runs)
    ]
    outcomes = attack_split_program(sp, runs, entry="run")

    table = Table(
        "Attack outcomes per ILP (Section 3, practical limitations)",
        ["Fragment", "AC", "Outcome", "Technique", "Samples"],
    )
    data = []
    for (fn_name, label), outcome in sorted(outcomes.items()):
        ac = ac_by_label.get(label)
        win = outcome.winning
        table.add_row(
            "%s#%d" % (fn_name, label),
            str(ac) if ac else "-",
            "BROKEN" if outcome.broken else "resisted",
            win.technique if win else "-",
            win.samples_used if win else len(outcome.trace),
        )
        data.append({"label": label, "ac": ac, "outcome": outcome})
    return ExperimentResult("attack", data, table)
