"""The benchmark ledger: every speed claim perfbench does not cover, in one
document (``BENCH.json``, gated by ``tools/check_bench.py``).

Four sections, each composed from experiment code:

* ``engines`` — warm statements/second of every engine
  (``repro.runtime.ENGINES``) on a tight arithmetic loop and on the five
  corpora, and each engine's speedup over the AST walker;
* ``telemetry`` — the same TCP ``run-split`` workload with telemetry off
  (``plain``), with a flight recorder and registry live (``recorded``) and
  with tracing on top (``traced``): what telemetry and tracing cost, and
  whether an untraced run's accounting is identical;
* ``load`` — 100 synthetic clients against one daemon serving the four
  Table 5 corpora as tenants (``run_loadgen_experiment``);
* ``profile`` — sample attribution per corpus and engine
  (``run_profile_experiment``).

The whole run is pinned to one CPU, as perfbench's is.  Every gated number
is a ratio against a baseline measured alongside it (an engine against the
AST walker in the same repeat, a telemetry cell against the cell before it
in the same round), and the ledger keeps each repeat as
``{"median": m, "repeats": [...]}`` so the gate can band it by its spread.
Absolute seconds and milliseconds are detail.  Regenerate with::

    PYTHONPATH=src python -m repro.bench ledger --output BENCH.json
"""

import gc
import os
import statistics
import time
from contextlib import contextmanager

from repro import obs
from repro.bench.experiments import (
    ExperimentResult,
    run_loadgen_experiment,
    run_profile_experiment,
)
from repro.bench.tables import Table
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.obs.events import FlightRecorder
from repro.runtime import ENGINES
from repro.runtime.compile import M_COMPILE_SECONDS
from repro.runtime.interpreter import Interpreter
from repro.runtime.remote import remote_server, run_split_remote
from repro.workloads.corpora import SPECS, build_corpus

TIGHT_LOOP_SRC = """
func int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"""

#: one hidden-fragment call per loop iteration, so each iteration is real
#: wire traffic
WIRE_SRC = """
func int f(int x) {
    int a = x * 3 + 1;
    int b = a - 2;
    return a + b;
}
func int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + f(i);
        i = i + 1;
    }
    return s;
}
"""

#: the engines timed against the AST walker
COMPILED_TIERS = tuple(e for e in ENGINES if e != "ast")
TIGHT_LOOP_N = 50_000
#: corpus scale and driver arguments of the engine workloads
ENGINE_SCALE = 0.25
CORPUS_ARGS = (2, 30)
#: corpus scale of the load and profile sections
SECTION_SCALE = 0.3
#: interleaved rounds per engine repeat, each timing at least MIN_S
ROUNDS = 5
MIN_S = 0.02

TELEMETRY_CELLS = ("plain", "recorded", "traced")


def measured(values, digits=2):
    """A gated number: the median of its repeats, and the repeats."""
    return {"median": round(statistics.median(values), digits),
            "repeats": [round(v, digits) for v in values]}


@contextmanager
def pinned_cpu():
    """Run the block on one CPU (see perfbench/run.py for why)."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# -- engines ------------------------------------------------------------------


def tight_loop_program():
    program = parse_program(TIGHT_LOOP_SRC)
    check_program(program)
    return program


def _rate(interp, args):
    """Statements/second of back-to-back warm runs lasting ``MIN_S``."""
    before = interp.steps
    started = time.perf_counter()
    while True:
        interp.run("main", args)
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_S:
            return (interp.steps - before) / elapsed


def engine_speed(program, args, repeats=5):
    """Every engine on one program: whether they agree, their warm
    statements/second, and each compiled tier's speedup over ``ast``.

    A first, untimed run per engine pays compilation (reported as
    ``compile_s``) and gives the value and step count all engines must
    agree on.  A repeat then times the engines in turn ``ROUNDS`` times
    and keeps each engine's fastest rate; its speedups are ratios of
    those."""
    interps, outcomes = {}, set()
    with obs.telemetry() as (registry, _tracer):
        for engine in ENGINES:
            interp = interps[engine] = Interpreter(program, engine=engine,
                                                   max_steps=None)
            outcomes.add((interp.run("main", args), interp.steps))
        compile_s = dict.fromkeys(COMPILED_TIERS, 0.0)
        for m in registry.collect():
            if m.name == M_COMPILE_SECONDS and m.labels.get("engine") in compile_s:
                compile_s[m.labels["engine"]] += m.sum
    rates = {engine: [] for engine in ENGINES}
    for _ in range(repeats):
        fastest = dict.fromkeys(ENGINES, 0.0)
        for _ in range(ROUNDS):
            for engine, interp in interps.items():
                fastest[engine] = max(fastest[engine], _rate(interp, args))
        for engine in ENGINES:
            rates[engine].append(fastest[engine])
    return {
        "identical": len(outcomes) == 1,
        "steps": min(steps for _value, steps in outcomes),
        "stmts_per_s": {engine: round(statistics.median(r))
                        for engine, r in rates.items()},
        "compile_s": {e: round(s, 6) for e, s in compile_s.items()},
        "speedup": {engine: measured([a / b for a, b
                                      in zip(rates[engine], rates["ast"])])
                    for engine in COMPILED_TIERS},
    }


def engines():
    workloads = {"tight_loop": engine_speed(tight_loop_program(),
                                            (TIGHT_LOOP_N,))}
    for name in sorted(SPECS):
        program = build_corpus(name, scale=ENGINE_SCALE).program
        workloads[name] = engine_speed(program, CORPUS_ARGS)
    return {"scale": ENGINE_SCALE, "tight_loop_n": TIGHT_LOOP_N,
            "workload_args": CORPUS_ARGS, "workloads": workloads}


# -- telemetry ----------------------------------------------------------------


def _fingerprint(result):
    """Everything telemetry must not change."""
    kinds = tuple(e.kind for e in result.channel.transcript.events)
    return (result.value, tuple(result.output), result.steps_open,
            result.interactions, kinds)


def _time_cell(sp, address, iters, cell):
    gc.collect()
    started = time.perf_counter()
    if cell == "plain":
        result = run_split_remote(sp, address, args=(iters,))
    else:
        with obs.telemetry(recorder=FlightRecorder(process="Of")):
            result = run_split_remote(sp, address, args=(iters,),
                                      trace=(cell == "traced"))
    return time.perf_counter() - started, _fingerprint(result)


def telemetry(iters=150, rounds=9, repeats=7):
    """Telemetry and tracing overhead on the real wire.

    A repeat runs the three cells in turn ``rounds`` times and keeps each
    cell's fastest run (a slow phase of the machine only ever adds time);
    its overheads are ratios of those minima.  ``telemetry_overhead_pct``
    is ``recorded`` over ``plain``, ``trace_overhead_pct`` is ``traced``
    over ``recorded``: tracing's increment over live telemetry."""
    program = parse_program(WIRE_SRC)
    sp = split_program(program, check_program(program), [("f", "a")])
    fingerprints = set()
    best = {cell: [] for cell in TELEMETRY_CELLS}
    with remote_server(sp) as address:
        for _ in range(repeats):
            fastest = dict.fromkeys(TELEMETRY_CELLS, float("inf"))
            for _ in range(rounds):
                for cell in TELEMETRY_CELLS:
                    seconds, fingerprint = _time_cell(sp, address, iters, cell)
                    fingerprints.add(fingerprint)
                    fastest[cell] = min(fastest[cell], seconds)
            for cell in TELEMETRY_CELLS:
                best[cell].append(fastest[cell])

    def overhead(cell, base):
        return measured([100.0 * (c / b - 1.0)
                         for c, b in zip(best[cell], best[base])])

    return {
        "iters": iters,
        "rounds": rounds,
        "round_trips": min(f[3] for f in fingerprints),
        "seconds": {cell: round(statistics.median(s), 6)
                    for cell, s in best.items()},
        "telemetry_overhead_pct": overhead("recorded", "plain"),
        "trace_overhead_pct": overhead("traced", "recorded"),
        # output, steps, round trips and transcript event kinds
        "off_accounting_identical": len(fingerprints) == 1,
    }


# -- the ledger ---------------------------------------------------------------


def run_ledger():
    """Measure every section, pinned to one CPU; returns the document as
    the result's ``data``."""
    with pinned_cpu():
        doc = {"engines": engines(), "telemetry": telemetry()}
        results = {"load": run_loadgen_experiment(scale=SECTION_SCALE),
                   "profile": run_profile_experiment(scale=SECTION_SCALE)}
    doc.update((name, r.data) for name, r in results.items())

    table = Table("Benchmark ledger: speedup over ast (median of repeats)",
                  ["Workload"] + list(COMPILED_TIERS))
    for name, row in doc["engines"]["workloads"].items():
        table.add_row(name, *("%.2fx" % row["speedup"][e]["median"]
                              for e in COMPILED_TIERS))
    tel = doc["telemetry"]
    summary = ("telemetry overhead %.1f%%, trace overhead %.1f%% "
               "(median of %d repeats)" % (
                   tel["telemetry_overhead_pct"]["median"],
                   tel["trace_overhead_pct"]["median"],
                   len(tel["trace_overhead_pct"]["repeats"])))
    text = "\n\n".join([table.render(), summary]
                        + [r.render() for r in results.values()])
    return ExperimentResult("ledger", doc, text)
