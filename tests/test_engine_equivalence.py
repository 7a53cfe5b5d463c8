"""Differential tests: every engine is bit-identical to the AST engine.

Every example program, every Table 5 workload and the two hidden-storage
splits (a hidden global, a split class) run under all registered engines (``repro.runtime.ENGINES``: ast, compiled, codegen) — original and
split, batching on and off — and must
agree on outputs, return values, step counts, per-statement-kind metric
counts, and the full channel transcript.  Error paths (step limit, runtime
errors) must agree on message text and on the partial metrics flushed
while aborting.  The codegen engine must additionally achieve this without
deopting to the closure tier on any of these programs.
"""

import pathlib

import pytest

from repro import obs
from repro.core.classes import split_class
from repro.core.globals import hide_global
from repro.core.pipeline import auto_split
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.runtime import ENGINES
from repro.runtime.channel import LatencyModel
from repro.runtime.codegen import M_DEOPT
from repro.runtime.compile import M_COMPILE_SECONDS, M_ENGINE
from repro.runtime.interpreter import M_STEPS, M_STMTS, Interpreter, StepLimitExceeded
from repro.runtime.splitrun import run_split
from repro.runtime.values import RuntimeErr
from repro.workloads.corpora import SPECS, build_corpus
from tests.test_class_splitting import ACCOUNT
from tests.test_globals_hiding import BANK

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "programs"

#: entry arguments per example program (see each file's header comment)
EXAMPLE_ARGS = {
    "dotproduct.mj": (3,),
    "fig2.mj": (2, 3),
    "license_check.mj": (42, 7),
}

SCALE = 0.06  # keep the corpus filler population small for tests
CORPUS_ARGS = (2, 10)


def _stmt_counts(registry):
    counts = {}
    for m in registry.collect():
        if m.name == M_STMTS:
            counts[(m.labels["side"], m.labels["kind"])] = m.value
    return counts


def _deopts(registry):
    return sum(m.value for m in registry.collect() if m.name == M_DEOPT)


def _observed_original(program, args, engine):
    with obs.telemetry() as (registry, _tracer):
        interp = Interpreter(program, engine=engine)
        value = interp.run("main", args)
        if engine == "codegen":
            assert _deopts(registry) == 0, "codegen deopted"
    return {
        "value": value,
        "output": list(interp.output),
        "steps": interp.steps,
        "stmt_counts": _stmt_counts(registry),
    }


def _observed_split(sp, args, engine, batching):
    with obs.telemetry() as (registry, _tracer):
        result = run_split(
            sp, args=args, latency=LatencyModel.instant(),
            batching=batching, engine=engine,
        )
        if engine == "codegen":
            assert _deopts(registry) == 0, "codegen deopted"
    return {
        "value": result.value,
        "output": result.output,
        "steps_open": result.steps_open,
        "steps_hidden": result.steps_hidden,
        "stmt_counts": _stmt_counts(registry),
        "events": [
            (e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
            for e in result.channel.transcript.events
        ],
    }


def _assert_engines_agree_original(program, args):
    observed = {e: _observed_original(program, args, e) for e in ENGINES}
    for engine in ENGINES:
        assert observed["ast"] == observed[engine], (
            "engine %r diverged from ast" % engine
        )
    assert observed["ast"]["steps"] > 0


def _assert_engines_agree_split(sp, args):
    for batching in (False, True):
        observed = {e: _observed_split(sp, args, e, batching)
                    for e in ENGINES}
        for engine in ENGINES:
            assert observed["ast"] == observed[engine], (
                "engine %r diverged from ast (batching=%r)"
                % (engine, batching)
            )
        assert observed["ast"]["events"]


# -- example programs ---------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(EXAMPLE_ARGS))
def example(request):
    program = parse_program((PROGRAMS / request.param).read_text())
    checker = check_program(program)
    return program, checker, EXAMPLE_ARGS[request.param]


def test_example_original_bit_identical(example):
    program, _checker, args = example
    _assert_engines_agree_original(program, args)


def test_example_split_bit_identical(example):
    program, checker, args = example
    sp = auto_split(program, checker)
    assert sp.splits, "example should produce at least one split"
    _assert_engines_agree_split(sp, args)


# -- hidden storage -----------------------------------------------------------

#: split kind -> (how to split, the source, the arguments of main): the
#: fragments of these splits read and write hidden storage outside the
#: activation ("global" and "field" routes), and the class split's ``new``
#: sends object ids
STORAGE_SPLITS = {
    "global": (lambda p, c: hide_global(p, c, "balance"), BANK, (40,)),
    "field": (lambda p, c: split_class(p, c, "Account"), ACCOUNT, (40,)),
}


@pytest.mark.parametrize("kind", sorted(STORAGE_SPLITS))
def test_hidden_storage_split_bit_identical(kind):
    split, source, args = STORAGE_SPLITS[kind]
    program = parse_program(source)
    sp = split(program, check_program(program))
    _assert_engines_agree_split(sp, args)


# -- Table 5 workloads --------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(SPECS))
def corpus_split(request):
    corpus = build_corpus(request.param, scale=SCALE)
    sp = auto_split(corpus.program, corpus.checker)
    return corpus, sp


def test_workload_original_bit_identical(corpus_split):
    corpus, _sp = corpus_split
    _assert_engines_agree_original(corpus.program, CORPUS_ARGS)


def test_workload_split_bit_identical(corpus_split):
    _corpus, sp = corpus_split
    assert sp.splits
    _assert_engines_agree_split(sp, CORPUS_ARGS)


# -- error paths --------------------------------------------------------------

TIGHT_SRC = """
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

OOB_SRC = """
func int main(int x) {
    int[] a = new int[3];
    return a[x];
}
"""

HIDDEN_LOOP_SRC = """
func int f(int x, int[] B) {
    int a = x;
    while (a < 100000) {
        a = a + 1;
    }
    B[0] = a;
    return a;
}
func void main(int x) {
    int[] B = new int[2];
    print(f(x, B));
}
"""


def _parse(source):
    program = parse_program(source)
    check_program(program)
    return program


def test_step_limit_identical_and_metrics_flushed():
    program = _parse(TIGHT_SRC)
    observed = {}
    for engine in ENGINES:
        with obs.telemetry() as (registry, _tracer):
            interp = Interpreter(program, max_steps=100, engine=engine)
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run("main", (1000,))
        observed[engine] = {
            "message": str(exc.value),
            "steps": interp.steps,
            "stmt_counts": _stmt_counts(registry),
            "steps_metric": registry.value(M_STEPS, side="open"),
        }
    for engine in ENGINES:
        assert observed["ast"] == observed[engine], engine
    assert observed["ast"]["message"] == "exceeded 100 steps"
    # the aborted run still published its partial counts (try/finally)
    assert observed["ast"]["steps_metric"] == observed["ast"]["steps"]
    assert observed["ast"]["stmt_counts"]


def test_runtime_error_identical():
    program = _parse(OOB_SRC)
    messages = {}
    for engine in ENGINES:
        interp = Interpreter(program, engine=engine)
        with pytest.raises(RuntimeErr) as exc:
            interp.run("main", (5,))
        messages[engine] = str(exc.value)
    for engine in ENGINES:
        assert messages["ast"] == messages[engine], engine
    assert messages["ast"] == "array index 5 out of bounds [0, 3)"


def test_hidden_abort_flushes_partial_metrics():
    # satellite fix: a fragment hitting the step limit used to drop its
    # partial step/statement counts; both engines must now flush them
    program = _parse(HIDDEN_LOOP_SRC)
    checker = check_program(program)
    sp = split_program(program, checker, [("f", "a")])
    observed = {}
    for engine in ENGINES:
        with obs.telemetry() as (registry, _tracer):
            with pytest.raises(RuntimeErr) as exc:
                run_split(
                    sp, args=(1,), latency=LatencyModel.instant(),
                    max_steps=200, engine=engine,
                )
        observed[engine] = {
            "message": str(exc.value),
            "hidden_steps": registry.value(M_STEPS, side="hidden"),
            "stmt_counts": _stmt_counts(registry),
        }
    for engine in ENGINES:
        assert observed["ast"] == observed[engine], engine
    assert observed["ast"]["message"] == "hidden server exceeded 200 steps"
    assert observed["ast"]["hidden_steps"] > 0


# -- compilation caching and engine metrics -----------------------------------


def _compile_count(registry, side):
    for m in registry.collect():
        if m.name == M_COMPILE_SECONDS and m.labels.get("side") == side:
            return m.count
    return 0


def test_function_bodies_compile_once():
    program = _parse(TIGHT_SRC)
    with obs.telemetry() as (registry, _tracer):
        interp = Interpreter(program, engine="compiled")
        interp.run("main", (10,))
        assert _compile_count(registry, "open") == 1
        first = interp._compiler.body(program.functions[0])
        interp.run("main", (10,))
        assert _compile_count(registry, "open") == 1  # cache hit, no recompile
        assert interp._compiler.body(program.functions[0]) is first


def test_codegen_bodies_compile_once():
    program = _parse(TIGHT_SRC)
    with obs.telemetry() as (registry, _tracer):
        interp = Interpreter(program, engine="codegen")
        interp.run("main", (10,))
        assert _compile_count(registry, "open") == 1
        first = interp._codegen.body(program.functions[0])
        interp.run("main", (10,))
        assert _compile_count(registry, "open") == 1  # cache hit, no recompile
        assert interp._codegen.body(program.functions[0]) is first


def test_engine_counter_labels():
    program = _parse(TIGHT_SRC)
    with obs.telemetry() as (registry, _tracer):
        Interpreter(program, engine="compiled")
        Interpreter(program, engine="ast")
        Interpreter(program, engine="codegen")
    assert registry.value(M_ENGINE, engine="compiled", side="open") == 1
    assert registry.value(M_ENGINE, engine="ast", side="open") == 1
    assert registry.value(M_ENGINE, engine="codegen", side="open") == 1


def test_compile_seconds_engine_label():
    # satellite fix: compile-cost telemetry distinguishes the tiers
    program = _parse(TIGHT_SRC)
    with obs.telemetry() as (registry, _tracer):
        Interpreter(program, engine="compiled").run("main", (5,))
        Interpreter(program, engine="codegen").run("main", (5,))
    counts = {
        m.labels.get("engine"): m.count
        for m in registry.collect()
        if m.name == M_COMPILE_SECONDS and m.labels.get("side") == "open"
    }
    assert counts == {"compiled": 1, "codegen": 1}


def test_unknown_engine_rejected():
    program = _parse(TIGHT_SRC)
    with pytest.raises(ValueError, match="unknown engine"):
        Interpreter(program, engine="bytecode")
