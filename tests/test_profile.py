"""Continuous profiling: frame-tag attribution invariants, output formats,
and the structured deopt attribution (reason labels + ranked table)."""

import io
import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.lang import check_program, parse_program
from repro.lang.parser import parse_expression, parse_statements
from repro.obs import profile
from repro.obs.events import FlightRecorder
from repro.runtime import ENGINES
from repro.runtime.codegen import (
    M_DEOPT,
    CodegenRefused,
    DEOPT_COMPILE_LIMIT,
    DEOPT_INTERNAL,
    DEOPT_REFUSED,
    _classify_deopt,
)
from repro.runtime.splitrun import run_original, run_split
from repro.runtime.channel import LatencyModel
from repro.runtime.server import Tenant
from repro.core.hidden import FragmentKind, HiddenFragment
from repro.core.pipeline import prepare_split

SOURCE = """
func int work(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + i * i - (s / 7);
        i = i + 1;
    }
    return s;
}
func int helper(int n) {
    int acc = 0;
    int j = 0;
    while (j < n) {
        acc = acc + work(50);
        j = j + 1;
    }
    return acc;
}
func void main(int n) {
    print(helper(n));
}
"""


def _program():
    program = parse_program(SOURCE)
    return program, check_program(program)


def _profile_run(engine, split=False, min_s=0.25):
    program, checker = _program()
    sp = prepare_split(program, checker) if split else None
    with obs.telemetry():
        sampler = profile.StackSampler(interval_s=0.001)
        with sampler:
            while sampler.elapsed_s() < min_s:
                if sp is not None:
                    run_split(sp, args=(40,),
                              latency=LatencyModel.instant(), engine=engine)
                else:
                    run_original(program, args=(40,), engine=engine)
    return sampler.result


# -- attribution invariants ---------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_self_le_total_and_self_sums_to_attributed(engine):
    prof = _profile_run(engine)
    assert prof.samples > 0
    total_self = 0
    for (_name, _engine, _side), (self_n, total_n) in prof.rows.items():
        assert 0 <= self_n <= total_n <= prof.samples
        total_self += self_n
    # each attributed sample has exactly one innermost tag
    assert total_self == prof.attributed
    assert prof.attributed <= prof.samples


@pytest.mark.parametrize("engine", ENGINES)
def test_rows_carry_the_running_engine(engine):
    prof = _profile_run(engine)
    assert prof.rows, "nothing attributed"
    assert {e for (_n, e, _s) in prof.rows} == {engine}


@pytest.mark.parametrize("engine", ENGINES)
def test_attributed_time_tracks_wall_within_tolerance(engine):
    """The tagged rows must explain nearly all of the sampled wall time:
    the run spends its life inside MiniJava functions, so row seconds
    (samples x dt) should cover most of the duration."""
    prof = _profile_run(engine)
    assert prof.attributed_pct >= 80.0
    dt = prof.duration_s / prof.samples
    attributed_s = sum(row[0] for row in prof.rows.values()) * dt
    assert attributed_s <= prof.duration_s + 1e-9
    assert attributed_s >= 0.8 * prof.duration_s


def test_split_run_attributes_both_sides():
    prof = _profile_run("compiled", split=True, min_s=0.4)
    sides = {s for (_n, _e, s) in prof.rows}
    assert "open" in sides
    # helper's loop is the split candidate; a hidden row only appears if
    # something was split AND sampled — assert on names instead
    names = {n for (n, _e, _s) in prof.rows}
    assert names & {"work", "helper", "main"}


def test_nested_calls_attribute_total_to_callers():
    prof = _profile_run("ast")
    rows = {name: row for (name, _e, _s), row in prof.rows.items()}
    # main transitively contains everything: its total dominates its self
    if "main" in rows and "work" in rows:
        assert rows["main"][1] >= rows["work"][0]


# -- output formats -----------------------------------------------------------


def test_to_dict_and_report_and_collapsed_agree():
    prof = _profile_run("compiled")
    doc = prof.to_dict()
    assert doc["samples"] == prof.samples
    assert doc["attributed"] == prof.attributed
    assert doc["rows"] == sorted(
        doc["rows"], key=lambda r: -r["self_samples"])
    report = prof.report(top=5)
    assert "samples over" in report
    assert "engine" in report
    collapsed = prof.to_collapsed()
    for line in collapsed.strip().splitlines():
        stack, _, count = line.rpartition(" ")
        assert int(count) >= 1
        assert stack  # "side:engine:name;..." frames
    # collapsed counts sum to every sample (tagged + untagged stacks)
    total = sum(int(l.rpartition(" ")[2])
                for l in collapsed.strip().splitlines())
    assert total == prof.samples


def test_sampler_rejects_bad_interval_and_double_start():
    with pytest.raises(ValueError):
        profile.StackSampler(interval_s=0)
    sampler = profile.StackSampler(interval_s=0.01)
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()
    assert sampler.result is not None


def test_registry_resolves_static_and_resolver_tags():
    tags = profile.FrameTagRegistry()

    def target():
        return "x"

    tags.register_code(target.__code__, "t", "codegen", "open")
    import sys

    frame = sys._getframe()
    assert tags.resolve(frame) is None  # this frame is untagged

    class FakeFrame:
        f_code = target.__code__
        f_locals = {}

    assert tags.resolve(FakeFrame()) == ("t", "codegen", "open")
    tags.register_resolver(target.__code__, lambda f: ("r", "ast", "hidden"))
    assert tags.resolve(FakeFrame()) == ("r", "ast", "hidden")
    tags.register_resolver(target.__code__, lambda f: 1 / 0)
    assert tags.resolve(FakeFrame()) is None  # resolver errors -> untagged


# -- deopt attribution --------------------------------------------------------

# CPython refuses to compile more than 20 statically nested blocks; 24
# nested whiles force the codegen tier's generated source over that limit,
# so the function must deopt to the closure tier with reason compile-limit
# and still produce the ast engine's exact output.
_DEPTH = 24
_DEOPT_SOURCE = (
    "func int deep(int n) {\n"
    "    int s = 0;\n"
    + "    while (n > 0) {\n" * _DEPTH
    + "        s = s + 1;\n"
    + "        n = n - 1;\n"
    + "    }\n" * _DEPTH
    + "    return s;\n"
    "}\n"
    "func void main(int n) { print(deep(n)); }\n"
)


def test_classify_deopt_reasons():
    assert _classify_deopt(SyntaxError("too many statically nested blocks")) \
        == DEOPT_COMPILE_LIMIT
    assert _classify_deopt(RecursionError()) == DEOPT_COMPILE_LIMIT
    assert _classify_deopt(KeyError("bug")) == DEOPT_INTERNAL
    assert _classify_deopt(CodegenRefused()) == DEOPT_REFUSED
    assert _classify_deopt(CodegenRefused("unlowerable")) == "unlowerable"


def test_crafted_deopt_counts_reason_and_records_event():
    program = parse_program(_DEOPT_SOURCE)
    check_program(program)
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        result = run_original(program, args=(30,), engine="codegen")
    assert result.output == ["30"]  # the closure fallback is bit-identical
    _assert_one_compile_limit_deopt(registry, recorder, "open", "deep")


def _assert_one_compile_limit_deopt(registry, recorder, side, fn):
    assert registry.value(M_DEOPT, side=side, reason=DEOPT_COMPILE_LIMIT) == 1
    events = recorder.by_type("deopt")
    assert len(events) == 1
    event = events[0]
    assert event["side"] == side
    assert event["fn"] == fn
    assert event["reason"] == DEOPT_COMPILE_LIMIT
    assert event["where"].startswith("line ")


def _deep_tenant():
    """A tenant serving one fragment holding the same 24 nested whiles.
    No split produces a fragment that deep, so it is built directly."""
    fragment = HiddenFragment(
        0, FragmentKind.EXPR, params=["n"],
        body=parse_statements(
            "s = 0;\n"
            + "while (n > 0) {\n" * _DEPTH
            + "s = s + 1;\nn = n - 1;\n"
            + "}\n" * _DEPTH
        ),
        result_expr=parse_expression("s"),
    )
    return Tenant("deep", {0: ("deep", {0: fragment}, {})})


def _run_deep_fragment(engine, tenant=None):
    """``(result, hidden steps)`` of one call of the deep fragment, in a
    fresh session of ``tenant`` (a fresh tenant by default)."""
    server = (tenant or _deep_tenant()).new_server(engine=engine)
    hid = server.open_activation(0)
    return server.call(hid, 0, (30,), None), server.steps


def test_crafted_hidden_deopt_counts_reason_and_records_event():
    reference = _run_deep_fragment("ast")
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        result = _run_deep_fragment("codegen")
    assert result == reference  # same value, same step count
    assert result[0] == 30
    _assert_one_compile_limit_deopt(registry, recorder, "hidden", "fragment#0")


def test_sessions_of_one_tenant_share_one_hidden_deopt():
    # the fallback body is the tenant's: a second session reuses it
    # instead of generating, failing and counting the deopt again
    reference = _run_deep_fragment("ast")
    tenant = _deep_tenant()
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        results = [_run_deep_fragment("codegen", tenant) for _ in range(2)]
    assert results == [reference, reference]
    _assert_one_compile_limit_deopt(registry, recorder, "hidden", "fragment#0")


def test_deopt_report_joins_counter_and_events():
    program = parse_program(_DEOPT_SOURCE)
    check_program(program)
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        run_original(program, args=(25,), engine="codegen")
    report = profile.deopt_report(registry, recorder)
    assert report["total"] == 1
    assert report["by_reason"] == {DEOPT_COMPILE_LIMIT: 1}
    assert report["sites"][0]["fn"] == "deep"
    assert report["sites"][0]["count"] == 1
    text = profile.render_deopt_report(report)
    assert "1 fallback(s)" in text
    assert "deep" in text
    assert DEOPT_COMPILE_LIMIT in text


def test_deopt_report_empty():
    from repro.obs.metrics import Registry

    report = profile.deopt_report(Registry(), FlightRecorder())
    assert report == {"total": 0, "by_reason": {}, "sites": []}
    assert "no deopts" in profile.render_deopt_report(report)


def test_deopted_function_still_profiles_via_dispatch_frame():
    """A deopted (closure-fallback) function has no static code tag; its
    samples must still attribute through the call_function resolver."""
    program = parse_program(_DEOPT_SOURCE)
    check_program(program)
    with obs.telemetry():
        sampler = profile.StackSampler(interval_s=0.001)
        with sampler:
            while sampler.elapsed_s() < 0.2:
                run_original(program, args=(2000,), engine="codegen")
    prof = sampler.result
    names = {n for (n, _e, _s) in prof.rows}
    assert "deep" in names


# -- CLI ----------------------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    return str(path)


def test_cli_profile_text(prog_file):
    code, output = _run_cli([
        "profile", prog_file, "--args", "30", "--min-duration", "0.1",
        "--engine", "compiled",
    ])
    assert code == 0
    assert "samples over" in output
    assert "compiled" in output


def test_cli_profile_json_includes_deopt_block(prog_file):
    code, output = _run_cli([
        "profile", prog_file, "--args", "30", "--min-duration", "0.1",
        "--engine", "codegen", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(output)
    assert doc["engine"] == "codegen"
    assert doc["runs"] >= 1
    assert doc["profile"]["samples"] > 0
    assert doc["deopts"]["total"] == 0


def test_cli_profile_collapsed_output_file(prog_file, tmp_path):
    out_path = tmp_path / "stacks.txt"
    code, output = _run_cli([
        "profile", prog_file, "--args", "30", "--min-duration", "0.1",
        "--format", "collapsed", "--output", str(out_path),
    ])
    assert code == 0
    assert "wrote" in output
    lines = out_path.read_text().strip().splitlines()
    assert lines
    assert all(l.rpartition(" ")[2].isdigit() for l in lines)


def test_cli_profile_deopts_table(tmp_path):
    path = tmp_path / "deopt.mj"
    path.write_text(_DEOPT_SOURCE)
    code, output = _run_cli([
        "profile", str(path), "--original", "--args", "25",
        "--min-duration", "0.05", "--engine", "codegen", "--deopts",
    ])
    assert code == 0
    assert "deep" in output
    assert "compile-limit" in output


def test_cli_profile_needs_file_xor_corpus(prog_file):
    code, output = _run_cli(["profile"])
    assert code == 2
    assert "not both" in output
    code, output = _run_cli(
        ["profile", prog_file, "--corpus", "javac"])
    assert code == 2
