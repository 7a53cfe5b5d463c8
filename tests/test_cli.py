"""CLI tests (``python -m repro ...``)."""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SOURCE = """
func int f(int x, int y, int[] B) {
    int a = 3 * x + y;
    int q = a * a;
    B[0] = a + 1;
    B[1] = q;
    return q;
}
func void main(int x, int y) {
    int[] B = new int[4];
    print(f(x, y, B));
    print(B[0]);
}
"""


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_importing_the_cli_loads_no_numpy_and_no_bench():
    # repro serve and repro loadgen start through this import: the table
    # commands import repro.bench (and with it numpy) only when they run
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'numpy' or m.startswith('repro.bench')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_run(prog_file):
    code, out = run_cli(["run", prog_file, "--args", "2", "3"])
    assert code == 0
    assert out.splitlines()[0] == "81"  # (3*2+3)^2
    assert "statements executed" in out


def test_run_float_args(prog_file, tmp_path):
    path = tmp_path / "fl.mj"
    path.write_text("func void main(float x) { print(x * 2.0); }")
    code, out = run_cli(["run", str(path), "--args", "1.5"])
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_split_auto(prog_file):
    code, out = run_cli(["split", prog_file])
    assert code == 0
    assert "split of f on variable" in out
    assert "hcall(" in out


def test_split_explicit_with_fragments(prog_file):
    code, out = run_cli(
        ["split", prog_file, "--function", "f", "--var", "a", "--show-fragments"]
    )
    assert code == 0
    assert "hidden component" in out
    assert "fragment 0" in out


def test_run_split_verifies_and_reports(prog_file):
    code, out = run_cli(["run-split", prog_file, "--args", "2", "3"])
    assert code == 0
    assert "split verified equivalent" in out
    assert out.splitlines()[0] == "81"


def test_run_split_latency_choice(prog_file):
    _, lan_out = run_cli(["run-split", prog_file, "--args", "1", "1", "--latency", "lan"])
    _, card_out = run_cli(["run-split", prog_file, "--args", "1", "1", "--latency", "card"])

    def channel_ms(text):
        for token in text.split(","):
            if "ms channel time" in token:
                return float(token.split()[0])
        raise AssertionError(text)

    assert channel_ms(card_out) > channel_ms(lan_out)


def test_analyze(prog_file):
    code, out = run_cli(["analyze", prog_file])
    assert code == 0
    assert "ILP security characterisation" in out
    assert "Linear" in out or "Polynomial" in out
    assert "type histogram" in out


def test_table1(prog_file):
    code, out = run_cli(["table1", prog_file])
    assert code == 0
    assert "Number of Methods" in out


def test_attack(prog_file):
    code, out = run_cli(["attack", prog_file, "--runs", "30"])
    assert code == 0
    assert "Recovery attempts" in out
    assert "BROKEN" in out  # the linear leak falls


def test_parse_error_reported(tmp_path):
    path = tmp_path / "bad.mj"
    path.write_text("func int broken( { }")
    code, out = run_cli(["run", str(path)])
    assert code == 2
    assert "error:" in out


def test_missing_file():
    code, out = run_cli(["run", "/nonexistent/prog.mj"])
    assert code == 2
    assert "error:" in out


def test_split_nothing_to_split(tmp_path):
    path = tmp_path / "plain.mj"
    path.write_text("func void main() { print(1); }")
    code, out = run_cli(["split", str(path)])
    assert code == 1
    assert "nothing was split" in out


def test_export_manifest(prog_file, tmp_path):
    out_path = str(tmp_path / "manifest.json")
    code, out = run_cli(["export", prog_file, "-o", out_path])
    assert code == 0
    import json

    from repro.core.deploy import import_split
    from repro.runtime.splitrun import run_split

    with open(out_path) as f:
        manifest = json.load(f)
    deployed = import_split(manifest)
    result = run_split(deployed, args=(2, 3))
    assert result.output[0] == "81"


def test_lint_clean(prog_file):
    code, out = run_cli(["lint", prog_file])
    assert code == 0
    assert "no findings" in out


def test_lint_findings(tmp_path):
    path = tmp_path / "dirty.mj"
    path.write_text(
        "func int f(int x) { int ghost; int t = x; t = 1; return t; }"
        "func void main() { print(f(1)); }"
    )
    code, out = run_cli(["lint", str(path)])
    assert code == 1
    assert "unused-variable" in out
    assert "dead-store" in out


#: the telemetry interface the CLI exposes; renaming any of these is a
#: breaking change (see docs/OBSERVABILITY.md)
STABLE_METRIC_NAMES = {
    "repro_channel_round_trips_total",
    "repro_channel_values_total",
    "repro_channel_payload_bytes",
    "repro_channel_rtt_simulated_ms",
    "repro_channel_simulated_ms_total",
    "repro_server_activations_total",
    "repro_server_fragment_steps",
    "repro_steps_total",
    "repro_stmt_executions_total",
    "repro_phase_seconds",
    "repro_runs_total",
}


def test_stats_json_round_trip(prog_file):
    import json

    code, out = run_cli(["stats", prog_file, "--args", "2", "3"])
    assert code == 0
    doc = json.loads(out)
    names = {m["name"] for m in doc["metrics"]}
    assert STABLE_METRIC_NAMES <= names
    assert {"select", "slice", "classify", "rewrite"} <= set(doc["spans"])
    round_trips = sum(
        m["value"] for m in doc["metrics"]
        if m["name"] == "repro_channel_round_trips_total"
    )
    assert round_trips > 0


def test_stats_prometheus_round_trip(prog_file):
    code, out = run_cli(
        ["stats", prog_file, "--args", "2", "3", "--format", "prometheus"]
    )
    assert code == 0
    assert "# TYPE repro_channel_round_trips_total counter" in out
    assert "# TYPE repro_phase_seconds histogram" in out
    for name in STABLE_METRIC_NAMES:
        assert name in out
    # no unscrapable lines: every non-comment line is "name{labels} value"
    for line in out.strip().splitlines():
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        assert metric
        float(value)


def test_run_split_metrics_flag(prog_file, tmp_path):
    import json

    path = str(tmp_path / "out.json")
    code, out = run_cli(
        ["run-split", prog_file, "--args", "2", "3", "--metrics", path]
    )
    assert code == 0
    assert "split verified equivalent" in out
    doc = json.loads(open(path).read())
    names = {m["name"] for m in doc["metrics"]}
    assert "repro_channel_round_trips_total" in names
    assert "repro_steps_total" in names
    phases = {
        m["labels"]["phase"] for m in doc["metrics"]
        if m["name"] == "repro_phase_seconds"
    }
    assert {"select", "slice", "classify", "rewrite"} <= phases


def test_run_metrics_flag(prog_file, tmp_path):
    import json

    path = str(tmp_path / "run.json")
    code, _ = run_cli(["run", prog_file, "--args", "2", "3", "--metrics", path])
    assert code == 0
    doc = json.loads(open(path).read())
    steps = [
        m for m in doc["metrics"]
        if m["name"] == "repro_steps_total" and m["labels"]["side"] == "open"
    ]
    assert steps and steps[0]["value"] > 0


def test_run_split_log_events_flag(prog_file, tmp_path):
    """Acceptance: one jsonl event per channel round trip, count equal to
    the repro_channel_round_trips_total metric of the same run."""
    import json

    events_path = str(tmp_path / "events.jsonl")
    metrics_path = str(tmp_path / "metrics.json")
    code, _ = run_cli(
        ["run-split", prog_file, "--args", "2", "3",
         "--log-events", events_path, "--metrics", metrics_path]
    )
    assert code == 0
    events = [json.loads(l) for l in open(events_path)]
    channel = [e for e in events if e["type"] == "channel"]
    doc = json.loads(open(metrics_path).read())
    round_trips = sum(
        m["value"] for m in doc["metrics"]
        if m["name"] == "repro_channel_round_trips_total"
    )
    assert len(channel) == round_trips > 0
    assert {e["type"] for e in events} >= {"channel", "fragment", "span_open",
                                           "span_close"}


def test_run_split_log_events_chrome_format(prog_file, tmp_path):
    import json

    path = str(tmp_path / "trace.json")
    code, _ = run_cli(
        ["run-split", prog_file, "--args", "2", "3",
         "--log-events", path, "--log-events-format", "chrome"]
    )
    assert code == 0
    doc = json.loads(open(path).read())
    assert doc["traceEvents"]
    # M rows name the process/threads; B/E spans and i instants carry data
    assert {e["ph"] for e in doc["traceEvents"]} == {"M", "B", "E", "i"}


def test_stats_log_events_flag(prog_file, tmp_path):
    import json

    path = str(tmp_path / "events.jsonl")
    code, _ = run_cli(
        ["stats", prog_file, "--args", "2", "3", "--log-events", path]
    )
    assert code == 0
    events = [json.loads(l) for l in open(path)]
    assert any(e["type"] == "channel" for e in events)


def test_lint_split_quality(tmp_path):
    path = tmp_path / "weak.mj"
    path.write_text(
        "func int f(int x, int[] B) { int a = x + 1; B[0] = a; return a; }"
        "func void main(int x) { int[] B = new int[2]; print(f(x, B)); }"
    )
    code, out = run_cli(["lint", str(path), "--split"])
    assert code == 1
    assert "weak-protection" in out


# -- distributed tracing (docs/OBSERVABILITY.md) -----------------------------


def test_run_split_trace_requires_remote(prog_file):
    code, out = run_cli(["run-split", prog_file, "--args", "2", "3",
                         "--trace"])
    assert code == 2
    assert "--trace requires --remote" in out


def test_run_split_remote_trace_end_to_end(prog_file, tmp_path):
    from repro.core.program import split_program
    from repro.lang import check_program, parse_program
    from repro.runtime.remote import remote_server

    # serve the same split the CLI will select with --function/--var
    program = parse_program(SOURCE)
    sp = split_program(program, check_program(program), [("f", "a")])
    client_log = str(tmp_path / "client.jsonl")
    with remote_server(sp) as (host, port):
        code, out = run_cli(
            ["run-split", prog_file, "--args", "2", "3",
             "--function", "f", "--var", "a",
             "--remote", "%s:%d" % (host, port), "--trace",
             "--log-events", client_log]
        )
    assert code == 0
    assert "real round trips" in out
    assert "[traced; clock offset" in out

    merged = str(tmp_path / "merged.json")
    code, out = run_cli(["trace", client_log, "--out", merged])
    assert code == 0
    assert "Round-trip latency attribution (us)" in out
    import re

    explained = float(re.search(r"phases explain: ([\d.]+)%", out).group(1))
    assert explained == pytest.approx(100.0, abs=0.5)  # per-field rounding
    doc = json.load(open(merged))
    assert doc["otherData"]["aligned"] is True


def test_trace_cli_committed_example(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    client = str(root / "examples/traces/dotproduct.client.jsonl")
    server = str(root / "examples/traces/dotproduct.server.jsonl")
    merged = str(tmp_path / "merged.json")
    code, out = run_cli(["trace", client, server, "--out", merged])
    assert code == 0
    assert "wrote %s" % merged in out
    assert "clocks unaligned" not in out
    assert "Round-trip latency attribution (us)" in out

    code, out = run_cli(["trace", client, server, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["overall"]["round_trips"] > 0
    assert report["overall"]["coverage_pct"] == pytest.approx(100.0, abs=0.1)


def test_trace_cli_untraced_stream_notice(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"seq": 1, "ts_us": 1.0, "type": "channel", "kind": "call", '
        '"fn": 0, "label": 1, "values": 1, "bytes": 10, "sim_ms": 0.1}\n'
    )
    code, out = run_cli(["trace", str(path)])
    assert code == 0
    assert "no traced round trips" in out
    assert "--trace" in out
