"""The live exposition endpoint: route behaviour against a real socket, and
the end-to-end serve + SIGTERM flush path."""

import io
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import export
from repro.obs.httpexpo import (
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_PROMETHEUS,
    ROUTES,
    ExpositionServer,
)
from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer

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


def _fetch(address, path):
    host, port = address
    with urllib.request.urlopen(
        "http://%s:%d%s" % (host, port, path), timeout=5
    ) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


@pytest.fixture
def live_server():
    registry = Registry()
    tracer = Tracer(registry=registry)
    registry.counter("repro_x_total", help="things", kind="a").inc(3)
    with tracer.span("phase"):
        pass
    server = ExpositionServer(registry, tracer)
    server.start()
    try:
        yield server, registry, tracer
    finally:
        server.stop()


def test_metrics_route_is_prometheus_exposition(live_server):
    server, registry, _ = live_server
    status, ctype, body = _fetch(server.address, "/metrics")
    assert status == 200
    assert ctype == CONTENT_TYPE_PROMETHEUS
    # byte-identical to the stats/--metrics exposition of the same registry
    assert body == export.to_prometheus(registry)
    assert 'repro_x_total{kind="a"} 3' in body


def test_metrics_json_route(live_server):
    server, registry, tracer = live_server
    status, ctype, body = _fetch(server.address, "/metrics.json")
    assert status == 200
    assert ctype == CONTENT_TYPE_JSON
    doc = json.loads(body)
    assert {m["name"] for m in doc["metrics"]} >= {"repro_x_total"}
    assert "phase" in doc["spans"]


def test_healthz_and_spans_routes(live_server):
    server, _, tracer = live_server
    status, _, body = _fetch(server.address, "/healthz")
    assert (status, body) == (200, "ok\n")
    status, ctype, body = _fetch(server.address, "/spans")
    assert status == 200
    assert ctype == CONTENT_TYPE_JSON
    assert json.loads(body) == json.loads(
        json.dumps(tracer.summary(), sort_keys=True)
    )


def test_unknown_route_404_lists_routes(live_server):
    server, _, _ = live_server
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _fetch(server.address, "/nope")
    assert exc_info.value.code == 404
    body = exc_info.value.read().decode()
    for route in ROUTES:
        assert route in body


def test_scrape_sees_live_mutations(live_server):
    server, registry, _ = live_server
    _, _, before = _fetch(server.address, "/metrics")
    registry.counter("repro_x_total", kind="a").inc(7)
    _, _, after = _fetch(server.address, "/metrics")
    assert 'repro_x_total{kind="a"} 3' in before
    assert 'repro_x_total{kind="a"} 10' in after


def test_query_strings_are_ignored(live_server):
    server, _, _ = live_server
    status, _, body = _fetch(server.address, "/healthz?probe=1")
    assert (status, body) == (200, "ok\n")


# -- CLI integration ---------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_run_split_expo_port_announces_endpoint(tmp_path):
    prog = tmp_path / "prog.mj"
    prog.write_text(SOURCE)
    code, out = _run_cli(
        ["run-split", str(prog), "--args", "2", "3", "--expo-port", "0"]
    )
    assert code == 0
    assert "metrics exposition on http://" in out
    assert "split verified equivalent" in out


def test_serve_sigterm_flushes_telemetry(tmp_path):
    """End to end: `repro serve --expo-port` scrapes live and a plain SIGTERM
    still writes --metrics and --log-events before exit."""
    prog = tmp_path / "prog.mj"
    prog.write_text(SOURCE)
    manifest = str(tmp_path / "manifest.json")
    code, _ = _run_cli(["export", str(prog), "-o", manifest])
    assert code == 0

    metrics_path = str(tmp_path / "metrics.json")
    events_path = str(tmp_path / "events.jsonl")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(obs.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(src), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", manifest,
         "--metrics", metrics_path, "--log-events", events_path,
         "--expo-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        expo_line = proc.stdout.readline()
        serving_line = proc.stdout.readline()
        assert "metrics exposition on http://" in expo_line
        assert "hidden component serving on" in serving_line
        url = expo_line.strip().rsplit("on ", 1)[1]
        assert url.endswith("/metrics")
        expo = url[: -len("/metrics")]
        with urllib.request.urlopen(expo + "/healthz", timeout=5) as resp:
            assert resp.read() == b"ok\n"
        with urllib.request.urlopen(expo + "/metrics", timeout=5) as resp:
            assert resp.headers["Content-Type"] == CONTENT_TYPE_PROMETHEUS
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # the SIGTERM path flushed both sinks on the way out
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not (
        os.path.exists(metrics_path) and os.path.exists(events_path)
    ):
        time.sleep(0.05)
    doc = json.loads(open(metrics_path).read())
    assert "metrics" in doc
    assert os.path.exists(events_path)


# -- recorder visibility and the tracer summary schema -----------------------


def test_metrics_json_includes_recorder_block():
    """Eviction visibility (docs/OBSERVABILITY.md): a live server given a
    flight recorder reports the buffer's health in /metrics.json."""
    from repro.obs.events import FlightRecorder

    registry = Registry()
    tracer = Tracer(registry=registry)
    recorder = FlightRecorder(max_events=2)
    for _ in range(3):
        recorder.record("fragment", fn=0, label=0, steps=1)
    server = ExpositionServer(registry, tracer, recorder=recorder)
    server.start()
    try:
        _, _, body = _fetch(server.address, "/metrics.json")
    finally:
        server.stop()
    doc = json.loads(body)
    assert doc["recorder"] == {
        "max_events": 2, "seq": 3, "evicted": 1, "buffered": 2,
    }


def test_export_omits_recorder_block_when_absent():
    registry = Registry()
    # no recorder (telemetry's "off" is None) means no all-zero block
    doc = json.loads(export.to_json(registry, None, obs.get_recorder()))
    assert "recorder" not in doc


def test_spans_summary_golden_schema(live_server):
    """The /spans document (= Tracer.summary()) is a stable interface:
    {name: {count, wall_s, sim_ms}} with wall measured and sim additive."""
    server, _, tracer = live_server
    with tracer.span("outer"):
        tracer.add_sim_ms(2.5)
    _, _, body = _fetch(server.address, "/spans")
    doc = json.loads(body)
    assert set(doc) >= {"phase", "outer"}
    for name, row in doc.items():
        assert set(row) == {"count", "wall_s", "sim_ms"}
        assert row["count"] >= 1
        assert row["wall_s"] >= 0.0
    assert doc["outer"]["sim_ms"] == 2.5
    # and the exported JSON document carries the identical summary
    exported = json.loads(export.to_json(server.registry, tracer))
    assert exported["spans"] == doc
