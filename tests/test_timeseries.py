"""Time-series soak telemetry: the snapshot ring, the /timeseries.json and
drain-aware /healthz routes, the `repro top` dashboard, and the loadgen
scrape.series fallback."""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.loadgen.harness import scrape_timeseries
from repro.obs import timeseries
from repro.obs.httpexpo import ExpositionServer
from repro.obs.metrics import Registry
from repro.obs.timeseries import SnapshotCollector, TimeSeries, render_top
from repro.obs.tracing import Tracer


def _fetch(address, path):
    host, port = address
    with urllib.request.urlopen(
        "http://%s:%d%s" % (host, port, path), timeout=5
    ) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


# -- the ring -----------------------------------------------------------------


def test_ring_evicts_oldest_and_counts_drops():
    series = TimeSeries(maxlen=3, interval_s=0.1)
    for i in range(5):
        series.add({"t": float(i)})
    assert len(series) == 3
    assert series.taken == 5
    assert series.dropped == 2
    assert [s["t"] for s in series.last(3)] == [2.0, 3.0, 4.0]
    doc = series.to_dict()
    assert doc["maxlen"] == 3
    assert doc["taken"] == 5
    assert doc["dropped"] == 2
    assert len(doc["snapshots"]) == 3


def test_ring_rejects_degenerate_bound():
    with pytest.raises(ValueError):
        TimeSeries(maxlen=1)


def test_snapshot_strips_buckets_keeps_quantiles_and_extra():
    registry = Registry()
    registry.counter("repro_x_total", help="x").inc(2)
    hist = registry.histogram(
        "repro_y_seconds", help="y", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    snap = timeseries.snapshot(registry, extra={"health": "ok"})
    assert snap["health"] == "ok"
    assert snap["t"] <= time.time()
    by_name = {s["name"]: s for s in snap["metrics"]}
    assert by_name["repro_x_total"]["value"] == 2
    hist_sample = by_name["repro_y_seconds"]
    assert "buckets" not in hist_sample
    assert hist_sample["count"] == 2
    assert set(hist_sample["quantiles"]) == {"p50", "p95", "p99"}


def test_collector_fills_ring_and_survives_failing_probe():
    registry = Registry()
    calls = []

    def probe():
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("flaky probe")
        return {"health": "ok"}

    series = TimeSeries(maxlen=10, interval_s=0.03)
    with SnapshotCollector(registry, series, extra_fn=probe):
        deadline = time.monotonic() + 2.0
        while len(series) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    snaps = series.last(10)
    assert len(snaps) >= 3  # slot 0 at start, then the cadence
    assert snaps[0].get("health") == "ok"
    assert "health" not in snaps[1]  # the probe failed, the slot survived


def test_collector_rejects_double_start():
    series = TimeSeries(maxlen=2, interval_s=5.0)
    collector = SnapshotCollector(Registry(), series).start()
    try:
        with pytest.raises(RuntimeError):
            collector.start()
    finally:
        collector.stop()


# -- the routes ---------------------------------------------------------------


@pytest.fixture
def live_server():
    registry = Registry()
    tracer = Tracer(registry=registry)
    server = ExpositionServer(registry, tracer)
    server.start()
    try:
        yield server, registry
    finally:
        server.stop()


def test_timeseries_route_404_until_attached(live_server):
    server, _ = live_server
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _fetch(server.address, "/timeseries.json")
    assert exc_info.value.code == 404
    assert "--snapshot-interval" in exc_info.value.read().decode()


def test_timeseries_route_serves_ring(live_server):
    server, registry = live_server
    registry.counter("repro_x_total", help="x").inc()
    series = TimeSeries(maxlen=4, interval_s=0.5)
    series.add(timeseries.snapshot(registry, extra={"health": "ok"}))
    server.timeseries = series
    status, ctype, body = _fetch(server.address, "/timeseries.json")
    assert status == 200
    assert ctype.startswith("application/json")
    doc = json.loads(body)
    assert doc["interval_s"] == 0.5
    assert len(doc["snapshots"]) == 1
    assert doc["snapshots"][0]["health"] == "ok"


def test_healthz_reports_health_callback_state(live_server):
    server, _ = live_server
    state = ["ok"]
    server.health = lambda: state[0]
    assert _fetch(server.address, "/healthz")[2] == "ok\n"
    state[0] = "draining"
    # still HTTP 200: probes distinguish states by body, not status
    status, _, body = _fetch(server.address, "/healthz")
    assert (status, body) == (200, "draining\n")
    server.health = lambda: 1 / 0
    assert _fetch(server.address, "/healthz")[2] == "error\n"


def test_healthz_tracks_daemon_drain(live_server):
    """The serve wiring end to end: the health probe flips to `draining`
    the moment the daemon starts its graceful shutdown."""
    from repro.core.program import split_program
    from repro.lang import check_program, parse_program
    from repro.runtime.remote import HiddenComponentServer
    from repro.runtime.server import Tenant

    source = """
    func int f(int x) { int a = x + 1; return a * 2; }
    func void main(int x) { print(f(x)); }
    """
    program = parse_program(source)
    sp = split_program(program, check_program(program), [("f", "a")])
    daemon = HiddenComponentServer(
        tenants=[Tenant.from_program("default", sp)], port=0)
    expo, _ = live_server
    expo.health = (
        lambda: "draining" if daemon._draining.is_set() else "ok"
    )
    try:
        assert _fetch(expo.address, "/healthz")[2] == "ok\n"
        daemon.drain()
        assert _fetch(expo.address, "/healthz")[2] == "draining\n"
    finally:
        daemon.shutdown()


# -- the dashboard ------------------------------------------------------------


def _canned_doc():
    """Two snapshots 5s apart: prog served 10 ops, one codegen deopt."""

    def snap(t, ops, deopts, health="ok"):
        return {
            "t": t,
            "health": health,
            "metrics": [
                {"name": "repro_remote_exec_seconds", "type": "histogram",
                 "labels": {"program": "prog"}, "count": ops, "sum": 0.01,
                 "quantiles": {"p50": 0.0001, "p95": 0.0005, "p99": 0.001}},
                {"name": "repro_remote_clients", "type": "gauge",
                 "labels": {"program": "prog"}, "value": 2},
                {"name": "repro_remote_sessions_total", "type": "counter",
                 "labels": {"program": "prog"}, "value": 3},
                {"name": "repro_codegen_deopt_total", "type": "counter",
                 "labels": {"side": "open", "reason": "compile-limit"},
                 "value": deopts},
            ],
        }

    return {
        "interval_s": 5.0,
        "maxlen": 360,
        "taken": 2,
        "dropped": 0,
        "snapshots": [snap(100.0, 0, 0), snap(105.0, 10, 1,
                                              health="draining")],
    }


def test_render_top_rates_from_last_two_snapshots():
    screen = render_top(_canned_doc())
    assert "2 snapshot(s)" in screen
    assert "health: draining" in screen
    line = [l for l in screen.splitlines() if l.split()[:1] == ["prog"]][0]
    assert "2.0" in line  # 10 ops / 5s
    assert "500us" in line  # p95
    assert "0.20" in line  # 1 deopt / 5s
    columns = line.split()
    assert columns[0] == "prog"
    assert columns[3] == "2"  # clients gauge
    assert columns[4] == "3"  # sessions counter


def test_render_top_single_snapshot_shows_dashes():
    doc = _canned_doc()
    doc["snapshots"] = doc["snapshots"][-1:]
    screen = render_top(doc)
    line = [l for l in screen.splitlines() if l.split()[:1] == ["prog"]][0]
    assert "-" in line.split()
    assert "health: draining" in screen


def test_render_top_empty_and_idle_documents():
    assert "no snapshots" in render_top({"snapshots": []})
    doc = {"interval_s": 5.0,
           "snapshots": [{"t": 1.0, "metrics": []}]}
    assert "no per-program traffic" in render_top(doc)


# -- CLI: repro top -----------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_cli_top_renders_snapshot_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(_canned_doc()))
    code, out = _run_cli(["top", str(path)])
    assert code == 0
    assert "repro top" in out
    assert "prog" in out
    assert "2.0" in out


def test_cli_top_once_against_live_daemon(live_server):
    server, registry = live_server
    for _ in range(4):
        registry.histogram("repro_remote_exec_seconds",
                           program="alpha").observe(0.001)
    series = TimeSeries(maxlen=4, interval_s=1.0)
    series.add(timeseries.snapshot(registry))
    server.timeseries = series
    url = "http://%s:%d" % server.address
    code, out = _run_cli(["top", url, "--once"])
    assert code == 0
    assert "alpha" in out


def test_cli_top_unreachable_source_fails_cleanly(tmp_path):
    code, out = _run_cli(["top", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in out


# -- loadgen scrape fallback --------------------------------------------------


def test_scrape_timeseries_reduces_ring(live_server):
    server, registry = live_server
    for _ in range(7):
        registry.histogram("repro_remote_exec_seconds",
                           program="alpha").observe(0.001)
    registry.counter("repro_other_total", help="noise").inc(9)
    series = TimeSeries(maxlen=4, interval_s=1.0)
    series.add({"t": 1.0, "health": "ok", "metrics": []})  # before the run
    series.add(timeseries.snapshot(registry, extra={"health": "ok"}))
    server.timeseries = series
    url = "http://%s:%d/metrics.json" % server.address
    out = scrape_timeseries(url, since=2.0)
    assert out is not None
    assert len(out["snapshots"]) == 1  # `since` dropped the stale slot
    samples = out["snapshots"][0]["samples"]
    assert samples["repro_remote_exec_seconds{program=alpha}"] == 7
    assert not any(k.startswith("repro_other") for k in samples)


def test_scrape_timeseries_none_for_daemon_without_ring(live_server):
    server, _ = live_server
    url = "http://%s:%d/metrics.json" % server.address
    assert scrape_timeseries(url) is None  # 404 -> graceful omit


def test_scrape_timeseries_none_for_dead_daemon():
    assert scrape_timeseries("http://127.0.0.1:9/metrics.json") is None


# -- CLI: serve flag validation -----------------------------------------------


def test_serve_snapshot_interval_requires_expo_port(tmp_path):
    code, out = _run_cli(
        ["serve", str(tmp_path / "m.json"), "--snapshot-interval", "5"])
    assert code == 2
    assert "--expo-port" in out


def test_serve_snapshot_interval_must_be_positive(tmp_path):
    code, out = _run_cli(
        ["serve", str(tmp_path / "m.json"), "--expo-port", "0",
         "--snapshot-interval", "0"])
    assert code == 2
    assert "positive" in out
