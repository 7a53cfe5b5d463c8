"""The observability subsystem: metrics, tracing, exposition, and the
instrumented runtime layers."""

import json

import pytest

from repro import obs
from repro.obs import export
from repro.obs.metrics import Histogram, Registry, declare
from repro.obs.tracing import Tracer

from repro.lang import check_program, parse_program
from repro.core.pipeline import auto_split
from repro.core.program import split_program
from repro.runtime.splitrun import run_split


SOURCE = """
func int f(int x, int[] B) {
    int a = x * 3 + 1;
    B[0] = a;
    int b = a - 2;
    B[1] = b;
    return b;
}
func void main(int x) {
    int[] B = new int[4];
    print(f(x, B));
    print(B[0]);
    print(B[1]);
}
"""


def _split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return program, split_program(program, checker, [("f", "a")])


# -- metrics primitives ------------------------------------------------------


def test_counter_and_gauge():
    reg = Registry()
    c = reg.counter("c_total", help="a counter", kind="x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("g")
    g.set(5)
    g.dec(2)
    assert g.value == 3


def test_metric_identity_by_name_and_labels():
    reg = Registry()
    a = reg.counter("c", kind="x")
    b = reg.counter("c", kind="x")
    other = reg.counter("c", kind="y")
    assert a is b
    assert a is not other
    assert reg.value("c", kind="x") == 0
    a.inc(4)
    assert reg.value("c", kind="x") == 4
    assert reg.total("c") == 4


def test_metric_kind_conflict_rejected():
    reg = Registry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")


def test_one_name_holds_one_kind_and_one_grid_across_label_sets():
    # a second label set must not smuggle in a second kind or bucket grid:
    # the exposition would print one # TYPE over samples of two kinds
    reg = Registry()
    reg.counter("repro_x", k="1")
    with pytest.raises(TypeError):
        reg.histogram("repro_x", k="2")
    reg.histogram("repro_h", buckets=(1, 2), k="1")
    with pytest.raises(TypeError):
        reg.histogram("repro_h", buckets=(1, 5), k="2")
    # omitting the grid takes the one the first registration fixed
    assert reg.histogram("repro_h", k="3").buckets == (1, 2)
    text = export.to_prometheus(reg)
    assert text.count("# TYPE repro_x ") == 1
    assert "repro_x_bucket" not in text


def test_declared_metric_fixes_kind_help_buckets_and_labels(monkeypatch):
    monkeypatch.setattr("repro.obs.metrics.DECLARED", {})
    name = declare("test_declared_seconds", "histogram", "declared once",
                   ("side",), buckets=(1, 2))
    reg = Registry()
    h = reg.histogram(name, side="open")
    assert h.buckets == (1, 2)
    assert reg.help_text(name) == "declared once"
    assert reg.family(name).child("open") is h
    with pytest.raises(TypeError):
        reg.counter(name, side="open")
    with pytest.raises(TypeError):
        reg.histogram(name, buckets=(5,), side="hidden")
    with pytest.raises(TypeError):
        reg.histogram(name, kind="x")
    with pytest.raises(ValueError):
        declare(name, "counter", "twice")


def test_histogram_buckets_and_mean():
    reg = Registry()
    h = reg.histogram("h", buckets=(1, 10, 100))
    for v in (0.5, 5, 50, 500):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 555.5
    assert h.cumulative() == [(1, 1), (10, 2), (100, 3), (float("inf"), 4)]
    assert h.mean == pytest.approx(138.875)


def test_histogram_quantile_interpolation():
    reg = Registry()
    h = reg.histogram("h", buckets=(10, 20, 40))
    assert h.quantile(0.5) == 0.0  # empty histogram
    for v in (5, 15, 15, 35):
        h.observe(v)
    # target rank 2.0 lands at the top of the (10, 20] bucket's first half
    assert h.quantile(0.5) == pytest.approx(15.0)
    assert h.quantile(0.25) == pytest.approx(10.0)
    # anything past the last finite bucket clamps to that bound
    h.observe(1000)
    assert h.quantile(1.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_json_exposition_includes_quantiles():
    reg = Registry()
    h = reg.histogram("h", buckets=(1, 2, 4))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    doc = json.loads(export.to_json(reg, None))
    sample = doc["metrics"][0]
    assert set(sample["quantiles"]) == {"p50", "p95", "p99"}
    assert sample["quantiles"]["p50"] == pytest.approx(h.quantile(0.5))
    assert (
        sample["quantiles"]["p50"]
        <= sample["quantiles"]["p95"]
        <= sample["quantiles"]["p99"]
    )
    # quantiles are a JSON-only enrichment: the Prometheus text exposition
    # stays byte-stable (scrapers compute their own from the buckets)
    assert "quantile" not in export.to_prometheus(reg)


def test_telemetry_is_none_when_off():
    assert obs.active_registry() is None
    assert obs.get_tracer() is None
    assert obs.get_recorder() is None
    obs.install()
    try:
        assert obs.active_registry() is not None
        assert obs.get_registry() is obs.active_registry()
        assert obs.get_tracer() is not None
    finally:
        obs.uninstall()
    assert obs.active_registry() is None
    assert obs.get_tracer() is None
    assert obs.get_recorder() is None


def test_get_registry_when_off_drops_what_is_recorded():
    # code outside the library may record without checking for telemetry
    obs.get_registry().histogram("outside_seconds", help="h").observe(1.0)
    obs.get_registry().counter("outside_seconds").inc()
    assert len(obs.get_registry()) == 0
    with obs.telemetry() as (reg, _tracer):
        assert obs.get_registry() is reg
    assert "outside_seconds" not in reg.names()


def test_perfbench_fragment_timer_works_with_telemetry_on_and_off(monkeypatch):
    import importlib.util
    import os

    from repro.runtime.server import HiddenServer

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "probes.py")
    spec = importlib.util.spec_from_file_location("perfbench_probes", path)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    monkeypatch.setattr(HiddenServer, "_execute", HiddenServer._execute)
    probes.time_fragments()
    _, sp = _split()
    assert run_split(sp, args=(4,)).interactions > 0
    with obs.telemetry() as (reg, _tracer):
        run_split(sp, args=(4,))
    timed = reg.histogram(probes.FRAGMENT_SECONDS)
    executions = sum(m.count for m in reg.collect()
                     if m.name == "repro_server_fragment_steps")
    assert timed.count == executions > 0


# -- tracing -----------------------------------------------------------------


def test_tracer_nested_spans_and_sim_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.add_sim_ms(2.0)
        tracer.add_sim_ms(1.0)
    summary = tracer.summary()
    assert summary["inner"]["sim_ms"] == pytest.approx(2.0)
    # the parent subsumes the child's simulated time plus its own
    assert summary["outer"]["sim_ms"] == pytest.approx(3.0)
    assert summary["outer"]["wall_s"] >= summary["inner"]["wall_s"]


def test_tracer_records_phase_histogram():
    reg = Registry()
    tracer = Tracer(registry=reg)
    with tracer.span("slice"):
        pass
    phases = [
        m for m in reg.collect() if m.name == "repro_phase_seconds"
    ]
    assert [m.labels["phase"] for m in phases] == ["slice"]
    assert phases[0].count == 1


def test_span_is_a_noop_when_off():
    with obs.span("x", fn="f") as s:
        assert s is None
    with obs.telemetry() as (_reg, tracer):
        with obs.span("x", fn="f") as s:
            assert s.attrs == {"fn": "f"}
    assert tracer.summary()["x"]["count"] == 1


# -- global switch -----------------------------------------------------------


def test_telemetry_scoping_restores_previous():
    assert obs.active_registry() is None
    with obs.telemetry() as (reg, tracer):
        assert obs.get_registry() is reg
        assert obs.get_tracer() is tracer
        with obs.telemetry() as (inner, _):
            assert obs.get_registry() is inner
        assert obs.get_registry() is reg
    assert obs.active_registry() is None
    assert obs.get_tracer() is None


# -- instrumented runtime ----------------------------------------------------


def test_run_split_populates_registry():
    _, sp = _split()
    with obs.telemetry() as (reg, tracer):
        result = run_split(sp, args=(4,))
    assert reg.total("repro_channel_round_trips_total") == result.interactions
    assert reg.value("repro_steps_total", side="open") == result.steps_open
    assert reg.value("repro_steps_total", side="hidden") == result.steps_hidden
    assert reg.value("repro_channel_simulated_ms_total") == pytest.approx(
        result.channel.simulated_ms
    )
    assert reg.value("repro_runs_total", mode="split") == 1
    # per-ILP value counts carry fragment labels
    labelled = [
        m for m in reg.collect()
        if m.name == "repro_channel_values_total" and m.labels["label"] != "-"
    ]
    assert labelled
    assert reg.value("repro_server_activations_total", event="open") == 1
    assert reg.value("repro_server_activations_total", event="close") == 1
    # statement-kind counters exist on both sides
    sides = {
        m.labels["side"] for m in reg.collect()
        if m.name == "repro_stmt_executions_total"
    }
    assert sides == {"open", "hidden"}
    assert tracer.summary()["run.split"]["sim_ms"] == pytest.approx(
        result.channel.simulated_ms
    )


def test_disabled_telemetry_records_nothing():
    _, sp = _split()
    result = run_split(sp, args=(4,))
    assert result.interactions > 0
    assert obs.active_registry() is None
    assert result.channel._registry is None


def _registry_lookups(monkeypatch, n):
    """``Registry._get`` calls of one in-process run of the ledger's wire
    workload with every telemetry layer and runtime feature on."""
    from repro.bench.ledger import WIRE_SRC
    from repro.obs.events import FlightRecorder

    program = parse_program(WIRE_SRC)
    sp = split_program(program, check_program(program), [("f", "a")])
    calls = []
    real_get = Registry._get

    def counting_get(self, *args):
        calls.append(args[1])
        return real_get(self, *args)

    monkeypatch.setattr(Registry, "_get", counting_get)
    with obs.telemetry(recorder=FlightRecorder()):
        result = run_split(sp, args=(n,), batching=True)
    assert result.interactions > n
    return len(calls)


def test_round_trips_bind_metrics_once(monkeypatch):
    # steady-state round trips update bound children: doubling the work
    # must not add a single registry lookup
    assert _registry_lookups(monkeypatch, 3000) == _registry_lookups(
        monkeypatch, 6000)


def test_auto_split_phase_spans():
    program = parse_program(SOURCE)
    checker = check_program(program)
    with obs.telemetry() as (reg, tracer):
        sp = auto_split(program, checker)
    assert sp.splits
    phases = {
        m.labels["phase"] for m in reg.collect()
        if m.name == "repro_phase_seconds"
    }
    assert {"select", "slice", "classify", "rewrite"} <= phases


# -- exposition --------------------------------------------------------------


def test_prometheus_exposition_format():
    reg = Registry()
    reg.counter("repro_x_total", help="things", kind="a").inc(3)
    reg.histogram("repro_h", buckets=(1, 2)).observe(1.5)
    text = export.to_prometheus(reg)
    assert "# HELP repro_x_total things" in text
    assert "# TYPE repro_x_total counter" in text
    assert 'repro_x_total{kind="a"} 3' in text
    assert "# TYPE repro_h histogram" in text
    assert 'repro_h_bucket{le="1.0"} 0' in text
    assert 'repro_h_bucket{le="2.0"} 1' in text
    assert 'repro_h_bucket{le="+Inf"} 1' in text
    assert "repro_h_sum 1.5" in text
    assert "repro_h_count 1" in text


def test_prometheus_label_escaping():
    reg = Registry()
    reg.counter("c", name_label='say "hi"\n').inc()
    text = export.to_prometheus(reg)
    assert '\\"hi\\"' in text
    assert "\\n" in text


def test_json_round_trip(tmp_path):
    reg = Registry()
    reg.counter("c_total", kind="a").inc(2)
    reg.histogram("h", buckets=(10,)).observe(5)
    tracer = Tracer(registry=reg)
    with tracer.span("phase"):
        pass
    path = tmp_path / "metrics.json"
    export.write_json(str(path), reg, tracer)
    doc = json.loads(path.read_text())
    by_name = {m["name"]: m for m in doc["metrics"]}
    assert by_name["c_total"]["value"] == 2
    assert by_name["c_total"]["labels"] == {"kind": "a"}
    assert by_name["h"]["count"] == 1
    assert doc["spans"]["phase"]["count"] == 1
    # deterministic output: same registry, same text
    assert export.to_json(reg, tracer) == export.to_json(reg, tracer)
