"""The flight recorder: schema stability, bounded buffering, formats, and
agreement with the metrics registry."""

import json

import pytest

from repro import obs
from repro.obs.events import (
    EVENT_FORMATS,
    FlightRecorder,
    to_chrome,
    to_jsonl,
    write_events,
)

from repro.lang import check_program, parse_program
from repro.core.program import split_program
from repro.runtime.channel import LatencyModel
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

#: the stable jsonl schema — key set per event type (docs/OBSERVABILITY.md);
#: changing any of these is a breaking change for downstream consumers
GOLDEN_KEYS = {
    "channel": {"seq", "ts_us", "type", "kind", "fn", "label", "values",
                "bytes", "sim_ms"},
    "fragment": {"seq", "ts_us", "type", "fn", "label", "steps", "wall_us"},
    "span_open": {"seq", "ts_us", "type", "name", "depth"},
    "span_close": {"seq", "ts_us", "type", "name", "depth", "wall_s",
                   "sim_ms"},
}


def _split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return split_program(program, checker, [("f", "a")])


def _recorded_run(args=(4,)):
    sp = _split()
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        result = run_split(sp, args=args, latency=LatencyModel.instant())
    return recorder, registry, result


# -- recorder primitives -----------------------------------------------------


def test_record_sequencing_and_timestamps():
    rec = FlightRecorder()
    a = rec.channel("call", "f", "0", 3, 40, 0.35)
    b = rec.fragment("f", "0", 7)
    assert a["seq"] == 1 and b["seq"] == 2
    assert 0 <= a["ts_us"] <= b["ts_us"]
    assert len(rec) == 2
    assert rec.by_type("channel") == [a]
    assert rec.by_type("fragment") == [b]


def test_bounded_buffer_evicts_oldest():
    rec = FlightRecorder(max_events=4)
    for i in range(10):
        rec.fragment("f", str(i), i)
    assert len(rec) == 4
    assert rec.evicted == 6
    # seq keeps increasing across evictions so consumers can detect the gap
    assert [e["seq"] for e in rec.events] == [7, 8, 9, 10]
    assert [e["label"] for e in rec.events] == ["6", "7", "8", "9"]


def test_recorder_is_none_when_off():
    assert obs.get_recorder() is None
    rec = FlightRecorder()
    obs.install(recorder=rec)
    try:
        assert obs.get_recorder() is rec
    finally:
        obs.uninstall()
    assert obs.get_recorder() is None
    # evictions outside a telemetry scope are counted on the recorder alone
    small = FlightRecorder(max_events=1)
    small.fragment("f", "0", 1)
    small.fragment("f", "1", 1)
    assert small.evicted == 1


def test_telemetry_scoping_restores_recorder():
    assert obs.get_recorder() is None
    rec = FlightRecorder()
    with obs.telemetry(recorder=rec):
        assert obs.get_recorder() is rec
        # a nested session without a recorder must not inherit this one
        with obs.telemetry():
            assert obs.get_recorder() is None
        assert obs.get_recorder() is rec
    assert obs.get_recorder() is None


# -- schema (golden) ---------------------------------------------------------


def test_recorded_run_matches_golden_schema():
    recorder, _, _ = _recorded_run()
    seen = set()
    for event in recorder.events:
        etype = event["type"]
        assert etype in GOLDEN_KEYS, "unknown event type %r" % etype
        assert set(event) == GOLDEN_KEYS[etype], etype
        seen.add(etype)
    assert seen == set(GOLDEN_KEYS)


def test_channel_events_match_round_trip_counter():
    recorder, registry, result = _recorded_run()
    channel_events = recorder.by_type("channel")
    assert len(channel_events) == result.interactions
    assert len(channel_events) == registry.total(
        "repro_channel_round_trips_total"
    )
    # per-event value counts sum to the per-ILP counter totals
    assert sum(e["values"] for e in channel_events) == registry.total(
        "repro_channel_values_total"
    )


def test_fragment_events_carry_step_counts():
    recorder, registry, result = _recorded_run()
    fragments = recorder.by_type("fragment")
    assert fragments
    assert all(e["fn"] == "f" for e in fragments)
    assert sum(e["steps"] for e in fragments) == result.steps_hidden


def test_disabled_telemetry_records_no_events():
    sp = _split()
    result = run_split(sp, args=(4,), latency=LatencyModel.instant())
    assert obs.get_recorder() is None
    assert result.channel._recorder is None


# -- serialisation -----------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    recorder, _, _ = _recorded_run()
    path = tmp_path / "events.jsonl"
    write_events(str(path), recorder, format="jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == len(recorder)
    parsed = [json.loads(line) for line in lines]
    assert parsed == list(recorder.events)
    # stable key order: each line round-trips byte-identically
    assert to_jsonl(recorder) == to_jsonl(recorder)
    for line, event in zip(lines, parsed):
        assert line == json.dumps(event, sort_keys=True)


def test_chrome_trace_format(tmp_path):
    recorder, _, _ = _recorded_run()
    path = tmp_path / "events.chrome"
    write_events(str(path), recorder, format="chrome")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    opens = [e for e in events if e["ph"] == "B"]
    closes = [e for e in events if e["ph"] == "E"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(opens) == len(closes)
    assert [e["name"] for e in opens] == [
        e["name"] for e in recorder.by_type("span_open")
    ]
    assert len(instants) == len(recorder.by_type("channel")) + len(
        recorder.by_type("fragment")
    )
    assert {"channel.call", "channel.open", "channel.close"} <= {
        e["name"] for e in instants
    }
    # instants carry the event fields as args
    call = next(e for e in instants if e["name"] == "channel.call")
    assert set(call["args"]) == {"kind", "fn", "label", "values", "bytes",
                                 "sim_ms"}


def test_write_events_rejects_unknown_format(tmp_path):
    recorder = FlightRecorder()
    with pytest.raises(ValueError):
        write_events(str(tmp_path / "x"), recorder, format="xml")
    assert EVENT_FORMATS == ("jsonl", "chrome")


def test_chrome_handles_evicted_span_opens():
    rec = FlightRecorder(max_events=2)
    rec.span_open("phase", 0)
    rec.fragment("f", "0", 1)
    rec.span_close("phase", 0, 0.001, 0.0)  # the open has been evicted
    doc = to_chrome(rec)
    phs = [e["ph"] for e in doc["traceEvents"]]
    # two metadata rows (process + thread name), then the surviving events
    assert phs == ["M", "M", "i", "E"]
