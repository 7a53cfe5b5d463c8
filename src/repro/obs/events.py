"""The flight recorder: a bounded, structured stream of boundary events.

Where the metrics registry *aggregates* (counters and histograms keyed by
name and labels), the flight recorder keeps the *per-event* record: every
channel crossing (``call``/``open``/``close``/``cb_fetch``/``cb_batch``/
``batch``) with its fragment identity, value count, modelled
payload size and simulated cost; every hidden fragment execution with its
step count; and every phase span open/close.  That record is what the
Section 3 security argument is *about* — the adversary's observation
stream — so keeping it auditable against the static ``<Type, Inputs,
Degree>`` estimates is the point (see :mod:`repro.obs.audit`).

The buffer is bounded (a deque of ``max_events``); when it fills, the
oldest events are evicted and counted in :attr:`FlightRecorder.evicted` so
long-running ``serve`` processes stay memory-safe.  Sequence numbers keep
increasing across evictions, so consumers can detect the gap.

Two output formats (``repro ... --log-events PATH --log-events-format``):

* **jsonl** — one JSON object per line, schema below; the golden format
  asserted by ``tests/test_obs_events.py`` (treat the key sets as stable).
* **chrome** — the Chrome trace-event format (a ``traceEvents`` array of
  ``B``/``E`` duration events for spans and ``i`` instant events for
  channel crossings), loadable in ``about://tracing`` / Perfetto.

Event schema (``type`` field):

===============  =====================================================
``channel``      ``kind, fn, label, values, bytes, sim_ms``
``fragment``     ``fn, label, steps, wall_us`` (one hidden fragment
                 execution)
``span_open``    ``name, depth``
``span_close``   ``name, depth, wall_s, sim_ms``
``server_recv``  ``op`` (+ ``sub`` for coalesced batch sub-ops) — a
                 frame arriving at the remote hidden server
``server_send``  ``op, exec_us, ok`` — the matching reply leaving it
``trace_sync``   ``send_us, recv_us, server_us, offset_us,
                 skew_bound_us`` — one clock-alignment handshake
``deopt``        ``side, fn, reason, where`` — one codegen fallback to
                 the closure tier, with its reason code and source
                 location (docs/OBSERVABILITY.md, "Deopt attribution")
===============  =====================================================

All events also carry ``seq`` (monotonic, 1-based) and ``ts_us``
(microseconds since the recorder was created, ``time.perf_counter``
based).  Traced runs (``--trace``, docs/PROTOCOL.md) add ``trace_id``
and ``cseq`` to every event recorded inside a request context, plus
per-phase timings (``ser_us``/``wire_us``/``exec_us``/``deser_us``/
``rt_us``) on client ``channel`` events — additive only, so untraced
streams keep the golden key sets above.
"""

import collections
import contextlib
import json
import threading
import time

from repro import obs
from repro.obs.metrics import declare

#: accepted values for ``--log-events-format``
EVENT_FORMATS = ("jsonl", "chrome")

#: default bound on retained events (~a few tens of MB of dicts at worst)
DEFAULT_MAX_EVENTS = 100_000

#: exported metric names (documented in docs/OBSERVABILITY.md)
M_EVICTED = declare("repro_recorder_evicted_total", "counter",
                    "flight-recorder events evicted by the bounded buffer")


class FlightRecorder:
    """Bounded in-memory event stream; see the module docstring.

    ``process`` names this recorder's process row in merged Chrome traces
    (``repro trace`` labels the client stream "Of" and the server stream
    "Hf"; a standalone recorder defaults to "repro").
    """

    def __init__(self, max_events=DEFAULT_MAX_EVENTS, clock=time.perf_counter,
                 process="repro"):
        self.max_events = max_events
        self.process = process
        self.events = collections.deque(maxlen=max_events)
        self.evicted = 0
        self.seq = 0
        self._clock = clock
        self._t0 = clock()
        self._local = threading.local()
        self._evicted_counter = None

    def now_us(self):
        """Microseconds since this recorder's epoch — the same timebase as
        event ``ts_us``, so remote peers can exchange it for clock
        alignment (docs/PROTOCOL.md, "Trace context")."""
        return round((self._clock() - self._t0) * 1e6, 1)

    @contextlib.contextmanager
    def context(self, **fields):
        """Tag every event recorded inside the ``with`` block (in this
        thread) with ``fields`` — how the remote server stamps fragment
        and span events with the incoming trace context."""
        previous = getattr(self._local, "context", None)
        merged = dict(previous) if previous else {}
        merged.update(fields)
        self._local.context = merged
        try:
            yield
        finally:
            self._local.context = previous

    def record(self, etype, **fields):
        """Append one event; evicts the oldest when the buffer is full."""
        self.seq += 1
        event = {
            "seq": self.seq,
            "ts_us": round((self._clock() - self._t0) * 1e6, 1),
            "type": etype,
        }
        event.update(fields)
        ctx = getattr(self._local, "context", None)
        if ctx:
            event.update(ctx)
        if self.events.maxlen is not None and len(self.events) == self.events.maxlen:
            self.evicted += 1
            self._count_eviction()
        self.events.append(event)
        return event

    def _count_eviction(self):
        counter = self._evicted_counter
        if counter is None:
            registry = obs.active_registry()
            if registry is None:
                return
            counter = self._evicted_counter = registry.counter(M_EVICTED)
        counter.inc()

    def stats(self):
        """Buffer health for live exposition (``/metrics.json``): how much
        was observed, retained, and silently dropped."""
        return {
            "max_events": self.max_events,
            "seq": self.seq,
            "evicted": self.evicted,
            "buffered": len(self.events),
        }

    # -- typed entry points (the instrumented layers call these) -----------

    def channel(self, kind, fn, label, values, payload_bytes, sim_ms, **extra):
        """One channel round trip — the adversary-observable unit.

        ``extra`` carries the optional traced-run fields (``trace_id``,
        ``cseq``, phase timings); untraced runs pass nothing, keeping the
        golden key set."""
        return self.record(
            "channel", kind=kind, fn=fn, label=label, values=values,
            bytes=payload_bytes, sim_ms=sim_ms, **extra,
        )

    def fragment(self, fn, label, steps, wall_us=0.0):
        """One hidden fragment execution with its statement count and
        measured wall time (microseconds)."""
        return self.record(
            "fragment", fn=fn, label=label, steps=steps, wall_us=wall_us
        )

    def span_open(self, name, depth):
        return self.record("span_open", name=name, depth=depth)

    def span_close(self, name, depth, wall_s, sim_ms):
        return self.record(
            "span_close", name=name, depth=depth, wall_s=wall_s, sim_ms=sim_ms
        )

    def deopt(self, side, fn, reason, where):
        """One codegen fallback to the closure tier: which function or
        fragment bailed, the classified reason code, and the MiniJava
        source location (``file:line`` or ``""`` when unknown)."""
        return self.record("deopt", side=side, fn=fn, reason=reason,
                           where=where)

    # -- reading ------------------------------------------------------------

    def by_type(self, etype):
        return [e for e in self.events if e["type"] == etype]

    def __len__(self):
        return len(self.events)


# -- serialisation -----------------------------------------------------------


def to_jsonl(recorder):
    """One JSON object per line, in recording order (stable key order)."""
    return "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in recorder.events
    )


def chrome_metadata(pid, process_name, thread_names):
    """``M`` (metadata) events naming a process row and its threads, so
    Perfetto shows labels instead of bare pids (docs/OBSERVABILITY.md)."""
    meta = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    for tid, name in sorted(thread_names.items()):
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name},
        })
    return meta


def to_chrome(recorder, pid=1):
    """The Chrome trace-event document for ``about://tracing``.

    Spans become ``B``/``E`` duration events (evicted opens may leave an
    unbalanced ``E`` at the front; the viewers tolerate that), channel and
    fragment events become thread-scoped instants carrying their fields as
    ``args``.  ``M`` metadata events label the process row with the
    recorder's ``process`` name.
    """
    trace = list(chrome_metadata(pid, recorder.process, {1: "events"}))
    for event in recorder.events:
        etype = event["type"]
        if etype == "span_open":
            trace.append({
                "ph": "B", "name": event["name"], "cat": "phase",
                "ts": event["ts_us"], "pid": pid, "tid": 1,
            })
        elif etype == "span_close":
            trace.append({
                "ph": "E", "name": event["name"], "cat": "phase",
                "ts": event["ts_us"], "pid": pid, "tid": 1,
                "args": {"sim_ms": event["sim_ms"], "wall_s": event["wall_s"]},
            })
        else:
            name = (
                "channel." + event["kind"] if etype == "channel" else etype
            )
            args = {
                k: v for k, v in event.items()
                if k not in ("seq", "ts_us", "type")
            }
            trace.append({
                "ph": "i", "s": "t", "name": name, "cat": etype,
                "ts": event["ts_us"], "pid": pid, "tid": 1, "args": args,
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_events(path, recorder, format="jsonl"):
    """Write the recorder's buffer to ``path`` in the chosen format."""
    if format not in EVENT_FORMATS:
        raise ValueError(
            "unknown event format %r (expected one of %s)"
            % (format, ", ".join(EVENT_FORMATS))
        )
    with open(path, "w") as f:
        if format == "jsonl":
            f.write(to_jsonl(recorder))
        else:
            json.dump(to_chrome(recorder), f, sort_keys=True)
            f.write("\n")
