"""The simulated communication channel between open and hidden components.

The paper ran the two components on separate Linux machines over a LAN;
here, every request/response round trip is charged to a configurable
:class:`LatencyModel` and appended to a :class:`Transcript`.  The transcript
is exactly what a network adversary observes — the attack module consumes
it to try to recover hidden fragments.

The channel also implements *send coalescing* (docs/PROTOCOL.md, "Batching
and coalescing"): one-way messages whose result the sender does not need
can be deferred with :meth:`Channel.defer` and are flushed as a single
``batch`` round trip at the next synchronisation point — automatically
before any ordinary :meth:`Channel.round_trip`, or explicitly via
:meth:`Channel.flush_deferred` at end of run.

When telemetry is enabled (:mod:`repro.obs`), every round trip is also
recorded in the active registry — counters by event kind, per-ILP value
counts, payload-size and simulated-latency histograms — and its simulated
cost is charged to the open tracer span.  When a flight recorder is
active (``--log-events``, :mod:`repro.obs.events`) every round trip
additionally lands in the bounded per-event stream that
:mod:`repro.obs.audit` joins against the static Section 3 estimates.
"""

from repro import obs
from repro.obs.metrics import (
    BATCH_BUCKETS,
    BYTE_BUCKETS,
    RT_PHASE_BUCKETS,
    SIM_MS_BUCKETS,
    declare,
)

#: exported metric names (documented in docs/OBSERVABILITY.md)
M_ROUND_TRIPS = declare("repro_channel_round_trips_total", "counter",
                        "channel round trips by event kind", ("kind",))
M_VALUES = declare("repro_channel_values_total", "counter",
                   "scalar values carried per fragment (ILP)",
                   ("fn", "label"))
M_PAYLOAD_BYTES = declare("repro_channel_payload_bytes", "histogram",
                          "modelled payload size per round trip", ("kind",),
                          buckets=BYTE_BUCKETS)
M_RTT_SIM_MS = declare("repro_channel_rtt_simulated_ms", "histogram",
                       "simulated latency per round trip",
                       buckets=SIM_MS_BUCKETS)
M_SIM_MS = declare("repro_channel_simulated_ms_total", "counter",
                   "total simulated channel time")
M_BATCH_SIZE = declare("repro_channel_batch_size", "histogram",
                       "messages coalesced per batch flush",
                       buckets=BATCH_BUCKETS)
M_COALESCED = declare("repro_channel_coalesced_total", "counter",
                      "one-way messages coalesced into batch round trips",
                      ("kind",))
M_RT_PHASE = declare("repro_rt_phase_seconds", "histogram",
                     "measured round-trip phase durations (--trace)",
                     ("phase",), buckets=RT_PHASE_BUCKETS)

#: the measured round-trip phases a traced remote run decomposes into
#: (docs/OBSERVABILITY.md, "Distributed tracing & latency attribution")
RT_PHASES = ("serialize", "wire", "exec", "deser")

#: modelled wire size: fixed header plus 8 bytes per scalar carried
_HEADER_BYTES = 16
_VALUE_BYTES = 8


def _trace_fields(phases, trace):
    """Extra recorder fields for a traced remote round trip: the trace
    context and the measured per-phase timings in microseconds.  Empty —
    schema-identical to the seed — when tracing is off."""
    extra = {}
    if trace is not None:
        extra["trace_id"], extra["cseq"] = trace
    if phases is not None:
        extra["ser_us"] = round(phases["serialize"] * 1e6, 1)
        extra["wire_us"] = round(phases["wire"] * 1e6, 1)
        extra["exec_us"] = round(phases["exec"] * 1e6, 1)
        extra["deser_us"] = round(phases["deser"] * 1e6, 1)
        extra["rt_us"] = round(phases["total"] * 1e6, 1)
    return extra


class LatencyModel:
    """Per-round-trip cost model.

    This class is the single source of truth for the cost-model units:

    * ``per_message_ms`` — **milliseconds** charged once per round trip
      (the fixed RPC cost: syscalls, wire latency, scheduling);
    * ``per_value_us`` — **microseconds** charged per scalar value
      carried in either direction (the marginal serialisation cost).

    ``cost_ms(value_count)`` returns milliseconds.  Defaults approximate a
    2003-era LAN RPC (a few hundred microseconds per round trip); the
    Table 5 calibration against the paper's wall-clock baselines lives in
    :data:`repro.bench.experiments.TABLE5_LATENCY` and is documented in
    docs/BENCHMARKS.md.  Both parameters must be non-negative.
    """

    def __init__(self, per_message_ms=0.35, per_value_us=2.0):
        if per_message_ms < 0:
            raise ValueError(
                "per_message_ms must be non-negative, got %r" % (per_message_ms,)
            )
        if per_value_us < 0:
            raise ValueError(
                "per_value_us must be non-negative, got %r" % (per_value_us,)
            )
        self.per_message_ms = per_message_ms
        self.per_value_us = per_value_us

    def cost_ms(self, value_count):
        return self.per_message_ms + value_count * self.per_value_us / 1000.0

    @classmethod
    def instant(cls):
        """Zero-cost model (for functional tests)."""
        return cls(per_message_ms=0.0, per_value_us=0.0)

    @classmethod
    def smart_card(cls):
        """Slow secure-device model (the 'untrustworthy user' scenario)."""
        return cls(per_message_ms=2.5, per_value_us=40.0)

    @classmethod
    def lan(cls):
        return cls()


class Event:
    """One observable round trip.

    ``kind`` is ``"call"`` (an ``hcall``), ``"open"``/``"close"``
    (activation management), ``"cb_fetch"``/``"cb_store"`` (hidden-side
    callbacks into open memory), ``"cb_batch"`` (a batched ``fetch_batch``
    callback) or ``"batch"`` (a coalesced flush of deferred one-way
    messages; only with batching enabled — see docs/PROTOCOL.md).
    """

    __slots__ = ("seq", "kind", "hid", "fn_name", "label", "sent", "result",
                 "cost_ms")

    def __init__(self, seq, kind, hid, fn_name, label, sent, result,
                 cost_ms=0.0):
        self.seq = seq
        self.kind = kind
        self.hid = hid
        self.fn_name = fn_name
        self.label = label
        self.sent = tuple(sent)
        self.result = result
        self.cost_ms = cost_ms

    def __repr__(self):
        return "<Event %d %s %s#%s sent=%r -> %r>" % (
            self.seq,
            self.kind,
            self.fn_name,
            self.label,
            self.sent,
            self.result,
        )


class Transcript:
    """Ordered log of everything that crossed the channel."""

    def __init__(self):
        self.events = []

    def append(self, event):
        self.events.append(event)

    def calls(self, fn_name=None, label=None):
        out = []
        for e in self.events:
            if e.kind != "call":
                continue
            if fn_name is not None and e.fn_name != fn_name:
                continue
            if label is not None and e.label != label:
                continue
            out.append(e)
        return out

    def summary(self):
        """Round trips, values carried, and simulated channel time.

        The totals the CLI and benchmarks report; derived purely from the
        recorded events so it also works on transcripts that were captured
        remotely or deserialised.
        """
        total_values = 0
        total_ms = 0.0
        for e in self.events:
            total_values += len(e.sent)
            if e.result is not None:
                total_values += 1
            total_ms += e.cost_ms
        return {
            "round_trips": len(self.events),
            "total_values": total_values,
            "simulated_ms": total_ms,
        }

    def __len__(self):
        return len(self.events)


class Channel:
    """Accounting wrapper every open<->hidden round trip goes through."""

    def __init__(self, latency=None, record=True):
        self.latency = latency or LatencyModel.lan()
        self.record = record
        self.transcript = Transcript() if record else None
        self.interactions = 0
        self.values_sent = 0
        self.values_received = 0
        self.simulated_ms = 0.0
        self.coalesced_messages = 0
        self._pending = []
        registry = obs.active_registry()
        self._registry = registry
        self._tracer = obs.get_tracer()
        self._recorder = obs.get_recorder()
        if registry is not None:
            family = registry.family
            self._m_round_trips = family(M_ROUND_TRIPS)
            self._m_values = family(M_VALUES)
            self._m_payload = family(M_PAYLOAD_BYTES)
            self._m_rtt = family(M_RTT_SIM_MS)
            self._m_sim_ms = family(M_SIM_MS)
            self._m_batch_size = family(M_BATCH_SIZE)
            self._m_coalesced = family(M_COALESCED)
            self._m_rt_phase = family(M_RT_PHASE)

    def defer(self, kind, hid, fn_name, label, sent):
        """Buffer a one-way message instead of charging a round trip.

        Deferred messages are folded into a single ``batch`` round trip by
        :meth:`flush_deferred`, which runs automatically before the next
        ordinary :meth:`round_trip` (the first intervening receive).  Only
        messages whose result the open side does not need may be deferred
        (see docs/PROTOCOL.md for the deferability rule).
        """
        self._pending.append((kind, hid, fn_name, label, tuple(sent)))

    def flush_deferred(self, phases=None, trace=None):
        """Flush buffered one-way messages as one ``batch`` round trip.

        No-op when nothing is pending.  Returns the number of messages
        coalesced into the flush.  ``phases``/``trace`` carry the measured
        wire timings and trace context of a traced remote flush
        (docs/PROTOCOL.md); simulated runs leave them ``None``, keeping
        the recorded event schema bit-identical to the seed.
        """
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        merged = []
        for _kind, _hid, _fn_name, _label, sent in pending:
            merged.extend(sent)
        self.interactions += 1
        self.values_sent += len(merged)
        self.coalesced_messages += len(pending)
        cost_ms = self.latency.cost_ms(len(merged) + 1)
        self.simulated_ms += cost_ms
        if self._registry is not None:
            self._record_batch_metrics(pending, merged, cost_ms)
            if phases is not None:
                self._record_phase_metrics(phases)
        if self._recorder is not None:
            self._recorder.channel(
                "batch", "-", "-", len(merged),
                _HEADER_BYTES + _VALUE_BYTES * len(merged), cost_ms,
                **_trace_fields(phases, trace),
            )
        if self.record:
            self.transcript.append(
                Event(self.interactions, "batch", None, "-", None, merged,
                      None, cost_ms)
            )
        return len(pending)

    def round_trip(self, kind, hid, fn_name, label, sent, result,
                   phases=None, trace=None):
        if self._pending:
            self.flush_deferred()
        self.interactions += 1
        self.values_sent += len(sent)
        if result is not None:
            self.values_received += 1
        cost_ms = self.latency.cost_ms(len(sent) + 1)
        self.simulated_ms += cost_ms
        if self._registry is not None:
            self._record_metrics(kind, fn_name, label, sent, result, cost_ms)
            if phases is not None:
                self._record_phase_metrics(phases)
        if self._recorder is not None:
            carried = len(sent) + (0 if result is None else 1)
            self._recorder.channel(
                kind, fn_name or "-", "-" if label is None else str(label),
                carried, _HEADER_BYTES + _VALUE_BYTES * carried, cost_ms,
                **_trace_fields(phases, trace),
            )
        if self.record:
            self.transcript.append(
                Event(self.interactions, kind, hid, fn_name, label, sent,
                      result, cost_ms)
            )
        return result

    def _record_phase_metrics(self, phases):
        for phase in RT_PHASES:
            self._m_rt_phase.child(phase).observe(phases[phase])

    def _count_round_trip(self, kind, payload, cost_ms):
        """The per-round-trip metrics every kind shares, and the simulated
        cost charged to the open tracer span."""
        self._m_round_trips.child(kind).inc()
        self._m_payload.child(kind).observe(payload)
        self._m_rtt.child().observe(cost_ms)
        self._m_sim_ms.child().inc(cost_ms)
        self._tracer.add_sim_ms(cost_ms)

    def _record_metrics(self, kind, fn_name, label, sent, result, cost_ms):
        carried = len(sent) + (0 if result is None else 1)
        self._m_values.child(
            fn_name or "-", "-" if label is None else str(label)
        ).inc(carried)
        self._count_round_trip(kind, _HEADER_BYTES + _VALUE_BYTES * carried,
                               cost_ms)

    def _record_batch_metrics(self, pending, merged, cost_ms):
        for kind, _hid, fn_name, label, sent in pending:
            self._m_coalesced.child(kind).inc()
            if sent:
                self._m_values.child(
                    fn_name or "-", "-" if label is None else str(label)
                ).inc(len(sent))
        self._m_batch_size.child().observe(len(pending))
        self._count_round_trip(
            "batch", _HEADER_BYTES + _VALUE_BYTES * len(merged), cost_ms)
