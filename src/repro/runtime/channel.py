"""The communication channel between open and hidden components.

The paper ran the two components on separate Linux machines over a LAN;
here, every request/response round trip is charged to a configurable
:class:`LatencyModel` and appended to a :class:`Transcript`.  The transcript
is exactly what a network adversary observes — the attack module consumes
it to try to recover hidden fragments.

:class:`Link` alone decides what crosses the channel and charges it, on
every transport, so a TCP run accounts exactly like an in-process one.
With batching it defers one-way messages (:meth:`Channel.defer`), which
are charged as one ``batch`` round trip at the next synchronisation point
(docs/PROTOCOL.md, "Batching and coalescing").

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
from repro.runtime.values import RuntimeErr

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
    (activation management), ``"cb_fetch"`` (a hidden-side read of open
    memory; the hidden side never writes it), ``"cb_batch"`` (a batched
    ``fetch_batch`` callback) or ``"batch"`` (a coalesced flush of
    deferred one-way messages; only with batching enabled — see
    docs/PROTOCOL.md).
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
        """Buffer a one-way message instead of charging a round trip; the
        next :meth:`round_trip` or :meth:`flush_deferred` charges all that
        are buffered as one ``batch`` round trip (docs/PROTOCOL.md)."""
        self._pending.append((kind, hid, fn_name, label, tuple(sent)))

    def flush_deferred(self, phases=None, trace=None):
        """Charge the buffered one-way messages as one ``batch`` round trip
        (a no-op with none); returns how many it coalesced.  ``phases`` and
        ``trace`` are a traced remote flush's measured timings and trace
        context (docs/PROTOCOL.md); untraced they stay ``None``, keeping
        the recorded event schema bit-identical to the seed."""
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        self.coalesced_messages += len(pending)
        if self._registry is not None:
            for kind, _hid, fn_name, label, sent in pending:
                self._m_coalesced.child(kind).inc()
                if sent:
                    self._m_values.child(fn_name or "-",
                                         _label(label)).inc(len(sent))
            self._m_batch_size.child().observe(len(pending))
        merged = [value for *_msg, sent in pending for value in sent]
        self._record("batch", None, "-", None, merged, None, phases, trace)
        return len(pending)

    def round_trip(self, kind, hid, fn_name, label, sent, result,
                   phases=None, trace=None):
        if self._pending:
            self.flush_deferred()
        if self._registry is not None:
            self._m_values.child(fn_name or "-", _label(label)).inc(
                len(sent) + (result is not None))
        return self._record(kind, hid, fn_name, label, sent, result, phases,
                            trace)

    def _record(self, kind, hid, fn_name, label, sent, result, phases,
                trace):
        """One round trip of any kind: the counts, its simulated cost
        (also charged to the open tracer span), the metrics, the flight
        recorder event and the transcript entry."""
        carried = len(sent) + (result is not None)
        payload = _HEADER_BYTES + _VALUE_BYTES * carried
        self.interactions += 1
        self.values_sent += len(sent)
        self.values_received += result is not None
        cost_ms = self.latency.cost_ms(len(sent) + 1)
        self.simulated_ms += cost_ms
        if self._registry is not None:
            self._m_round_trips.child(kind).inc()
            self._m_payload.child(kind).observe(payload)
            self._m_rtt.child().observe(cost_ms)
            self._m_sim_ms.child().inc(cost_ms)
            self._tracer.add_sim_ms(cost_ms)
            if phases is not None:
                for phase in RT_PHASES:
                    self._m_rt_phase.child(phase).observe(phases[phase])
        if self._recorder is not None:
            self._recorder.channel(kind, fn_name or "-", _label(label),
                                   carried, payload, cost_ms,
                                   **_trace_fields(phases, trace))
        if self.record:
            self.transcript.append(Event(self.interactions, kind, hid,
                                         fn_name, label, sent, result,
                                         cost_ms))
        return result


def _label(label):
    return "-" if label is None else str(label)


class Link:
    """The interpreter's hidden runtime on every transport, and the only
    code that charges a :class:`Channel` (docs/PROTOCOL.md, "Who charges
    the channel").  ``hidden`` only executes: a ``HiddenServer`` in
    process, or over TCP the ``wire``, a ``RemoteHiddenRuntime``.  Events
    name their activation's function (``fn_names``: fn_id -> name); with
    ``batching``, ``close``, split-class ``new`` and the calls
    ``one_way(fn_id, label)`` marks are deferred; each open-memory access
    of a call is one callback round trip, charged by the window handed
    down with it."""

    def __init__(self, hidden, channel, fn_names, one_way, batching=False,
                 wire=None):
        self.hidden = hidden
        self.channel = channel
        self.batching = batching
        self._fn_names = fn_names
        self._one_way = one_way
        self._wire = wire
        self._hids = {}  # live hid -> (fn_id, fn_name)
        self._charge = (self._traced_round_trip
                        if wire is not None and wire.trace
                        else channel.round_trip)
        self._window = _Window(self._charge)

    def _traced_round_trip(self, kind, hid, fn_name, label, sent, result):
        self.channel.round_trip(kind, hid, fn_name, label, sent, result,
                                phases=self._wire.phases,
                                trace=self._wire.trace_ctx())

    def _post(self, method, *args):
        """A deferred message: in process it executes now, over TCP it
        joins the outbox; either way only its charge waits."""
        if self._wire is None:
            return method(*args)
        return method(*args, one_way=True)

    def sync(self):
        """Charge what is deferred as one ``batch`` round trip, shipping it
        first over TCP: before a message that needs an answer, at the end
        of a run, and after each frame the daemon serves."""
        wire = self._wire
        if wire is None:
            self.channel.flush_deferred()
        elif wire.outbox:
            error = wire.ship()
            self.channel.flush_deferred(phases=wire.phases,
                                        trace=wire.trace_ctx())
            if error is not None:
                raise RuntimeErr("hidden server (deferred): %s" % error)

    def open_activation(self, fn_id, receiver=None):
        if self._wire is not None:
            self.sync()
        hid = self.hidden.open_activation(fn_id, receiver=receiver)
        fn_name = self._fn_names.get(fn_id, "-")
        self._hids[hid] = (fn_id, fn_name)
        self._charge("open", hid, fn_name, None, (fn_id,), hid)
        return hid

    def close_activation(self, hid):
        fn = self._hids.pop(hid, None)
        if fn is None:
            return  # never opened, or closed already: nothing crosses
        if self.batching:
            # hclose returns nothing: a pure send, safe to coalesce
            self._post(self.hidden.close_activation, hid)
            self.channel.defer("close", hid, fn[1], None, ())
        else:
            self.hidden.close_activation(hid)
            self._charge("close", hid, fn[1], None, (), None)

    def notify_new_instance(self, obj):
        # the transport answers whether obj's class is split; the open side
        # never reads the echoed oid, and any call that could touch the new
        # instance ships the batch first
        if self.batching:
            if self._post(self.hidden.notify_new_instance, obj):
                self.channel.defer("open", None, obj.class_name, None,
                                   (obj.oid,))
        elif self.hidden.notify_new_instance(obj):
            self._charge("open", None, obj.class_name, None, (obj.oid,),
                         obj.oid)

    def call(self, hid, label, values, access):
        fn = self._hids.get(hid)
        fn_name = "-" if fn is None else fn[1]
        if self.batching and fn is not None and self._one_way(fn[0], label):
            # the open side ignores the result (the paper's "any" value)
            # and the fragment never calls back
            result = self._post(self.hidden.call, hid, label, values, access)
            self.channel.defer("call", hid, fn_name, label, values)
            return result
        if self._wire is not None:
            self.sync()
        window = self._window
        window.access, window.hid, window.fn_name = access, hid, fn_name
        result = self.hidden.call(hid, label, values, window)
        self._charge("call", hid, fn_name, label, values, result)
        return result


class _Window:
    """A :class:`Link`'s open-memory access window, re-aimed at each call
    (fragments never nest): each access is one callback round trip of the
    call's activation, charged once the open side has answered."""

    __slots__ = ("_charge", "access", "hid", "fn_name")

    def __init__(self, charge):
        self._charge = charge

    def fetch_index(self, name, index):
        value = self.access.fetch_index(name, index)
        self._charge("cb_fetch", self.hid, self.fn_name, None, (name, index),
                     value)
        return value

    def fetch_field(self, name, field):
        value = self.access.fetch_field(name, field)
        self._charge("cb_fetch", self.hid, self.fn_name, None, (name, field),
                     value)
        return value

    def fetch_batch(self, items):
        """One ``cb_batch`` round trip; a reply of the wrong arity is
        refused uncharged (and leaves no partly filled batch cache)."""
        values = self.access.fetch_batch(items)
        if len(values) != len(items):
            raise RuntimeErr(
                "hidden fragment of %s: fetch_batch returned %d values "
                "for %d reads" % (self.fn_name, len(values), len(items)))
        sent = tuple(v for _kind, name, key in items for v in (name, key))
        self._charge("cb_batch", self.hid, self.fn_name, None, sent, None)
        return values
