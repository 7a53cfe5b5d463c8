"""Nested span tracer with dual wall-clock / simulated-time accounting.

The runtime measures two kinds of time that must not be conflated:

* **wall seconds** — how long the tooling itself took (slicing, trial
  splits, interpretation), measured with ``time.perf_counter``;
* **simulated milliseconds** — what the modelled deployment would have
  spent, charged by the channel's
  :class:`~repro.runtime.channel.LatencyModel` (the paper's LAN / smart
  card round-trip costs).

A :class:`Span` carries both.  Open spans form a stack, so channel round
trips recorded mid-run attach their simulated cost to whatever phase is
currently open.  Finished spans are aggregated by name into a summary
(count / wall / simulated) and, when the tracer owns a registry, phase
durations are also exported as the ``repro_phase_seconds`` histogram.
Round trips themselves are not spans: the channel counts them in the
registry and the flight recorder, and only charges their simulated cost
here (:meth:`Tracer.add_sim_ms`).
"""

import time

from repro.obs.metrics import declare

#: registry histogram fed by every span
PHASE_SECONDS = declare("repro_phase_seconds", "histogram",
                        "wall-clock duration of profiled phases", ("phase",))


class Span:
    """One timed region with attributes."""

    __slots__ = ("name", "attrs", "wall_s", "sim_ms", "depth", "_t0", "_tracer")

    def __init__(self, name, attrs, tracer=None, depth=0):
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.sim_ms = 0.0
        self.depth = depth
        self._t0 = None
        self._tracer = tracer

    def __enter__(self):
        # the span joins the open-span stack only once it actually starts:
        # a Span created but never entered must not absorb add_sim_ms
        # charges
        self._tracer._stack.append(self)
        self._t0 = time.perf_counter()
        recorder = self._tracer.recorder
        if recorder is not None:
            recorder.span_open(self.name, self.depth)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall_s = time.perf_counter() - self._t0
        self._tracer._finish(self)
        return False

    def __repr__(self):
        return "<Span %s wall=%.6fs sim=%.3fms %r>" % (
            self.name, self.wall_s, self.sim_ms, self.attrs,
        )


class Tracer:
    """Records spans and aggregates them by name.

    When the tracer owns a flight recorder (:mod:`repro.obs.events`),
    every span also lands in the event stream as a
    ``span_open``/``span_close`` pair.
    """

    def __init__(self, registry=None, recorder=None):
        self.registry = registry
        self.recorder = recorder
        self._stack = []
        self._summary = {}

    def span(self, name, **attrs):
        """Context manager for a timed region; nests via the open-span
        stack.  Simulated time charged while it is open accrues to it."""
        return Span(name, attrs, tracer=self, depth=len(self._stack))

    def add_sim_ms(self, ms):
        """Charge simulated time to the innermost open span, if any."""
        if self._stack:
            self._stack[-1].sim_ms += ms

    def _finish(self, span):
        if span in self._stack:
            # normally the top of stack; removing by identity also heals
            # out-of-order closes instead of corrupting later accounting
            self._stack.remove(span)
            # parent phases subsume their children's simulated time
            if self._stack:
                self._stack[-1].sim_ms += span.sim_ms
        entry = self._summary.get(span.name)
        if entry is None:
            self._summary[span.name] = [1, span.wall_s, span.sim_ms]
        else:
            entry[0] += 1
            entry[1] += span.wall_s
            entry[2] += span.sim_ms
        if self.recorder is not None:
            self.recorder.span_close(
                span.name, span.depth, span.wall_s, span.sim_ms
            )
        if self.registry is not None:
            self.registry.family(PHASE_SECONDS).child(span.name).observe(
                span.wall_s)

    def summary(self):
        """``{name: {"count", "wall_s", "sim_ms"}}``, sorted by name."""
        return {
            name: {"count": c, "wall_s": w, "sim_ms": s}
            for name, (c, w, s) in sorted(self._summary.items())
        }
