"""Time-series soak telemetry: periodic registry snapshots in a ring.

``/metrics.json`` answers "what are the totals *now*"; a soak needs "how
did they move *while* the load ran".  This module snapshots the metrics
registry on a fixed cadence into a bounded ring buffer inside ``repro
serve`` (``--snapshot-interval``), serves the ring at ``/timeseries.json``,
and renders it: ``repro top`` turns the last two snapshots into live
per-program rates (round-trips/s, exec p95, sessions, deopts, drain
state), and ``repro loadgen --scrape`` folds the covering snapshots into
its report's ``scrape`` block.

Snapshots reuse :func:`repro.obs.export.to_dict` with histogram bucket
arrays stripped (the interpolated p50/p95/p99 quantiles stay) — a soak
wants trends, not full distributions, and the ring must stay cheap: at the
default 360-slot bound and 5 s cadence the ring covers the most recent
half hour regardless of how long the daemon has been up.
"""

import threading
import time

from repro.obs import export

#: default ring bound (slots, not seconds)
DEFAULT_MAXLEN = 360

#: ``repro serve --snapshot-interval`` default, seconds
DEFAULT_INTERVAL_S = 5.0


def snapshot(registry, tracer=None, recorder=None, extra=None):
    """One ring slot: the registry's samples (histograms trimmed to
    count/sum/quantiles), stamped with wall-clock ``t`` and any ``extra``
    fields (``repro serve`` adds ``health``)."""
    doc = export.to_dict(registry, tracer, recorder)
    for sample in doc["metrics"]:
        sample.pop("buckets", None)
    doc["t"] = time.time()
    if extra:
        doc.update(extra)
    return doc


class TimeSeries:
    """Bounded, thread-safe ring of snapshots (oldest evicted first)."""

    def __init__(self, maxlen=DEFAULT_MAXLEN, interval_s=DEFAULT_INTERVAL_S):
        if maxlen < 2:
            raise ValueError("maxlen must be >= 2 (rates need two points)")
        self.maxlen = maxlen
        self.interval_s = interval_s
        self.taken = 0
        self.dropped = 0
        self._slots = []
        self._lock = threading.Lock()

    def add(self, snap):
        with self._lock:
            self.taken += 1
            if len(self._slots) == self.maxlen:
                self._slots.pop(0)
                self.dropped += 1
            self._slots.append(snap)

    def last(self, n=1):
        with self._lock:
            return list(self._slots[-n:])

    def __len__(self):
        with self._lock:
            return len(self._slots)

    def to_dict(self):
        """The ``/timeseries.json`` document."""
        with self._lock:
            return {
                "interval_s": self.interval_s,
                "maxlen": self.maxlen,
                "taken": self.taken,
                "dropped": self.dropped,
                "snapshots": list(self._slots),
            }


class SnapshotCollector:
    """Daemon thread feeding a :class:`TimeSeries` on a fixed cadence.

    ``extra_fn`` (no-arg, returns a dict) lets the host stamp dynamic
    state onto every snapshot — ``repro serve`` passes the health probe so
    each slot records whether the daemon was draining when it was taken.
    """

    def __init__(self, registry, series, tracer=None, recorder=None,
                 extra_fn=None):
        self.registry = registry
        self.series = series
        self.tracer = tracer
        self.recorder = recorder
        self.extra_fn = extra_fn
        self._stop = threading.Event()
        self._thread = None

    def _extra(self):
        if self.extra_fn is None:
            return None
        try:
            return self.extra_fn()
        except Exception:
            return None  # a failing probe must not kill the collector

    def _snap(self):
        self.series.add(snapshot(
            self.registry, self.tracer, self.recorder, extra=self._extra()
        ))

    def start(self):
        if self._thread is not None:
            raise RuntimeError("collector already started")
        self._snap()  # slot 0 at t=0, so rates exist after one interval
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self):
        while not self._stop.wait(self.series.interval_s):
            self._snap()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


# -- dashboard rendering (``repro top``) -------------------------------------


def _sample_map(snap, name):
    """``{label-tuple: sample}`` for one metric name in one snapshot."""
    out = {}
    for sample in snap.get("metrics", ()):
        if sample["name"] == name:
            out[tuple(sorted(sample["labels"].items()))] = sample
    return out


def _programs(snap):
    names = set()
    for sample in snap.get("metrics", ()):
        program = sample["labels"].get("program")
        if program and sample["name"].startswith("repro_remote_"):
            names.add(program)
    return names


def _rate(prev, cur, name, dt, label_key):
    """Observations per second of histogram ``name``."""
    if dt <= 0:
        return 0.0
    cur_v = _sample_map(cur, name).get(label_key)
    prev_v = _sample_map(prev, name).get(label_key)
    delta = (cur_v["count"] if cur_v else 0) - (prev_v["count"] if prev_v else 0)
    return max(0.0, delta / dt)


def render_top(doc):
    """The ``repro top`` screen for one ``/timeseries.json`` document.

    Rates come from the last two snapshots; absolute columns (sessions,
    live clients) from the newest one.  With fewer than two snapshots the
    dashboard shows totals with dashes in the rate columns.
    """
    snaps = doc.get("snapshots", [])
    if not snaps:
        return "repro top: no snapshots yet (daemon just started?)"
    cur = snaps[-1]
    prev = snaps[-2] if len(snaps) > 1 else None
    dt = (cur["t"] - prev["t"]) if prev is not None else 0.0
    health = cur.get("health", "ok")
    lines = [
        "repro top — %d snapshot(s), interval %.1fs, health: %s"
        % (len(snaps), doc.get("interval_s", 0.0), health),
        "  %-20s %10s %10s %9s %10s %9s"
        % ("program", "rt/s", "exec p95", "clients", "sessions", "deopt/s"),
    ]
    deopt_rate = (
        _counter_total_rate(prev, cur, "repro_codegen_deopt_total", dt)
        if prev is not None else None
    )
    programs = sorted(_programs(cur))
    if not programs:
        lines.append("  (no per-program traffic recorded yet)")
    for program in programs:
        key = (("program", program),)
        ops_rate = (
            "%.1f" % _rate(prev, cur, "repro_remote_exec_seconds", dt, key)
            if prev is not None else "-"
        )
        exec_sample = _sample_map(cur, "repro_remote_exec_seconds").get(key)
        p95 = (
            "%.0fus" % (exec_sample["quantiles"]["p95"] * 1e6)
            if exec_sample and exec_sample.get("quantiles") else "-"
        )
        clients_sample = _sample_map(cur, "repro_remote_clients").get(key)
        clients = str(int(clients_sample["value"])) if clients_sample else "0"
        sess_sample = _sample_map(cur, "repro_remote_sessions_total").get(key)
        sessions = str(int(sess_sample["value"])) if sess_sample else "0"
        lines.append(
            "  %-20s %10s %10s %9s %10s %9s"
            % (program, ops_rate, p95, clients, sessions,
               "%.2f" % deopt_rate if deopt_rate is not None else "-")
        )
    return "\n".join(lines)


def _counter_total_rate(prev, cur, name, dt):
    if dt <= 0:
        return 0.0
    total_cur = sum(
        s["value"] for s in cur.get("metrics", ()) if s["name"] == name
    )
    total_prev = sum(
        s["value"] for s in prev.get("metrics", ()) if s["name"] == name
    )
    return max(0.0, (total_cur - total_prev) / dt)
