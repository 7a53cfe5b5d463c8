"""Concurrent load harness: fan out, merge, gate.

Runs N :class:`~repro.loadgen.client.SyntheticClient` threads against a
daemon, releases them together through a barrier (so the offered
concurrency really is N sessions at once), merges every client's per-op
wall latencies, and reports throughput plus exact percentile latencies.
``--slo p95=250ms`` turns the report into a CI gate (docs/OPERATIONS.md).
"""

import json
import random
import re
import threading
import time
import urllib.parse
import urllib.request

from repro import obs
from repro.loadgen.client import SyntheticClient
from repro.loadgen.replay import summarize
from repro.obs.metrics import RT_PHASE_BUCKETS, declare
from repro.obs.traceview import _quantile

#: exported metric names (documented in docs/OBSERVABILITY.md)
M_OPS = declare("repro_loadgen_ops_total", "counter",
                "synthetic client ops answered", ("kind",))
M_ERRORS = declare("repro_loadgen_errors_total", "counter",
                   "synthetic client failures", ("reason",))
M_LATENCY = declare("repro_loadgen_op_seconds", "histogram",
                    "synthetic client round-trip seconds",
                    buckets=RT_PHASE_BUCKETS)

_SLO_PART = re.compile(r"^p(\d{1,2}(?:\.\d+)?)=(\d+(?:\.\d+)?)(ms|s)$")

#: harness modes: closed-loop hammers back-to-back, open-loop replays the
#: log's recorded think times (scaled, seeded jitter)
MODES = ("closed", "open")


def parse_slo(spec):
    """``"p95=250ms,p99=1s"`` -> ``{"p95": 250.0, "p99": 1000.0}`` (ms).

    Accepts any percentile between p1 and p99.99; raises ``ValueError``
    on anything else so a mistyped gate fails loudly, not silently."""
    out = {}
    for part in str(spec).split(","):
        part = part.strip().lower()
        if not part:
            continue
        m = _SLO_PART.match(part)
        if m is None:
            raise ValueError(
                "bad SLO %r (expected e.g. p95=250ms or p99=1s)" % part)
        quantile = float(m.group(1))
        if not 0 < quantile < 100:
            raise ValueError("bad SLO percentile in %r" % part)
        limit_ms = float(m.group(2)) * (1000.0 if m.group(3) == "s" else 1.0)
        out["p%g" % quantile] = limit_ms
    if not out:
        raise ValueError("empty SLO spec %r" % spec)
    return out


def check_slo(latency_ms, slo):
    """``{"p95": {"limit_ms", "actual_ms", "ok"}}`` per gated percentile."""
    verdicts = {}
    for name, limit_ms in sorted(slo.items()):
        actual = latency_ms.get(name)
        verdicts[name] = {
            "limit_ms": limit_ms,
            "actual_ms": actual,
            "ok": actual is not None and actual <= limit_ms,
        }
    return verdicts


def slo_ok(report):
    """True when every gated percentile in a report held."""
    return all(v["ok"] for v in report.get("slo", {}).values())


def run_loadgen(address, script, clients=8, iterations=1, mode="closed",
                program=None, think_scale=1.0, seed=0, timeout_s=10.0,
                slo=None, scrape=None):
    """Replay ``script`` as ``clients`` concurrent synthetic sessions.

    Returns the machine-readable report dict: offered load, throughput,
    exact merged p50/p95/p99 (plus any gated percentile), error counts,
    and — when ``scrape`` is a live ``/metrics.json`` URL — the daemon's
    per-program session counters before and after the run.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    effective_think = think_scale if mode == "open" else 0.0
    barrier = threading.Barrier(clients)
    workers = []
    results = [None] * clients
    for i in range(clients):
        client = SyntheticClient(
            address, script, program=program, iterations=iterations,
            think_scale=effective_think,
            rng=random.Random("%s:%d" % (seed, i)) if mode == "open" else None,
            timeout_s=timeout_s, barrier=barrier,
        )

        def _run(i=i, client=client):
            results[i] = client.run()

        workers.append(threading.Thread(target=_run, daemon=True))

    scraped_before = scrape_metrics(scrape) if scrape else None
    t0 = time.perf_counter()
    run_t0 = time.time()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall_s = time.perf_counter() - t0
    scraped_after = scrape_metrics(scrape) if scrape else None
    series = scrape_timeseries(scrape, since=run_t0) if scrape else None

    latencies = []
    op_counts = {}
    ops = error_replies = protocol_errors = skipped = 0
    first_error = None
    for r in results:
        if r is None:  # a worker died before producing a result
            protocol_errors += 1
            continue
        ops += r.ops
        error_replies += r.error_replies
        protocol_errors += r.protocol_errors
        skipped += r.skipped
        latencies.extend(r.latencies_s)
        for kind, n in r.op_counts.items():
            op_counts[kind] = op_counts.get(kind, 0) + n
        if first_error is None:
            first_error = r.first_error
    latencies.sort()

    latency_ms = {}
    if latencies:
        for name in ("p50", "p95", "p99"):
            latency_ms[name] = _quantile(latencies, float(name[1:]) / 100) * 1e3
        for name in slo or ():
            if name not in latency_ms:
                latency_ms[name] = _quantile(
                    latencies, float(name[1:]) / 100) * 1e3
        latency_ms["mean"] = sum(latencies) / len(latencies) * 1e3
        latency_ms["max"] = latencies[-1] * 1e3
        latency_ms = {k: round(v, 3) for k, v in latency_ms.items()}

    report = {
        "address": "%s:%d" % (address[0], int(address[1])),
        "program": program,
        "clients": clients,
        "mode": mode,
        "iterations": iterations,
        "script_ops": summarize(script),
        "ops": ops,
        "op_counts": op_counts,
        "wall_s": round(wall_s, 4),
        "throughput_ops_s": round(ops / wall_s, 1) if wall_s > 0 else 0.0,
        "latency_ms": latency_ms,
        "errors": {
            "protocol": protocol_errors,
            "reply": error_replies,
            "skipped_ops": skipped,
        },
    }
    if first_error is not None:
        report["first_error"] = first_error
    if slo:
        report["slo"] = check_slo(latency_ms, slo)
    if scraped_before is not None or scraped_after is not None:
        report["scrape"] = {"before": scraped_before, "after": scraped_after}
        if series is not None:
            report["scrape"]["series"] = series
    _record_metrics(report, latencies)
    return report


def _record_metrics(report, latencies):
    """Mirror the report into the active telemetry registry (--metrics)."""
    registry = obs.active_registry()
    if registry is None:
        return
    for kind, n in report["op_counts"].items():
        registry.counter(M_OPS, kind=kind).inc(n)
    for reason, n in report["errors"].items():
        if n:
            registry.counter(M_ERRORS, reason=reason).inc(n)
    hist = registry.histogram(M_LATENCY)
    for v in latencies:
        hist.observe(v)


def scrape_metrics(url, names_prefix="repro_remote_"):
    """Fetch a live ``/metrics.json`` endpoint and return the daemon's
    ``repro_remote_*`` samples as ``{name{labels}: value}``."""
    with urllib.request.urlopen(url, timeout=5) as resp:
        doc = json.loads(resp.read().decode())
    out = {}
    for sample in doc.get("metrics", []):
        name = sample.get("name", "")
        if not name.startswith(names_prefix):
            continue
        labels = sample.get("labels") or {}
        key = name + "".join(
            "{%s=%s}" % (k, labels[k]) for k in sorted(labels))
        out[key] = sample.get("value", sample.get("count"))
    return out


def scrape_timeseries(url, names_prefix="repro_remote_", since=None):
    """Fetch the daemon's ``/timeseries.json`` ring and reduce each
    snapshot to its ``repro_remote_*`` samples — the report's per-interval
    ``scrape.series`` block.

    ``url`` is the same ``/metrics.json`` address ``--scrape`` takes; the
    route is swapped here.  ``since`` (epoch seconds) drops snapshots taken
    before the run started.  Returns ``None`` — a graceful omit, not an
    error — for daemons without the route (pre-timeseries versions or
    ``serve`` without ``--snapshot-interval``) or any fetch failure.
    """
    ring_url = urllib.parse.urljoin(url, "/timeseries.json")
    try:
        with urllib.request.urlopen(ring_url, timeout=5) as resp:
            doc = json.loads(resp.read().decode())
    except Exception:
        return None
    series = []
    for snap in doc.get("snapshots", []):
        if since is not None and snap.get("t", 0) < since:
            continue
        samples = {}
        for sample in snap.get("metrics", []):
            name = sample.get("name", "")
            if not name.startswith(names_prefix):
                continue
            labels = sample.get("labels") or {}
            key = name + "".join(
                "{%s=%s}" % (k, labels[k]) for k in sorted(labels))
            samples[key] = sample.get("value", sample.get("count"))
        series.append({
            "t": snap.get("t"),
            "health": snap.get("health", "ok"),
            "samples": samples,
        })
    return {"interval_s": doc.get("interval_s"), "snapshots": series}


def render_report(report):
    """Human-readable summary lines (the CLI's text format)."""
    lines = []
    lines.append(
        "loadgen: %d client(s), %s-loop x%d against %s%s"
        % (report["clients"], report["mode"], report["iterations"],
           report["address"],
           " (program %s)" % report["program"] if report["program"] else ""))
    lines.append(
        "  %d ops in %.2fs  ->  %.1f ops/s"
        % (report["ops"], report["wall_s"], report["throughput_ops_s"]))
    lat = report.get("latency_ms") or {}
    if lat:
        lines.append(
            "  latency p50 %.2f ms   p95 %.2f ms   p99 %.2f ms   max %.2f ms"
            % (lat.get("p50", 0), lat.get("p95", 0), lat.get("p99", 0),
               lat.get("max", 0)))
    err = report["errors"]
    lines.append(
        "  errors: %d protocol, %d error replies, %d skipped ops"
        % (err["protocol"], err["reply"], err["skipped_ops"]))
    if report.get("first_error"):
        lines.append("  first error: %s" % report["first_error"])
    for name, verdict in sorted((report.get("slo") or {}).items()):
        lines.append(
            "  SLO %s <= %.1f ms: %s (actual %s)"
            % (name, verdict["limit_ms"],
               "ok" if verdict["ok"] else "VIOLATED",
               "%.2f ms" % verdict["actual_ms"]
               if verdict["actual_ms"] is not None else "n/a"))
    return "\n".join(lines)
