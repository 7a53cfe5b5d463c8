"""From a flight-recorder log to a replayable load script.

The recorder's ``channel`` events carry everything a synthetic client
needs to reproduce the *shape* of a session's traffic — op kind, function,
fragment label, and value count — without the values themselves, which the
recorder deliberately never captures (docs/OBSERVABILITY.md).  Replay
sends zeros of the right arity instead; the hidden side executes the same
fragments over the same wire ops, which is what a load test measures.

Logs from either end (``repro serve`` or ``run-split --log-events``)
replay with full fidelity: their events carry real function names,
resolved against the ``functions`` map the daemon advertises in its
handshake.  Client-side logs older than that record ``fn: "-"``, so they
only replay against single-function programs, where the mapping is
unambiguous.
"""

import json

#: client-initiated channel event kinds a synthetic client replays;
#: ``cb_*`` kinds are server-driven (answered, not sent) and ``batch``
#: frames are re-coalesced by a batching client, not replayed literally
CLIENT_KINDS = ("open", "call", "close")


class ReplayOp:
    """One scripted wire op: what to send, and when."""

    __slots__ = ("kind", "fn", "label", "values", "think_us")

    def __init__(self, kind, fn, label, values, think_us=0.0):
        self.kind = kind          #: "open" | "call" | "close"
        self.fn = fn              #: recorded function (or class) name, "-" if unknown
        self.label = label        #: fragment label for calls (int), else None
        self.values = values      #: scalar values the recorded op carried
        self.think_us = think_us  #: recorded gap since the previous op

    def __repr__(self):
        return "ReplayOp(%r, fn=%r, label=%r, values=%d, think_us=%.1f)" % (
            self.kind, self.fn, self.label, self.values, self.think_us,
        )


def load_script(path):
    """Parse a ``--log-events`` jsonl file into a list of :class:`ReplayOp`."""
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return script_from_events(events, source=path)


def script_from_events(events, source="<events>"):
    """Extract the client-initiated op sequence from recorder events.

    Think times are the recorded inter-op gaps (``ts_us`` deltas between
    consecutive replayed events), consumed by the harness's open-loop mode.
    """
    ops = []
    last_ts = None
    for event in events:
        if event.get("type") != "channel":
            continue
        kind = event.get("kind")
        if kind not in CLIENT_KINDS:
            continue
        ts = event.get("ts_us")
        think_us = 0.0
        if ts is not None and last_ts is not None:
            think_us = max(0.0, float(ts) - last_ts)
        if ts is not None:
            last_ts = float(ts)
        label = event.get("label")
        if kind != "call":
            label = None
        else:
            try:
                label = int(label)
            except (TypeError, ValueError):
                label = 0
        ops.append(ReplayOp(
            kind,
            str(event.get("fn", "-")),
            label,
            int(event.get("values", 0) or 0),
            think_us,
        ))
    if not ops:
        raise ValueError(
            "no replayable channel events in %s (was it recorded with "
            "--log-events on a serve or run-split session?)" % source
        )
    return ops


def script_from_transcript(transcript):
    """Extract a script from an in-process :class:`~repro.runtime.channel.
    Transcript` — the benchmark path, where no socket run is needed to
    obtain a replayable session shape."""
    ops = []
    for event in transcript.events:
        if event.kind not in CLIENT_KINDS:
            continue
        values = len(event.sent) + (1 if event.result is not None else 0)
        label = event.label if event.kind == "call" else None
        ops.append(ReplayOp(event.kind, str(event.fn_name), label, values))
    if not ops:
        raise ValueError("no replayable events in transcript")
    return ops


def summarize(script):
    """Per-kind op counts — the script's shape at a glance."""
    counts = {}
    for op in script:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts
