#!/usr/bin/env python3
"""Regenerate the committed dotproduct traces under ``examples/traces/``.

Runs the worked example of docs/OBSERVABILITY.md end to end: exports the
dotproduct split (``f`` on ``a``), serves it with ``repro serve`` on a
loopback port, runs ``repro run-split --remote ... --trace`` against it,
stops the daemon with SIGTERM (which flushes its event log) and merges
the two logs with ``repro trace``.  Writes ``dotproduct.client.jsonl``,
``dotproduct.server.jsonl`` and ``dotproduct.trace.json`` into the output
directory (default ``examples/traces``)::

    python tools/regen_traces.py [OUT_DIR]

Timestamps, trace ids and timings differ on every run; the channel
events (kind, function, label, value count) do not.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = REPO / "examples" / "programs" / "dotproduct.mj"
SPLIT = ["--function", "f", "--var", "a"]
_SERVING = re.compile(r"hidden component serving on ([\d.]+):(\d+)")


def _repro(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-u", "-m", "repro"]
                            + [str(a) for a in args], env=env, **kwargs)


def _run(*args):
    proc = _repro(*args, stdout=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise SystemExit("repro %s failed" % args[0])


def _address(serve, timeout_s=30.0):
    """The ``host:port`` the daemon prints once it is bound."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = serve.stdout.readline()
        if not line:
            break
        match = _SERVING.search(line)
        if match:
            return "%s:%s" % match.groups()
    raise SystemExit("repro serve did not come up")


def regenerate(out_dir):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    client = out / "dotproduct.client.jsonl"
    server = out / "dotproduct.server.jsonl"
    with tempfile.TemporaryDirectory() as tmp:
        manifest = pathlib.Path(tmp) / "manifest.json"
        _run("export", PROGRAM, *SPLIT, "-o", manifest)
        serve = _repro("serve", manifest, "--port", 0,
                       "--log-events", server,
                       stdout=subprocess.PIPE, text=True)
        try:
            address = _address(serve)
            _run("run-split", PROGRAM, "--args", 3, *SPLIT,
                 "--remote", address, "--trace", "--log-events", client)
        finally:
            serve.send_signal(signal.SIGTERM)
            serve.communicate(timeout=30)
    _run("trace", client, server, "--out", out / "dotproduct.trace.json")
    return out


def main(argv):
    out = regenerate(argv[1] if len(argv) > 1 else REPO / "examples" / "traces")
    print("wrote %s" % out)


if __name__ == "__main__":
    main(sys.argv)
