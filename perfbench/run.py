"""Wall-clock benchmark of the split runtime.

Runs every row of the paper's Table 5 (driver invocations ``main(n, m)`` of
the javac, jess, jasmin and bloat corpora) as split programs and measures
what a user of the split system waits for.

Workloads:

``table5-inproc``
    each row as ``run_split`` executes it: the hidden component in process,
    behind the simulated channel.
``table5-tcp``
    each row as ``run_split_remote`` executes it against a ``repro serve``
    daemon subprocess (every corpus a tenant), one loopback TCP session per
    row.
``daemon-replay``
    a loadgen client replays every row's session shape, recorded from its
    transcript, against the daemon (closed loop, one connection per row);
    each connection replays its row twice with the fragment result cache
    negotiated, so the second replay hits it.

``--seed`` shuffles the row order and moves each row's ballast size ``m``
by one step of 24, which keeps every row's interaction count.  The value
and output of every split run are checked against the unsplit original;
replayed call results must agree across clients, iterations and passes,
and one real cached session per row is checked against the daemon first.

A run is three worker processes in turn (``worker.py``).  Each sets up once
(builds and splits the corpora; for the daemon workloads also exports the
manifests and starts its own daemon), computes the originals, then runs
passes for a third of ``--seconds``.  A pass runs every row's unsplit
original and its split session, each timed.

Shared virtual machines have phases, from a fraction of a second to minutes
long, in which Python code runs up to twice as slow.  Three choices keep
the figures steady through them.  Every process of a run is pinned to one
CPU, so a loopback round trip is a context switch and not a wake-up of an
idle CPU, and the client and the daemon meet the same phase.  Each row
counts with its fastest session and its fastest original over all workers
(phases only ever add time).  And the timings are reported relative to the
unsplit original measured alongside, the same yardstick as the paper's
Table 5, so a phase that slows everything cancels out.  Absolute seconds
are in the per-layer metrics.

``--trace 0`` prints the end-to-end metrics:

- ``split_x``: all rows' split sessions over their unsplit originals
  (Table 5's "after" over "before", measured in wall-clock time);
- ``rt_p50_stmts`` / ``rt_p99_stmts``: median and 99th percentile of one
  Of->Hf interaction as the open side waits for it, callbacks included,
  over those sessions, in interpreted statements of the original (its
  seconds over its statement count) — the unit in which docs/BENCHMARKS.md
  calibrates the paper's round trip;
- ``setup_s``: median seconds of the workers' set-ups.

``--trace 1`` prints per-layer metrics, medians over all passes (split_s
over the workers), measured with telemetry on:

- ``split_s``: the splitter (``auto_split``) in one set-up;
- ``compile_s``: engine compilation in a pass (originals included), open
  and hidden side;
- ``open_s``: the open side outside its waits on Hf;
- ``hf_wait_s``: the open side waiting on Hf;
- ``hf_exec_s``: Hf executing fragments;
- ``round_trips``: Of<->Hf round trips, callbacks included;
- ``cache_hits``: fragment result cache hits.

The last line of standard output is the JSON result.  Usage::

    python3 perfbench/run.py --workload table5-tcp --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("table5-inproc", "table5-tcp", "daemon-replay")
WORKERS = 3
WORKER_TIMEOUT_S = 55
LAYER_UNITS = {
    "compile_s": "s",
    "open_s": "s",
    "hf_wait_s": "s",
    "hf_exec_s": "s",
    "round_trips": "count",
    "cache_hits": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), repr(args.seconds / WORKERS), str(args.trace)]
    # its own process group, so a stuck worker goes down with its daemon
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.communicate(timeout=30)
        raise RuntimeError("worker did not finish in %d s" % WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(out)


def merge(reports, trace):
    passes = [p for r in reports for p in r["passes"]]
    if trace:
        metrics = {"split_s": (statistics.median(r["split_s"] for r in reports),
                               "s")}
        for name, unit in LAYER_UNITS.items():
            pick = statistics.median_low if unit == "count" else \
                statistics.median
            metrics[name] = (pick(p["layers"][name] for p in passes), unit)
        return metrics
    split = fastest(p["sessions"] for p in passes)
    original = fastest(p["originals"] for p in passes)
    rows = split.keys() & original.keys()
    if not rows:
        raise RuntimeError("no row ran correctly")
    original_s = sum(original[row][0] for row in rows)
    # one interpreted statement of the unsplit original, in seconds
    stmt_s = original_s / sum(original[row][1] for row in rows)
    cuts = statistics.quantiles(
        [rt for row in rows for rt in split[row][1]], n=100)
    return {
        "split_x": (sum(split[row][0] for row in rows) / original_s, "x"),
        "rt_p50_stmts": (cuts[49] / stmt_s, "stmt"),
        "rt_p99_stmts": (cuts[98] / stmt_s, "stmt"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
    }


def fastest(runs_per_pass):
    """``{row: (seconds, detail)}`` of each row's fastest run."""
    best = {}
    for runs in runs_per_pass:
        for row, seconds, detail in runs:
            if row not in best or seconds < best[row][0]:
                best[row] = (seconds, detail)
    return best


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources at %s" % SRC, file=sys.stderr)
        return 2
    # workers and their daemons inherit the affinity (see above)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reports = [run_worker(args) for _ in range(WORKERS)]
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit)
                    in merge(reports, args.trace).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
