"""One worker's share of a run: set up once, check, measure passes.

``run.py`` starts several workers, one process each, and merges their
reports; see its docstring for the workloads and metrics.
"""

import contextlib
import gc
import hashlib
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import probes
from repro import obs
from repro.core.deploy import export_split_json
from repro.core.pipeline import auto_split
from repro.loadgen.client import SyntheticClient
from repro.loadgen.replay import script_from_transcript
from repro.obs import export
from repro.runtime.cache import M_CACHE_HITS
from repro.runtime.compile import M_COMPILE_SECONDS
from repro.runtime.remote import RemoteHiddenRuntime, run_split_remote
from repro.runtime.server import HiddenServer
from repro.runtime.splitrun import run_original, run_split
from repro.workloads.corpora import build_corpus
from repro.workloads.inputs import TABLE5_RUNS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: manifests the daemon loads (inside the checkout, ignored by git)
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

CORPORA = sorted({run.benchmark for run in TABLE5_RUNS})

#: script repetitions per replay connection: the second one replays
#: against a warm session cache
REPLAY_ITERATIONS = 2
#: the javac table walker streams ``m % 24 + 8`` elements per call, so
#: seeds move ``m`` in steps of 24 to keep each row's interaction count
M_STEP = 24
DAEMON_START_S = 60.0


class Session:
    """One Table 5 driver invocation ``main(n, m)`` of a corpus; ``index``
    is its row in Table 5."""

    __slots__ = ("index", "corpus", "row", "args")

    def __init__(self, index, corpus, row, args):
        self.index = index
        self.corpus = corpus
        self.row = row
        self.args = args


def make_sessions(seed):
    """Every Table 5 row once, in a seeded order with seeded ballast."""
    rng = random.Random(seed)
    sessions = [
        Session(i, run.benchmark, run.input_name,
                (run.n, run.m + M_STEP * rng.choice((-1, 0, 1))))
        for i, run in enumerate(TABLE5_RUNS)
    ]
    rng.shuffle(sessions)
    return sessions


def note(message):
    print("perfbench: %s" % message, file=sys.stderr)


class Daemon:
    """A ``repro serve`` subprocess hosting every corpus as a tenant."""

    def __init__(self, manifests, trace):
        cmd = [sys.executable, "-u", os.path.join(HERE, "serve.py")]
        if trace:
            cmd.append("--time-fragments")
        cmd += ["serve"] + ["%s=%s" % item for item in manifests.items()]
        cmd += ["--port", "0"]
        if trace:
            cmd += ["--expo-port", "0"]
        self.address = None
        self.metrics_url = None
        self._lines = queue.Queue()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._wait_ready(trace)
        except BaseException:
            self.stop()
            raise

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _wait_ready(self, trace):
        deadline = time.perf_counter() + DAEMON_START_S
        while self.address is None or (trace and self.metrics_url is None):
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("daemon did not start within %.0f s"
                                   % DAEMON_START_S) from None
            if line is None:
                raise RuntimeError("daemon exited during start-up (code %s)"
                                   % self.proc.wait())
            if line.startswith("metrics exposition on "):
                url = line.rsplit(" ", 1)[1]
                self.metrics_url = url.rsplit("/", 1)[0] + "/metrics.json"
            elif line.startswith("hidden component serving on "):
                host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
                self.address = (host, int(port))
        # the daemon prints its address before it accepts (and before it
        # drains on SIGTERM); a served handshake means it does both
        with socket.create_connection(self.address, timeout=DAEMON_START_S) \
                as sock, sock.makefile("rb") as rfile:
            if not rfile.readline():
                raise RuntimeError("daemon closed its first connection")
            sock.sendall(b'{"op": "shutdown"}\n')

    def totals(self):
        with urllib.request.urlopen(self.metrics_url, timeout=10) as resp:
            return probes.totals(json.loads(resp.read().decode()))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def write_manifests(splits):
    os.makedirs(WORK_DIR, exist_ok=True)
    paths = {}
    for name, split in splits.items():
        paths[name] = os.path.join(WORK_DIR, "%s.json" % name)
        with open(paths[name], "w") as f:
            f.write(export_split_json(split))
    return paths


class ReplayClient(SyntheticClient):
    """A loadgen client that also keeps what the checks and layers need:
    a digest of the call results of each script iteration, the callbacks
    it answered, and its time spent replaying."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digests = []
        self.callbacks = 0
        self.busy_s = 0.0
        self._digest = None

    def _replay_once(self, *args):
        self._digest = hashlib.sha256()
        t0 = time.perf_counter()
        try:
            super()._replay_once(*args)
        finally:
            self.busy_s += time.perf_counter() - t0
            self.digests.append(self._digest.hexdigest())

    def _exchange(self, rfile, wfile, payload, result):
        reply = super()._exchange(rfile, wfile, payload, result)
        if payload["op"] == "call":
            # activation ids differ per session; call results must not
            self._digest.update(
                repr(None if reply is None else reply.get("result")).encode())
        return reply

    def _answer_callback(self, wfile, msg):
        self.callbacks += 1
        super()._answer_callback(wfile, msg)


class Pass:
    """What one pass over every row measured."""

    def __init__(self):
        #: [row index, seconds, Of->Hf interaction latencies] per good session
        self.sessions = []
        #: [row index, seconds, interpreted statements] per original run
        self.originals = []
        self.attempted = 0
        self.failed = 0
        self.round_trips = 0
        self.busy_s = 0.0

    def add(self, session, seconds, rts, round_trips, busy_s):
        self.sessions.append([session.index, seconds, rts])
        self.round_trips += round_trips
        self.busy_s += busy_s


class Worker:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.sessions = make_sessions(seed)
        self.timer = probes.BoundaryTimer()
        self.timer.install(HiddenServer)
        self.timer.install(RemoteHiddenRuntime)
        if trace:
            probes.time_fragments()
        self.daemon = None
        self.corpora = None
        self.splits = None
        self.expected = {}
        self.scripts = {}
        self.references = {}
        self.failed = 0

    def set_up(self):
        """Build and split the corpora and, for the daemon workloads, export
        them and start the daemon; returns (set-up s, splitter s)."""
        t0 = time.perf_counter()
        corpora, self.splits = {}, {}
        split_s = 0.0
        for name in CORPORA:
            corpora[name] = build_corpus(name)
            t1 = time.perf_counter()
            self.splits[name] = auto_split(corpora[name].program,
                                           corpora[name].checker)
            split_s += time.perf_counter() - t1
        if self.workload != "table5-inproc":
            self.daemon = Daemon(write_manifests(self.splits), self.trace)
        setup_s = time.perf_counter() - t0
        self.corpora = corpora
        self._make_oracle(corpora)
        # the corpora and originals are the benchmark's, not the open
        # component's: keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        return setup_s, split_s

    def _make_oracle(self, corpora):
        """Expected value and output of every row from the unsplit
        original.  For the replay: scripts from the in-process split's
        transcript, and one real cached daemon session per row."""
        for s in self.sessions:
            before = run_original(corpora[s.corpus].program, args=s.args)
            self.expected[s] = (before.value, tuple(before.output))
            if self.workload != "daemon-replay":
                continue
            after = run_split(self.splits[s.corpus], args=s.args)
            self.scripts[s] = script_from_transcript(after.channel.transcript)
            remote = run_split_remote(
                self.splits[s.corpus], self.daemon.address, args=s.args,
                program=s.corpus, cache=True)
            for result in (after, remote):
                if (result.value, tuple(result.output)) != self.expected[s]:
                    note("%s/%s: split run diverged from the original"
                         % (s.corpus, s.row))
                    self.failed += 1

    # -- passes ------------------------------------------------------------

    def _run_session(self, s):
        if self.workload == "table5-inproc":
            return run_split(self.splits[s.corpus], args=s.args, record=False)
        return run_split_remote(self.splits[s.corpus], self.daemon.address,
                                args=s.args, program=s.corpus)

    def _original(self, p, s):
        """Time the unsplit original of row ``s`` — the yardstick every
        split session of the same worker is measured against."""
        t0 = time.perf_counter()
        result = run_original(self.corpora[s.corpus].program, args=s.args)
        elapsed = time.perf_counter() - t0
        if (result.value, tuple(result.output)) != self.expected[s]:
            p.failed += 1
            note("%s/%s: the original changed its result" % (s.corpus, s.row))
            return
        p.originals.append([s.index, elapsed, result.steps_open])

    def _table5_pass(self, p):
        samples = self.timer.samples
        for s in self.sessions:
            self._original(p, s)
            p.attempted += 1
            first = len(samples)
            t0 = time.perf_counter()
            try:
                result = self._run_session(s)
            except Exception as exc:  # counted, and the run goes on
                p.failed += 1
                note("%s/%s failed: %s" % (s.corpus, s.row, exc))
                continue
            elapsed = time.perf_counter() - t0
            if (result.value, tuple(result.output)) != self.expected[s]:
                p.failed += 1
                note("%s/%s: wrong result" % (s.corpus, s.row))
                continue
            p.add(s, elapsed, samples[first:], result.interactions, elapsed)

    def _replay_pass(self, p):
        for s in self.sessions:
            self._original(p, s)
            p.attempted += 1
            client = ReplayClient(
                self.daemon.address, self.scripts[s], program=s.corpus,
                iterations=REPLAY_ITERATIONS, cache=True)
            t0 = time.perf_counter()
            result = client.run()
            elapsed = time.perf_counter() - t0
            ops = len(self.scripts[s]) * REPLAY_ITERATIONS
            reference = self.references.setdefault(s, client.digests[:1])
            if (result.protocol_errors or result.error_replies
                    or result.skipped or result.ops != ops
                    or client.digests != reference * REPLAY_ITERATIONS):
                p.failed += 1
                note("%s/%s: replay failed (%s)" % (
                    s.corpus, s.row,
                    result.first_error or "call results differ"))
                continue
            p.add(s, elapsed, result.latencies_s,
                  result.ops + client.callbacks, client.busy_s)

    def _run_pass(self, registry):
        p = Pass()
        before = self._layer_totals(registry)
        if self.workload == "daemon-replay":
            self._replay_pass(p)
        else:
            self._table5_pass(p)
        layers = {}
        if registry is not None:
            after = self._layer_totals(registry)
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            wait = sum(sum(rts) for _, _, rts in p.sessions)
            layers = {
                "compile_s": delta.get(M_COMPILE_SECONDS, 0.0),
                "open_s": p.busy_s - wait,
                "hf_wait_s": wait,
                "hf_exec_s": delta.get(probes.FRAGMENT_SECONDS, 0.0),
                "round_trips": p.round_trips,
                "cache_hits": delta.get(M_CACHE_HITS, 0),
            }
        return p, layers

    def _layer_totals(self, registry):
        """Client-side plus daemon-side metric totals (trace runs)."""
        if registry is None:
            return {}
        out = probes.totals(export.to_dict(registry))
        if self.daemon is not None:
            for name, value in self.daemon.totals().items():
                out[name] = out.get(name, 0) + value
        return out

    # -- the worker's report -------------------------------------------------

    def run(self):
        """Set up, then run passes for ``seconds`` (at least one; no pass
        that would likely end past them); returns the JSON-able report
        ``run.py`` merges."""
        report = {"passes": [], "attempted": 0}
        try:
            report["setup_s"], report["split_s"] = self.set_up()
            # end-to-end runs measure with telemetry off, as it defaults
            scope = (obs.telemetry() if self.trace
                     else contextlib.nullcontext((None, None)))
            with scope as (registry, _tracer):
                t0 = time.perf_counter()
                passes = report["passes"]
                while not passes or (time.perf_counter() - t0) * (
                        len(passes) + 1) / len(passes) <= self.seconds:
                    p, layers = self._run_pass(registry)
                    self.failed += p.failed
                    report["attempted"] += p.attempted
                    report["passes"].append({
                        "sessions": p.sessions, "originals": p.originals,
                        "layers": layers})
        finally:
            if self.daemon is not None:
                self.daemon.stop()
        report["failed"] = self.failed
        return report


def main(argv):
    """``worker.py WORKLOAD SEED SECONDS TRACE``: print one report."""
    workload, seed, seconds, trace = argv
    # a SIGTERM from run.py unwinds through the finally that stops the
    # daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    worker = Worker(workload, int(seed), float(seconds), trace == "1")
    json.dump(worker.run(), sys.stdout)
    return 0
