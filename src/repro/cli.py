"""Command-line interface.

::

    python -m repro run PROG.mj [--entry main] [--args 1 2 3]
    python -m repro split PROG.mj [--function f --var a] [--show-fragments]
    python -m repro run-split PROG.mj [--args ...] [--latency lan|card|instant]
    python -m repro analyze PROG.mj                 # Section 3 security report
    python -m repro table1 PROG.mj                  # self-contained analysis
    python -m repro attack PROG.mj --runs 40        # recovery attempts
    python -m repro stats PROG.mj --args 2 3        # telemetry snapshot
    python -m repro trace client.jsonl server.jsonl --out merged.json

``PROG.mj`` is a MiniJava source file (see README for the language).  When
``--function/--var`` are omitted, ``split`` uses the paper's automatic
selection (call-graph cut + max-complexity variable).

``run``, ``run-split`` and ``serve`` accept ``--metrics PATH``: telemetry
(:mod:`repro.obs`) is enabled for the whole command and the registry is
dumped to ``PATH`` as JSON at exit.  ``stats`` prints the same snapshot to
stdout in JSON or Prometheus text format.  ``--log-events PATH`` records
the per-event boundary stream (the flight recorder), ``--expo-port N``
serves live ``/metrics`` over HTTP for the duration, and ``audit`` joins
the recorded per-ILP traffic to the Section 3 complexity estimates (see
docs/OBSERVABILITY.md).  ``serve`` and ``run-split`` flush ``--metrics``/
``--log-events`` output on SIGINT/SIGTERM instead of dropping it.
"""

import argparse
import contextlib
import json
import signal
import sys

from repro.analysis.selfcontained import analyze_self_contained
from repro.core.pipeline import prepare_split
from repro.lang import check_program, parse_program
from repro.core.splitter import SplitError
from repro.lang.errors import LangError
from repro.runtime.values import RuntimeErr
from repro.lang.pretty import pretty_function
from repro.runtime.channel import LatencyModel
from repro.runtime import DEFAULT_ENGINE, ENGINES
from repro.runtime.splitrun import check_equivalence, run_original, run_split
from repro.security.report import analyze_split_security

_LATENCIES = {
    "lan": LatencyModel.lan,
    "card": LatencyModel.smart_card,
    "instant": LatencyModel.instant,
}


def _load(path):
    with open(path) as f:
        source = f.read()
    program = parse_program(source)
    checker = check_program(program)
    return program, checker


def _parse_args_list(values):
    out = []
    for v in values:
        try:
            out.append(int(v))
        except ValueError:
            out.append(float(v))
    return tuple(out)


def _corpus_names():
    from repro.workloads.corpora import SPECS

    return sorted(SPECS)


def _split_for(program, checker, args):
    choices = None
    if args.function and args.var:
        choices = [(args.function, args.var)]
    return prepare_split(program, checker, choices=choices, entry=args.entry)


@contextlib.contextmanager
def _telemetry_session(args, out=None):
    """Enable telemetry for the wrapped command when any telemetry flag is
    present (``--metrics``, ``--log-events``, ``--expo-port``); no-op
    otherwise so un-flagged runs stay bit-identical.

    While active, the live exposition endpoint (``--expo-port``) serves the
    registry over HTTP.  At exit — including a SIGINT/SIGTERM delivered as
    :class:`KeyboardInterrupt` — the registry is dumped to ``--metrics`` as
    JSON and the flight recorder stream to ``--log-events``.

    Yields the live :class:`~repro.obs.httpexpo.ExpositionServer` (or
    ``None`` without ``--expo-port``) so commands can attach state the
    endpoint serves — ``serve`` wires its drain probe into ``/healthz``
    and its snapshot ring into ``/timeseries.json``."""
    metrics_path = getattr(args, "metrics", None)
    events_path = getattr(args, "log_events", None)
    expo_port = getattr(args, "expo_port", None)
    if metrics_path is None and events_path is None and expo_port is None:
        yield None
        return
    from repro import obs
    from repro.obs import export
    from repro.obs.events import FlightRecorder, write_events

    # the recorder's process name labels its row in merged Chrome traces
    # (repro trace): the serving side is the hidden component Hf, a remote
    # client run is the open component Of
    process = "repro"
    command = getattr(args, "command", None)
    if command == "serve":
        process = "Hf"
    elif getattr(args, "remote", None):
        process = "Of"
    recorder = FlightRecorder(process=process) if events_path else None
    with obs.telemetry(recorder=recorder) as (registry, tracer):
        expo = None
        try:
            if expo_port is not None:
                from repro.obs.httpexpo import ExpositionServer

                expo = ExpositionServer(registry, tracer, port=expo_port,
                                        recorder=recorder)
                host, port = expo.start()
                if out is not None:
                    print(
                        "metrics exposition on http://%s:%d/metrics" % (host, port),
                        file=out,
                    )
            yield expo
        finally:
            if expo is not None:
                expo.stop()
            if metrics_path:
                export.write_json(metrics_path, registry, tracer, recorder)
            if events_path:
                write_events(
                    events_path, recorder,
                    format=getattr(args, "log_events_format", "jsonl"),
                )


@contextlib.contextmanager
def _terminate_as_interrupt():
    """Deliver SIGTERM as :class:`KeyboardInterrupt` for the wrapped command
    so a plain ``kill`` drains the same finally blocks as Ctrl-C — telemetry
    sinks flush instead of dropping.  No-op outside the main thread."""

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not the main thread (tests drive main() directly)
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def cmd_run(args, out):
    with _telemetry_session(args, out):
        program, _ = _load(args.file)
        result = run_original(program, entry=args.entry,
                              args=_parse_args_list(args.args),
                              engine=args.engine)
    for line in result.output:
        print(line, file=out)
    if result.value is not None:
        print("=> %r" % result.value, file=out)
    print("[%d statements executed]" % result.steps_open, file=out)
    return 0


def cmd_split(args, out):
    program, checker = _load(args.file)
    sp = _split_for(program, checker, args)
    if not sp.splits:
        print("nothing was split (no eligible function/variable)", file=out)
        return 1
    stats = sp.stats()
    for name, split in sorted(sp.splits.items()):
        print(split.describe(), file=out)
        s = stats[name]
        print(
            "  statements: %d original -> %d open + %d hidden; "
            "%d fragment params" % (
                s["original_stmts"], s["open_stmts"], s["hidden_stmts"],
                s["params_total"],
            ),
            file=out,
        )
        print(file=out)
        print("--- open component ---", file=out)
        print(pretty_function(split.open_fn), file=out)
        if args.show_fragments:
            print("--- hidden component ---", file=out)
            for label in sorted(split.fragments):
                print(split.fragments[label].describe(), file=out)
                print(file=out)
    return 0


def cmd_run_split(args, out):
    try:
        with _terminate_as_interrupt(), _telemetry_session(args, out):
            program, checker = _load(args.file)
            sp = _split_for(program, checker, args)
            run_args = _parse_args_list(args.args)
            batching = getattr(args, "batching", "off") == "on"
            engine = getattr(args, "engine", DEFAULT_ENGINE)
            trace = getattr(args, "trace", False)
            if trace and not args.remote:
                print(
                    "error: --trace requires --remote (the in-process "
                    "channel has no wire to trace)", file=out,
                )
                return 2
            if args.remote:
                from repro.runtime.remote import run_split_remote

                host, _, port = args.remote.rpartition(":")
                result = run_split_remote(sp, (host or "127.0.0.1", int(port)),
                                          entry=args.entry, args=run_args,
                                          batching=batching, engine=engine,
                                          trace=trace,
                                          program=getattr(args, "program",
                                                          None))
                for line in result.output:
                    print(line, file=out)
                print(
                    "[ran against remote hidden component; %d real round trips]"
                    % result.interactions,
                    file=out,
                )
                if trace:
                    sync = result.trace_sync or {}
                    if sync.get("offset_us") is not None:
                        print(
                            "[traced; clock offset %+.1f us, skew bound "
                            "%.1f us]" % (sync["offset_us"],
                                          sync["skew_bound_us"]),
                            file=out,
                        )
                    else:
                        print(
                            "[traced; server did not answer the clock "
                            "handshake]", file=out,
                        )
                return 0
            check_equivalence(program, sp, entry=args.entry, args=run_args,
                              engine=engine)
            latency = _LATENCIES[args.latency]()
            result = run_split(sp, entry=args.entry, args=run_args,
                               latency=latency, batching=batching,
                               engine=engine)
            for line in result.output:
                print(line, file=out)
            summary = result.channel.transcript.summary()
            print(
                "[split verified equivalent; %d interactions, %.2f ms channel "
                "time, %d open + %d hidden statements]"
                % (
                    summary["round_trips"],
                    summary["simulated_ms"],
                    result.steps_open,
                    result.steps_hidden,
                ),
                file=out,
            )
            return 0
    except KeyboardInterrupt:
        print("[interrupted; telemetry flushed]", file=out)
        return 130


def cmd_analyze(args, out):
    from repro.bench.tables import Table

    program, checker = _load(args.file)
    sp = _split_for(program, checker, args)
    if not sp.splits:
        print("nothing was split (no eligible function/variable)", file=out)
        return 1
    report = analyze_split_security(sp, checker, args.file)
    table = Table("ILP security characterisation", ["ILP", "kind", "AC", "CC"])
    for c in report.complexities:
        table.add_row(str(c.ilp), c.ilp.kind, str(c.ac), str(c.cc))
    print(table.render(), file=out)
    print(file=out)
    print("type histogram: %r" % report.type_histogram(), file=out)
    print(
        "paths variable: %d   predicates hidden: %d   flow hidden: %d"
        % (
            report.paths_variable_count(),
            report.predicates_hidden_count(),
            report.flow_hidden_count(),
        ),
        file=out,
    )
    return 0


def cmd_lint(args, out):
    from repro.analysis.function import analyze_function
    from repro.analysis.lint import diagnose_split, lint_program
    from repro.security.estimator import estimate_split_complexities

    program, checker = _load(args.file)
    findings = lint_program(program)
    if args.split:
        sp = _split_for(program, checker, args)
        for name, split in sorted(sp.splits.items()):
            fn = program.function(name)
            analysis = analyze_function(fn, checker)
            results = estimate_split_complexities(split, analysis)
            findings.extend(diagnose_split(split, results))
    if not findings:
        print("no findings", file=out)
        return 0
    for f in findings:
        print("%-22s %-20s %s" % (f.kind, f.where, f.message), file=out)
    return 1


def _load_tenants(manifests):
    """Parse serve's manifest arguments into Tenant registrations.

    Each argument is ``PATH`` or ``NAME=PATH``; without an explicit name
    the file's stem names the program.  The first manifest is the daemon's
    default program (docs/OPERATIONS.md).  Only each manifest's hidden half
    is read: the daemon never parses ``open_program``."""
    import os

    from repro.core.deploy import import_hidden
    from repro.runtime.server import Tenant

    tenants = []
    seen = set()
    for spec in manifests:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "", spec
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]
        if name in seen:
            raise ValueError("duplicate program name %r" % name)
        seen.add(name)
        with open(path) as f:
            tenants.append(Tenant(name, *import_hidden(f.read())))
    return tenants


def cmd_serve(args, out):
    from repro.runtime.remote import HiddenComponentServer

    snapshot_interval = getattr(args, "snapshot_interval", None)
    if snapshot_interval is not None:
        if getattr(args, "expo_port", None) is None:
            print("error: --snapshot-interval requires --expo-port (the "
                  "ring is served at /timeseries.json)", file=out)
            return 2
        if snapshot_interval <= 0:
            print("error: --snapshot-interval must be positive", file=out)
            return 2
    with _terminate_as_interrupt(), _telemetry_session(args, out) as expo:
        server = HiddenComponentServer(
            tenants=_load_tenants(args.manifest),
            host=args.host,
            port=args.port,
            engine=getattr(args, "engine", DEFAULT_ENGINE),
            max_sessions=getattr(args, "max_sessions", None),
            idle_timeout_s=getattr(args, "idle_timeout", None),
        )
        collector = None
        if expo is not None:
            # /healthz now reports the daemon's drain state, so probes and
            # loadgen can tell a SIGTERM'd daemon from a live one
            expo.health = (
                lambda: "draining" if server._draining.is_set() else "ok"
            )
            if snapshot_interval is not None:
                from repro.obs.timeseries import SnapshotCollector, TimeSeries

                series = TimeSeries(interval_s=snapshot_interval)
                expo.timeseries = series
                collector = SnapshotCollector(
                    expo.registry, series, tracer=expo.tracer,
                    recorder=expo.recorder,
                    extra_fn=lambda: {"health": expo.health()},
                ).start()
        # SIGTERM drains gracefully: stop accepting, finish in-flight
        # calls, then fall through to the telemetry flush.  SIGINT (and a
        # second SIGTERM) still aborts immediately via KeyboardInterrupt.
        # Installed before the address is printed, so a SIGTERM sent the
        # moment a supervisor sees the address drains too.
        def _drain(signum, frame):
            signal.signal(signal.SIGTERM, previous)
            server.drain()

        try:
            previous = signal.signal(signal.SIGTERM, _drain)
        except ValueError:  # not the main thread (tests drive main())
            previous = None
        try:
            print("hidden component serving on %s:%d" % server.address,
                  file=out)
            print("programs: %s" % ", ".join(server.programs), file=out)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            if collector is not None:
                collector.stop()
            server.shutdown()
            if previous is not None:
                with contextlib.suppress(ValueError):
                    signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_loadgen(args, out):
    from repro.loadgen import harness, replay

    with _terminate_as_interrupt(), _telemetry_session(args, out):
        script = replay.load_script(args.log)
        slo = harness.parse_slo(args.slo) if args.slo else None
        host, _, port = args.address.rpartition(":")
        report = harness.run_loadgen(
            (host or "127.0.0.1", int(port)), script,
            clients=args.clients, iterations=args.iterations,
            mode=args.mode, program=args.program,
            think_scale=args.think_scale, seed=args.seed,
            timeout_s=args.timeout, slo=slo, scrape=args.scrape,
        )
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.output, file=out)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(harness.render_report(report), file=out)
    if args.fail_over_slo:
        if not harness.slo_ok(report):
            return 1
        if report["errors"]["protocol"]:
            # a gated run must not pass on the back of failed sessions
            return 1
    return 0


def cmd_stats(args, out):
    """Split + run under telemetry, then print the metrics snapshot."""
    from repro import obs
    from repro.obs import export

    recorder = None
    if getattr(args, "log_events", None):
        from repro.obs.events import FlightRecorder

        recorder = FlightRecorder()
    program, checker = _load(args.file)
    run_args = _parse_args_list(args.args)
    with obs.telemetry(recorder=recorder) as (registry, tracer):
        sp = _split_for(program, checker, args)
        if sp.splits:
            latency = _LATENCIES[args.latency]()
            run_split(sp, entry=args.entry, args=run_args, latency=latency,
                      batching=getattr(args, "batching", "off") == "on",
                      engine=getattr(args, "engine", DEFAULT_ENGINE))
        else:
            run_original(program, entry=args.entry, args=run_args,
                         engine=getattr(args, "engine", DEFAULT_ENGINE))
    if recorder is not None:
        from repro.obs.events import write_events

        write_events(args.log_events, recorder,
                     format=getattr(args, "log_events_format", "jsonl"))
    if args.format == "prometheus":
        print(export.to_prometheus(registry), file=out, end="")
    else:
        print(export.to_json(registry, tracer), file=out)
    return 0


def cmd_audit(args, out):
    """Run under full telemetry, then join observed per-ILP channel traffic
    to the Section 3 complexity estimates and check leak budgets."""
    from repro import obs
    from repro.obs.audit import audit_split, render_report
    from repro.obs.events import FlightRecorder

    if bool(args.corpus) == bool(args.file):
        print("error: audit needs a source file or --corpus (not both)", file=out)
        return 2
    if args.corpus:
        from repro.workloads.corpora import build_corpus

        corpus = build_corpus(args.corpus, scale=args.scale)
        program, checker = corpus.program, corpus.checker
    else:
        program, checker = _load(args.file)
    run_args = _parse_args_list(args.args)
    recorder = FlightRecorder()
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        sp = _split_for(program, checker, args)
        if not sp.splits:
            print("nothing was split (no eligible function/variable)", file=out)
            return 1
        latency = _LATENCIES[args.latency]()
        run_split(sp, entry=args.entry, args=run_args, latency=latency,
                  batching=getattr(args, "batching", "off") == "on",
                  engine=getattr(args, "engine", DEFAULT_ENGINE))
    report = audit_split(sp, checker, registry, recorder, budget=args.budget)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(render_report(report), file=out)
    if args.fail_over_budget and report.over_budget():
        return 1
    return 0


def cmd_profile(args, out):
    """Sample a run's stacks and attribute time per (function/fragment,
    engine, side); with --deopts, print why codegen bailed instead."""
    from repro import obs
    from repro.obs import profile as profmod
    from repro.obs.events import FlightRecorder

    if bool(args.corpus) == bool(args.file):
        print("error: profile needs a source file or --corpus (not both)",
              file=out)
        return 2
    if args.corpus:
        from repro.workloads.corpora import build_corpus

        corpus = build_corpus(args.corpus, scale=args.scale)
        program, checker = corpus.program, corpus.checker
    else:
        program, checker = _load(args.file)
    run_args = _parse_args_list(args.args)
    engine = getattr(args, "engine", DEFAULT_ENGINE)
    batching = getattr(args, "batching", "off") == "on"
    recorder = FlightRecorder()
    runs = 0
    with obs.telemetry(recorder=recorder) as (registry, _tracer):
        sp = None
        if not args.original:
            sp = _split_for(program, checker, args)
            if not sp.splits:
                print("nothing was split (no eligible function/variable); "
                      "use --original to profile the unsplit program",
                      file=out)
                return 1
        latency = _LATENCIES[args.latency]()
        sampler = profmod.StackSampler(interval_s=args.interval / 1000.0)
        # repeat the run until enough wall time was sampled — one corpus
        # run is often shorter than a statistically useful sample window
        with sampler:
            while True:
                if sp is not None:
                    run_split(sp, entry=args.entry, args=run_args,
                              latency=latency, batching=batching,
                              engine=engine)
                else:
                    run_original(program, entry=args.entry, args=run_args,
                                 engine=engine)
                runs += 1
                if sampler.elapsed_s() >= args.min_duration:
                    break
    prof = sampler.result
    deopts = profmod.deopt_report(registry, recorder)
    if args.deopts:
        if args.format == "json":
            print(json.dumps(deopts, indent=2, sort_keys=True), file=out)
        else:
            print(profmod.render_deopt_report(deopts), file=out)
        return 0
    if args.format == "collapsed":
        text = prof.to_collapsed()
    elif args.format == "json":
        doc = {
            "engine": engine,
            "runs": runs,
            "profile": prof.to_dict(),
            "deopts": deopts,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = prof.report(top=args.top) + "\n"
        if deopts["total"]:
            text += ("  %d codegen deopt(s) recorded — repro profile "
                     "--deopts ranks them\n" % deopts["total"])
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("wrote %s" % args.output, file=out)
    else:
        print(text, file=out, end="")
    return 0


def cmd_top(args, out):
    """Render a daemon's /timeseries.json ring as a terminal dashboard."""
    import time as _time
    import urllib.parse
    import urllib.request

    from repro.obs import timeseries as ts

    is_url = args.source.startswith(("http://", "https://"))

    def fetch():
        if is_url:
            url = args.source
            if not url.endswith("/timeseries.json"):
                url = urllib.parse.urljoin(url, "/timeseries.json")
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                return json.loads(resp.read().decode("utf-8"))
        with open(args.source) as f:
            return json.load(f)

    try:
        if args.once or not is_url:
            print(ts.render_top(fetch()), file=out)
            return 0
        while True:
            # ANSI clear + home, then the frame — a plain-terminal `top`
            print("\x1b[2J\x1b[H" + ts.render_top(fetch()), file=out,
                  flush=True)
            _time.sleep(args.refresh)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.source, exc), file=out)
        return 2


def cmd_graph(args, out):
    from repro.analysis.dot import callgraph_to_dot, cfg_to_dot, ddg_to_dot, split_to_dot
    from repro.analysis.callgraph import build_callgraph
    from repro.analysis.function import analyze_function

    program, checker = _load(args.file)
    if args.kind == "callgraph":
        print(callgraph_to_dot(build_callgraph(program, checker)), file=out)
        return 0
    if not args.function:
        print("error: --function is required for %s graphs" % args.kind, file=out)
        return 2
    fn = program.function(args.function)
    if args.kind == "split":
        sp = _split_for(program, checker, args)
        split = sp.splits.get(fn.qualified_name)
        if split is None:
            print("error: %s was not split" % args.function, file=out)
            return 1
        print(split_to_dot(split), file=out)
        return 0
    analysis = analyze_function(fn, checker)
    if args.kind == "cfg":
        print(cfg_to_dot(analysis.cfg), file=out)
    else:
        print(ddg_to_dot(analysis.ddg), file=out)
    return 0


def cmd_export(args, out):
    from repro.core.deploy import export_split_json

    program, checker = _load(args.file)
    sp = _split_for(program, checker, args)
    if not sp.splits:
        print("nothing was split", file=out)
        return 1
    text = export_split_json(sp)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("wrote %s (%d bytes)" % (args.output, len(text)), file=out)
    else:
        print(text, file=out)
    return 0


def cmd_table1(args, out):
    from repro.bench.tables import Table

    program, _ = _load(args.file)
    report = analyze_self_contained(program, args.file)
    table = Table("Self-contained method analysis (Table 1)", ["Metric", "Count"])
    for label, count in report.rows():
        table.add_row(label, count)
    print(table.render(), file=out)
    return 0


def cmd_attack(args, out):
    import random

    from repro.attack.driver import attack_split_program
    from repro.bench.tables import Table

    program, checker = _load(args.file)
    sp = _split_for(program, checker, args)
    if not sp.splits:
        print("nothing was split", file=out)
        return 1
    entry_fn = program.function(args.entry)
    rng = random.Random(args.seed)
    runs = [
        tuple(rng.randint(-9, 9) for _ in entry_fn.params) for _ in range(args.runs)
    ]
    outcomes = attack_split_program(sp, runs, entry=args.entry)
    table = Table(
        "Recovery attempts", ["Fragment", "Outcome", "Technique", "Samples"]
    )
    for (fn_name, label), outcome in sorted(outcomes.items()):
        win = outcome.winning
        table.add_row(
            "%s#%d" % (fn_name, label),
            "BROKEN" if outcome.broken else "resisted",
            win.technique if win else "-",
            win.samples_used if win else len(outcome.trace),
        )
    print(table.render(), file=out)
    return 0


def cmd_trace(args, out):
    """Merge traced client/server event streams; print the attribution."""
    from repro.obs import traceview

    client_events = traceview.load_events(args.client)
    server_events = (
        traceview.load_events(args.server) if args.server else None
    )
    if args.out:
        doc = traceview.merge_chrome(client_events, server_events)
        with open(args.out, "w") as f:
            json.dump(doc, f, sort_keys=True)
            f.write("\n")
        print(
            "wrote %s (%d trace events%s)"
            % (args.out, len(doc["traceEvents"]),
               "" if doc["otherData"]["aligned"] else "; clocks unaligned"),
            file=out,
        )
    report = traceview.attribution(client_events)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    elif report["rows"]:
        print(traceview.render_attribution(report), file=out, end="")
    else:
        print(
            "no traced round trips in %s (was the run made with --trace?)"
            % args.client, file=out,
        )
    return 0


def cmd_fuzz(args, out):
    """Differential fuzzing: generated programs through the config matrix."""
    from repro.fuzz import campaign, oracle, selfcheck

    try:
        configs = oracle.select_configs(args.configs)
    except ValueError as exc:
        print("error: %s" % exc, file=out)
        return 2

    with _telemetry_session(args, out):
        if args.self_check:
            report = selfcheck.run_selfcheck(seed=args.seed, configs=configs)
            print(
                "self-check: planted engine bug, fuzzed %d program(s)"
                % report.programs_tried, file=out)
            if not report.caught:
                print("self-check FAILED: planted bug was not caught", file=out)
                return 1
            print("caught at seed %d:" % report.seed, file=out)
            for d in report.divergences[:6]:
                print("  %s" % d.describe(), file=out)
            print(
                "minimized repro (%d lines, clean without the bug: %s):"
                % (report.minimized_lines, report.clean_without_bug), file=out)
            for line in report.minimized.splitlines():
                print("  | %s" % line, file=out)
            print("self-check %s" % ("PASSED" if report.passed else "FAILED"),
                  file=out)
            return 0 if report.passed else 1

        if args.replay:
            result = campaign.replay_file(args.replay, configs=configs)
            print("replayed %s (args: %s; split: %s)" % (
                args.replay,
                " / ".join(str(a) for a in result.arg_sets),
                result.split_summary or "none"), file=out)
            for d in result.divergences:
                print("  DIVERGENCE %s" % d.describe(), file=out)
            print("divergences: %d" % len(result.divergences), file=out)
            return 1 if result.diverged else 0

        def progress(res):
            if res.programs % 25 == 0:
                print("  ... %d programs, %d divergent, %d unsplit"
                      % (res.programs, res.divergent, res.unsplit), file=out)

        runs = args.runs
        if runs is None and args.time_budget is None:
            runs = 100
        result = campaign.run_campaign(
            seed=args.seed, runs=runs, time_budget=args.time_budget,
            jobs=args.jobs, configs=configs,
            minimize_divergences=args.minimize, corpus_dir=args.corpus_dir,
            progress=progress if runs is None or runs > 25 else None)
        print(
            "fuzzed %d program(s) in %.1fs across %d config(s) "
            "[seed %d; %d unsplit]"
            % (result.programs, result.elapsed_s, len(configs), args.seed,
               result.unsplit), file=out)
        for seed_, matrix in result.findings:
            print("  seed %d [%s]:" % (seed_, matrix.split_summary), file=out)
            for d in matrix.divergences[:4]:
                print("    DIVERGENCE %s" % d.describe(), file=out)
        for path in result.repro_paths:
            print("  minimized repro: %s" % path, file=out)
        print("divergent programs: %d" % result.divergent, file=out)
        return 0 if result.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Slicing-based software splitting (Zhang & Gupta, CGO 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_selection=True):
        p.add_argument("file", help="MiniJava source file")
        p.add_argument("--entry", default="main", help="entry function")
        if with_selection:
            p.add_argument("--function", help="function to split (with --var)")
            p.add_argument("--var", help="hidden variable (with --function)")

    def metrics_flag(p):
        p.add_argument(
            "--metrics", metavar="PATH",
            help="enable telemetry and dump the metrics registry (JSON) here at exit",
        )

    def events_flags(p):
        from repro.obs.events import EVENT_FORMATS

        p.add_argument(
            "--log-events", metavar="PATH", dest="log_events",
            help="enable the flight recorder and write the boundary event "
            "stream here at exit (docs/OBSERVABILITY.md)",
        )
        p.add_argument(
            "--log-events-format", choices=list(EVENT_FORMATS),
            default="jsonl", dest="log_events_format",
            help="event stream format: 'jsonl' (one JSON object per line) "
            "or 'chrome' (about://tracing trace-event file)",
        )

    def expo_flag(p):
        p.add_argument(
            "--expo-port", type=int, metavar="PORT", dest="expo_port",
            help="serve live /metrics, /metrics.json, /healthz, /spans "
            "and /timeseries.json over HTTP on this port for the duration "
            "(0 picks a free port)",
        )

    def batching_flag(p):
        p.add_argument(
            "--batching", choices=["on", "off"], default="off",
            help="communication optimisation layer: coalesce one-way "
            "messages and batch open-memory callbacks (docs/PROTOCOL.md); "
            "off reproduces the paper's one-message-per-interaction model",
        )

    def engine_flag(p):
        p.add_argument(
            "--engine", choices=list(ENGINES), default=DEFAULT_ENGINE,
            help="execution engine (docs/ENGINE.md): 'compiled' lowers "
            "bodies to closures once and runs them, 'codegen' emits real "
            "Python source per function/fragment, 'ast' walks the tree; "
            "observable behaviour is bit-identical",
        )

    p = sub.add_parser("run", help="run a program unmodified")
    common(p, with_selection=False)
    p.add_argument("--args", nargs="*", default=[], help="entry arguments")
    engine_flag(p)
    metrics_flag(p)
    events_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("split", help="split and show both components")
    common(p)
    p.add_argument("--show-fragments", action="store_true")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("run-split", help="split, verify, and run over the channel")
    common(p)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--latency", choices=sorted(_LATENCIES), default="lan")
    p.add_argument("--remote", help="host:port of a served hidden component")
    p.add_argument(
        "--program",
        help="named program (tenant) to bind to on a multi-tenant daemon "
        "(with --remote; default: the daemon's default program)",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="stamp every frame with trace context and measure the "
        "serialize/wire/exec/deser phase split per round trip (remote "
        "runs only; docs/PROTOCOL.md)",
    )
    batching_flag(p)
    engine_flag(p)
    metrics_flag(p)
    events_flags(p)
    expo_flag(p)
    p.set_defaults(fn=cmd_run_split)

    p = sub.add_parser("analyze", help="Section 3 security characterisation")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("lint", help="hygiene and protection-quality diagnostics")
    common(p)
    p.add_argument("--split", action="store_true",
                   help="also diagnose the split's protection quality")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "serve",
        help="serve hidden components from export manifests (a multi-"
        "tenant daemon; docs/OPERATIONS.md)",
    )
    p.add_argument(
        "manifest", nargs="+",
        help="manifest JSON from 'export'; repeatable, each optionally "
        "NAME=PATH to name the program (default: the file stem); the "
        "first manifest is the default program",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument(
        "--max-sessions", type=int, metavar="N", dest="max_sessions",
        help="connection limit: refuse new connections (retryable error "
        "frame) beyond this many live sessions",
    )
    p.add_argument(
        "--idle-timeout", type=float, metavar="SECONDS", dest="idle_timeout",
        help="close sessions whose connection stays silent longer than this",
    )
    p.add_argument(
        "--snapshot-interval", type=float, metavar="SECONDS",
        dest="snapshot_interval",
        help="record a metrics-registry snapshot into a bounded ring every "
        "SECONDS and serve it at /timeseries.json (requires --expo-port; "
        "consumed by 'repro top' and loadgen soak reports)",
    )
    engine_flag(p)
    metrics_flag(p)
    events_flags(p)
    expo_flag(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="replay a flight-recorder log as N concurrent synthetic "
        "clients against a served daemon (docs/OPERATIONS.md)",
    )
    p.add_argument(
        "log",
        help="flight-recorder jsonl (--log-events output of serve or "
        "run-split) to replay",
    )
    p.add_argument("--address", required=True, metavar="HOST:PORT",
                   help="address of the serving daemon")
    p.add_argument("--program", help="named program (tenant) to bind to")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent synthetic clients (default: 8)")
    p.add_argument("--iterations", type=int, default=1,
                   help="script repetitions per client (default: 1)")
    p.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed-loop replays back-to-back; open-loop sleeps the "
        "log's recorded think times between ops",
    )
    p.add_argument(
        "--think-scale", type=float, default=1.0, dest="think_scale",
        metavar="FACTOR",
        help="open-loop think-time multiplier (default: 1.0)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the open-loop think-time jitter")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                   help="per-read client socket timeout")
    p.add_argument(
        "--scrape", metavar="URL",
        help="scrape this live /metrics.json endpoint before and after "
        "the run (plus the /timeseries.json ring covering the run, when "
        "the daemon serves one) and include the daemon's per-program "
        "counters in the report",
    )
    p.add_argument(
        "--slo", metavar="PCT=LIMIT,...",
        help="latency gate over the merged round-trip latencies, "
        "e.g. 'p95=250ms,p99=1s'",
    )
    p.add_argument(
        "--fail-over-slo", action="store_true", dest="fail_over_slo",
        help="exit 1 when any --slo percentile is exceeded or any "
        "session hit a protocol error",
    )
    p.add_argument("--output", metavar="PATH",
                   help="write the machine-readable report (JSON) here")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default: text)")
    metrics_flag(p)
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser(
        "stats", help="run under telemetry and print the metrics snapshot"
    )
    common(p)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--latency", choices=sorted(_LATENCIES), default="lan")
    batching_flag(p)
    engine_flag(p)
    p.add_argument(
        "--format", choices=["json", "prometheus"], default="json",
        help="exposition format (default: json)",
    )
    events_flags(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "audit",
        help="run under telemetry and audit per-ILP leak budgets "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument("file", nargs="?", help="MiniJava source file (or use --corpus)")
    p.add_argument("--corpus", choices=_corpus_names(),
                   help="audit a generated Table 5 evaluation corpus instead "
                   "of a source file")
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus population scale (with --corpus)")
    p.add_argument("--entry", default="main", help="entry function")
    p.add_argument("--function", help="function to split (with --var)")
    p.add_argument("--var", help="hidden variable (with --function)")
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--latency", choices=sorted(_LATENCIES), default="lan")
    batching_flag(p)
    engine_flag(p)
    p.add_argument(
        "--budget", type=int,
        help="uniform leak budget (observed values per ILP); default: "
        "per-complexity-class budgets",
    )
    p.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="report format (default: table)",
    )
    p.add_argument(
        "--fail-over-budget", action="store_true", dest="fail_over_budget",
        help="exit 1 when any ILP exceeds its budget",
    )
    p.set_defaults(fn=cmd_audit)

    from repro.obs.profile import PROFILE_FORMATS

    p = sub.add_parser(
        "profile",
        help="sample a run's stacks and attribute time per function/"
        "fragment, engine, and side (docs/OBSERVABILITY.md)",
    )
    p.add_argument("file", nargs="?",
                   help="MiniJava source file (or use --corpus)")
    p.add_argument("--corpus", choices=_corpus_names(),
                   help="profile a generated Table 5 evaluation corpus "
                   "instead of a source file")
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus population scale (with --corpus)")
    p.add_argument("--entry", default="main", help="entry function")
    p.add_argument("--function", help="function to split (with --var)")
    p.add_argument("--var", help="hidden variable (with --function)")
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--latency", choices=sorted(_LATENCIES), default="lan")
    batching_flag(p)
    engine_flag(p)
    p.add_argument(
        "--original", action="store_true",
        help="profile the unsplit program (what 'run' executes) instead "
        "of the split run",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="MS",
        help="sampling interval in milliseconds (default: 1.0)",
    )
    p.add_argument(
        "--min-duration", type=float, default=0.5, metavar="SECONDS",
        dest="min_duration",
        help="repeat the run until at least this much wall time was "
        "sampled (default: 0.5)",
    )
    p.add_argument("--top", type=int, default=25,
                   help="rows shown in the text report (default: 25)")
    p.add_argument(
        "--deopts", action="store_true",
        help="print the ranked 'why codegen bailed' deopt attribution "
        "(reason-labelled counter joined with per-site deopt events) "
        "instead of the time profile",
    )
    p.add_argument(
        "--format", choices=list(PROFILE_FORMATS), default="text",
        help="'text' (ranked table), 'json' (profile + deopt document), "
        "or 'collapsed' (speedscope / flamegraph.pl stack lines)",
    )
    p.add_argument("--output", metavar="PATH",
                   help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a daemon's /timeseries.json "
        "ring (docs/OPERATIONS.md)",
    )
    p.add_argument(
        "source",
        help="daemon exposition URL (http://host:port, from serve "
        "--expo-port --snapshot-interval) or a saved /timeseries.json "
        "document (rendered once)",
    )
    p.add_argument(
        "--refresh", type=float, default=2.0, metavar="SECONDS",
        help="redraw interval when following a URL (default: 2.0)",
    )
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (file sources always do)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("graph", help="emit DOT graphs (cfg/ddg/callgraph/split)")
    common(p)
    p.add_argument("--kind", choices=["cfg", "ddg", "callgraph", "split"], default="cfg")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("export", help="write the deployment manifest (JSON)")
    common(p)
    p.add_argument("--output", "-o", help="output file (default: stdout)")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("table1", help="self-contained method analysis")
    common(p, with_selection=False)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("attack", help="attempt automated recovery of the ILPs")
    common(p)
    p.add_argument("--runs", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser(
        "trace",
        help="merge traced client/server --log-events streams into one "
        "Chrome trace and print the latency attribution "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument("client", help="client --log-events jsonl (the Of side)")
    p.add_argument("server", nargs="?",
                   help="server --log-events jsonl (the Hf side); omit for "
                   "a client-only report")
    p.add_argument("--out", metavar="PATH",
                   help="write the merged Chrome/Perfetto trace-event "
                   "document here")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="attribution report format (default: text)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing across the execution-config matrix "
        "(docs/TESTING.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="first generator seed (seeds walk upward from here)")
    p.add_argument("--runs", type=int, default=None,
                   help="number of programs to fuzz (default 100, or "
                   "unlimited when --time-budget is set; with both, "
                   "whichever limit hits first wins)")
    p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                   dest="time_budget",
                   help="stop after this many seconds instead of a fixed "
                   "--runs count")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads fuzzing seeds concurrently")
    p.add_argument("--configs", default=None, metavar="A,B,...",
                   help="comma-separated configuration cells (default: the "
                   "pairwise matrix; see docs/TESTING.md for the axes)")
    p.add_argument("--minimize", action="store_true",
                   help="delta-debug each diverging program to a minimal "
                   ".mj repro in the corpus directory")
    p.add_argument("--corpus-dir", default="tests/fuzz_corpus",
                   dest="corpus_dir",
                   help="where minimized repros are written")
    p.add_argument("--self-check", action="store_true", dest="self_check",
                   help="plant a known bug and verify the fuzzer catches, "
                   "minimizes, and clears it")
    p.add_argument("--replay", metavar="FILE.mj",
                   help="re-run one corpus repro through the oracle instead "
                   "of fuzzing")
    metrics_flag(p)
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except LangError as exc:
        print("error: %s" % exc, file=out)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=out)
        return 2
    except (SplitError, RuntimeErr, ValueError) as exc:
        print("error: %s" % exc, file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
