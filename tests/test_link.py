"""One Link charges the channel on every transport.

The adversary of the paper sees only the open component and its traffic
with the hidden one, so the transcript must not depend on how the hidden
component is reached.  :class:`repro.runtime.channel.Link` is the only
code that charges a channel: in process in front of a ``HiddenServer``,
over TCP in front of a ``RemoteHiddenRuntime``.  These tests hold both
transports to the same account, event for event, and keep every other
module from charging a channel itself.
"""

import ast
import inspect
import pathlib

import pytest

from repro.core.pipeline import auto_split, prepare_split
from repro.lang import check_program, parse_program
from repro.runtime.channel import LatencyModel
from repro.runtime.remote import (
    RemoteHiddenRuntime,
    remote_server,
    run_split_remote,
)
from repro.runtime.server import HiddenServer
from repro.runtime.splitrun import run_split
from repro.runtime.values import RuntimeErr
from repro.workloads.corpora import build_corpus
from repro.workloads.inputs import TABLE5_RUNS

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: every example program's split, as its header comment runs it
EXAMPLES = {
    "dotproduct": ([("f", "a")], (3,)),
    "fig2": ([("f", "a")], (2, 3)),
    "license_check": (None, (42, 7)),
}

#: one Table 5 row per corpus: the first one listed
ROWS = {}
for _run in TABLE5_RUNS:
    ROWS.setdefault(_run.benchmark, _run)

MODEL = LatencyModel(per_message_ms=0.35, per_value_us=2.0)


def _example(name):
    choices, args = EXAMPLES[name]
    source = (REPO / "examples" / "programs" / ("%s.mj" % name)).read_text()
    program = parse_program(source)
    return prepare_split(program, check_program(program),
                         choices=choices), args


def _row(corpus):
    built = build_corpus(corpus)
    run = ROWS[corpus]
    return auto_split(built.program, built.checker), (run.n, run.m)


CASES = ([("example", name) for name in sorted(EXAMPLES)]
         + [("table5", corpus) for corpus in sorted(ROWS)])


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "%s-%s" % c)
def case(request):
    kind, name = request.param
    sp, args = _example(name) if kind == "example" else _row(name)
    with remote_server(sp) as address:
        yield sp, args, address


def _events(result):
    return [(e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
            for e in result.channel.transcript.events]


@pytest.mark.parametrize("batching", [False, True], ids=["plain", "batching"])
def test_tcp_run_accounts_exactly_like_in_process(case, batching):
    sp, args, address = case
    local = run_split(sp, args=args, batching=batching, latency=MODEL)
    remote = run_split_remote(sp, address, args=args, batching=batching)
    assert remote.output == local.output
    assert _events(remote) == _events(local)
    assert (remote.channel.values_sent, remote.channel.values_received) == (
        local.channel.values_sent, local.channel.values_received)
    # the simulated time the TCP transcript costs under the same model
    assert sum(MODEL.cost_ms(len(e.sent) + 1)
               for e in remote.channel.transcript.events) == pytest.approx(
        local.channel.simulated_ms)


def test_only_the_channel_module_charges_a_channel():
    charges = {"round_trip", "defer", "flush_deferred"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "runtime" / "channel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in charges):
                offenders.append("%s:%d .%s("
                                 % (path.relative_to(SRC), node.lineno,
                                    node.func.attr))
    assert offenders == []


def test_transports_only_execute():
    assert "channel" not in inspect.signature(HiddenServer).parameters
    assert "channel" not in inspect.signature(RemoteHiddenRuntime).parameters
    sp, _args = _example("dotproduct")
    with remote_server(sp) as address:
        runtime = RemoteHiddenRuntime(address, batching=True)
        try:
            # no channel, no one-way rule, no hid -> function map: the
            # Link in front of it holds those
            for name in ("channel", "_deferrable", "_hid_fn"):
                assert not hasattr(runtime, name)
            assert runtime.link().batching
        finally:
            runtime.close()


def test_client_side_events_name_the_split_function():
    from repro import obs
    from repro.obs.events import FlightRecorder

    sp, args = _example("dotproduct")
    with remote_server(sp) as address:
        recorder = FlightRecorder()
        with obs.telemetry(recorder=recorder):
            run_split_remote(sp, address, args=args)
    names = {e["fn"] for e in recorder.by_type("channel")}
    assert names == {"f"}


#: the last hidden call is one-way and fails for x == 3 (division by zero)
FAILS_LAST = """
func int f(int x) {
    int a = x;
    a = 10 / (a - 3);
    return 0;
}
func void main(int x) {
    print(f(x));
}
"""


@pytest.mark.parametrize("batching", [False, True], ids=["plain", "batching"])
def test_a_failing_deferred_message_fails_the_tcp_run_too(batching):
    program = parse_program(FAILS_LAST)
    sp = prepare_split(program, check_program(program), choices=[("f", "a")])
    with pytest.raises(RuntimeErr, match="division by zero"):
        run_split(sp, args=(3,), batching=batching)
    with remote_server(sp) as address:
        # deferred, it is shipped at the end of the run and its error
        # surfaces there instead of being dropped with the session
        with pytest.raises(RuntimeErr, match="division by zero"):
            run_split_remote(sp, address, args=(3,), batching=batching)
        assert run_split_remote(sp, address, args=(4,),
                                batching=batching).output == ["0"]


def test_one_way_facts_are_derived_only_when_batching(monkeypatch):
    from repro.runtime.server import FragmentFacts

    asked = []
    one_way = FragmentFacts.one_way
    monkeypatch.setattr(FragmentFacts, "one_way",
                        lambda self: asked.append(self) or one_way(self))
    sp, args = _example("dotproduct")
    run_split(sp, args=args)
    assert asked == []
    run_split(sp, args=args, batching=True)
    assert asked
