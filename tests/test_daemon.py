"""Multi-tenant daemon behaviour: tenancy, limits, and graceful drain.

The hidden-component server became a daemon (docs/OPERATIONS.md): one
listener serving many exported programs, with per-session limits and a
SIGTERM drain that finishes in-flight work.  These tests drive it both
in-process (raw protocol frames over a real socket) and as a subprocess
(the satellite drain scenario: SIGTERM mid-call, telemetry flushed).
"""

import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import _load_tenants, main
from repro.core.classes import split_class
from repro.core.deploy import export_split, export_split_json
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.obs.events import FlightRecorder
from repro.runtime import remote
from repro.runtime.compile import M_COMPILE_SECONDS
from repro.runtime.remote import (
    MAX_FRAME_BYTES,
    M_CLIENTS,
    M_REJECTED,
    M_SESSION_ERRORS,
    M_SESSIONS,
    PROTOCOL_VERSION,
    ChannelError,
    ChannelProtocolError,
    HiddenComponentServer,
    _recv,
    _send,
    remote_server,
    run_split_remote,
)
from repro.runtime.server import FragmentFacts, Tenant
from repro.runtime.splitrun import run_original, run_split

ALPHA = """
func int f(int x) {
    int a = x + 10;
    int b = a * 2;
    return b;
}
func void main(int x) { print(f(x)); }
"""

BETA = """
func int f(int x) {
    int a = x + 100;
    int b = a * 3;
    return b;
}
func void main(int x) { print(f(x)); }
"""

# the hidden slice reads the open array B: a call triggers a callback
ARRAY = """
func int f(int x, int[] B) {
    int a = x + B[0];
    int b = a * 2;
    return b;
}
func void main(int x) {
    int[] B = new int[2];
    B[0] = 5;
    print(f(x, B));
}
"""

# the hidden slice drives 20k open-side loop iterations: a long session
# of small wire calls, so a SIGTERM reliably lands mid-stream
SLOW = """
func int f(int x) {
    int a = x;
    int i = 0;
    while (i < 20000) { a = a + 3; i = i + 1; }
    return a;
}
func void main(int x) { print(f(x)); }
"""


def make(source, choices=(("f", "a"),)):
    program = parse_program(source)
    checker = check_program(program)
    return program, split_program(program, checker, list(choices))


def _wire(address, timeout=5.0):
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def _hangup(sock):
    # the makefile objects keep the fd alive past sock.close(); a shutdown
    # actually sends the FIN the server side is waiting for
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


def _repro_env():
    """The environment a ``python -m repro`` subprocess needs to import
    this checkout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(obs.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(src), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread while the test ran."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- tenancy -----------------------------------------------------------------


def test_handshake_carries_protocol_4_and_program_directory():
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, _wfile = _wire(address)[0:3]
        try:
            handshake = _recv(rfile)
        finally:
            _hangup(sock)
    assert handshake["proto"] == PROTOCOL_VERSION == 4
    assert handshake["programs"] == ["default"]
    assert handshake["functions"] == {"f": 0}
    assert "classes" in handshake and "deferrable" in handshake


def test_multi_tenant_sessions_are_isolated():
    prog_a, sp_a = make(ALPHA)
    prog_b, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        for args in [(1,), (7,)]:
            remote_a = run_split_remote(sp_a, address, args=args,
                                        program="alpha")
            remote_b = run_split_remote(sp_b, address, args=args,
                                        program="beta")
            assert remote_a.output == run_original(prog_a, args=args).output
            assert remote_b.output == run_original(prog_b, args=args).output
            assert remote_a.output != remote_b.output


def test_programless_client_binds_the_default_tenant():
    prog_a, sp_a = make(ALPHA)
    _, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        # no program selection: the first registered program serves, so a
        # pre-multi-tenant client keeps working against a new daemon
        remote = run_split_remote(sp_a, address, args=(4,))
        assert remote.output == run_original(prog_a, args=(4,)).output


def test_unknown_program_is_refused_cleanly():
    prog_a, sp_a = make(ALPHA)
    with remote_server(tenants=[Tenant.from_program("alpha", sp_a)]) as address:
        with pytest.raises(ChannelProtocolError, match="unknown program"):
            run_split_remote(sp_a, address, args=(4,), program="nope")
        # the refusal killed one session, not the daemon
        remote = run_split_remote(sp_a, address, args=(4,), program="alpha")
        assert remote.output == run_original(prog_a, args=(4,)).output


def test_selection_after_hidden_state_is_refused():
    _, sp_a = make(ALPHA)
    _, sp_b = make(BETA)
    tenants = [Tenant.from_program("alpha", sp_a),
               Tenant.from_program("beta", sp_b)]
    with remote_server(tenants=tenants) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)  # handshake
            _send(wfile, {"op": "open", "fn_id": 0})  # binds alpha (default)
            assert "result" in _recv(rfile)
            _send(wfile, {"op": "hello", "program": "beta"})
            reply = _recv(rfile)
        finally:
            _hangup(sock)
    assert "bound to program 'alpha'" in reply["error"]


def test_duplicate_program_names_are_rejected():
    _, sp = make(ALPHA)
    with pytest.raises(ValueError, match="duplicate program name"):
        HiddenComponentServer(tenants=[
            Tenant.from_program("p", sp), Tenant.from_program("p", sp),
        ])


def test_daemon_requires_at_least_one_program():
    with pytest.raises(ValueError, match="at least one program"):
        HiddenComponentServer([])


# -- one tenant, many sessions ------------------------------------------------

# two split functions, hidden loops and branches, and an open-array
# callback: several fragments of each kind to compile
SHARED = """
func int f(int x, int[] B) {
    int a = x + B[0];
    int s = 0;
    int i = 0;
    while (i < x) { s = s + a; a = a - 1; i = i + 1; }
    B[1] = s;
    return s + a;
}
func int g(int y) {
    int c = y * 3;
    if (c > 10) { c = c - 10; } else { c = c + 1; }
    return c;
}
func void main(int x) {
    int[] B = new int[2];
    B[0] = 5;
    print(f(x, B));
    print(g(x));
    print(B[1]);
}
"""


def _hidden_compiles(registry, engine):
    return sum(
        m.count for m in registry.collect()
        if m.name == M_COMPILE_SECONDS
        and m.labels == {"side": "hidden", "engine": engine}
    )


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_sessions_of_one_tenant_compile_each_fragment_once(engine):
    _, sp = make(SHARED, [("f", "a"), ("g", "c")])
    expected = run_split(sp, args=(6,), engine=engine)
    executed = {
        (e.fn_name, e.label) for e in expected.channel.transcript.calls()
    }
    assert len(executed) > 4
    outputs = []
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, engine=engine) as address:
            for _ in range(3):
                outputs.append(run_split_remote(sp, address, args=(6,)).output)
            barrier = threading.Barrier(8)

            def client():
                barrier.wait()
                outputs.append(run_split_remote(sp, address, args=(6,)).output)

            clients = [threading.Thread(target=client) for _ in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
        assert _hidden_compiles(registry, engine) == len(executed)
    assert outputs == [expected.output] * 11


def test_one_way_calls_never_pile_up_in_the_session_channel():
    _, sp = make(ALPHA)
    server = HiddenComponentServer(tenants=[Tenant.from_program("p", sp)])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sock, rfile, wfile = _wire(server.address)
    try:
        assert _recv(rfile)["deferrable"] == {"0": [0]}
        _send(wfile, {"op": "hello", "batching": True})
        _recv(rfile)
        _send(wfile, {"op": "open", "fn_id": 0})
        hid = _recv(rfile)["result"]
        one_way = {"op": "call", "hid": hid, "label": 0, "values": [1]}
        (session,) = server._sessions
        for _ in range(5):
            _send(wfile, {"op": "batch", "msgs": [one_way] * 20})
            assert _recv(rfile) == {"result": 20}
            assert session.inner.channel._pending == []
    finally:
        _hangup(sock)
        server.shutdown()
        thread.join(timeout=2.0)


# -- hidden-only manifest load ---------------------------------------------------

# split class instances and one-way calls: every handshake fact is non-empty
SAFE = """
class Safe {
    field int pin;
    field int tries;
    method void set(int p) { pin = p * 7; tries = 0; }
    method int check(int guess) {
        tries = tries + 1;
        if (guess == pin) { return tries; }
        return 0 - tries;
    }
}
func void main(int p) {
    Safe s = new Safe();
    s.set(p);
    print(s.check(p * 7));
}
"""


def _manifest_file(tmp_path, manifest, name="safe"):
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(manifest))
    return str(path)


def _handshake(tenant):
    with remote_server(tenants=[tenant]) as address:
        sock, rfile, _wfile = _wire(address)
        try:
            return _recv(rfile)
        finally:
            _hangup(sock)


def test_hidden_only_tenant_has_the_source_splits_handshake_facts(tmp_path):
    program = parse_program(SAFE)
    sp = split_class(program, check_program(program), "Safe")
    manifest = export_split(sp)
    del manifest["open_program"]
    [loaded] = _load_tenants([_manifest_file(tmp_path, manifest)])
    served = _handshake(loaded)
    expected = _handshake(Tenant.from_program("safe", sp))
    for fact in ("functions", "classes", "deferrable"):
        assert served[fact] == expected[fact], fact
    assert served["classes"] == ["Safe"] and served["deferrable"]


def test_handshake_facts_are_derived_once_per_tenant(monkeypatch):
    derived = []
    one_way = FragmentFacts.one_way

    def counting(self):
        derived.append((self.fn_name, self.fragment.label))
        return one_way(self)

    monkeypatch.setattr(FragmentFacts, "one_way", counting)
    program = parse_program(SAFE)
    tenant = Tenant.from_program(
        "safe", split_class(program, check_program(program), "Safe"))
    with remote_server(tenants=[tenant]) as address:
        frames = []
        for hello in (None, {"op": "hello", "batching": True}):
            sock, rfile, wfile = _wire(address)
            try:
                frames.append(_recv(rfile))
                if hello is not None:
                    _send(wfile, hello)
                    frames.append(_recv(rfile)["result"])
            finally:
                _hangup(sock)
    assert frames[0] == frames[1]
    assert frames[2]["deferrable"] == frames[0]["deferrable"]
    fragments = sorted((name, label)
                       for name, frags, _storage in tenant.registry.values()
                       for label in frags)
    assert sorted(derived) == fragments


def test_serve_never_parses_the_open_program(tmp_path, monkeypatch):
    import repro.core.deploy as deploy

    def refuse(source):
        raise AssertionError("parsed open_program")

    monkeypatch.setattr(deploy, "parse_program", refuse)
    _, sp = make(ALPHA)
    [tenant] = _load_tenants([_manifest_file(tmp_path, export_split(sp))])
    assert tenant.functions == {"f": 0}


def _bad_manifests():
    _, sp = make(ALPHA)
    wrong_format = export_split(sp)
    wrong_format["format"] = "repro-split/0"
    bad_body = export_split(sp)
    bad_body["functions"]["f"]["fragments"][0]["body"] = "int = ;"
    bad_result = export_split(sp)
    spec = next(f for f in bad_result["functions"]["f"]["fragments"]
                if f["result"] is not None)
    spec["result"] = "a +"
    return [("format", wrong_format, "unsupported manifest format"),
            ("body", bad_body, "error: "),
            ("result", bad_result, "error: ")]


@pytest.mark.parametrize("case", _bad_manifests(), ids=lambda c: c[0])
def test_serve_rejects_a_bad_manifest_at_start_up(tmp_path, case):
    _name, manifest, message = case
    out = io.StringIO()
    code = main(["serve", _manifest_file(tmp_path, manifest), "--port", "0"],
                out=out)
    assert code == 2
    assert message in out.getvalue()
    assert "serving on" not in out.getvalue()


# -- limits ------------------------------------------------------------------


def test_connection_limit_rejects_retryably():
    _, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, max_sessions=1) as address:
            first, rfile1, _w1 = _wire(address)
            try:
                _recv(rfile1)  # the held session
                second, rfile2, _w2 = _wire(address)
                try:
                    refusal = _recv(rfile2)
                finally:
                    _hangup(second)
                assert "connection limit" in refusal["error"]
                assert refusal["retry"] is True
                assert registry.counter(M_REJECTED, reason="limit").value == 1
            finally:
                _hangup(first)
            # the slot frees once the held session is reaped
            server_accepts = lambda: _handshake_ok(address)
            assert _poll(server_accepts)


def _handshake_ok(address):
    with contextlib.suppress(ChannelError, OSError):
        sock, rfile, _w = _wire(address, timeout=1.0)
        try:
            return "proto" in _recv(rfile)
        finally:
            _hangup(sock)
    return False


def test_idle_timeout_reaps_silent_sessions():
    _, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp, idle_timeout_s=0.2) as address:
            sock, rfile, _wfile = _wire(address)
            try:
                _recv(rfile)  # handshake; then stay silent
                with pytest.raises(ChannelError):
                    _recv(rfile)  # the daemon hangs up on us
            finally:
                sock.close()
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="idle_timeout").value == 1)


def test_batch_backpressure_limits_coalesced_messages():
    _, sp = make(ALPHA)
    with remote_server(sp, max_batch_msgs=2) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "batch", "msgs": [{"op": "hello"}] * 3})
            refused = _recv(rfile)
            _send(wfile, {"op": "batch", "msgs": [{"op": "hello"}] * 2})
            accepted = _recv(rfile)
        finally:
            _hangup(sock)
    assert "exceeds the per-session limit (2)" in refused["error"]
    assert accepted["result"] == 2


# -- session robustness ------------------------------------------------------


#: request frames the op table must refuse with an error reply, leaving
#: the session up: the four that used to kill their session thread, then
#: a wrong-typed (or missing) field for every op.  They are sent while
#: activation 1 of ``f`` (fragment 0 takes one value) is open.
MALFORMED_FRAMES = [
    {"op": "close"},
    [1, 2],
    {"op": "call", "hid": "x"},
    {"op": "open", "fn_id": [1]},
    {"op": "open", "fn_id": "0"},
    {"op": "open", "fn_id": 0, "oid": "o"},
    {"op": "close", "hid": 1.5},
    {"op": "call", "hid": 1, "label": "0", "values": [1]},
    {"op": "call", "hid": 1, "label": 0, "values": {"x": 1}},
    {"op": "call", "hid": 1, "label": 0, "values": [[1]]},
    {"op": "new_instance", "class": 7, "oid": 1},
    {"op": "new_instance", "class": "Nope", "oid": 1},
    {"op": "hello", "program": ["alpha"]},
    {"op": "hello", "batching": "yes"},
    {"op": "hello", "batching": 1},
    {"op": "hello", "trace": "ab"},
    {"op": "batch", "msgs": {"op": "close"}},
    {"op": "batch", "msgs": [[1]]},
    {"op": "batch", "msgs": [{"op": "batch", "msgs": []}]},
    {"op": 7},
    {"op": "nope"},
    "open",
    None,
]


@pytest.mark.parametrize("frame", MALFORMED_FRAMES, ids=json.dumps)
def test_malformed_request_gets_an_error_and_the_session_survives(
        frame, thread_errors):
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "open", "fn_id": 0})
            opened = _recv(rfile)
            _send(wfile, frame)
            reply = _recv(rfile)
            # the same session still serves a well-formed request
            _send(wfile, {"op": "call", "hid": 1, "label": 0, "values": [5]})
            after = _recv(rfile)
        finally:
            _hangup(sock)
    assert opened["result"] == 1
    assert set(reply) == {"error"} and reply["error"]
    assert "result" in after
    assert thread_errors == []


def test_live_activations_per_session_are_bounded(monkeypatch,
                                                  thread_errors):
    """An ``open`` past the per-session limit gets an error naming it and
    the session stays up; closing one activation makes room again, and
    another session has its own count."""
    monkeypatch.setattr(remote, "MAX_SESSION_ACTIVATIONS", 3)
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        other, other_r, other_w = _wire(address)
        try:
            _recv(rfile)
            _recv(other_r)
            opened = []
            for _ in range(4):
                _send(wfile, {"op": "open", "fn_id": 0})
                opened.append(_recv(rfile))
            _send(other_w, {"op": "open", "fn_id": 0})
            other_opened = _recv(other_r)
            _send(wfile, {"op": "close", "hid": 1})
            closed = _recv(rfile)
            _send(wfile, {"op": "open", "fn_id": 0})
            reopened = _recv(rfile)
            _send(wfile, {"op": "call", "hid": 2, "label": 0, "values": [5]})
            called = _recv(rfile)
        finally:
            _hangup(sock)
            _hangup(other)
    assert [r.get("result") for r in opened[:3]] == [1, 2, 3]
    assert set(opened[3]) == {"error"}
    assert "3 live activations" in opened[3]["error"]
    assert other_opened == {"result": 1}
    assert closed == {"result": None}
    assert reopened == {"result": 4}
    assert "result" in called
    assert thread_errors == []


@pytest.mark.parametrize("line", [b"{this is not json\n",
                                  b"[" * 100_000 + b"\n"],
                         ids=["not-json", "deeply-nested"])
def test_unparseable_line_gets_an_error_and_a_clean_close(line,
                                                          thread_errors):
    _, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp) as address:
            sock, rfile, _wfile = _wire(address)
            try:
                _recv(rfile)
                sock.sendall(line)
                reply = _recv(rfile)
                with pytest.raises(ChannelError, match="connection closed"):
                    _recv(rfile)
            finally:
                _hangup(sock)
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="malformed").value == 1)
    assert "malformed frame" in reply["error"]
    assert thread_errors == []


@pytest.mark.parametrize("answer", [{"value": [1]}, {"value": "5"},
                                    {"value": None}, [5], "5"],
                         ids=json.dumps)
def test_ill_typed_callback_answer_fails_the_call_not_the_session(
        answer, thread_errors):
    _, sp = make(ARRAY)
    label = min(label for _fn, frags, _st in sp.registry().values()
                for label, frag in frags.items() if frag.params)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "open", "fn_id": 0})
            hid = _recv(rfile)["result"]
            _send(wfile, {"op": "call", "hid": hid, "label": label,
                          "values": [1]})
            assert _recv(rfile)["cb"] == "fetch_index"
            _send(wfile, answer)
            reply = _recv(rfile)
            _send(wfile, {"op": "open", "fn_id": 0})
            after = _recv(rfile)
        finally:
            _hangup(sock)
    assert "client-side access failed" in reply["error"]
    assert "result" in after
    assert thread_errors == []


def test_oversized_frame_is_refused_while_other_sessions_finish(
        thread_errors):
    prog, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, _wfile = _wire(address, timeout=30.0)
        try:
            _recv(rfile)

            def flood():
                # twice the cap and no newline; the daemon stops reading
                # (and hangs up) long before the end
                with contextlib.suppress(OSError):
                    sock.sendall(b"x" * (2 * MAX_FRAME_BYTES))

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            # a concurrent well-behaved session is unaffected
            remote = run_split_remote(sp, address, args=(4,))
            reply = _recv(rfile)
            with pytest.raises(ChannelError):
                _recv(rfile)
            flooder.join(timeout=10.0)
        finally:
            _hangup(sock)
    assert remote.output == run_original(prog, args=(4,)).output
    assert reply == {"error": "frame exceeds %d bytes" % MAX_FRAME_BYTES}
    assert thread_errors == []


def test_revision_3_single_field_hellos_get_their_old_reply_keys():
    """A revision-3 client negotiates one capability per hello, in this
    order; each reply still carries the keys that client reads."""
    _, sp_a = make(ALPHA)
    tenants = [Tenant.from_program("alpha", sp_a)]
    with remote_server(tenants=tenants) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            replies = {}
            for field, value in [("program", "alpha"),
                                 ("trace", {"id": "ab", "t": 1.0}),
                                 ("batching", True)]:
                _send(wfile, {"op": "hello", field: value})
                replies[field] = _recv(rfile)["result"]
            _send(wfile, {"op": "open", "fn_id": 0})
            opened = _recv(rfile)
        finally:
            _hangup(sock)
    program = replies["program"]
    assert program["ok"] is True and program["functions"] == {"f": 0}
    assert "classes" in program and "deferrable" in program
    assert replies["trace"]["ok"] is True
    assert isinstance(replies["trace"]["epoch_us"], (int, float))
    assert replies["batching"]["ok"] is True
    assert "result" in opened


def _hellos_received(**options):
    """Run ALPHA against a fresh daemon; how many ``hello`` frames did the
    daemon receive?"""
    _, sp = make(ALPHA)
    recorder = FlightRecorder(process="Hf")
    with obs.telemetry(recorder=recorder):
        server = HiddenComponentServer(tenants=[Tenant.from_program("p", sp)])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        run_split_remote(sp, server.address, args=(4,), **options)
    finally:
        server.shutdown()
        thread.join(timeout=2.0)
    return sum(1 for e in recorder.events
               if e["type"] == "server_recv" and e["op"] == "hello")


def test_a_session_sends_at_most_one_hello():
    assert _hellos_received() == 0
    assert _hellos_received(program="p", batching=True, trace=True) == 1


def test_a_cache_request_is_ignored():
    """Hf has no result cache: ``run_split_remote(cache=True)`` sends no
    ``hello`` for it, and a ``hello`` from an older client that still asks
    gets an ``ok`` reply with no ``cache`` key."""
    assert _hellos_received(cache=True) == 0
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "hello", "cache": True})
            reply = _recv(rfile)
        finally:
            _hangup(sock)
    assert reply["result"]["ok"] is True
    assert "cache" not in reply["result"]


def test_mid_handshake_disconnect_does_not_leak_or_kill_the_daemon():
    """Regression: a client that vanishes before (or mid-) handshake used to
    crash its session thread and leak the live-clients gauge."""
    prog, sp = make(ALPHA)
    with obs.telemetry() as (registry, _tracer):
        with remote_server(sp) as address:
            # vanish immediately, without even reading the handshake
            socket.create_connection(address, timeout=5).close()
            # vanish mid-frame: truncated JSON, then gone
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(b'{"op": "ope')
            sock.close()
            assert _poll(lambda: registry.counter(
                M_SESSION_ERRORS, reason="disconnect").value == 2)
            # the daemon is unaffected: a real client still gets served
            remote = run_split_remote(sp, address, args=(4,))
            assert remote.output == run_original(prog, args=(4,)).output
            assert _poll(lambda: registry.gauge(
                M_CLIENTS, program="default").value == 0)
            # only the one bound session ever counted
            assert registry.counter(M_SESSIONS, program="default").value == 1


def test_shutdown_op_closes_without_reply():
    _, sp = make(ALPHA)
    with remote_server(sp) as address:
        sock, rfile, wfile = _wire(address)
        try:
            _recv(rfile)
            _send(wfile, {"op": "shutdown"})
            with pytest.raises(ChannelError, match="connection closed"):
                _recv(rfile)
        finally:
            _hangup(sock)


# -- drain -------------------------------------------------------------------


def test_drain_releases_idle_sessions_and_refuses_new_connections():
    _, sp = make(ALPHA)
    server = HiddenComponentServer(
        tenants=[Tenant.from_program("p", sp)], drain_grace_s=5.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sock, rfile, wfile = _wire(server.address)
    try:
        _recv(rfile)
        _send(wfile, {"op": "open", "fn_id": 0})
        assert "result" in _recv(rfile)  # bound, now idle
        server.drain()
        # the idle session is released immediately, not after a timeout
        with pytest.raises(ChannelError, match="connection closed"):
            _recv(rfile)
    finally:
        _hangup(sock)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=1.0)


def test_serve_sigterm_drains_in_flight_work(tmp_path):
    """The satellite scenario end to end: SIGTERM lands mid-session while
    calls are streaming; the in-flight call completes with the correct
    result, new work is refused, and --metrics/--log-events still flush."""
    prog = tmp_path / "slow.mj"
    prog.write_text(SLOW)
    manifest = str(tmp_path / "slow.json")
    env = _repro_env()
    export = subprocess.run(
        [sys.executable, "-m", "repro", "export", str(prog), "--function",
         "f", "--var", "a", "-o", manifest],
        env=env, capture_output=True, text=True,
    )
    assert export.returncode == 0, export.stdout + export.stderr

    # the oracle script: the simulated run's exact wire ops and replies
    _, sp = make(SLOW)
    events = [e for e in run_split(sp, args=(5,)).channel.transcript.events
              if e.kind in ("open", "call", "close")]

    metrics_path = str(tmp_path / "metrics.json")
    events_path = str(tmp_path / "events.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", manifest,
         "--metrics", metrics_path, "--log-events", events_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        serving = proc.stdout.readline()
        assert "hidden component serving on" in serving
        host, port = serving.strip().rsplit(" ", 1)[1].split(":")
        assert "programs: slow" in proc.stdout.readline()

        sock, rfile, wfile = _wire((host, int(port)), timeout=10.0)
        answered = 0
        interrupted = False
        timer = threading.Timer(0.3, proc.send_signal, args=(signal.SIGTERM,))
        timer.start()
        try:
            _recv(rfile)  # handshake
            hid = None
            for event in events:
                if event.kind == "open":
                    payload = {"op": "open", "fn_id": event.sent[0]}
                elif event.kind == "call":
                    payload = {"op": "call", "hid": hid,
                               "label": event.label,
                               "values": list(event.sent)}
                else:
                    payload = {"op": "close", "hid": hid}
                try:
                    _send(wfile, payload)
                    reply = _recv(rfile)
                except ChannelError:
                    interrupted = True  # the drain released our read
                    break
                if "error" in reply:
                    # a frame that raced the drain: refused, retryable
                    assert reply["retry"] is True
                    interrupted = True
                    break
                # every answered call completed with the simulated run's
                # exact result — the drain never truncates one mid-way
                assert reply["result"] == event.result
                if event.kind == "open":
                    hid = reply["result"]
                answered += 1
        finally:
            timer.cancel()
            _hangup(sock)
        assert interrupted, "SIGTERM should land mid-session"
        assert answered > 0
        # the drained daemon refuses new connections...
        with pytest.raises(OSError):
            socket.create_connection((host, int(port)), timeout=1.0)
        # ...and exits cleanly within the drain grace
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # telemetry flushed on the way out, with the per-program session count
    doc = json.loads(open(metrics_path).read())
    sessions = [m for m in doc["metrics"]
                if m["name"] == "repro_remote_sessions_total"]
    assert sessions and sessions[0]["labels"] == {"program": "slow"}
    assert os.path.getsize(events_path) > 0


SELF_TERMINATING_SERVE = """
import os, signal, sys
from repro.cli import main

class Out:
    # SIGTERM this process the instant the address line is written:
    # the earliest a supervisor watching stdout could send it
    def write(self, text):
        sys.stdout.write(text)
        sys.stdout.flush()
        if "serving on" in text:
            os.kill(os.getpid(), signal.SIGTERM)

    def flush(self):
        sys.stdout.flush()

sys.exit(main(sys.argv[1:], out=Out()))
"""


def test_serve_sigterm_at_the_address_line_exits_cleanly(tmp_path):
    _, sp = make(ALPHA)
    manifest = tmp_path / "alpha.json"
    manifest.write_text(export_split_json(sp))
    proc = subprocess.run(
        [sys.executable, "-c", SELF_TERMINATING_SERVE, "serve",
         str(manifest), "--port", "0"],
        env=_repro_env(), capture_output=True, text=True, timeout=30,
    )
    assert "hidden component serving on" in proc.stdout
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
