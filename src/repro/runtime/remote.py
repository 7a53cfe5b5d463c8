"""A real network deployment of the hidden component.

The paper "generated the open and hidden components and ran them on two
separate linux based machines that communicated over the local area
network".  The simulated :class:`~repro.runtime.channel.Channel` reproduces
the *accounting* of that setup; this module reproduces the setup itself: a
TCP server hosting the hidden component, and a client-side hidden runtime
the interpreter talks to, with genuine request/response round trips —
including server-to-client callbacks for array/field access mid-fragment.

The wire protocol (JSON lines over one TCP connection per client: every
op, callback, error frame, the ``batch`` coalescing frame, the
``fetch_batch`` callback, and the versioned handshake) is specified in
``docs/PROTOCOL.md`` — that document is the reference; this module is one
implementation of it.

The server side is a *multi-tenant daemon*: it can load many exported
programs concurrently, each client session binds to exactly one of them
(the ``program`` field of the capability ``hello``), and every session
gets its own instance-id namespace so tenants cannot observe each other.
Operational behaviour — connection limits, per-session backpressure,
idle timeouts, and graceful drain on SIGTERM — is documented in
``docs/OPERATIONS.md``.

Use :func:`remote_server` (context manager, serves in a daemon thread) for
tests and demos, or :class:`HiddenComponentServer` directly for a
standalone process.
"""

import collections
import contextlib
import json
import os
import socket
import threading
import time

from repro import obs
from repro.obs.metrics import RT_PHASE_BUCKETS
from repro.runtime.cache import CacheQuota, FragmentCache
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime import DEFAULT_ENGINE
from repro.runtime.interpreter import Interpreter
from repro.runtime.server import Tenant
from repro.runtime.splitrun import RunResult
from repro.runtime.values import RuntimeErr

#: protocol revision announced in the server handshake (docs/PROTOCOL.md)
PROTOCOL_VERSION = 4

#: longest frame either side reads, newline included: 4 MiB, far above
#: the largest real frame.  A full 1024-message ``batch`` of traced calls
#: with four full-precision floats each is about 200 KB; the largest
#: program directory of the Table 5 corpora is under 1 KB.  A longer line
#: is refused with a typed error and the session closed, so a peer cannot
#: grow memory without bound by never sending a newline.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: exported metric names (documented in docs/OBSERVABILITY.md)
M_CLIENTS = "repro_remote_clients"
M_SESSIONS = "repro_remote_sessions_total"
M_SESSION_ERRORS = "repro_remote_session_errors_total"
M_REJECTED = "repro_remote_rejected_total"
M_OPS = "repro_remote_ops_total"
M_EXEC_SECONDS = "repro_remote_exec_seconds"


class ChannelError(RuntimeErr):
    """The transport failed: connection refused, reset, or closed mid-run."""


class ChannelTimeout(ChannelError):
    """No frame arrived within the connection policy's ``timeout_s``."""


class ChannelProtocolError(ChannelError):
    """A frame arrived but was not valid protocol (malformed JSON, or a
    handshake that does not speak a known protocol revision)."""


class ConnectionPolicy:
    """Client-side degradation policy (docs/PROTOCOL.md, "Timeouts and
    reconnection").

    ``timeout_s`` bounds every blocking read; ``connect_retries`` bounds
    how many times connect + handshake is attempted before giving up
    (retrying is only safe there — hidden session state is per-connection,
    so a drop mid-session cannot be transparently resumed);
    ``retry_backoff_s`` is the sleep between attempts, doubled each time.
    """

    __slots__ = ("timeout_s", "connect_retries", "retry_backoff_s")

    def __init__(self, timeout_s=10.0, connect_retries=3, retry_backoff_s=0.05):
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if connect_retries < 1:
            raise ValueError("connect_retries must be at least 1")
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.retry_backoff_s = retry_backoff_s


def _send(wfile, payload):
    wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
    wfile.flush()


def _readline(rfile):
    try:
        line = rfile.readline(MAX_FRAME_BYTES + 1)
    except socket.timeout:
        raise ChannelTimeout("no frame within the read timeout")
    except OSError as exc:
        raise ChannelError("connection failed: %s" % exc)
    if len(line) > MAX_FRAME_BYTES:
        raise ChannelProtocolError(
            "frame exceeds %d bytes" % MAX_FRAME_BYTES)
    if not line.endswith(b"\n"):
        raise ChannelError("connection closed" if not line
                           else "connection closed mid-frame")
    return line


def _parse_frame(line):
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ChannelProtocolError("malformed frame: %s" % exc)


def _recv(rfile):
    return _parse_frame(_readline(rfile))


def _new_trace_id():
    """A fresh 64-bit trace id, hex-encoded (one per traced client run)."""
    return os.urandom(8).hex()


def _frame_tc(msg):
    """The ``tc`` trace context of a frame as ``(trace_id, cseq)``, or
    ``None`` when absent/malformed (old peers, untraced clients)."""
    tc = msg.get("tc") if type(msg) is dict else None
    if isinstance(tc, (list, tuple)) and len(tc) == 2:
        return tc[0], tc[1]
    return None


def _phase_split(t0, t_sent, t_line, t_parsed, echoed_us):
    """Decompose one round trip into its four phases, in seconds.

    ``serialize`` is dump + write, ``deser`` the reply parse, ``exec``
    the server-echoed processing time, and ``wire`` the rest of the
    measured wall time.  The echoed duration is clamped to the window
    the client actually spent waiting: on a loopback/in-process peer the
    server can start dispatching before ``_send`` even returns (the
    bytes hit the wire at the flush syscall, mid-serialize), and an
    unclamped echo would double-count that overlap.  After the clamp
    the four phases sum to ``total`` exactly, by construction."""
    ser_s = t_sent - t0
    deser_s = t_parsed - t_line
    total_s = t_parsed - t0
    budget_s = max(0.0, total_s - ser_s - deser_s)
    try:
        exec_s = min(float(echoed_us) / 1e6, budget_s)
    except (TypeError, ValueError):
        exec_s = 0.0
    return {
        "serialize": ser_s, "wire": budget_s - exec_s, "exec": exec_s,
        "deser": deser_s, "total": total_s,
    }


#: the JSON types of MiniJava scalars, the only values that cross the wire
_SCALARS = frozenset((int, float, bool))


def _check_scalars(values, what):
    """Refuse (:class:`RuntimeErr`) a value that is not a MiniJava scalar:
    a peer's frame must not put anything else into hidden state."""
    for value in values:
        if type(value) not in _SCALARS:
            raise RuntimeErr("%s must hold only numbers and booleans, not %r"
                             % (what, value))


def _facts(tenant):
    """What a client needs to know about the program its session runs:
    split classes, one-way calls, and the ``functions`` name -> id map a
    log-replay client resolves recorded names with."""
    return {
        "classes": sorted(tenant.hidden_field_classes),
        "deferrable": {
            str(fn_id): labels for fn_id, labels in tenant.deferrable.items()
        },
        "functions": dict(tenant.functions),
    }


class _SocketAccess:
    """Server-side proxy for open-component memory: every access becomes a
    callback message to the connected client."""

    def __init__(self, rfile, wfile):
        self.rfile = rfile
        self.wfile = wfile
        self.callbacks = 0

    def _round_trip(self, payload):
        self.callbacks += 1
        _send(self.wfile, payload)
        reply = _recv(self.rfile)
        if type(reply) is not dict:
            raise RuntimeErr("client-side access failed: malformed answer")
        if "error" in reply:
            raise RuntimeErr("client-side access failed: %s" % reply["error"])
        return reply

    def _fetch(self, payload):
        value = self._round_trip(payload).get("value")
        _check_scalars((value,), "client-side access failed: the %s "
                       "answer" % payload["cb"])
        return value

    def fetch_index(self, name, index):
        return self._fetch({"cb": "fetch_index", "name": name, "index": index})

    def store_index(self, name, index, value):
        self._round_trip(
            {"cb": "store_index", "name": name, "index": index, "value": value}
        )

    def fetch_field(self, name, field):
        return self._fetch({"cb": "fetch_field", "name": name, "field": field})

    def store_field(self, name, field, value):
        self._round_trip(
            {"cb": "store_field", "name": name, "field": field, "value": value}
        )

    def fetch_batch(self, items):
        reply = self._round_trip(
            {"cb": "fetch_batch", "items": [list(item) for item in items]}
        )
        values = reply.get("values")
        if type(values) is not list:
            raise RuntimeErr("client-side access failed: no value list")
        _check_scalars(values, "client-side access failed: the "
                       "fetch_batch answer")
        return values


class HiddenComponentServer:
    """Hosts one or more hidden components behind a single TCP socket — a
    multi-tenant daemon (docs/OPERATIONS.md).

    The original single-program constructor still works: ``registry`` (with
    ``hidden_globals``/``hidden_field_classes``) describes the *default*
    program, the one a client that never selects a program is bound to.
    ``tenants`` registers additional named programs; the first registered
    program (positional ``registry`` first, then ``tenants`` in order) is
    the default.

    Operational limits, all off by default so the daemon degrades to the
    seed's behaviour:

    - ``max_sessions``: refuse connections beyond this many live sessions
      (the refusal is an ``error`` handshake frame marked retryable);
    - ``idle_timeout_s``: close sessions that leave the connection silent
      longer than this (bounds every read, including callback answers);
    - ``max_batch_msgs``: per-session backpressure — reject ``batch``
      frames coalescing more than this many messages;
    - ``drain_grace_s``: how long :meth:`serve_forever` waits for in-flight
      requests to finish after :meth:`drain`.

    ``cache`` is the daemon's fragment-cache *policy* (docs/CACHING.md):
    with it on (default), a client's ``hello`` with ``cache: true`` gets a
    session-private :class:`~repro.runtime.cache.FragmentCache`; with it
    off every request is refused (answered but not enabled), so operators
    can rule caching out fleet-wide.  ``cache_quota`` bounds the *total*
    cached entries per tenant across all its sessions.
    """

    def __init__(self, registry=None, hidden_globals=None,
                 hidden_field_classes=None, host="127.0.0.1", port=0,
                 engine=DEFAULT_ENGINE, tenants=None, default_name="default",
                 max_sessions=None, idle_timeout_s=None, max_batch_msgs=1024,
                 drain_grace_s=10.0, cache=True, cache_quota=None):
        self._tenants = {}
        if registry is not None:
            self.add_tenant(Tenant(
                default_name, registry,
                hidden_globals=hidden_globals,
                hidden_field_classes=hidden_field_classes,
            ))
        for tenant in tenants or ():
            self.add_tenant(tenant)
        if not self._tenants:
            raise ValueError("the daemon needs at least one program to serve")
        self._default = next(iter(self._tenants.values()))
        # single-program compatibility surface (default tenant's facts)
        self.hidden_field_classes = dict(self._default.hidden_field_classes)
        self._deferrable = self._default.deferrable
        self.engine = engine
        self.max_sessions = max_sessions
        self.idle_timeout_s = idle_timeout_s
        self.max_batch_msgs = max_batch_msgs
        self.drain_grace_s = drain_grace_s
        self.cache_enabled = bool(cache)
        self._cache_quota_entries = cache_quota
        self._cache_quotas = {}  # program -> CacheQuota, created lazily
        self._cache_lock = threading.Lock()
        #: program -> aggregated cache counters of *finished* sessions
        self.cache_stats = {}
        self._sock = socket.create_server((host, port))
        # accept() wakes every 0.2 s to notice shutdown/drain
        self._sock.settimeout(0.2)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._sessions = set()
        self._sessions_lock = threading.Lock()
        metrics = obs.get_registry()
        self._metrics = metrics if metrics.enabled else None
        recorder = obs.get_recorder()
        self._recorder = recorder if recorder.enabled else None
        # clock-sync fallback epoch when no flight recorder is active: the
        # trace handshake still answers with a consistent local timebase
        self._t0 = time.perf_counter()

    # -- tenancy ---------------------------------------------------------------

    def add_tenant(self, tenant):
        """Register a program; its name is the handshake's ``program`` key."""
        if tenant.name in self._tenants:
            raise ValueError("duplicate program name %r" % tenant.name)
        self._tenants[tenant.name] = tenant

    @property
    def programs(self):
        """Registered program names, default first."""
        return list(self._tenants)

    def _handshake(self):
        # the handshake carries the *default* program's facts (old clients
        # never select one) plus the program directory
        return {"proto": PROTOCOL_VERSION, "programs": list(self._tenants),
                **_facts(self._default)}

    def _new_inner(self, tenant):
        return self._pin_recorder(tenant.new_server(
            Channel(LatencyModel.instant(), record=False), engine=self.engine,
        ))

    def _cache_quota(self, program):
        """The tenant's shared entry quota, or None when unbounded."""
        if self._cache_quota_entries is None:
            return None
        with self._cache_lock:
            quota = self._cache_quotas.get(program)
            if quota is None:
                quota = CacheQuota(self._cache_quota_entries)
                self._cache_quotas[program] = quota
            return quota

    def _fold_cache_stats(self, program, cache):
        """Accumulate a finished session's cache counters per tenant (the
        ``repro.bench`` cache experiment reads these)."""
        stats = cache.stats()
        with self._cache_lock:
            agg = self.cache_stats.setdefault(
                program,
                {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0},
            )
            for key in agg:
                agg[key] += stats[key]

    def _now_us(self):
        """Microseconds on this server's event timebase — the recorder's
        epoch when one is active (so the exchanged epoch aligns with the
        server's ``--log-events`` stream), a local epoch otherwise."""
        if self._recorder is not None:
            return self._recorder.now_us()
        return round((time.perf_counter() - self._t0) * 1e6, 1)

    def _pin_recorder(self, inner):
        """Inner hidden servers are created at session-bind time, when (in
        the in-process ``remote_server`` setup) the *client's* telemetry
        scope may be active; their fragment events belong to this server's
        stream, pinned at construction."""
        inner._recorder = self._recorder
        return inner

    # -- accept loop -----------------------------------------------------------

    def serve_forever(self):
        """Accept clients until :meth:`shutdown` or :meth:`drain`; one
        thread per client, each with its own hidden state (a fresh
        deployment per session)."""
        threads = []
        while not (self._stop.is_set() or self._draining.is_set()):
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if (
                self.max_sessions is not None
                and self.live_sessions() >= self.max_sessions
            ):
                self._reject(conn, "connection limit reached (%d live "
                             "sessions)" % self.max_sessions)
                continue
            session = _ClientSession(self, conn)
            with self._sessions_lock:
                self._sessions.add(session)
            t = threading.Thread(target=session.run, daemon=True)
            t.start()
            threads.append(t)
        grace = self.drain_grace_s if self._draining.is_set() else 1.0
        deadline = time.monotonic() + grace
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))

    def live_sessions(self):
        with self._sessions_lock:
            return len(self._sessions)

    def _session_done(self, session):
        with self._sessions_lock:
            self._sessions.discard(session)

    def _reject(self, conn, message):
        """Refuse a connection before the protocol handshake: the error
        frame is marked retryable so a policy-driven client backs off and
        tries again instead of failing the run."""
        if self._metrics is not None:
            self._metrics.counter(
                M_REJECTED, help="connections refused before handshake",
                reason="limit",
            ).inc()
        with contextlib.suppress(OSError):
            wfile = conn.makefile("wb")
            _send(wfile, {"error": message, "retry": True})
        with contextlib.suppress(OSError):
            conn.close()

    def _count_session_error(self, reason):
        if self._metrics is not None:
            self._metrics.counter(
                M_SESSION_ERRORS,
                help="sessions ended by transport errors or timeouts",
                reason=reason,
            ).inc()

    def shutdown(self):
        """Immediate stop: close the listener; session threads are daemonic
        and die with the process.  Use :meth:`drain` for a graceful exit."""
        self._stop.set()
        with contextlib.suppress(OSError):
            self._sock.close()

    def drain(self):
        """Graceful shutdown (docs/OPERATIONS.md): stop accepting, let every
        session finish the request it is currently executing, then close.
        Sessions blocked waiting for a client's next frame are released
        immediately; :meth:`serve_forever` returns once sessions have had
        ``drain_grace_s`` to wind down, after which the caller's telemetry
        flush runs."""
        self._draining.set()
        with contextlib.suppress(OSError):
            self._sock.close()
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.request_drain()


class _ClientSession:
    """One connected client: a tenant binding, a private hidden server,
    and the per-session limits (docs/OPERATIONS.md).

    The binding happens at the first frame: a ``hello`` carrying
    ``program`` selects that tenant; any hidden-state op before a selection
    binds the session to the daemon's default program.  Once hidden state
    has been touched the binding is final — a later selection of a
    different program is refused.
    """

    def __init__(self, server, conn):
        self.server = server
        self.conn = conn
        self.tenant = None
        self.inner = None
        self.batching = False
        self.cache = False
        self._used = False
        self._in_flight = False
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def run(self):
        server = self.server
        conn = self.conn
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            if server.idle_timeout_s is not None:
                conn.settimeout(server.idle_timeout_s)
            # handshake: protocol revision, the default program's split
            # classes and one-way calls, and the program directory
            _send(wfile, server._handshake())
            self._loop(rfile, wfile)
        except ChannelProtocolError as exc:
            # not a JSON line (malformed or oversized): the line boundary
            # can no longer be trusted, so say why and close
            with contextlib.suppress(OSError):
                _send(wfile, {"error": str(exc)})
            server._count_session_error("malformed")
        except ChannelTimeout:
            server._count_session_error("idle_timeout")
        except (RuntimeErr, OSError):
            # a client that vanishes mid-handshake or mid-frame is a
            # session error, not a daemon failure: the accept loop and
            # every other session keep going
            server._count_session_error("disconnect")
        finally:
            if self.inner is not None and self.inner.cache is not None:
                server._fold_cache_stats(self.tenant.name, self.inner.cache)
                self.inner.cache.release_all()
            if self.tenant is not None and server._metrics is not None:
                server._metrics.gauge(
                    M_CLIENTS, help="currently connected client sessions",
                    program=self.tenant.name,
                ).dec()
            with contextlib.suppress(OSError):
                conn.close()
            server._session_done(self)

    def request_drain(self):
        """Release the session if it is idle (blocked reading the next
        frame); an in-flight request is left to finish — its loop exits
        right after the reply is sent."""
        with self._lock:
            if not self._in_flight:
                with contextlib.suppress(OSError):
                    self.conn.shutdown(socket.SHUT_RD)

    def _count_op(self, exec_s):
        """Per-program round-trip accounting — the rate/p95 source for
        ``/timeseries.json`` and ``repro top`` (docs/OPERATIONS.md)."""
        metrics = self.server._metrics
        if metrics is None or self.tenant is None:
            return
        program = self.tenant.name
        metrics.counter(
            M_OPS, help="protocol ops served, by program", program=program,
        ).inc()
        metrics.histogram(
            M_EXEC_SECONDS,
            help="server-side execution seconds per protocol op",
            buckets=RT_PHASE_BUCKETS, program=program,
        ).observe(exec_s)

    def _loop(self, rfile, wfile):
        server = self.server
        recorder = server._recorder
        while True:
            try:
                msg = _recv(rfile)
            except RuntimeErr:
                if server._draining.is_set():
                    return  # the drain released this blocked read
                raise
            with self._lock:
                if server._draining.is_set():
                    # a frame racing the drain: refuse it — the daemon
                    # only finishes requests already executing
                    with contextlib.suppress(OSError, RuntimeErr):
                        _send(wfile, {"error": "server is draining",
                                      "retry": True})
                    return
                self._in_flight = True
            try:
                tc = _frame_tc(msg)
                op = str(msg.get("op") if type(msg) is dict else None)
                t0 = time.perf_counter()
                # tag everything recorded while dispatching (fragment
                # events, spans, the recv/send pair below) with the
                # incoming trace context
                ctx = (
                    recorder.context(trace_id=tc[0], cseq=tc[1])
                    if recorder is not None and tc is not None
                    else contextlib.nullcontext()
                )
                with ctx:
                    if recorder is not None:
                        recorder.record("server_recv", op=op)
                    try:
                        result = _checked(msg)(self, msg, rfile, wfile,
                                               recorder)
                    except RuntimeErr as exc:
                        if recorder is not None:
                            recorder.record(
                                "server_send", op=op, ok=False,
                                exec_us=round(
                                    (time.perf_counter() - t0) * 1e6, 1),
                            )
                        self._count_op(time.perf_counter() - t0)
                        _send(wfile, {"error": str(exc)})
                        continue
                    exec_us = round((time.perf_counter() - t0) * 1e6, 1)
                    if recorder is not None:
                        recorder.record("server_send", op=op, ok=True,
                                        exec_us=exec_us)
                    self._count_op(exec_us / 1e6)
                if result == "bye":
                    return
                reply = {"result": result}
                if tc is not None:
                    # echo the server-side processing time so the client
                    # can subtract it out of the wire+queue phase — a
                    # duration, so no clock alignment is needed
                    reply["t"] = exec_us
                _send(wfile, reply)
            finally:
                with self._lock:
                    self._in_flight = False
            if server._draining.is_set():
                return  # the in-flight request finished; drain closes us

    # -- tenant binding --------------------------------------------------------

    def _bind(self, tenant):
        self.tenant = tenant
        self.inner = self.server._new_inner(tenant)
        self.inner.batching = self.batching
        self._apply_cache()
        metrics = self.server._metrics
        if metrics is not None:
            # live scrape support (--expo-port): how many client sessions
            # each program has right now, and how many there have been
            metrics.gauge(
                M_CLIENTS, help="currently connected client sessions",
                program=tenant.name,
            ).inc()
            metrics.counter(
                M_SESSIONS, help="client sessions accepted since start",
                program=tenant.name,
            ).inc()

    def _apply_cache(self):
        """Create (or drop) the inner server's session cache to match the
        negotiated flag; entries charge against the tenant's shared quota
        (docs/CACHING.md)."""
        if self.inner is None:
            return
        if self.cache and self.inner.cache is None:
            self.inner.cache = FragmentCache(
                program=self.tenant.name,
                quota=self.server._cache_quota(self.tenant.name),
            )
        elif not self.cache and self.inner.cache is not None:
            self.server._fold_cache_stats(self.tenant.name, self.inner.cache)
            self.inner.cache.release_all()
            self.inner.cache = None

    def _ensure_bound(self):
        if self.inner is None:
            self._bind(self.server._default)
        self._used = True
        return self.inner

    def _select_program(self, name):
        tenant = self.server._tenants.get(name)
        if tenant is None:
            raise RuntimeErr(
                "unknown program %r (serving: %s)"
                % (name, ", ".join(sorted(self.server._tenants)))
            )
        if self.tenant is not None and self.tenant is not tenant:
            raise RuntimeErr(
                "session is bound to program %r; selection must come first"
                % self.tenant.name
            )
        if self._used:
            raise RuntimeErr(
                "program selection must precede hidden-state ops"
            )
        if self.tenant is None:
            self._bind(tenant)

    # -- dispatch --------------------------------------------------------------

    def _op_open(self, msg, *_):
        receiver = _Oid(msg["oid"]) if "oid" in msg else None
        return self._ensure_bound().open_activation(msg["fn_id"],
                                                    receiver=receiver)

    def _op_close(self, msg, *_):
        self._ensure_bound().close_activation(msg["hid"])

    def _op_call(self, msg, rfile, wfile, _recorder):
        _check_scalars(msg["values"], "op 'call': field 'values'")
        return self._ensure_bound().call(msg["hid"], msg["label"],
                                         msg["values"],
                                         _SocketAccess(rfile, wfile))

    def _op_new_instance(self, msg, *_):
        inner = self._ensure_bound()
        fields = inner.hidden_field_classes.get(msg["class"])
        if fields is None:
            raise RuntimeErr("unknown split class %r" % msg["class"])
        inner.instances[msg["oid"]] = dict(fields)
        return msg["oid"]

    def _op_hello(self, msg, *_):
        # capability negotiation (docs/PROTOCOL.md): every requested field
        # is applied in one pass — program selection binds the session to
        # a tenant, batching turns on the server half (fetch_batch
        # callbacks), cache asks for a session fragment cache, honoured
        # only under the daemon's --cache policy — and one merged reply
        # carries the program facts, the cache grant, and this server's
        # event-timebase epoch for trace clock alignment
        if "program" in msg:
            self._select_program(msg["program"])
        if "batching" in msg:
            self.batching = msg["batching"]
            if self.inner is not None:
                self.inner.batching = self.batching
        if "cache" in msg:
            self.cache = msg["cache"] and self.server.cache_enabled
            self._apply_cache()
        return {"ok": True, **_facts(self.tenant or self.server._default),
                "cache": self.cache, "epoch_us": self.server._now_us()}

    def _op_shutdown(self, *_):
        # clean session end: close without replying (docs/PROTOCOL.md)
        return "bye"

    def _op_batch(self, msg, rfile, wfile, recorder):
        # coalesced one-way messages: dispatch in order, answer once.
        # Deferrable calls never touch open memory, so no access window
        # is needed; an error aborts the remainder of the batch and is
        # reported in the single reply.
        msgs = msg["msgs"]
        if len(msgs) > self.server.max_batch_msgs:
            raise RuntimeErr(
                "batch of %d messages exceeds the per-session limit (%d)"
                % (len(msgs), self.server.max_batch_msgs)
            )
        executed = 0
        for sub in msgs:
            handler = _checked(sub)
            if handler is _ClientSession._op_batch:
                raise RuntimeErr("batch frames do not nest")
            if recorder is not None:
                # one recv event per coalesced sub-op, so every message
                # folded into the batch frame stays attributable (the
                # batch's trace context is applied by the caller)
                recorder.record("server_recv", op=sub["op"], sub=executed)
            handler(self, sub, rfile, wfile, recorder)
            executed += 1
        return executed


#: every request op: its handler, then its required and its optional
#: fields, each with the one JSON type it must have.  :func:`_checked`
#: holds every frame to this table before dispatch.
_OPS = {
    "open": (_ClientSession._op_open, {"fn_id": int}, {"oid": int}),
    "close": (_ClientSession._op_close, {"hid": int}, {}),
    "call": (_ClientSession._op_call,
             {"hid": int, "label": int, "values": list}, {}),
    "new_instance": (_ClientSession._op_new_instance,
                     {"class": str, "oid": int}, {}),
    "hello": (_ClientSession._op_hello, {},
              {"program": str, "batching": bool, "cache": bool,
               "trace": dict}),
    "batch": (_ClientSession._op_batch, {"msgs": list}, {}),
    "shutdown": (_ClientSession._op_shutdown, {}, {}),
}


def _checked(msg):
    """The handler for request ``msg`` once the frame fits :data:`_OPS`;
    otherwise a :class:`RuntimeErr` naming the first problem (an error
    reply — the session stays up)."""
    if type(msg) is not dict:
        raise RuntimeErr("a request must be a JSON object, not %s"
                         % type(msg).__name__)
    op = msg.get("op")
    entry = _OPS.get(op) if type(op) is str else None
    if entry is None:
        raise RuntimeErr("unknown op %r" % (op,))
    handler, required, optional = entry
    for name, kind in [*required.items(), *optional.items()]:
        if type(msg.get(name)) is not kind and (
                name in msg or name in required):
            raise RuntimeErr("op %r needs field %r of type %s"
                             % (op, name, kind.__name__))
    return handler


class _Oid:
    """Server-side stand-in for a receiver object: only the id matters."""

    __slots__ = ("oid",)

    def __init__(self, oid):
        self.oid = oid


#: a connected client session, as :func:`open_session` leaves it:
#: ``facts`` is the handshake updated with the ``hello`` reply (the
#: selected program's facts, the ``cache`` grant), ``clock_sync`` the
#: trace clock alignment (``None`` untraced), ``attempts`` the connects
#: it took
Session = collections.namedtuple(
    "Session", "sock rfile wfile handshake facts clock_sync attempts")


def open_session(address, policy, hello_fields):
    """Connect to a hidden-component server, read its handshake, and
    negotiate capabilities in at most one ``hello`` (docs/PROTOCOL.md,
    "Capability negotiation").

    ``hello_fields`` maps the capabilities ``program``, ``batching``,
    ``cache`` and ``trace`` (``{"id": trace_id}``) to what is requested;
    ``None`` and ``False`` request nothing.  With nothing requested no
    ``hello`` is sent, so a bare client speaks revision-1 traffic.  The
    ``hello`` is uncounted: it is written to the socket directly, never
    through an accounting channel.

    Connect, handshake and ``hello`` are retried together per ``policy``
    — the only phase where retrying is safe (no session state yet).
    Refusals the server marks ``retry`` are retried; protocol errors
    (an unknown revision, a refused ``hello``) are not.  Returns a
    :class:`Session`."""
    hello = {name: value for name, value in hello_fields.items()
             if value is not None and value is not False}
    backoff = policy.retry_backoff_s
    last_error = None
    for attempt in range(1, policy.connect_retries + 1):
        if attempt > 1:
            time.sleep(backoff)
            backoff *= 2
        sock = None
        try:
            sock = socket.create_connection(address, timeout=policy.timeout_s)
            sock.settimeout(policy.timeout_s)
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            handshake = _reply(_recv(rfile), "server refused connection")
            proto = handshake.get("proto", 1)
            if proto > PROTOCOL_VERSION:
                raise ChannelProtocolError(
                    "server speaks protocol %r, client speaks up to %d"
                    % (proto, PROTOCOL_VERSION)
                )
            if "program" in hello and "programs" not in handshake:
                raise ChannelProtocolError(
                    "server speaks protocol %s and does not serve named "
                    "programs; cannot select %r" % (proto, hello["program"])
                )
            facts, clock_sync = handshake, None
            if hello:
                facts, clock_sync = _negotiate(rfile, wfile, hello, handshake)
        except (ChannelError, OSError) as exc:
            last_error = exc
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
            if isinstance(exc, ChannelProtocolError):
                raise
            continue
        return Session(sock, rfile, wfile, handshake, facts, clock_sync,
                       attempt)
    if isinstance(last_error, ChannelError):
        raise last_error
    raise ChannelError(
        "could not connect to %r after %d attempts: %s"
        % (address, policy.connect_retries, last_error)
    )


def _reply(frame, refused):
    """``frame`` if it is a protocol object; a refusal the server marked
    ``retry`` becomes a retryable :class:`ChannelError`, any other error
    frame a :class:`ChannelProtocolError`."""
    if type(frame) is not dict:
        raise ChannelProtocolError("%s: not a JSON object" % refused)
    if "error" in frame:
        cls = ChannelError if frame.get("retry") else ChannelProtocolError
        raise cls("%s: %s" % (refused, frame["error"]))
    return frame


def _negotiate(rfile, wfile, hello, handshake):
    """Send the one ``hello`` and fold its reply into the handshake facts.

    A traced ``hello`` carries the client's recorder timestamp and the
    trace context; the reply's ``epoch_us`` maps server timestamps onto
    the client timeline assuming it was struck at the round trip's
    midpoint, so the skew bound is half the round trip.  A server that
    answers without ``epoch_us`` leaves the clocks unaligned."""
    trace = hello.get("trace")
    recorder = obs.get_recorder()
    clock = recorder.now_us if recorder.enabled else None
    frame = {"op": "hello", **hello}
    if trace is not None:
        send_us = clock() if clock is not None else 0.0
        # the hello is the session's first frame: cseq 1
        frame["trace"] = dict(trace, t=send_us)
        frame["tc"] = [trace["id"], 1]
    w0 = time.perf_counter()
    _send(wfile, frame)
    result = _reply(_recv(rfile), "hello refused").get("result")
    facts = {**handshake, **result} if type(result) is dict else handshake
    if trace is None:
        return facts, None
    elapsed_us = (time.perf_counter() - w0) * 1e6
    recv_us = clock() if clock is not None else round(send_us + elapsed_us, 1)
    server_us = result.get("epoch_us") if type(result) is dict else None
    return facts, {
        "send_us": send_us,
        "recv_us": recv_us,
        "server_us": server_us,
        "offset_us": (None if server_us is None
                      else round((send_us + recv_us) / 2.0 - server_us, 1)),
        "skew_bound_us": round((recv_us - send_us) / 2.0, 1),
    }


class RemoteHiddenRuntime:
    """Client-side hidden runtime: satisfies the interpreter's hopen /
    hcall / hclose (and instance notification) over the network, answering
    the server's access callbacks from the live open-component state.

    With ``batching=True`` the client coalesces one-way messages (close,
    instance notifications, and calls the server's handshake marked
    deferrable) into an outbox that is flushed as a single ``batch`` frame
    immediately before the next request that needs an answer — the wire
    equivalent of the simulated channel's send coalescing, and the "fire
    and forget, await at the first dependent receive" pipelining of
    docs/PROTOCOL.md.  Errors from a deferred message surface at that
    synchronisation point rather than at the original call site.

    With ``trace=True`` every frame the client originates is stamped with
    a trace context ``tc: [trace_id, cseq]`` and the capability ``hello``
    exchanges recorder epochs for clock alignment; each answered request
    is decomposed into measured phases (serialize / wire+queue / server
    execution / reply deserialize) recorded on the channel event and the
    ``repro_rt_phase_seconds`` histogram.  Off by default — untraced runs
    are bit-identical to the seed on the wire and in every account
    (docs/PROTOCOL.md, "Trace context").

    With ``cache=True`` the client asks the server to memoize cacheable
    fragment executions for this session (docs/CACHING.md) — channel
    accounting and results are bit-identical to an uncached session;
    only the server does less work.

    With ``program=NAME`` the client selects that program on a
    multi-tenant daemon; a server that predates named programs rejects
    the selection cleanly (:class:`ChannelProtocolError`).  Without it the
    session is bound to the daemon's default program — single-program
    deployments behave exactly as before.

    All four options are negotiated together by :func:`open_session` in
    one uncounted ``hello``; a client with none of them sends no ``hello``
    at all.
    """

    def __init__(self, address, channel=None, batching=False, policy=None,
                 trace=False, trace_id=None, program=None, cache=False):
        self.channel = channel or Channel(LatencyModel.instant(), record=True)
        self.batching = batching
        self.program = program
        self.cache = bool(cache)
        self.policy = policy or ConnectionPolicy()
        self.trace = bool(trace)
        # the id is fixed before connecting, so it survives the connection
        # policy's reconnect attempts (one logical run = one trace)
        self.trace_id = trace_id or (_new_trace_id() if trace else None)
        self._tseq = 1  # traced, cseq 1 is the hello (open_session)
        self._outbox = []
        self._hid_fn = {}  # hid -> fn_id, to look up deferrable labels
        recorder = obs.get_recorder()
        self._recorder = recorder if recorder.enabled else None
        session = open_session(address, self.policy, {
            "program": program, "batching": batching, "cache": self.cache,
            "trace": {"id": self.trace_id} if self.trace else None,
        })
        self._sock = session.sock
        self._rfile = session.rfile
        self._wfile = session.wfile
        self.connect_attempts = session.attempts
        facts = session.facts
        #: what the server actually granted (False against an old server
        #: or a daemon serving --cache off)
        self.cache_enabled = bool(facts.get("cache"))
        self._split_classes = set(facts.get("classes", []))
        self._deferrable = {
            int(fn_id): set(labels)
            for fn_id, labels in (facts.get("deferrable") or {}).items()
        }
        self.clock_sync = session.clock_sync
        if self.clock_sync is not None and self._recorder is not None:
            self._recorder.record("trace_sync", trace_id=self.trace_id,
                                  **self.clock_sync)

    def close(self):
        with contextlib.suppress(OSError, RuntimeErr):
            self._flush_outbox()
            _send(self._wfile, self._stamp({"op": "shutdown"}))
        with contextlib.suppress(OSError):
            self._sock.close()

    # -- hidden runtime interface -------------------------------------------

    def open_activation(self, fn_id, receiver=None):
        payload = {"op": "open", "fn_id": fn_id}
        if receiver is not None:
            payload["oid"] = receiver.oid
        hid = self._request(payload, access=None, kind="open", sent=(fn_id,))
        self._hid_fn[hid] = fn_id
        return hid

    def close_activation(self, hid):
        self._hid_fn.pop(hid, None)
        if self.batching:
            self._defer({"op": "close", "hid": hid}, kind="close", hid=hid,
                        sent=())
            return
        self._request({"op": "close", "hid": hid}, access=None, kind="close", sent=())

    def notify_new_instance(self, obj):
        if obj.class_name not in self._split_classes:
            return
        payload = {"op": "new_instance", "class": obj.class_name, "oid": obj.oid}
        if self.batching:
            self._defer(payload, kind="open", hid=None, sent=(obj.oid,))
            return
        self._request(payload, access=None, kind="open", sent=(obj.oid,))

    def call(self, hid, label, values, access):
        payload = {"op": "call", "hid": hid, "label": label, "values": list(values)}
        if self.batching and label in self._deferrable.get(
            self._hid_fn.get(hid), ()
        ):
            self._defer(payload, kind="call", hid=hid, sent=tuple(values),
                        label=label)
            return 0  # the paper's "any" value: the open side ignores it
        return self._request(payload, access=access, kind="call",
                             sent=tuple(values), label=label)

    # -- plumbing --------------------------------------------------------------

    def _stamp(self, payload):
        """Stamp an originated frame with the trace context; no-op (and no
        wire change) when tracing is off."""
        if self.trace:
            self._tseq += 1
            payload["tc"] = [self.trace_id, self._tseq]
        return payload

    def _defer(self, payload, kind, hid, sent, label=None):
        self._outbox.append(payload)
        self.channel.defer(kind, hid, "-", label, sent)

    def _flush_outbox(self):
        """Ship the outbox as one ``batch`` frame and await its single
        reply.  Called before any request that needs an answer, so deferred
        messages always reach the server before anything that could depend
        on them."""
        if not self._outbox:
            return
        msgs, self._outbox = self._outbox, []
        reply, phases = self._exchange(
            self._stamp({"op": "batch", "msgs": msgs}), None)
        self.channel.flush_deferred(phases=phases, trace=self._trace_ctx())
        if "error" in reply:
            raise RuntimeErr("hidden server (deferred): %s" % reply["error"])

    def _exchange(self, payload, access):
        """Send one frame and read its reply, servicing callbacks on the
        way; returns the reply and, traced, its decomposition into
        serialize (dump + write), wire+queue, server execution (the
        reply's ``t`` field, which covers the callbacks), and reply
        deserialize (parse) — summing to the measured wall time by
        construction, see :func:`_phase_split`."""
        t0 = time.perf_counter()
        _send(self._wfile, payload)
        t_sent = time.perf_counter()
        while True:
            line = _readline(self._rfile)
            t_line = time.perf_counter()
            msg = _parse_frame(line)
            if "cb" not in msg:
                break
            self._answer_callback(msg, access)
        if not self.trace:
            return msg, None
        return msg, _phase_split(t0, t_sent, t_line, time.perf_counter(),
                                 msg.get("t", 0.0))

    def _request(self, payload, access, kind, sent, label=None):
        self._flush_outbox()
        msg, phases = self._exchange(self._stamp(payload), access)
        if "error" in msg:
            raise RuntimeErr("hidden server: %s" % msg["error"])
        result = msg.get("result")
        self.channel.round_trip(kind, payload.get("hid"), "-", label, sent,
                                result, phases=phases, trace=self._trace_ctx())
        return result

    def _answer_callback(self, msg, access):
        if access is None:
            _send(self._wfile, {"error": "no access window for callback"})
            return
        try:
            cb = msg["cb"]
            if cb == "fetch_index":
                value = access.fetch_index(msg["name"], msg["index"])
            elif cb == "store_index":
                access.store_index(msg["name"], msg["index"], msg["value"])
                value = None
            elif cb == "fetch_field":
                value = access.fetch_field(msg["name"], msg["field"])
            elif cb == "store_field":
                access.store_field(msg["name"], msg["field"], msg["value"])
                value = None
            elif cb == "fetch_batch":
                values = access.fetch_batch(msg["items"])
                self.channel.round_trip("cb_batch", None, "-", None, (), None,
                                        trace=self._trace_ctx())
                _send(self._wfile, {"values": values})
                return
            else:
                _send(self._wfile, {"error": "unknown callback %r" % cb})
                return
        except RuntimeErr as exc:
            _send(self._wfile, {"error": str(exc)})
            return
        self.channel.round_trip("cb_" + cb.split("_")[0], None, "-", None, (),
                                value, trace=self._trace_ctx())
        _send(self._wfile, {"value": value})

    def _trace_ctx(self):
        """The in-flight request's trace context, for its channel events
        and those of its callbacks (so attribution can fold them in)."""
        return (self.trace_id, self._tseq) if self.trace else None


@contextlib.contextmanager
def remote_server(split_program=None, tenants=None, **server_kwargs):
    """Serve hidden components on an ephemeral local port in a daemon
    thread; yields the ``(host, port)`` address.

    ``split_program`` (if given) becomes the daemon's default program,
    named ``"default"``; ``tenants`` is an iterable of additional
    :class:`~repro.runtime.server.Tenant` registrations.  Extra keyword
    arguments (``max_sessions``, ``idle_timeout_s``, ...) reach the
    :class:`HiddenComponentServer` constructor."""
    tenant_list = []
    if split_program is not None:
        tenant_list.append(Tenant.from_program("default", split_program))
    tenant_list.extend(tenants or ())
    server = HiddenComponentServer(tenants=tenant_list, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.address
    finally:
        server.shutdown()
        thread.join(timeout=2.0)


def run_split_remote(split_program, address, entry="main", args=(),
                     max_steps=20_000_000, batching=False, policy=None,
                     engine=DEFAULT_ENGINE, trace=False, program=None,
                     cache=False):
    """Run the open component locally against a hidden component served at
    ``address``; returns a :class:`RunResult` whose channel counted the
    real network round trips.

    With ``trace=True`` (``--trace``) the run carries distributed-tracing
    context and per-phase latency measurements (docs/OBSERVABILITY.md);
    the result grows a ``trace_sync`` attribute with the clock-alignment
    handshake outcome.  ``program`` selects a named program on a
    multi-tenant daemon (docs/OPERATIONS.md); ``cache=True`` requests the
    server-side fragment result cache (docs/CACHING.md).  Accounting
    stays bit-identical either way."""
    runtime = RemoteHiddenRuntime(address, batching=batching, policy=policy,
                                  trace=trace, program=program, cache=cache)
    try:
        interp = Interpreter(
            split_program.program, hidden_runtime=runtime, max_steps=max_steps,
            engine=engine,
        )
        value = interp.run(entry, args)
        result = RunResult(value, interp.output, interp.steps, 0,
                           runtime.channel)
        result.trace_sync = runtime.clock_sync
        return result
    finally:
        runtime.close()
