"""One synthetic client: the wire protocol with zeros for values.

Speaks the real protocol (docs/PROTOCOL.md) against a live daemon:
handshake, optional capability ``hello``, then the scripted ops — answering
any server callbacks with zeros along the way — while measuring the wall
time of every answered round trip.
"""

import contextlib
import threading
import time

from repro.runtime.remote import (
    ChannelError,
    ConnectionPolicy,
    _recv,
    _send,
    open_session,
)

#: connect retries per client (accept backlog under heavy fan-out)
_CONNECT_ATTEMPTS = 5
_CONNECT_BACKOFF_S = 0.05


class ClientResult:
    """What one synthetic client did and how long each op took."""

    __slots__ = ("ops", "latencies_s", "op_counts", "error_replies",
                 "protocol_errors", "skipped", "first_error")

    def __init__(self):
        self.ops = 0
        self.latencies_s = []
        self.op_counts = {}
        self.error_replies = 0
        self.protocol_errors = 0
        self.skipped = 0
        self.first_error = None

    def _note_error(self, message):
        if self.first_error is None:
            self.first_error = str(message)


class SyntheticClient:
    """Replays a script against a daemon at ``address``.

    ``iterations`` repeats the whole script (one logical session per
    client, many replayed runs inside it).  ``think_scale`` > 0 sleeps the
    script's recorded inter-op gaps (scaled, with ±20% seeded jitter from
    ``rng``) before each op — the open-loop mode; 0 replays back-to-back —
    the closed-loop mode.  ``barrier`` (if given) is waited on after the
    handshake, so a harness can guarantee all clients are connected —
    i.e. truly concurrent sessions — before any load is offered.
    """

    def __init__(self, address, script, program=None, iterations=1,
                 think_scale=0.0, rng=None, timeout_s=10.0, barrier=None,
                 cache=False):
        self.address = address
        self.script = script
        self.program = program
        self.iterations = iterations
        self.think_scale = think_scale
        self.rng = rng
        self.timeout_s = timeout_s
        self.barrier = barrier
        self.cache = cache

    def run(self):
        result = ClientResult()
        try:
            session = self._connect()
        except (ChannelError, OSError) as exc:
            result.protocol_errors += 1
            result._note_error(exc)
            if self.barrier is not None:
                # do not deadlock the fleet on one failed connect
                with contextlib.suppress(threading.BrokenBarrierError):
                    self.barrier.wait(timeout=self.timeout_s)
            return result
        sock, rfile, wfile = session.sock, session.rfile, session.wfile
        functions = {
            str(name): fn_id
            for name, fn_id in (session.facts.get("functions") or {}).items()
        }
        classes = set(session.facts.get("classes") or ())
        try:
            if self.barrier is not None:
                self.barrier.wait(timeout=self.timeout_s)
            for _ in range(self.iterations):
                self._replay_once(rfile, wfile, functions, classes, result)
        except (ChannelError, OSError) as exc:
            result.protocol_errors += 1
            result._note_error(exc)
        except threading.BrokenBarrierError:
            result.protocol_errors += 1
            result._note_error("client fleet barrier broke")
        finally:
            with contextlib.suppress(ChannelError, OSError):
                _send(wfile, {"op": "shutdown"})
            with contextlib.suppress(OSError):
                sock.close()
        return result

    # -- plumbing --------------------------------------------------------------

    def _connect(self):
        # the same negotiation a real client performs; a daemon serving
        # --cache off answers without enabling and the replay proceeds
        # uncached (docs/CACHING.md)
        policy = ConnectionPolicy(timeout_s=self.timeout_s,
                                  connect_retries=_CONNECT_ATTEMPTS,
                                  retry_backoff_s=_CONNECT_BACKOFF_S)
        return open_session(self.address, policy,
                            {"program": self.program, "cache": self.cache})

    def _replay_once(self, rfile, wfile, functions, classes, result):
        hid_stack = []
        next_oid = 1
        for op in self.script:
            self._think(op)
            payload = None
            pushes_hid = False
            if op.kind == "open":
                if op.fn in functions:
                    payload = {"op": "open", "fn_id": functions[op.fn]}
                    pushes_hid = True
                elif op.fn in classes:
                    payload = {"op": "new_instance", "class": op.fn,
                               "oid": next_oid}
                    next_oid += 1
                elif len(functions) == 1:
                    # client-side logs record fn "-": unambiguous only
                    # for single-function programs
                    payload = {"op": "open",
                               "fn_id": next(iter(functions.values()))}
                    pushes_hid = True
                else:
                    result.skipped += 1
                    result._note_error(
                        "cannot resolve recorded open of %r (replay "
                        "server-side logs against multi-function programs)"
                        % op.fn)
                    continue
            elif op.kind == "call":
                if not hid_stack:
                    result.skipped += 1
                    continue
                payload = {
                    "op": "call", "hid": hid_stack[-1], "label": op.label,
                    # the recorded count includes the reply; the rest are
                    # the sent scalars, replayed as zeros
                    "values": [0] * max(op.values - 1, 0),
                }
            else:  # close
                if not hid_stack:
                    result.skipped += 1
                    continue
                payload = {"op": "close", "hid": hid_stack.pop()}
            reply = self._exchange(rfile, wfile, payload, result)
            if reply is None:
                continue
            if pushes_hid:
                hid_stack.append(reply.get("result"))
        # a balanced script leaves no activations behind; an unbalanced
        # one (truncated log) is cleaned up by the session close
        while hid_stack:
            self._exchange(rfile, wfile,
                           {"op": "close", "hid": hid_stack.pop()}, result)

    def _think(self, op):
        if self.think_scale <= 0.0 or op.think_us <= 0.0:
            return
        jitter = self.rng.uniform(0.8, 1.2) if self.rng is not None else 1.0
        time.sleep(op.think_us * self.think_scale * jitter / 1e6)

    def _exchange(self, rfile, wfile, payload, result):
        """One answered round trip, callbacks serviced with zeros; returns
        the reply frame, or None when the server answered with an error."""
        t0 = time.perf_counter()
        _send(wfile, payload)
        while True:
            msg = _recv(rfile)
            if "cb" in msg:
                self._answer_callback(wfile, msg)
                continue
            elapsed = time.perf_counter() - t0
            result.ops += 1
            kind = payload["op"]
            result.op_counts[kind] = result.op_counts.get(kind, 0) + 1
            result.latencies_s.append(elapsed)
            if "error" in msg:
                result.error_replies += 1
                result._note_error("server replied: %s" % msg["error"])
                return None
            return msg

    def _answer_callback(self, wfile, msg):
        cb = msg.get("cb")
        if cb == "fetch_batch":
            _send(wfile, {"values": [0] * len(msg.get("items", ()))})
        elif cb in ("fetch_index", "fetch_field"):
            _send(wfile, {"value": 0})
        elif cb in ("store_index", "store_field"):
            _send(wfile, {"value": None})
        else:
            _send(wfile, {"error": "unknown callback %r" % cb})
