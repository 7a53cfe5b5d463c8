"""Observability: runtime metrics, phase tracing, and exposition.

One process-wide *active* telemetry set — a metrics
:class:`~repro.obs.metrics.Registry`, a
:class:`~repro.obs.tracing.Tracer` and optionally a
:class:`~repro.obs.events.FlightRecorder` — is consulted by the
instrumented layers (channel, hidden server, interpreter, splitter
pipeline) at construction time.  When telemetry is off there is none:
:func:`active_registry`, :func:`get_tracer` and :func:`get_recorder`
return ``None``; the hot layers cache that ``None`` and test it per
event, which keeps every disabled hot path allocation-free.  Callers that
want telemetry wrap the work in :func:`telemetry`::

    from repro import obs
    from repro.obs import export

    with obs.telemetry() as (registry, tracer):
        result = run_split(sp, args=(2, 3))
    print(export.to_prometheus(registry))

Exported metric names are declared beside their ``M_*`` constants and
documented in ``docs/OBSERVABILITY.md``; treat them as a stable interface
(the CLI test suite asserts on them).
"""

import contextlib

from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer

_registry = None
_tracer = None
_recorder = None

#: what :func:`span` hands back when telemetry is off (reusable)
_NO_SPAN = contextlib.nullcontext()


def active_registry():
    """The active metrics registry, or ``None`` when telemetry is off."""
    return _registry


def get_registry():
    """The active metrics registry or, when telemetry is off, a fresh
    registry that nothing exports.

    For code outside the library that records without checking whether
    telemetry is on (perfbench's fragment timer): what it records while
    off is dropped.  The instrumented layers use :func:`active_registry`
    instead, so telemetry off costs them one ``None`` test."""
    return _registry if _registry is not None else Registry()


def get_tracer():
    """The active tracer, or ``None`` when telemetry is off."""
    return _tracer


def get_recorder():
    """The active flight recorder, or ``None``.

    Unlike the registry/tracer pair, recording is opt-in *per session*:
    :func:`install`/:func:`telemetry` leave it off unless an explicit
    :class:`~repro.obs.events.FlightRecorder` is passed (``--log-events``
    on the CLI)."""
    return _recorder


def span(name, **attrs):
    """A span on the active tracer; a no-op context when telemetry is off.

    For cold phases (splitting, whole runs) — hot paths cache the tracer."""
    if _tracer is None:
        return _NO_SPAN
    return _tracer.span(name, **attrs)


def install(registry=None, tracer=None, recorder=None):
    """Make telemetry active process-wide; returns ``(registry, tracer)``.

    ``recorder`` optionally activates the flight recorder
    (:mod:`repro.obs.events`) for the same scope; when omitted there is
    none, so event recording never leaks across sessions.  Prefer the
    :func:`telemetry` context manager, which restores the previous state.
    """
    global _registry, _tracer, _recorder
    _registry = registry if registry is not None else Registry()
    _recorder = recorder
    _tracer = tracer if tracer is not None else Tracer(
        registry=_registry, recorder=recorder)
    return _registry, _tracer


def uninstall():
    """Turn telemetry off: :func:`active_registry`, :func:`get_tracer` and
    :func:`get_recorder` return ``None`` again."""
    global _registry, _tracer, _recorder
    _registry = _tracer = _recorder = None


@contextlib.contextmanager
def telemetry(registry=None, tracer=None, recorder=None):
    """Scoped telemetry: installs a (fresh by default) registry/tracer pair
    (plus an optional flight recorder) and restores whatever was active
    before, even on error."""
    global _registry, _tracer, _recorder
    previous = (_registry, _tracer, _recorder)
    pair = install(registry, tracer, recorder)
    try:
        yield pair
    finally:
        _registry, _tracer, _recorder = previous
