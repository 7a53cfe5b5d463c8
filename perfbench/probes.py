"""Timers the benchmark wraps around calls into the runtime's layers.

The timers wrap methods of the library's classes from the outside; the
library itself is not modified.  Two are used:

* :class:`BoundaryTimer` times every call the open component makes into its
  hidden runtime (``open_activation``, ``call``, ``close_activation``,
  ``notify_new_instance``) — in process (``HiddenServer``) and over TCP
  (``RemoteHiddenRuntime``).  Each sample is one Of->Hf interaction as the
  open side waits for it, callbacks included.
* :func:`time_fragments` times every real fragment execution on the hidden
  side (``HiddenServer._execute``; cache hits do not execute) into the
  active telemetry registry, so a daemon exposes it on ``/metrics.json``.
"""

import functools
import threading
import time

from repro import obs
from repro.runtime.server import HiddenServer

#: histogram the fragment timer observes into (seconds per execution)
FRAGMENT_SECONDS = "perfbench_fragment_exec_seconds"

BOUNDARY_METHODS = ("open_activation", "close_activation",
                    "notify_new_instance", "call")


class BoundaryTimer:
    """Collects the wall time of each open->hidden interaction."""

    def __init__(self):
        self.samples = []

    def install(self, cls):
        for name in BOUNDARY_METHODS:
            setattr(cls, name, self._wrap(getattr(cls, name)))

    def _wrap(self, method):
        samples = self.samples
        clock = time.perf_counter

        @functools.wraps(method)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return method(*args, **kwargs)
            finally:
                samples.append(clock() - t0)

        return timed


def time_fragments():
    """Observe each fragment execution into :data:`FRAGMENT_SECONDS`."""
    execute = HiddenServer._execute
    lock = threading.Lock()  # daemon sessions execute on their own threads

    @functools.wraps(execute)
    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return execute(self, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            with lock:
                obs.get_registry().histogram(
                    FRAGMENT_SECONDS,
                    help="fragment execution seconds (benchmark timer)",
                ).observe(elapsed)

    HiddenServer._execute = timed


def totals(doc):
    """``{metric name: total}`` over all label sets of a metrics document
    (``repro.obs.export.to_dict`` or a scraped ``/metrics.json``): counters
    and gauges sum their values, histograms their observed sums."""
    out = {}
    for sample in doc.get("metrics", []):
        value = sample["sum"] if "sum" in sample else sample.get("value", 0)
        out[sample["name"]] = out.get(sample["name"], 0) + value
    return out
