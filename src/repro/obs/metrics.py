"""Zero-dependency metrics primitives: Counter, Gauge, Histogram, Registry.

The registry is the single collection point for everything the runtime
measures — channel round trips, open/hidden statement counts, splitter
phase durations.  Metrics are identified by ``(name, labels)``; asking the
registry for the same identity twice returns the same object.

Every exported ``repro_*`` metric is declared once, beside its ``M_*``
constant, with :func:`declare`: its kind, help text, label names and (for
histograms) buckets.  A registry keeps one :class:`Family` per name, which
fixes those facts for the name — a second kind or bucket grid raises
``TypeError`` — and holds its children by label values, so an instrumented
layer keeps its families and updates a bound child with one dict probe
instead of a registry lookup.  Undeclared names still work; their first
registration fixes the kind, help, label names and buckets.

Telemetry is *opt-in*: when it is off there is no registry at all
(:func:`repro.obs.active_registry` returns ``None``), and instrumented
layers cache that ``None`` at construction.
"""

import bisect

#: default histogram buckets for durations in seconds
DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

#: buckets for payload sizes in bytes
BYTE_BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

#: buckets for statement/step counts
STEP_BUCKETS = (1, 5, 10, 50, 100, 500, 1000, 10000, 100000)

#: buckets for simulated per-round-trip latency in milliseconds
SIM_MS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 50.0)

#: buckets for messages coalesced per batch flush
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: buckets for measured round-trip phase durations in seconds (--trace);
#: loopback round trips sit in the tens-of-microseconds range, LAN ones
#: in the hundreds, so the grid is much finer than DEFAULT_BUCKETS
RT_PHASE_BUCKETS = (0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005,
                    0.01, 0.05, 0.1, 0.5)


class Counter:
    """Monotonically increasing value (float increments allowed)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. live activations)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``count`` and ``sum`` track totals for mean computation.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name, labels, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value):
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self):
        """``[(upper_bound, cumulative_count), ...]`` ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Estimated ``q``-quantile (0..1) from the cumulative buckets.

        Linear interpolation within the bucket the target rank falls in,
        Prometheus ``histogram_quantile`` style: the first bucket's lower
        edge is 0, and ranks landing in the implicit ``+Inf`` bucket clamp
        to the highest finite bound (the estimate cannot exceed what the
        buckets resolve).  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        if self.count == 0:
            return 0.0
        target = q * self.count
        lower = 0.0
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            if running + n >= target and n > 0:
                fraction = (target - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = float(bound)
        return float(self.buckets[-1]) if self.buckets else 0.0


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}

#: every declared metric: name -> (kind class, help, label names, buckets)
DECLARED = {}


def declare(name, kind, help, labels=(), buckets=DEFAULT_BUCKETS):
    """Declare metric ``name`` once: ``kind`` is ``"counter"``,
    ``"gauge"`` or ``"histogram"``, ``labels`` the label names in the
    order :meth:`Family.child` takes their values, ``buckets`` a
    histogram's upper bounds.  Returns ``name``, so the ``M_*`` constant
    it is assigned to stays a plain string."""
    if name in DECLARED:
        raise ValueError("metric %r is declared twice" % name)
    cls = _KINDS[kind]
    DECLARED[name] = (cls, help, tuple(labels),
                      tuple(buckets) if cls is Histogram else None)
    return name


class Family:
    """One metric name in one registry: its kind, help text, label names
    and buckets, fixed by the declaration (or, for an undeclared name, by
    its first registration), and its children keyed by label values in
    label-name order."""

    __slots__ = ("name", "cls", "help", "labels", "buckets", "children")

    def __init__(self, name, cls, help, labels, buckets):
        self.name = name
        self.cls = cls
        self.help = help
        self.labels = labels
        self.buckets = buckets
        self.children = {}

    def child(self, *values):
        """The metric for these label values: made on first use, then one
        dict probe."""
        metric = self.children.get(values)
        if metric is None:
            labels = dict(zip(self.labels, values))
            # setdefault: daemon sessions binding one child on two threads
            # must get one metric, not each its own
            metric = self.children.setdefault(values, (
                Histogram(self.name, labels, self.buckets)
                if self.cls is Histogram else self.cls(self.name, labels)))
        return metric


class Registry:
    """Collection point for metric instances: one :class:`Family` per
    name, each holding its children."""

    def __init__(self):
        self._families = {}

    # -- factories ---------------------------------------------------------

    def counter(self, name, help=None, **labels):
        return self._get(Counter, name, help, labels)

    def gauge(self, name, help=None, **labels):
        return self._get(Gauge, name, help, labels)

    def histogram(self, name, help=None, buckets=None, **labels):
        return self._get(Histogram, name, help, labels, buckets)

    def family(self, name):
        """The :class:`Family` of declared metric ``name``."""
        return self._family(DECLARED[name][0], name, None, None, None)

    def _family(self, cls, name, help, labels, buckets):
        family = self._families.get(name)
        if family is None:
            declared = DECLARED.get(name) or (
                cls, help or "", tuple(sorted(labels)),
                tuple(buckets or DEFAULT_BUCKETS) if cls is Histogram else None)
            family = self._families.setdefault(name, Family(name, *declared))
        if family.cls is not cls:
            raise TypeError("metric %r is a %s, not a %s"
                            % (name, family.cls.kind, cls.kind))
        if buckets is not None and tuple(buckets) != family.buckets:
            raise TypeError("metric %r has buckets %r, not %r"
                            % (name, family.buckets, tuple(buckets)))
        return family

    def _get(self, cls, name, help, labels, buckets=None):
        family = self._family(cls, name, help, labels, buckets)
        if len(labels) != len(family.labels) or not all(
                key in labels for key in family.labels):
            raise TypeError("metric %r takes labels %r, not %r"
                            % (name, family.labels, tuple(labels)))
        return family.child(*[labels[key] for key in family.labels])

    # -- reading ---------------------------------------------------------

    def collect(self):
        """All metrics, sorted by name then label key (stable exposition)."""
        # list() copies each dict in one step, so daemon sessions adding
        # children meanwhile cannot break the iteration
        return [m for _, m in sorted(
            ((name, tuple(sorted(m.labels.items()))), m)
            for name, family in list(self._families.items())
            for m in list(family.children.values()))]

    def help_text(self, name):
        family = self._families.get(name)
        return family.help if family is not None else ""

    def value(self, name, **labels):
        """The value of one counter/gauge sample, or the observation count
        of one histogram sample; 0 when absent."""
        family = self._families.get(name)
        if family is None or set(labels) != set(family.labels):
            return 0
        metric = family.children.get(tuple(labels[k] for k in family.labels))
        if metric is None:
            return 0
        return metric.count if family.cls is Histogram else metric.value

    def total(self, name):
        """Sum of a counter/gauge family across all label sets."""
        family = self._families.get(name)
        if family is None or family.cls is Histogram:
            return 0
        return sum(m.value for m in list(family.children.values()))

    def names(self):
        return sorted(name for name, family in list(self._families.items())
                      if family.children)

    def __len__(self):
        return sum(len(f.children) for f in list(self._families.values()))
