"""The differential oracle: one program, every execution configuration.

The reference is the original (unsplit) program on the first engine of
:data:`repro.runtime.ENGINES`, the AST walker.  Every other cell of the
matrix must match its printed output, return value and errors.

The matrix is derived from :data:`AXES` (docs/TESTING.md).  Its valid
combinations are :data:`PRODUCT`, each cell named
``{split|socket}-{engine}[-batch][-traced]``; socket cells pick
the *client* engine, the in-process daemon runs the default one.  The
default :data:`CONFIGS` is one ``original-{engine}`` cell per other
engine plus a greedy pairwise cover of :data:`PRODUCT`.  Two rules hold
the accounting of the cells that behaved like the reference (one that
did not is reported for its behaviour alone: a wrong result also shows
in its transcript), each group checked against its first cell:

* **steps** — original cells step like the reference; split cells take
  equal open steps, and in-process ones equal hidden steps too;
* **traffic** — split cells equal on :data:`TRAFFIC_AXES` record equal
  transcripts, event for event (kind, activation, function, label, sent
  values, result): engines, transport and tracing are
  traffic-neutral (docs/PROTOCOL.md).

A program whose automatic selection finds nothing to split (or where an
explicit choice raises ``SplitError``) skips the split configurations —
that is a selection outcome, not a divergence.
"""

from collections import namedtuple
from itertools import combinations, product

from repro import obs
from repro.obs.metrics import declare
from repro.core.pipeline import split_source
from repro.core.splitter import SplitError, SplitInvariantError
from repro.runtime import ENGINES
from repro.runtime.channel import LatencyModel
from repro.runtime.splitrun import run_original, run_split, _values_differ

#: exported metric names (documented in docs/OBSERVABILITY.md)
M_PROGRAMS = declare("repro_fuzz_programs_total", "counter",
                     "programs fuzzed")
M_DIVERGENCES = declare("repro_fuzz_divergences_total", "counter",
                        "diverging programs")

#: generated programs are tiny; a run that needs more steps than this is
#: itself a generator bug worth surfacing
DEFAULT_MAX_STEPS = 2_000_000


class Config(namedtuple("Config", "engine split socket batching trace",
                        defaults=(True, False, False, False))):
    """One cell of the execution matrix, named after its axis values."""

    __slots__ = ()

    @property
    def name(self):
        transport = ("socket" if self.socket else "split" if self.split
                     else "original")
        return "-".join([transport, self.engine] + [
            suffix for suffix, on in (("batch", self.batching),
                                      ("traced", self.trace)) if on])


#: the reference configuration every other one is diffed against
REFERENCE = Config(ENGINES[0], split=False)
BASELINE = REFERENCE.name

#: what a split run can vary, in naming order
AXES = {
    "socket": (False, True),
    "engine": ENGINES,
    "batching": (False, True),
    "trace": (False, True),
}

#: the only axes that change counted traffic
TRAFFIC_AXES = ("batching",)

#: every valid split cell; trace context rides on the wire, so only
#: socket cells trace
PRODUCT = tuple(
    cell for cell in (Config(**dict(zip(AXES, values)))
                      for values in product(*AXES.values()))
    if cell.socket or not cell.trace
)


def _pairwise(cells):
    """Greedily pick cells until every pair of axis values some cell
    holds is held by a picked one; returned in ``cells`` order."""
    pairs = {c: set(combinations([(a, getattr(c, a)) for a in AXES], 2))
             for c in cells}
    uncovered = set().union(*pairs.values())
    picked = set()
    while uncovered:
        best = max(cells, key=lambda c: len(pairs[c] & uncovered))
        picked.add(best)
        uncovered -= pairs[best]
    return tuple(c for c in cells if c in picked)


#: the unsplit program on every engine but the reference's
ORIGINALS = tuple(Config(e, split=False) for e in ENGINES[1:])

#: the default matrix
CONFIGS = ORIGINALS + _pairwise(PRODUCT)

_BY_NAME = {c.name: c for c in ORIGINALS + PRODUCT}


def select_configs(spec):
    """Resolve a ``--configs`` comma-separated spec to Config objects."""
    if not spec:
        return CONFIGS
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    unknown = [w for w in wanted if w not in _BY_NAME]
    if unknown:
        raise ValueError(
            "unknown config %s (known: %s)"
            % (", ".join(unknown), ", ".join(_BY_NAME))
        )
    return tuple(_BY_NAME[w] for w in wanted)


class Observation:
    """What one run under one configuration looked like."""

    __slots__ = ("value", "output", "steps_open", "steps_hidden", "events",
                 "error")

    def __init__(self, value=None, output=(), steps_open=0, steps_hidden=0,
                 events=(), error=None):
        self.value = value
        self.output = list(output)
        self.steps_open = steps_open
        self.steps_hidden = steps_hidden
        self.events = tuple(events)  # (kind, hid, fn, label, sent, result)
        self.error = error


class Divergence:
    """One observed disagreement between two configurations."""

    __slots__ = ("config", "against", "kind", "detail", "args")

    def __init__(self, config, against, kind, detail, args):
        self.config = config
        self.against = against
        self.kind = kind
        self.detail = detail
        self.args = tuple(args)

    def describe(self):
        return "%s vs %s [%s] args=%r: %s" % (
            self.config, self.against, self.kind, self.args, self.detail
        )

    def __repr__(self):
        return "<Divergence %s>" % self.describe()


class MatrixResult:
    """All observations and divergences for one program."""

    def __init__(self, source, arg_sets, configs, split_summary):
        self.source = source
        self.arg_sets = list(arg_sets)
        self.configs = [c.name for c in configs]
        self.split_summary = split_summary  # e.g. "f:a,Box.step:t" or ""
        self.observations = {}  # (config_name, args) -> Observation
        self.divergences = []

    @property
    def diverged(self):
        return bool(self.divergences)


def _observe(thunk):
    try:
        result = thunk()
    except Exception as exc:  # a crash is an observation, not a campaign abort
        return Observation(error="%s: %s" % (type(exc).__name__, exc))
    events = ()
    if result.channel is not None:
        events = tuple((e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
                       for e in result.channel.transcript.events)
    return Observation(result.value, result.output, result.steps_open,
                       result.steps_hidden, events)


def _run_config(config, program, sp, address, args, max_steps):
    if not config.split:
        return _observe(lambda: run_original(
            program, args=args, max_steps=max_steps, engine=config.engine))
    if config.socket:
        from repro.runtime.remote import run_split_remote

        return _observe(lambda: run_split_remote(
            sp, address, args=args, max_steps=max_steps,
            batching=config.batching, engine=config.engine,
            trace=config.trace))
    return _observe(lambda: run_split(
        sp, args=args, latency=LatencyModel.instant(), max_steps=max_steps,
        batching=config.batching, engine=config.engine))


def _diff_behaviour(config_name, base, obs_, args):
    """Output / return value / error identity against the reference."""
    found = []
    if (base.error is None) != (obs_.error is None) or (
        base.error is not None and base.error != obs_.error
    ):
        found.append(Divergence(config_name, BASELINE, "error",
                                "%r vs %r" % (base.error, obs_.error), args))
        return found
    if base.error is not None:
        return found  # both failed identically; nothing more to compare
    if obs_.output != base.output:
        found.append(Divergence(
            config_name, BASELINE, "output",
            "expected %r, got %r" % (base.output, obs_.output), args))
    if _values_differ(base.value, obs_.value):
        found.append(Divergence(
            config_name, BASELINE, "value",
            "expected %r, got %r" % (base.value, obs_.value), args))
    return found


def _agree(group, kind, what, measure, args):
    """Hold every cell of ``group`` (``(Config, Observation)`` pairs) to
    the first one's ``measure``; crashed runs are judged by behaviour."""
    group = [(c.name, measure(o)) for c, o in group if o.error is None]
    return [Divergence(name, group[0][0], kind,
                       "%s %s" % (what, _difference(m, group[0][1])), args)
            for name, m in group[1:] if m != group[0][1]]


def _difference(m, ref):
    """``m`` against ``ref``; two transcripts by where they part."""
    if type(m) is not tuple:
        return "%r vs %r" % (m, ref)
    for seq, pair in enumerate(zip(m, ref), 1):
        if pair[0] != pair[1]:
            return "#%d %r vs %r" % ((seq,) + pair)
    return "%d vs %d events" % (len(m), len(ref))


def _diff_accounting(present, args):
    """The steps and traffic rules over ``present``, the reference's
    ``(Config, Observation)`` first and the rest in matrix order."""
    originals = [p for p in present if not p[0].split]
    split = [p for p in present if p[0].split]
    found = _agree(originals, "steps", "open steps",
                   lambda o: o.steps_open, args)
    found += _agree(split, "steps", "open steps",
                    lambda o: o.steps_open, args)
    found += _agree([p for p in split if not p[0].socket], "steps",
                    "hidden steps", lambda o: o.steps_hidden, args)
    groups = {}
    for p in split:
        key = tuple(getattr(p[0], axis) for axis in TRAFFIC_AXES)
        groups.setdefault(key, []).append(p)
    for group in groups.values():
        found += _agree(group, "transcript", "event",
                        lambda o: o.events, args)
    return found


def run_matrix(source, arg_sets, configs=None, choices=None, hide=None,
               max_steps=DEFAULT_MAX_STEPS):
    """Run ``source`` through the configuration matrix and diff everything.

    ``arg_sets`` is a sequence of argument tuples for ``main``.  With
    ``hide`` set to a global variable name the split is produced by
    :func:`repro.core.globals.hide_global` instead of variable choices —
    the only way to get hidden *storage* into the matrix.  Returns a
    :class:`MatrixResult`; ``result.divergences`` is empty when every
    configuration agrees.
    """
    configs = tuple(configs) if configs else CONFIGS
    try:
        if hide is not None:
            from repro.core.globals import hide_global
            from repro.lang import check_program, parse_program

            program = parse_program(source)
            checker = check_program(program)
            sp = hide_global(program, checker, hide)
        else:
            program, _checker, sp = split_source(source, choices=choices)
    except SplitInvariantError:
        raise
    except SplitError:
        # an explicit choice the splitter (documentedly) rejects: compare
        # only the unsplit configurations
        from repro.lang import check_program, parse_program

        program = parse_program(source)
        check_program(program)
        sp = None
    if sp is not None and not sp.splits:
        sp = None
    split_summary = ""
    if sp is not None:
        split_summary = ",".join(
            "%s:%s" % (name, "+".join(sorted(split.fully_hidden))
                       or "+".join(sorted(split.hidden_vars)))
            for name, split in sorted(sp.splits.items())
        )
    result = MatrixResult(source, arg_sets, configs, split_summary)

    need_socket = sp is not None and any(c.socket for c in configs)
    server_ctx = None
    address = None
    if need_socket:
        from repro.runtime.remote import remote_server

        server_ctx = remote_server(sp)
        address = server_ctx.__enter__()
    try:
        for args in arg_sets:
            present = []
            for config in (REFERENCE,) + configs:
                if config.split and sp is None:
                    continue
                obs_ = _run_config(config, program, sp, address, args,
                                   max_steps)
                result.observations[(config.name, args)] = obs_
                found = _diff_behaviour(
                    config.name, (present[0][1] if present else obs_),
                    obs_, args)
                result.divergences.extend(found)
                if not found:
                    present.append((config, obs_))
            result.divergences.extend(_diff_accounting(present, args))
    finally:
        if server_ctx is not None:
            server_ctx.__exit__(None, None, None)

    registry = obs.active_registry()
    if registry is not None:
        registry.counter(M_PROGRAMS).inc()
        if result.diverged:
            registry.counter(M_DIVERGENCES).inc()
    return result
