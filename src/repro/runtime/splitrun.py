"""Running programs — original and split — and checking their equivalence.

The simulated-time model used by the Table 5 benchmark:

* every interpreted statement on the open machine costs
  ``stmt_cost_us`` microseconds (calibrated constant, same before/after);
* every statement executed on the secure device costs
  ``hidden_stmt_cost_us``;
* every channel round trip costs what the channel's
  :class:`~repro.runtime.channel.LatencyModel` says.

Absolute numbers are arbitrary; the *ratio* after/before — the paper's
"% Increase" column — is what the benchmark reproduces.
"""

from repro import obs
from repro.obs.metrics import declare
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime import DEFAULT_ENGINE
from repro.runtime.interpreter import Interpreter
from repro.runtime.server import Tenant
from repro.runtime.values import RuntimeErr

#: exported metric name (documented in docs/OBSERVABILITY.md)
M_RUNS = declare("repro_runs_total", "counter", "program executions",
                 ("mode",))

#: Interpreted-statement cost on the open machine, in microseconds.
DEFAULT_STMT_COST_US = 1.0


class RunResult:
    """Outcome and accounting of one program run."""

    def __init__(self, value, output, steps_open, steps_hidden=0, channel=None):
        self.value = value
        self.output = list(output)
        self.steps_open = steps_open
        self.steps_hidden = steps_hidden
        self.channel = channel
        #: clock-alignment outcome of a traced remote run (see
        #: :func:`repro.runtime.remote.run_split_remote`); None otherwise
        self.trace_sync = None

    @property
    def interactions(self):
        return self.channel.interactions if self.channel is not None else 0

    def simulated_ms(self, stmt_cost_us=DEFAULT_STMT_COST_US, hidden_stmt_cost_us=None):
        """Total simulated wall time in milliseconds."""
        if hidden_stmt_cost_us is None:
            hidden_stmt_cost_us = stmt_cost_us
        total = self.steps_open * stmt_cost_us / 1000.0
        total += self.steps_hidden * hidden_stmt_cost_us / 1000.0
        if self.channel is not None:
            total += self.channel.simulated_ms
        return total

    def __repr__(self):
        return "<RunResult value=%r outputs=%d steps=%d+%d interactions=%d>" % (
            self.value,
            len(self.output),
            self.steps_open,
            self.steps_hidden,
            self.interactions,
        )


def run_original(program, entry="main", args=(), max_steps=20_000_000,
                 engine=DEFAULT_ENGINE):
    """Execute the original (unsplit) program."""
    with obs.span("run.original", entry=entry):
        interp = Interpreter(program, max_steps=max_steps, engine=engine)
        value = interp.run(entry, args)
    registry = obs.active_registry()
    if registry is not None:
        registry.counter(M_RUNS, mode="original").inc()
    return RunResult(value, interp.output, interp.steps)


def run_split(split_program, entry="main", args=(), latency=None, record=True,
              max_steps=20_000_000, batching=False, engine=DEFAULT_ENGINE):
    """Execute a split program: open components in the interpreter, hidden
    fragments on a :class:`~repro.runtime.server.HiddenServer`, behind the
    :class:`~repro.runtime.channel.Link` that charges the channel.

    ``batching=True`` turns on the communication optimisation layer (send
    coalescing + callback batching, docs/PROTOCOL.md); results and output
    are unchanged, only the channel traffic shape differs.

    ``engine`` selects the execution strategy on *both* sides
    (docs/ENGINE.md); the engines are observably bit-identical."""
    with obs.span("run.split", entry=entry):
        channel = Channel(latency or LatencyModel.lan(), record=record)
        # a fresh tenant per run: nothing derived is shared across runs
        link = Tenant.from_program("default", split_program).new_link(
            channel, engine=engine, max_steps=max_steps, batching=batching,
        )
        interp = Interpreter(split_program.program, hidden_runtime=link,
                             max_steps=max_steps, engine=engine)
        try:
            value = interp.run(entry, args)
        finally:
            # anything still coalescing goes out as a final batch — also on
            # an aborted run (step limit, runtime error, SIGINT), so the
            # transcript, metrics, and flight recorder stay consistent with
            # what actually crossed the channel
            link.sync()
    registry = obs.active_registry()
    if registry is not None:
        registry.counter(M_RUNS, mode="split").inc()
    return RunResult(value, interp.output, interp.steps, link.hidden.steps,
                     channel)


class EquivalenceError(AssertionError):
    """The split program diverged from the original."""


def check_equivalence(program, split_program, entry="main", args=(),
                      max_steps=20_000_000, engine=DEFAULT_ENGINE):
    """Run both versions and compare return value and printed output.

    Returns the pair of :class:`RunResult` on success, raises
    :class:`EquivalenceError` on divergence.  This is the workhorse of the
    splitter's test suite: the transformation must preserve observable
    behaviour for every program and input.
    """
    before = run_original(program, entry, args, max_steps=max_steps, engine=engine)
    after = run_split(
        split_program, entry, args, latency=LatencyModel.instant(),
        max_steps=max_steps, engine=engine,
    )
    if _values_differ(before.value, after.value):
        raise EquivalenceError(
            "return value diverged: %r vs %r" % (before.value, after.value)
        )
    if before.output != after.output:
        raise EquivalenceError(
            "output diverged:\n  before=%r\n  after =%r" % (before.output, after.output)
        )
    return before, after


def _values_differ(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return False
        denom = max(abs(a), abs(b), 1e-12)
        return abs(a - b) / denom > 1e-9
    return a != b
