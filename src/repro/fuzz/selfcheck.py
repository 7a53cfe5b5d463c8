"""Harness self-check: plant a bug, prove the fuzzer catches it.

A differential fuzzer that has never caught anything is indistinguishable
from one that cannot.  ``repro fuzz --self-check`` injects a known bug,
runs a short campaign, and asserts:

* the oracle reports a divergence, and only in the configurations the
  planted bug can reach;
* the minimizer shrinks the diverging program to a small ``.mj`` repro;
* with the bug removed, the minimized repro is clean again.

The plant (:func:`planted_engine_bug`) puts every int-typed value a
hidden fragment returns off by one.  The patch wraps
:meth:`HiddenServer.call`, so it reaches every split configuration: all
engines, batching on or off, the in-process channel and the real socket
server.  The unsplit reference runs never touch the hidden server and stay
correct — exactly the shape of a real transformation bug.
"""

import contextlib

from repro.lang.pretty import pretty
from repro.runtime import DEFAULT_ENGINE
from repro.runtime.server import HiddenServer


@contextlib.contextmanager
def planted_engine_bug(delta=1):
    """Perturb every int result a hidden fragment returns by ``delta``.

    Predicate fragments return bools and effect-only fragments' results
    are ignored, so the plant models a *value-computation* bug in the
    hidden evaluator."""
    original = HiddenServer.call

    def buggy_call(self, hid, label, values, access):
        result = original(self, hid, label, values, access)
        if type(result) is int:  # not bool: predicates must stay honest
            return result + delta
        return result

    HiddenServer.call = buggy_call
    try:
        yield
    finally:
        HiddenServer.call = original


class SelfCheckReport:
    """Outcome of one self-check run."""

    def __init__(self):
        self.caught = False
        self.seed = None
        self.programs_tried = 0
        self.divergences = []
        self.only_split_configs = False
        self.minimized = None
        self.minimized_lines = 0
        self.clean_without_bug = False
        self.arg_sets = []

    @property
    def passed(self):
        return (self.caught and self.only_split_configs
                and self.minimized is not None
                and self.clean_without_bug)


def run_selfcheck(seed=0, max_programs=20, configs=None):
    """Run the planted-bug drill; returns a :class:`SelfCheckReport`."""
    from repro.fuzz import oracle
    from repro.fuzz.generate import generate_program
    from repro.fuzz.reduce import minimize

    configs = tuple(configs) if configs else oracle.CONFIGS
    report = SelfCheckReport()
    source = None
    with planted_engine_bug():
        for s in range(seed, seed + max_programs):
            program, arg_sets = generate_program(s)
            candidate = pretty(program)
            result = oracle.run_matrix(candidate, arg_sets, configs=configs)
            report.programs_tried += 1
            if result.diverged:
                report.caught = True
                report.seed = s
                report.divergences = list(result.divergences)
                report.arg_sets = list(arg_sets)
                source = candidate
                break
        if not report.caught:
            return report
        # the plant is hidden-side only: no unsplit cell may be implicated
        cells = {c.name: c for c in configs}
        report.only_split_configs = all(
            cells[d.config].split for d in report.divergences
        )
        # minimize against a single cheap in-process configuration,
        # anchored to behavioural (not accounting) divergence
        arg_sets = report.arg_sets
        fast = (oracle.Config(DEFAULT_ENGINE),)

        def interesting(src):
            try:
                r = oracle.run_matrix(src, arg_sets, configs=fast)
            except Exception:  # a shrink that no longer parses/splits
                return False
            return any(d.kind in ("output", "value") for d in r.divergences)

        report.minimized = minimize(source, interesting)
        report.minimized_lines = report.minimized.count("\n")
    # outside the context: the repro must be clean on the honest engines
    clean = oracle.run_matrix(report.minimized, arg_sets, configs=configs)
    report.clean_without_bug = not clean.diverged
    return report
