"""Harness self-check: plant a bug, prove the fuzzer catches it.

A differential fuzzer that has never caught anything is indistinguishable
from one that cannot.  ``repro fuzz --self-check`` injects a known bug,
runs a short campaign, and asserts:

* the oracle reports a divergence, and only in the configurations the
  planted bug can reach;
* the minimizer shrinks the diverging program to a small ``.mj`` repro;
* with the bug removed, the minimized repro is clean again.

Two plants are available (``--plant``):

* ``engine`` — every int-typed value a hidden fragment returns is off by
  one (:func:`planted_engine_bug`).  The patch wraps
  :meth:`HiddenServer.call`, so it reaches every split configuration:
  all engines, batching on or off, the in-process channel and the real
  socket server.  The unsplit reference runs never touch the hidden
  server and stay correct — exactly the shape of a real transformation
  bug.
* ``stale-cache`` — hidden-store writes stop invalidating the fragment
  result cache (:func:`planted_stale_cache_bug`), so a cached read of a
  hidden global can be served after the store changed underneath it.
  Only the cache-on cells can see this; every other configuration
  executes fragments for real — exactly the shape of a real cache
  coherence bug (docs/CACHING.md).
"""

import contextlib

from repro.lang.pretty import pretty
from repro.runtime import DEFAULT_ENGINE
from repro.runtime.cache import FragmentCache
from repro.runtime.server import HiddenServer

#: known planted bugs, by --plant name
PLANTS = ("engine", "stale-cache")


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


@contextlib.contextmanager
def planted_stale_cache_bug():
    """Skip every cache invalidation: hidden-store writes no longer bump
    the cache epoch, so a cached read of a hidden global or field keeps
    being served after the store changed underneath it.  Cache-off runs
    execute every fragment for real and cannot be affected."""
    original = FragmentCache.invalidate

    def skip_invalidate(self, fn="", label=None):
        return None

    FragmentCache.invalidate = skip_invalidate
    try:
        yield
    finally:
        FragmentCache.invalidate = original


#: The stale-cache drill needs hidden *storage*.  Generated programs'
#: automatic selection only ever hides activation-local variables, whose
#: cache keys carry the read values themselves and so can never go stale;
#: the campaign therefore seeds a handcrafted globals-hiding program in
#: which a cacheable reader is called with an identical key before and
#: after a hidden-store write.
STALE_CACHE_GLOBAL = "secret"
STALE_CACHE_CANDIDATE = """\
global int secret = 3;

func int peek(int k) {
    return secret + k;
}

func void main(int k) {
    print(peek(k));
    secret = secret + k;
    print(peek(k));
}
"""
STALE_CACHE_ARG_SETS = ((2,), (5,))


class SelfCheckReport:
    """Outcome of one self-check run."""

    def __init__(self, plant="engine"):
        self.plant = plant
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


def _candidates(seed, max_programs, plant):
    """Yield ``(seed, source, arg_sets)`` campaign candidates."""
    if plant == "stale-cache":
        yield seed, STALE_CACHE_CANDIDATE, list(STALE_CACHE_ARG_SETS)
        return
    from repro.fuzz.generate import generate_program

    for s in range(seed, seed + max_programs):
        program, arg_sets = generate_program(s)
        yield s, pretty(program), arg_sets


def run_selfcheck(seed=0, max_programs=20, configs=None, plant="engine"):
    """Run the planted-bug drill; returns a :class:`SelfCheckReport`.

    ``plant`` picks the bug: ``"engine"`` perturbs hidden int results
    (any split configuration can catch it), ``"stale-cache"`` skips
    cache invalidation (only the cache-on cells can)."""
    if plant not in PLANTS:
        raise ValueError(
            "unknown plant %r (known: %s)" % (plant, ", ".join(PLANTS))
        )
    # the harness loads on use: the CLI imports this module for PLANTS on
    # every start
    from repro.fuzz import oracle
    from repro.fuzz.reduce import minimize

    configs = tuple(configs) if configs else oracle.CONFIGS
    report = SelfCheckReport(plant=plant)
    stale = plant == "stale-cache"
    hide = STALE_CACHE_GLOBAL if stale else None
    planted = planted_stale_cache_bug if stale else planted_engine_bug
    source = None
    with planted():
        for s, candidate, arg_sets in _candidates(seed, max_programs, plant):
            result = oracle.run_matrix(candidate, arg_sets, configs=configs,
                                       hide=hide)
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
        # the stale read is a cache artefact, the engine plant hidden-side
        # only: no cell without the cache (resp. without a split) may be
        # implicated
        cells = {c.name: c for c in configs}
        report.only_split_configs = all(
            cells[d.config].cache if stale else cells[d.config].split
            for d in report.divergences
        )
        # minimize against a single cheap in-process configuration,
        # anchored to behavioural (not accounting) divergence
        arg_sets = report.arg_sets
        fast = (oracle.Config(DEFAULT_ENGINE, cache=stale),)

        def interesting(src):
            try:
                r = oracle.run_matrix(src, arg_sets, configs=fast, hide=hide)
            except Exception:  # a shrink that no longer parses/splits
                return False
            return any(d.kind in ("output", "value") for d in r.divergences)

        report.minimized = minimize(source, interesting)
        report.minimized_lines = report.minimized.count("\n")
    # outside the context: the repro must be clean on the honest engines
    clean = oracle.run_matrix(report.minimized, arg_sets, configs=configs,
                              hide=hide)
    report.clean_without_bug = not clean.diverged
    return report
