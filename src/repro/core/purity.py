"""Purity analysis: which hidden fragments are safe to memoize.

The Hf-side result cache (:mod:`repro.runtime.cache`, docs/CACHING.md)
may replay a fragment's recorded outcome instead of re-executing it only
when doing so is provably unobservable.  This pass classifies each
fragment statically, against the same eligibility machinery the prefetch
plans use (:mod:`repro.core.prefetch`).  A tenant classifies each of its
fragments once, against the split's storage map, the first time a cached
session calls it (:class:`repro.runtime.server.FragmentFacts`); no verdict
travels in a deployment manifest, so none can be forged.

A fragment is **cacheable** iff all of the following hold:

* it reads no open memory — no ``Index``/``FieldAccess`` (a fragment
  never stores into open memory:
  :class:`~repro.core.hidden.HiddenFragment` refuses it), so executing
  it issues no callbacks.  Callbacks must
  observe the open component's memory *as it is at call time*; a cache
  hit that skipped (or worse, replayed) them would change the adversary-
  observable traffic the Section 3 argument is about;
* it writes no hidden globals and no hidden instance fields (per the
  split's storage map).  Such writes mutate state shared beyond the
  activation, so they must execute every time — and they invalidate the
  cache (docs/CACHING.md, "Invalidation contract");
* it calls only deterministic builtins.  Every builtin except ``len`` is
  a pure function of scalar arguments; ``len`` observes an open-side
  aggregate and is excluded;
* every statement is one the fragment evaluator can execute
  (assignments, declarations, structured control flow).  Anything else
  is conservatively uncacheable.

Activation-local effects do **not** block caching: a fragment may read
and write hidden locals freely.  The reads become part of the cache key
(:attr:`PurityVerdict.env_reads` — a conservative superset of the names
the fragment may consult before writing them), and the writes are
captured by the server on the filling execution and replayed on a hit.

``writes_hidden_store`` is reported independently of cacheability: the
server consults it on *every* fragment to decide when a call must
invalidate cached results (a cacheable fragment never sets it).
"""

from repro.lang import ast
from repro.lang.typecheck import BUILTIN_SIGNATURES

#: expression nodes whose evaluation touches open memory or allocates —
#: the same set :func:`repro.core.prefetch._pure_scalar_expr` rejects
_OPEN_NODES = (ast.Index, ast.FieldAccess, ast.MethodCall, ast.NewArray,
               ast.NewObject)

#: statements the hidden fragment evaluator executes; anything else is
#: conservatively uncacheable (it would raise at run time anyway)
_KNOWN_STMTS = (ast.VarDecl, ast.Assign, ast.If, ast.While, ast.For,
                ast.Break, ast.Continue, ast.Block)

#: the one builtin that is not a pure function of scalar inputs: it
#: observes an open-side aggregate
_IMPURE_BUILTINS = frozenset(["len"])


class PurityVerdict:
    """The classification of one fragment.

    ``env_reads`` is the sorted tuple of activation-local names whose
    pre-call values the fragment may observe (parameters excluded — they
    are rebound from the sent values on every call); ``reads_globals`` /
    ``reads_fields`` flag reads of hidden storage outside the activation,
    which the cache keys by invalidation epoch (and instance id).
    """

    __slots__ = ("cacheable", "reason", "writes_hidden_store", "env_reads",
                 "reads_globals", "reads_fields")

    def __init__(self, cacheable, reason="", writes_hidden_store=False,
                 env_reads=(), reads_globals=False, reads_fields=False):
        self.cacheable = bool(cacheable)
        self.reason = str(reason)
        self.writes_hidden_store = bool(writes_hidden_store)
        self.env_reads = tuple(sorted(env_reads))
        self.reads_globals = bool(reads_globals)
        self.reads_fields = bool(reads_fields)

    def __repr__(self):
        if self.cacheable:
            return "<PurityVerdict cacheable env_reads=%r%s%s>" % (
                list(self.env_reads),
                " +globals" if self.reads_globals else "",
                " +fields" if self.reads_fields else "",
            )
        return "<PurityVerdict uncacheable (%s)%s>" % (
            self.reason,
            " writes-store" if self.writes_hidden_store else "",
        )


def _fragment_exprs(fragment):
    """Every expression of ``fragment``, with the ids of assignment-target
    ``VarRef`` nodes (writes, not reads) collected separately."""
    write_targets = set()
    for stmt in ast.walk_stmts(fragment.body):
        if isinstance(stmt, ast.Assign):
            write_targets.add(id(stmt.target))
    exprs = []
    for stmt in ast.walk_stmts(fragment.body):
        exprs.extend(ast.stmt_exprs(stmt))
    if fragment.result_expr is not None:
        exprs.extend(ast.walk_exprs(fragment.result_expr))
    return exprs, write_targets


def classify_fragment(fragment, storage_map=None):
    """Classify one :class:`~repro.core.hidden.HiddenFragment` against its
    split's storage map; returns a :class:`PurityVerdict`."""
    storage_map = storage_map or {}
    params = set(fragment.params)
    env_reads = set()
    reads_globals = reads_fields = writes_store = False
    blocker = None

    def block(why):
        nonlocal blocker
        if blocker is None:
            blocker = why

    for stmt in ast.walk_stmts(fragment.body):
        if not isinstance(stmt, _KNOWN_STMTS):
            block("unsupported statement %s" % type(stmt).__name__)
            continue
        if isinstance(stmt, ast.Assign):
            if storage_map.get(stmt.target.name) in ("global", "field"):
                writes_store = True
                block("writes hidden store (%s)" % stmt.target.name)
        elif isinstance(stmt, ast.VarDecl):
            if storage_map.get(stmt.name) in ("global", "field"):
                # a declaration shadowing a storage-mapped name: reads
                # would still route to the store while the declaration
                # writes the activation — too subtle to memoize, and
                # conservatively treated as a store write for
                # invalidation purposes
                writes_store = True
                block("declares storage-mapped name %r" % stmt.name)

    exprs, write_targets = _fragment_exprs(fragment)
    for e in exprs:
        if isinstance(e, _OPEN_NODES):
            block("touches open memory (%s)" % type(e).__name__)
        elif isinstance(e, ast.Call):
            if e.name not in BUILTIN_SIGNATURES:
                block("calls non-builtin %r" % e.name)
            elif e.name in _IMPURE_BUILTINS:
                block("calls aggregate-observing builtin %r" % e.name)
        elif isinstance(e, ast.VarRef) and id(e) not in write_targets:
            kind = storage_map.get(e.name)
            if kind == "global":
                reads_globals = True
            elif kind == "field":
                reads_fields = True
            elif e.name not in params:
                env_reads.add(e.name)

    if blocker is not None:
        return PurityVerdict(
            False, reason=blocker, writes_hidden_store=writes_store,
            env_reads=env_reads, reads_globals=reads_globals,
            reads_fields=reads_fields,
        )
    return PurityVerdict(
        True, env_reads=env_reads, reads_globals=reads_globals,
        reads_fields=reads_fields,
    )
