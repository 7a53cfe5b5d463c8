"""The hidden-component server.

Executes the fragments of every split function against per-activation
hidden state.  An activation is created by ``hopen`` (giving the *instance
id* the paper introduces so that simultaneously live instances of a split
recursive function stay separate) and destroyed by ``hclose``.

Fragments run on a dedicated evaluator that resolves names in this order:
fragment parameters / hidden variables (the activation environment), then —
for aggregate accesses only — callbacks into the open component's memory
through the call's access window.  The server only executes; the
:class:`~repro.runtime.channel.Link` in front of it charges every callback
as an extra interaction, reproducing the paper's observation for javac
that hiding whole loops makes the number of inputs "varying ... in each
iteration a different array element was being sent to the hidden side".
"""

import threading
import time

from repro import obs
from repro.obs.metrics import STEP_BUCKETS, declare
from repro.obs import profile as _profile
from repro.lang import ast
from repro.core.hidden import FragmentKind
from repro.core.prefetch import prefetch_plan, touches_open_aggregates
from repro.runtime.channel import Channel, LatencyModel, Link
# control flow is shared with the compiled engine (repro.runtime.compile)
from repro.runtime.compile import (
    DEFAULT_ENGINE,
    _Break,
    _Continue,
    compile_fragment,
    count_engine,
    validate_engine,
)
from repro.runtime.codegen import codegen_fragment
from repro.runtime.interpreter import M_STEPS, M_STMTS
from repro.runtime.values import (
    RuntimeErr,
    binary_op,
    call_builtin,
    default_value,
    unary_op,
)
from repro.lang.typecheck import BUILTIN_SIGNATURES

#: exported metric names (documented in docs/OBSERVABILITY.md); the
#: per-side step and statement counters are the interpreter's
M_ACTIVATIONS = declare("repro_server_activations_total", "counter",
                        "activation lifecycle events", ("event",))
M_FRAGMENT_STEPS = declare("repro_server_fragment_steps", "histogram",
                           "hidden statements executed per fragment call",
                           ("fn", "label"), buckets=STEP_BUCKETS)

#: batch-cache miss sentinel (prefetched values may legitimately be falsy)
_MISSING = object()


class FragmentFacts:
    """What a tenant knows about one hidden fragment.

    Derived once per tenant, the first time a session needs it, and then
    shared read-only by every session the tenant mints: the fragment's
    function name and storage map, whether a call to it is one-way, its
    prefetch plan, and its compiled body per ``(engine, counting)``.
    Every fact comes from the fragment and its storage map; a deployment
    manifest carries none of them.  Each is computed on its first use,
    under the tenant's lock, which a hit never takes.
    """

    __slots__ = ("fragment", "fn_name", "storage", "_one_way", "_prefetch",
                 "_bodies", "_lock")

    def __init__(self, fragment, fn_name, storage, lock):
        self.fragment = fragment
        self.fn_name = fn_name
        self.storage = storage
        self._one_way = None
        self._prefetch = None
        self._bodies = {}
        self._lock = lock

    def one_way(self):
        """A call is one-way when the open side ignores its result
        (``set`` and ``stmts`` fragments return the paper's "any" value)
        *and* executing it needs no open-memory callbacks, so its effects
        stay invisible until the next synchronisation point anyway."""
        if self._one_way is None:
            with self._lock:
                if self._one_way is None:
                    self._one_way = self.fragment.kind in (
                        FragmentKind.SET, FragmentKind.STMTS
                    ) and not touches_open_aggregates(self.fragment)
        return self._one_way

    def prefetch(self):
        """``(stmt_map, result_reads)``: the reads to batch, as live nodes
        of the fragment (:func:`repro.core.prefetch.prefetch_plan`)."""
        if self._prefetch is None:
            with self._lock:
                if self._prefetch is None:
                    self._prefetch = prefetch_plan(self.fragment)
        return self._prefetch

    def body(self, engine, counting):
        """The fragment lowered by ``engine`` (``"compiled"`` or
        ``"codegen"``); ``counting`` emits per-kind statement counts."""
        key = (engine, counting)
        compiled = self._bodies.get(key)
        if compiled is None:
            with self._lock:
                compiled = self._bodies.get(key)
                if compiled is None:
                    compiled = self._bodies[key] = (
                        codegen_fragment(self.fragment, self.storage,
                                         counting, self.prefetch()[0])
                        if engine == "codegen"
                        else compile_fragment(self.fragment, self.storage)
                    )
        return compiled


class Tenant:
    """One served program: its fragment registry, hidden-state
    initialisers, and everything derived from them — the only way to
    build a :class:`HiddenServer`.

    The multi-tenant daemon (:class:`repro.runtime.remote.
    HiddenComponentServer`, docs/OPERATIONS.md) keeps one ``Tenant`` per
    registered program and mints a fresh per-session :class:`HiddenServer`
    from it on demand, so sessions — and therefore tenants — never share
    activation, instance, or hidden-global state.  What they do share is
    read-only: one :class:`FragmentFacts` per fragment, keyed by
    ``(fn_id, label)`` and derived on first use.
    """

    __slots__ = ("name", "registry", "hidden_globals", "hidden_field_classes",
                 "functions", "_facts", "_client_facts", "_lock")

    def __init__(self, name, registry, hidden_globals=None,
                 hidden_field_classes=None):
        self.name = str(name)
        self.registry = registry
        self.hidden_globals = dict(hidden_globals or {})
        self.hidden_field_classes = dict(hidden_field_classes or {})
        #: split-function name -> fn_id, advertised in the handshake so
        #: log-replay clients (repro loadgen) can resolve recorded names
        self.functions = {
            fn_name: fn_id
            for fn_id, (fn_name, _fragments, _storage) in registry.items()
        }
        self._facts = {}  # (fn_id, label) -> FragmentFacts
        self._client_facts = None
        # re-entrant: compiling a codegen body resolves its prefetch map
        self._lock = threading.RLock()

    @classmethod
    def from_program(cls, name, program):
        """Build from anything with a ``registry()`` — a ``SplitProgram``
        or an imported ``DeployedSplitProgram``."""
        return cls(
            name,
            program.registry(),
            hidden_globals=getattr(program, "hidden_global_inits", None),
            hidden_field_classes=getattr(program, "hidden_field_classes", None),
        )

    def facts(self, fn_id, label):
        """The :class:`FragmentFacts` of fragment ``label`` of split
        function ``fn_id``, derived on the first request."""
        key = (fn_id, label)
        facts = self._facts.get(key)
        if facts is None:
            with self._lock:
                facts = self._facts.get(key)
                if facts is None:
                    fn_name, fragments, storage = self.registry[fn_id]
                    fragment = fragments.get(label)
                    if fragment is None:
                        raise RuntimeErr(
                            "hidden server: %s has no fragment %r"
                            % (fn_name, label)
                        )
                    facts = self._facts[key] = FragmentFacts(
                        fragment, fn_name, storage, self._lock
                    )
        return facts

    def client_facts(self):
        """What a client needs to know about this program, derived on
        first use and shared by every handshake: split classes, one-way
        calls (``{fn_id: [label, ...]}``, so a batching client knows what
        it may coalesce), and the ``functions`` name -> id map a
        log-replay client resolves recorded names with."""
        if self._client_facts is None:
            with self._lock:
                if self._client_facts is None:
                    self._client_facts = self._derive_client_facts()
        return self._client_facts

    def _derive_client_facts(self):
        deferrable = {}
        for fn_id, (_name, fragments, _storage) in self.registry.items():
            labels = [label for label in fragments
                      if self.facts(fn_id, label).one_way()]
            if labels:
                deferrable[str(fn_id)] = sorted(labels)
        return {"classes": sorted(self.hidden_field_classes),
                "deferrable": deferrable, "functions": dict(self.functions)}

    def new_server(self, engine=DEFAULT_ENGINE, max_steps=20_000_000,
                   batching=False):
        """A fresh :class:`HiddenServer` over this tenant's facts, with
        private copies of the initial hidden state (see
        :class:`HiddenServer` for the options)."""
        return HiddenServer(self, max_steps=max_steps, batching=batching,
                            engine=engine)

    def new_link(self, channel=None, batching=False, **options):
        """A fresh in-process session: a :class:`~repro.runtime.channel.
        Link` charging ``channel`` (an unrecorded instant one by default)
        in front of a new :class:`HiddenServer` (``options`` as for
        :meth:`new_server`; ``batching`` turns on both halves)."""
        return Link(
            self.new_server(batching=batching, **options),
            channel or Channel(LatencyModel.instant(), record=False),
            {fn_id: name for name, fn_id in self.functions.items()},
            lambda fn_id, label: self.facts(fn_id, label).one_way(),
            batching=batching,
        )


class Activation:
    """Hidden state of one live instance of a split function."""

    __slots__ = ("fn_id", "env", "receiver_oid")

    def __init__(self, fn_id, receiver_oid=None):
        self.fn_id = fn_id
        self.env = {}
        self.receiver_oid = receiver_oid


class HiddenServer:
    """Serves fragment executions for a split program.  It only executes:
    the :class:`~repro.runtime.channel.Link` in front of it (in process,
    or per daemon session) decides what crosses the channel."""

    def __init__(self, tenant, max_steps=20_000_000, batching=False,
                 engine=DEFAULT_ENGINE):
        """Built by :meth:`Tenant.new_server` only: ``tenant`` supplies the
        fragment registry and its derived facts, and the initial values
        of hidden globals (global-hiding mode) and of the hidden fields of
        split classes — per-instance hidden state is created when the open
        component reports ``new`` (the paper's instance-id protocol).

        ``batching`` turns on prefetch (docs/PROTOCOL.md): statements with
        a prefetch plan pull open-memory reads through one
        ``fetch_batch`` callback per statement execution.

        ``engine`` selects the fragment execution strategy (docs/ENGINE.md):
        ``"compiled"`` (default) lowers each fragment to closures on first
        call via :func:`repro.runtime.compile.compile_fragment`;
        ``"codegen"`` emits real Python source per fragment via
        :func:`repro.runtime.codegen.codegen_fragment`; ``"ast"`` walks
        the tree.  All three are observably bit-identical.
        """
        self.tenant = tenant
        self.activations = {}
        self.steps = 0
        self.max_steps = max_steps
        self._next_hid = 1
        self.hidden_globals = dict(tenant.hidden_globals)
        self.instances = {}  # oid -> {hidden field: value}
        self.batching = batching
        self.engine = validate_engine(engine)
        count_engine("hidden", self.engine)
        registry = self._registry = obs.active_registry()
        self._recorder = obs.get_recorder()
        if registry is not None:
            self._m_activations = registry.family(M_ACTIVATIONS)
            self._m_fragment_steps = registry.family(M_FRAGMENT_STEPS)
            self._m_steps = registry.family(M_STEPS)
            self._m_stmts = registry.family(M_STMTS)

    # -- activation management -------------------------------------------------

    def open_activation(self, fn_id, receiver=None):
        if fn_id not in self.tenant.registry:
            raise RuntimeErr("hidden server: unknown function id %r" % fn_id)
        hid = self._next_hid
        self._next_hid += 1
        self.activations[hid] = Activation(
            fn_id, receiver.oid if receiver is not None else None)
        if self._registry is not None:
            self._m_activations.child("open").inc()
        return hid

    def close_activation(self, hid):
        activation = self.activations.pop(hid, None)
        if activation is not None and self._registry is not None:
            self._m_activations.child("close").inc()

    def notify_new_instance(self, obj):
        """The class-splitting instance-id protocol: when the open component
        instantiates a split class, the server creates the corresponding
        hidden field storage under the same instance id.  Returns whether
        the class is split (only then is there anything to report)."""
        fields = self.tenant.hidden_field_classes.get(obj.class_name)
        if fields is None:
            return False
        self.instances[obj.oid] = dict(fields)
        return True

    # -- fragment execution ------------------------------------------------------

    def call(self, hid, label, values, access):
        activation = self.activations.get(hid)
        if activation is None:
            raise RuntimeErr("hidden server: no activation %r" % hid)
        facts = self.tenant.facts(activation.fn_id, label)
        fragment = facts.fragment
        fn_name = facts.fn_name
        if len(values) != len(fragment.params):
            raise RuntimeErr(
                "fragment %s#%d expects %d values, got %d"
                % (fn_name, label, len(fragment.params), len(values))
            )
        env = activation.env
        for name, value in zip(fragment.params, values):
            env[name] = value
        return self._execute(activation, facts, label, access)

    def _execute(self, activation, facts, label, access):
        """Run one call's fragment in ``activation``, reading open memory
        through ``access``, the call's callback window."""
        fragment = facts.fragment
        fn_name = facts.fn_name
        stmt_counts = {} if self._registry is not None else None
        steps_before = self.steps
        wall_t0 = time.perf_counter() if self._recorder is not None else 0.0
        stmt_prefetch, result_reads = None, ()
        if self.batching and access is not None:
            stmt_prefetch, result_reads = facts.prefetch()
        evaluator = _FragmentEvaluator(
            self, activation.env, access, fn_name, facts.storage,
            activation.receiver_oid, stmt_counts=stmt_counts,
            prefetch_map=stmt_prefetch,
        )
        compiled = (
            facts.body(self.engine, self._registry is not None)
            if self.engine != "ast"
            else None
        )
        try:
            if compiled is not None:
                for thunk in compiled.body:
                    thunk(evaluator)
            else:
                for stmt in fragment.body:
                    evaluator.exec_stmt(stmt)
            if fragment.result_expr is not None:
                try:
                    # inside the clearing scope: a prefetch aborting after
                    # partially populating the batch cache must not leak
                    # entries into later statements (see prefetch_reads)
                    if result_reads:
                        evaluator.prefetch_reads(result_reads)
                    if compiled is not None:
                        result = compiled.result(evaluator)
                    else:
                        result = evaluator.eval_expr(fragment.result_expr)
                finally:
                    evaluator.clear_batch_cache()
                if fragment.kind == FragmentKind.PRED:
                    result = bool(result)
            else:
                result = 0  # the paper's "any" value
        finally:
            # flush even when the fragment aborts (step limit, runtime
            # error) — partial step/statement counts would otherwise be
            # dropped from the registry
            self._account(fn_name, label, stmt_counts,
                          self.steps - steps_before, wall_t0)
        return result

    def _account(self, fn_name, label, stmt_counts, steps, wall_t0):
        """One call's metrics and flight-recorder event (an aborted
        execution's too)."""
        if self._registry is not None:
            self._m_fragment_steps.child(fn_name, str(label)).observe(steps)
            self._m_steps.child("hidden").inc(steps)
            stmts = self._m_stmts
            for kind, count in stmt_counts.items():
                stmts.child("hidden", kind).inc(count)
        if self._recorder is not None:
            self._recorder.fragment(
                fn_name, str(label), steps,
                wall_us=round((time.perf_counter() - wall_t0) * 1e6, 1),
            )

    def _tick(self):
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise RuntimeErr("hidden server exceeded %d steps" % self.max_steps)


class _FragmentEvaluator:
    """Statement/expression evaluation inside a hidden fragment.

    Scalar name resolution: hidden globals and hidden fields (per the
    fragment's storage map) live in server-wide / per-instance stores; all
    other names are activation-local (parameters and hidden locals).
    """

    def __init__(self, server, env, access, fn_name, storage_map=None,
                 receiver_oid=None, stmt_counts=None, prefetch_map=None):
        self.server = server
        self.env = env
        self.access = access
        self.fn_name = fn_name
        self.storage_map = storage_map or {}
        self.receiver_oid = receiver_oid
        self.stmt_counts = stmt_counts
        #: id(stmt) -> [read nodes] from the fragment's prefetch plan
        self.prefetch_map = prefetch_map
        #: id(read node) -> prefetched value, valid for one statement
        self._batch_cache = {}

    def _read_name(self, name):
        kind = self.storage_map.get(name)
        if kind == "global":
            return self.server.hidden_globals.get(name, 0)
        if kind == "field":
            fields = self._instance_fields()
            return fields.get(name, 0)
        if name in self.env:
            return self.env[name]
        # Hidden variable read before any write: mirrors a default-
        # initialised local (the open program was type checked).
        return 0

    def _write_name(self, name, value):
        kind = self.storage_map.get(name)
        if kind == "global":
            self.server.hidden_globals[name] = value
            return
        if kind == "field":
            self._instance_fields()[name] = value
            return
        self.env[name] = value

    def _instance_fields(self):
        if self.receiver_oid is None:
            raise RuntimeErr(
                "hidden fragment of %s touches hidden fields without an "
                "instance id" % self.fn_name
            )
        fields = self.server.instances.get(self.receiver_oid)
        if fields is None:
            raise RuntimeErr(
                "hidden server has no instance %r (was 'new' reported?)"
                % self.receiver_oid
            )
        return fields

    # -- statements ---------------------------------------------------------------

    def exec_body(self, body):
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt):
        self.server._tick()
        counts = self.stmt_counts
        if counts is not None:
            kind = type(stmt).__name__
            counts[kind] = counts.get(kind, 0) + 1
        reads = (
            self.prefetch_map.get(id(stmt)) if self.prefetch_map else None
        )
        if reads is None:
            return self._dispatch_stmt(stmt)
        # callback batching: pull every open-memory read this statement
        # performs in one fetch_batch round trip (re-issued per execution,
        # so loop bodies batch on every iteration)
        self.prefetch_reads(reads)
        try:
            return self._dispatch_stmt(stmt)
        finally:
            self.clear_batch_cache()

    def _dispatch_stmt(self, stmt):
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self.eval_expr(stmt.init)
                if isinstance(stmt.var_type, ast.FloatType) and isinstance(value, int):
                    value = float(value)
                self.env[stmt.name] = value
            else:
                self.env[stmt.name] = default_value(stmt.var_type)
            return
        if isinstance(stmt, ast.Assign):
            # a fragment assigns only to names (HiddenFragment refuses
            # stores into open memory)
            self._write_name(stmt.target.name, self.eval_expr(stmt.value))
            return
        if isinstance(stmt, ast.If):
            if self._truthy(self.eval_expr(stmt.cond)):
                self.exec_body(stmt.then_body)
            else:
                self.exec_body(stmt.else_body)
            return
        if isinstance(stmt, ast.While):
            while self._truthy(self.eval_expr(stmt.cond)):
                self.server._tick()
                try:
                    self.exec_body(stmt.body)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while stmt.cond is None or self._truthy(self.eval_expr(stmt.cond)):
                self.server._tick()
                try:
                    self.exec_body(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.update is not None:
                    self.exec_stmt(stmt.update)
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, ast.Block):
            self.exec_body(stmt.body)
            return
        raise RuntimeErr("hidden fragment cannot execute %r" % (stmt,))

    def _truthy(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        raise RuntimeErr("hidden fragment: condition is not a bool: %r" % (value,))

    # -- expressions -----------------------------------------------------------------

    def eval_expr(self, expr):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._read_name(expr.name)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "&&":
                return self._truthy(self.eval_expr(expr.left)) and self._truthy(
                    self.eval_expr(expr.right)
                )
            if expr.op == "||":
                return self._truthy(self.eval_expr(expr.left)) or self._truthy(
                    self.eval_expr(expr.right)
                )
            return binary_op(expr.op, self.eval_expr(expr.left), self.eval_expr(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return unary_op(expr.op, self.eval_expr(expr.operand))
        if isinstance(expr, ast.Call):
            if expr.name not in BUILTIN_SIGNATURES:
                raise RuntimeErr(
                    "hidden fragment may not call function %r" % expr.name
                )
            return call_builtin(expr.name, [self.eval_expr(a) for a in expr.args])
        if isinstance(expr, ast.Index):
            if self._batch_cache:
                cached = self._batch_cache.get(id(expr), _MISSING)
                if cached is not _MISSING:
                    return cached
            if not isinstance(expr.base, ast.VarRef):
                raise RuntimeErr("hidden fragment: complex array base")
            index = self.eval_expr(expr.index)
            return self.access.fetch_index(expr.base.name, index)
        if isinstance(expr, ast.FieldAccess):
            if self._batch_cache:
                cached = self._batch_cache.get(id(expr), _MISSING)
                if cached is not _MISSING:
                    return cached
            if not isinstance(expr.obj, ast.VarRef):
                raise RuntimeErr("hidden fragment: complex field object")
            return self.access.fetch_field(expr.obj.name, expr.name)
        raise RuntimeErr("hidden fragment cannot evaluate %r" % (expr,))

    # -- callbacks into open memory -----------------------------------------------------

    def prefetch_reads(self, reads):
        """Fetch a planned statement's reads through one batched callback.

        Index expressions are evaluated here, at statement entry — by
        the plan's eligibility rules they are pure and aggregate-free, so this
        matches what the inline evaluation would have computed.  Fetched
        values are cached per read *node*; :meth:`eval_expr` consumes the
        cache instead of issuing individual callbacks.  The reply has one
        value per read: the Link's window refuses any other arity, which
        would partially populate the cache and silently fall back to
        unbatched callbacks.
        """
        try:
            items = []
            for node in reads:
                if isinstance(node, ast.Index):
                    items.append(
                        ("index", node.base.name, self.eval_expr(node.index))
                    )
                else:
                    items.append(("field", node.obj.name, node.name))
            values = self.access.fetch_batch(items)
            for node, value in zip(reads, values):
                self._batch_cache[id(node)] = value
        except BaseException:
            # an abort mid-prefetch (bad reply, failed callback, step
            # limit) leaves no stale entries for later statements
            self.clear_batch_cache()
            raise

    def clear_batch_cache(self):
        self._batch_cache.clear()


# -- profiling frame tags ------------------------------------------------------
# Every hidden fragment executes inside one ``HiddenServer.call`` dispatch
# frame; the profiler resolves the fragment identity and engine from the
# frame's locals (the codegen tier additionally tags its generated
# ``__frag`` code objects statically, giving the same row name).


def _server_call_tag(frame):
    loc = frame.f_locals
    server = loc.get("self")
    label = loc.get("label")
    if server is None or label is None:
        return None
    return ("fragment#%s" % (label,), server.engine, "hidden")


_profile.register_resolver(HiddenServer.call.__code__, _server_call_tag)
# fragment execution itself happens one frame down, in _execute
_profile.register_resolver(HiddenServer._execute.__code__, _server_call_tag)
