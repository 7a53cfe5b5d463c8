"""The splitting transformation (Section 2.2, "Function Splitting Details").

Given a function ``f`` and a local scalar variable ``v``, the splitter
computes ``Slice(f, v)`` and rewrites ``f`` into:

* an **open component** ``Of`` — same signature, installed on the unsecure
  machine — whose references to hidden variables are replaced by calls to
  the hidden component, and

* a **hidden component** ``Hf`` — a set of labelled fragments executed on
  the secure device, holding the hidden variables and the slice statements.

Statement treatment follows the paper's four cases:

(i)   whole statement in ``Hf``: runs of such statements (and fully hidden
      control constructs) become single ``stmts`` fragments;
(ii)  only the lhs in ``Hf`` (rhs contains a call): ``Of`` evaluates the rhs
      and sends the value (a ``set`` fragment);
(iii) only the rhs in ``Hf`` (lhs is an array element / field / ``return``):
      an ``expr`` fragment computes the value, ``Of`` stores it — an
      information leak point.  ``Hf`` therefore never writes open memory:
      :class:`~repro.core.hidden.HiddenFragment` refuses a body that
      would, and the splitter reports that as a :class:`SplitError`;
(iv)  neither: the statement stays in ``Of``, with hidden-variable reads
      replaced by ``get`` fragment fetches.

Control flow hiding: a construct all of whose statements are case (i) moves
entirely into a fragment (its predicate and flow become hidden); a construct
that stays open but whose condition reads hidden variables gets its
predicate evaluated by a ``pred`` fragment (the leaked boolean is an ILP of
*Arbitrary* arithmetic complexity — the dominant source of Arbitrary ILPs in
Table 3).

The open component communicates through three reserved builtins:

* ``hopen(fn_id)`` — create a hidden activation, returns an instance id
  (the paper's mechanism for distinguishing simultaneous instances of a
  split recursive function);
* ``hcall(hid, label, v0, v1, ...)`` — execute fragment ``label`` with the
  given value array; returns the fragment's single result value;
* ``hclose(hid)`` — discard the activation.
"""

from repro.lang import ast
from repro.lang.clone import clone_expr, clone_stmt
from repro.lang.typecheck import BUILTIN_SIGNATURES
from repro.analysis.slicing import (
    SliceKind,
    _contains_call,
    forward_slice,
    union_slices,
)
from repro.core.hidden import FragmentKind, HiddenFragment, ILPSite, SplitFunction

RESERVED_NAMES = ("hopen", "hclose", "hcall")

# slicing's call/allocation detector is the single source of truth
_contains_nonbuiltin_call = _contains_call

HID = "__hid"


class SplitOptions:
    """Knobs for the transformation (used by the ablation benchmarks)."""

    def __init__(self, hide_control_flow=True, hide_predicates=True,
                 label_seed=None, cache_fetches=False):
        #: move fully sliced constructs (loops/branches) into ``Hf``
        self.hide_control_flow = hide_control_flow
        #: evaluate open-construct conditions that read hidden variables as
        #: ``pred`` fragments; when False, each hidden variable is fetched
        #: individually instead (leaking raw values — weaker, cheaper)
        self.hide_predicates = hide_predicates
        #: permute fragment labels with this seed so their numbering does
        #: not reveal the original statement order (a cheap hardening pass;
        #: None keeps allocation order)
        self.label_seed = label_seed
        #: communication optimisation: reuse a fetched hidden value along
        #: straight-line open code until a hidden-side write can invalidate
        #: it (fewer round trips, one fewer leak site per reuse).  Off by
        #: default — the paper fetches per use.
        self.cache_fetches = cache_fetches


class SplitError(Exception):
    """Raised when a function/variable combination cannot be split."""


class SplitInvariantError(SplitError):
    """Raised when the splitter built a component that breaks one of its
    own invariants: a bug in the splitter, not a property of the choice,
    so variable selection must not skip it as an unsplittable candidate."""


def split_function(fn, var, analysis, fn_id=0, options=None,
                   hidden_storage=None, storage_class=None):
    """Split ``fn`` on ``var``.

    ``var`` may be a single scalar local or a list of them (multi-variable
    hiding via slice union); in the global-hiding and
    class-splitting modes it may instead be a name listed in
    ``hidden_storage`` — non-local scalars (globals or fields of the
    method's class) whose storage lives on the secure side
    (``storage_class`` is ``"global"`` or ``"field"``).

    ``analysis`` is the function's
    :class:`~repro.analysis.function.FunctionAnalysis`.  Returns a
    :class:`~repro.core.hidden.SplitFunction`.

    With telemetry enabled, each invocation (including trial splits during
    variable selection) is profiled as a ``rewrite`` tracer span.
    """
    from repro import obs

    with obs.span("rewrite", fn=fn.name):
        return _split_function(fn, var, analysis, fn_id=fn_id, options=options,
                               hidden_storage=hidden_storage,
                               storage_class=storage_class)


def _split_function(fn, var, analysis, fn_id=0, options=None,
                    hidden_storage=None, storage_class=None):
    options = options or SplitOptions()
    hidden_storage = frozenset(hidden_storage or ())
    local_types = analysis.local_types
    variables = [var] if isinstance(var, str) else list(var)
    if not variables:
        raise SplitError("no variable chosen for splitting")
    for name in variables:
        if name in hidden_storage:
            continue
        t = local_types.get(name)
        if t is None or not ast.is_scalar_type(t):
            raise SplitError("%r is not a scalar local of %s" % (name, fn.name))
    for reserved in RESERVED_NAMES:
        if reserved in local_types:
            raise SplitError("function uses reserved name %r" % reserved)
    slices = [
        forward_slice(fn, name, analysis.defuse, local_types, hidden_storage)
        for name in variables
    ]
    slice_ = slices[0] if len(slices) == 1 else union_slices(slices)
    return _Splitter(
        fn, slice_.var, analysis, slice_, fn_id, options, hidden_storage, storage_class
    ).run()


def rewrite_references_only(fn, names, analysis, fn_id=0, options=None,
                            storage_class="global"):
    """The paper's fallback for functions that do not meet the splitting
    characteristics: no slicing — every reference to a hidden global/field
    becomes an update or fetch call ("corresponding to each reference to
    the global variable, an appropriate call to a hidden function is made").

    Implemented as a split with an *empty* slice whose hidden set is just
    ``names``: the rewrite machinery then fetches every read and sends
    every write.
    """
    from repro.analysis.slicing import Slice

    options = options or SplitOptions()
    names = frozenset(names)
    empty = Slice(fn, sorted(names)[0])
    empty.hidden_vars = set(names)
    return _Splitter(
        fn, sorted(names)[0], analysis, empty, fn_id, options, names, storage_class
    ).run()


class _Splitter:
    def __init__(self, fn, var, analysis, slice_, fn_id, options,
                 hidden_storage=frozenset(), storage_class=None):
        self.fn = fn
        self.var = var
        self.analysis = analysis
        self.slice = slice_
        self.fn_id = fn_id
        self.options = options
        self.hidden_storage = frozenset(hidden_storage)
        self.storage_class = storage_class
        self.hidden_vars = set(slice_.hidden_vars) | set(hidden_storage)
        self.fragments = {}
        self.ilps = []
        self.hidden_constructs = set()
        self.pred_constructs = set()
        self._label_counter = 0
        self._temp_counter = 0
        self._get_labels = {}
        self._set_labels = {}
        self._fetched = set()  # vars ever fetched by Of
        self._sent = set()  # vars ever set from Of
        self._fetch_cache = {}  # var -> temp holding its still-valid value
        self._hideable = {}  # (construct, in_hidden_loop) -> bool
        self._subtrees = {}  # construct -> set of its statements

    # -- small helpers -------------------------------------------------------

    def _new_label(self):
        label = self._label_counter
        self._label_counter += 1
        return label

    def _new_temp(self, prefix="__t"):
        self._temp_counter += 1
        return "%s%d" % (prefix, self._temp_counter)

    def _hcall(self, label, args):
        return ast.Call("hcall", [ast.VarRef(HID), ast.IntLit(label)] + list(args))

    def _is_hidden(self, name):
        return name in self.hidden_vars

    def _local_type(self, name):
        return self.analysis.local_types.get(name)

    # -- fragment creation ---------------------------------------------------

    def _collect_open_reads(self, roots):
        """Open scalar variable names read inside cloned fragment code.

        Array bases of ``Index`` nodes and object receivers of field reads
        are *not* collected: the hidden interpreter resolves them through
        client callbacks.
        """
        names = []
        seen = set()

        def visit(expr):
            if expr is None:
                return
            if isinstance(expr, ast.VarRef):
                if not self._is_hidden(expr.name) and expr.name not in seen:
                    t = self._local_type(expr.name)
                    if t is None or ast.is_scalar_type(t):
                        seen.add(expr.name)
                        names.append(expr.name)
                return
            if isinstance(expr, ast.Index):
                # Skip the base variable: accessed by callback.
                if not isinstance(expr.base, ast.VarRef):
                    visit(expr.base)
                visit(expr.index)
                return
            if isinstance(expr, ast.FieldAccess):
                if not isinstance(expr.obj, ast.VarRef):
                    visit(expr.obj)
                return
            if isinstance(expr, ast.BinaryOp):
                visit(expr.left)
                visit(expr.right)
            elif isinstance(expr, ast.UnaryOp):
                visit(expr.operand)
            elif isinstance(expr, ast.Call):
                for a in expr.args:
                    visit(a)
            elif isinstance(expr, ast.NewArray):
                visit(expr.size)

        def visit_stmt(stmt):
            for e in ast.child_expr_lists(stmt):
                visit(e)
            for body in ast.child_stmt_lists(stmt):
                for s in body:
                    visit_stmt(s)

        for root in roots:
            if isinstance(root, ast.Stmt):
                visit_stmt(root)
            else:
                visit(root)
        return names

    def _make_stmts_fragment(self, source_stmts):
        body = [clone_stmt(s) for s in source_stmts]
        params = self._collect_open_reads(body)
        label = self._new_label()
        try:
            frag = HiddenFragment(
                label,
                FragmentKind.STMTS,
                params=params,
                param_exprs=[ast.VarRef(p) for p in params],
                body=body,
                source_stmts=list(source_stmts),
            )
        except ValueError as exc:  # a store into open memory
            raise SplitInvariantError(str(exc)) from None
        self.fragments[label] = frag
        return frag

    def _make_expr_fragment(self, expr, source_stmt):
        result = clone_expr(expr)
        params = self._collect_open_reads([result])
        label = self._new_label()
        frag = HiddenFragment(
            label,
            FragmentKind.EXPR,
            params=params,
            param_exprs=[ast.VarRef(p) for p in params],
            result_expr=result,
            source_stmts=[source_stmt] if source_stmt is not None else [],
        )
        self.fragments[label] = frag
        return frag

    def _make_pred_fragment(self, cond, construct):
        result = clone_expr(cond)
        params = self._collect_open_reads([result])
        label = self._new_label()
        frag = HiddenFragment(
            label,
            FragmentKind.PRED,
            params=params,
            param_exprs=[ast.VarRef(p) for p in params],
            result_expr=result,
            source_stmts=[construct],
        )
        self.fragments[label] = frag
        return frag

    def _get_fragment(self, name):
        if name not in self._get_labels:
            label = self._new_label()
            frag = HiddenFragment(
                label, FragmentKind.GET, result_expr=ast.VarRef(name)
            )
            self.fragments[label] = frag
            self._get_labels[name] = label
        return self.fragments[self._get_labels[name]]

    def _set_fragment(self, name):
        if name not in self._set_labels:
            label = self._new_label()
            frag = HiddenFragment(
                label,
                FragmentKind.SET,
                params=["__value"],
                body=[ast.Assign(ast.VarRef(name), ast.VarRef("__value"))],
                set_var=name,
            )
            self.fragments[label] = frag
            self._set_labels[name] = label
        return self.fragments[self._set_labels[name]]

    # -- open-side expression rewriting ---------------------------------------

    def _rewrite_open_expr(self, expr, original_stmt, pre):
        """Clone ``expr`` for the open component, replacing hidden-variable
        reads with ``get`` fetches; fetch statements are appended to ``pre``.
        Returns the rewritten expression."""
        fetched = {}
        cache_ok = self.options.cache_fetches

        def rewrite(e):
            if e is None:
                return None
            if isinstance(e, ast.VarRef):
                if self._is_hidden(e.name):
                    if e.name in self.hidden_storage:
                        # Hidden globals/fields can be updated by calls made
                        # in this very statement; a hoisted fetch would read
                        # a stale value.  Embed the fetch in place so it
                        # evaluates in the original left-to-right order.
                        frag = self._get_fragment(e.name)
                        self._fetched.add(e.name)
                        self.ilps.append(
                            ILPSite(
                                frag.label,
                                "value",
                                frag,
                                original_stmt=original_stmt,
                                leaked_var=e.name,
                            )
                        )
                        return self._hcall(frag.label, [])
                    if cache_ok and e.name in self._fetch_cache:
                        return ast.VarRef(self._fetch_cache[e.name])
                    if e.name not in fetched:
                        temp = self._new_temp("__f")
                        frag = self._get_fragment(e.name)
                        self._fetched.add(e.name)
                        pre.append(
                            ast.Assign(ast.VarRef(temp), self._hcall(frag.label, []))
                        )
                        self.ilps.append(
                            ILPSite(
                                frag.label,
                                "value",
                                frag,
                                original_stmt=original_stmt,
                                leaked_var=e.name,
                            )
                        )
                        fetched[e.name] = temp
                        # hidden globals/fields can be written by callees;
                        # only activation-local values are safely cacheable
                        if cache_ok and e.name not in self.hidden_storage:
                            self._fetch_cache[e.name] = temp
                    return ast.VarRef(fetched[e.name])
                return ast.VarRef(e.name, e.binding)
            if isinstance(e, ast.BinaryOp):
                return ast.BinaryOp(e.op, rewrite(e.left), rewrite(e.right))
            if isinstance(e, ast.UnaryOp):
                return ast.UnaryOp(e.op, rewrite(e.operand))
            if isinstance(e, ast.Call):
                return ast.Call(e.name, [rewrite(a) for a in e.args])
            if isinstance(e, ast.MethodCall):
                return ast.MethodCall(rewrite(e.receiver), e.name, [rewrite(a) for a in e.args])
            if isinstance(e, ast.Index):
                return ast.Index(rewrite(e.base), rewrite(e.index))
            if isinstance(e, ast.FieldAccess):
                return ast.FieldAccess(rewrite(e.obj), e.name)
            if isinstance(e, ast.NewArray):
                return ast.NewArray(e.elem_type, rewrite(e.size))
            return clone_expr(e)

        return rewrite(expr)

    # -- control-construct hideability ----------------------------------------

    def _cond_hideable(self, cond):
        if cond is None:
            return False
        for e in ast.walk_exprs(cond):
            if isinstance(e, ast.Call) and e.name not in BUILTIN_SIGNATURES:
                return False
            if isinstance(e, (ast.MethodCall, ast.NewArray, ast.NewObject)):
                return False
        return True

    def _construct_fully_hideable(self, stmt, in_hidden_loop=False):
        """Whether ``stmt`` may move into ``Hf`` whole; judged once per
        ``(stmt, in_hidden_loop)``, as nothing it reads changes while the
        splitter runs."""
        key = (stmt, in_hidden_loop)
        verdict = self._hideable.get(key)
        if verdict is None:
            verdict = self._hideable[key] = self._judge_construct(
                stmt, in_hidden_loop)
        return verdict

    def _judge_construct(self, stmt, in_hidden_loop):
        if not self.options.hide_control_flow:
            return False
        if isinstance(stmt, ast.While):
            return self._cond_hideable(stmt.cond) and self._body_all_hideable(
                stmt.body, in_hidden_loop=True
            )
        if isinstance(stmt, ast.If):
            return (
                self._cond_hideable(stmt.cond)
                and self._body_all_hideable(stmt.then_body, in_hidden_loop)
                and self._body_all_hideable(stmt.else_body, in_hidden_loop)
            )
        if isinstance(stmt, ast.For):
            for part in (stmt.init, stmt.update):
                if part is None or self.slice.kind_of(part) == SliceKind.FULL:
                    continue
                if self._private_induction_var(part, stmt) is None:
                    return False
            return self._cond_hideable(stmt.cond) and self._body_all_hideable(
                stmt.body, in_hidden_loop=True
            )
        return False

    def _private_induction_var(self, part, construct):
        """A for-header statement outside the slice may still move with the
        construct when it only manages a loop-private scalar (the classic
        induction variable): every reference to the variable lies inside the
        construct and the statement is otherwise hideable.  Returns the
        variable name, or ``None``."""
        if isinstance(part, ast.VarDecl):
            name, rhs = part.name, part.init
        elif isinstance(part, ast.Assign) and isinstance(part.target, ast.VarRef):
            if part.target.binding not in (None, "local"):
                return None
            name, rhs = part.target.name, part.value
        else:
            return None
        t = self._local_type(name)
        if t is None or not ast.is_scalar_type(t):
            return None
        if rhs is not None and _contains_nonbuiltin_call(rhs):
            return None
        subtree = self._subtrees.get(construct)
        if subtree is None:
            # walk_stmts includes every For header
            subtree = self._subtrees[construct] = set(
                ast.walk_stmts([construct]))
        if not self.analysis.defuse.stmts_referencing(name) <= subtree:
            return None
        return name

    def _promote_private_vars(self, stmt):
        """Pull loop-private induction variables of an absorbed construct
        into the hidden set so fragment parameter collection skips them."""
        for inner in ast.walk_stmts([stmt]):
            if not isinstance(inner, ast.For):
                continue
            for part in (inner.init, inner.update):
                if part is None or self.slice.kind_of(part) == SliceKind.FULL:
                    continue
                name = self._private_induction_var(part, inner)
                if name is not None:
                    self.hidden_vars.add(name)

    def _body_all_hideable(self, body, in_hidden_loop=False):
        for s in body:
            if isinstance(s, (ast.If, ast.While, ast.For)):
                if not self._construct_fully_hideable(s, in_hidden_loop):
                    return False
            elif isinstance(s, (ast.Break, ast.Continue)):
                # break/continue may move only when the loop they target is
                # part of the same hidden region
                if not in_hidden_loop:
                    return False
            elif isinstance(s, ast.Block):
                if not self._body_all_hideable(s.body, in_hidden_loop):
                    return False
            elif self.slice.kind_of(s) != SliceKind.FULL:
                return False
        return True

    def _contains_slice_stmt(self, stmt):
        for s in ast.walk_stmts([stmt]):
            if s in self.slice.statements:
                return True
            if s in self.slice.cond_statements:
                return True
        return False

    def _is_hideable_unit(self, stmt):
        if isinstance(stmt, (ast.If, ast.While, ast.For)):
            return self._construct_fully_hideable(stmt) and self._contains_slice_stmt(stmt)
        if isinstance(stmt, ast.VarDecl) and stmt.init is None:
            return False  # bare hidden declarations are simply dropped from Of
        if isinstance(stmt, (ast.VarDecl, ast.Assign)):
            return self.slice.kind_of(stmt) == SliceKind.FULL
        return False

    # -- statement rewriting ---------------------------------------------------

    def run(self):
        body = [ast.Assign(ast.VarRef(HID), ast.Call("hopen", [ast.IntLit(self.fn_id)]))]
        # Hidden parameters: the secure side needs their initial values.
        for p in self.fn.params:
            if self._is_hidden(p.name):
                frag = self._set_fragment(p.name)
                self._sent.add(p.name)
                body.append(
                    ast.CallStmt(self._hcall(frag.label, [ast.VarRef(p.name)]))
                )
        body.extend(self._rewrite_body(self.fn.body))
        body.append(ast.CallStmt(ast.Call("hclose", [ast.VarRef(HID)])))

        open_fn = ast.Function(
            self.fn.name,
            [ast.Param(p.param_type, p.name) for p in self.fn.params],
            self.fn.ret_type,
            body,
            owner=self.fn.owner,
        )
        if self.options.label_seed is not None:
            body = self._shuffle_labels(body)
        hidden_params = {p.name for p in self.fn.params if self._is_hidden(p.name)}
        partially = (self._fetched | self._sent | hidden_params) & self.hidden_vars
        fully = self.hidden_vars - partially
        storage_map = {}
        if self.storage_class is not None:
            for name in self.hidden_storage:
                storage_map[name] = self.storage_class
        return SplitFunction(
            self.fn,
            open_fn,
            self.fragments,
            self.hidden_vars,
            fully,
            partially,
            self.ilps,
            self.slice,
            self.hidden_constructs,
            self.pred_constructs,
            storage_map=storage_map,
        )

    def _shuffle_labels(self, body):
        """Renumber fragments with a seeded permutation and patch every
        emitted ``hcall`` literal accordingly."""
        import random

        labels = sorted(self.fragments)
        shuffled = list(labels)
        random.Random(self.options.label_seed).shuffle(shuffled)
        mapping = dict(zip(labels, shuffled))

        new_fragments = {}
        for old, frag in self.fragments.items():
            frag.label = mapping[old]
            new_fragments[frag.label] = frag
        self.fragments = new_fragments
        for ilp in self.ilps:
            ilp.label = mapping[ilp.label]

        for stmt in ast.walk_stmts(body):
            for expr in ast.stmt_exprs(stmt):
                if (
                    isinstance(expr, ast.Call)
                    and expr.name == "hcall"
                    and isinstance(expr.args[1], ast.IntLit)
                ):
                    expr.args[1].value = mapping[expr.args[1].value]
        return body

    def _rewrite_body(self, stmts):
        out = []
        run = []

        def flush():
            if not run:
                return
            self._fetch_cache.clear()
            frag = self._make_stmts_fragment(run)
            self.hidden_constructs.update(
                s
                for s in ast.walk_stmts(list(run))
                if isinstance(s, (ast.If, ast.While, ast.For))
            )
            out.append(ast.CallStmt(self._hcall(frag.label, frag.param_exprs)))
            del run[:]

        for stmt in stmts:
            if self._is_hideable_unit(stmt):
                self._promote_private_vars(stmt)
                run.append(stmt)
                continue
            flush()
            out.extend(self._rewrite_stmt(stmt))
        flush()
        return out

    def _rewrite_stmt(self, stmt):
        kind = self.slice.kind_of(stmt)
        if isinstance(stmt, (ast.VarDecl, ast.Assign)):
            return self._rewrite_simple(stmt, kind)
        if isinstance(stmt, ast.Return):
            return self._rewrite_return(stmt, kind)
        if isinstance(stmt, ast.Print):
            return self._rewrite_print(stmt, kind)
        if isinstance(stmt, ast.CallStmt):
            pre = []
            call = self._rewrite_open_expr(stmt.call, stmt, pre)
            return pre + [ast.CallStmt(call)]
        if isinstance(stmt, ast.If):
            return self._rewrite_if(stmt)
        if isinstance(stmt, ast.While):
            return self._rewrite_while(stmt)
        if isinstance(stmt, ast.For):
            return self._rewrite_for(stmt)
        if isinstance(stmt, ast.Block):
            return [ast.Block(self._rewrite_body(stmt.body))]
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return [clone_stmt(stmt)]
        raise SplitError("cannot rewrite %r" % (stmt,))

    def _rewrite_simple(self, stmt, kind):
        """VarDecl / Assign outside any hidden run."""
        target = stmt.target if isinstance(stmt, ast.Assign) else None
        rhs = stmt.value if isinstance(stmt, ast.Assign) else stmt.init
        defined = None
        if isinstance(stmt, ast.VarDecl):
            defined = stmt.name
        elif isinstance(target, ast.VarRef) and target.binding in (None, "local"):
            defined = target.name
        elif isinstance(target, ast.VarRef) and target.name in self.hidden_storage:
            defined = target.name

        if defined is not None and self._is_hidden(defined):
            if rhs is None:
                return []  # bare declaration of a hidden variable: moves to Hf
            # Case (ii) / step 4 (definition of a partially hidden variable):
            # evaluate the rhs openly, send the value.
            frag = self._set_fragment(defined)
            self._sent.add(defined)
            pre = []
            value = self._rewrite_open_expr(rhs, stmt, pre)
            self._fetch_cache.pop(defined, None)
            return pre + [ast.CallStmt(self._hcall(frag.label, [value]))]

        if kind == SliceKind.RHS and rhs is not None:
            # Case (iii): rhs computed hidden-side, Of stores the result.
            frag = self._make_expr_fragment(rhs, stmt)
            self.ilps.append(
                ILPSite(frag.label, "value", frag, original_stmt=stmt, leaked_expr=rhs)
            )
            pre = []
            new_target = self._rewrite_open_expr(target, stmt, pre)
            return pre + [
                ast.Assign(new_target, self._hcall(frag.label, frag.param_exprs))
            ]

        # Case (iv): stays open; hidden reads become fetches.
        pre = []
        if isinstance(stmt, ast.VarDecl):
            new_init = self._rewrite_open_expr(rhs, stmt, pre) if rhs is not None else None
            return pre + [ast.VarDecl(stmt.var_type, stmt.name, new_init)]
        new_target = self._rewrite_open_expr(target, stmt, pre)
        new_value = self._rewrite_open_expr(rhs, stmt, pre)
        return pre + [ast.Assign(new_target, new_value)]

    def _rewrite_return(self, stmt, kind):
        out = []
        if stmt.value is None:
            out.append(ast.CallStmt(ast.Call("hclose", [ast.VarRef(HID)])))
            out.append(ast.Return(None))
            return out
        temp = self._new_temp("__r")
        if kind == SliceKind.RHS:
            frag = self._make_expr_fragment(stmt.value, stmt)
            self.ilps.append(
                ILPSite(
                    frag.label,
                    "return",
                    frag,
                    original_stmt=stmt,
                    leaked_expr=stmt.value,
                )
            )
            out.append(
                ast.Assign(ast.VarRef(temp), self._hcall(frag.label, frag.param_exprs))
            )
        else:
            pre = []
            value = self._rewrite_open_expr(stmt.value, stmt, pre)
            out.extend(pre)
            out.append(ast.Assign(ast.VarRef(temp), value))
        out.append(ast.CallStmt(ast.Call("hclose", [ast.VarRef(HID)])))
        out.append(ast.Return(ast.VarRef(temp)))
        return out

    def _rewrite_print(self, stmt, kind):
        if kind == SliceKind.RHS:
            frag = self._make_expr_fragment(stmt.value, stmt)
            self.ilps.append(
                ILPSite(
                    frag.label, "value", frag, original_stmt=stmt, leaked_expr=stmt.value
                )
            )
            return [ast.Print(self._hcall(frag.label, frag.param_exprs))]
        pre = []
        value = self._rewrite_open_expr(stmt.value, stmt, pre)
        return pre + [ast.Print(value)]

    def _cond_reads_hidden(self, cond):
        if cond is None:
            return False
        return any(
            isinstance(e, ast.VarRef) and self._is_hidden(e.name)
            for e in ast.walk_exprs(cond)
        )

    def _rewrite_cond(self, cond, construct):
        """Rewrite a condition that reads hidden variables.

        Returns ``(new_cond, pred_hidden)``.  Conditions become ``pred``
        fragments whenever possible — crucially, an ``hcall`` embedded in
        the condition expression re-evaluates on every loop iteration.
        """
        if not self._cond_reads_hidden(cond):
            return clone_expr(cond), False
        if self.options.hide_predicates and self._cond_hideable(cond):
            frag = self._make_pred_fragment(cond, construct)
            self.pred_constructs.add(construct)
            self.ilps.append(
                ILPSite(
                    frag.label,
                    "pred",
                    frag,
                    original_stmt=construct,
                    leaked_expr=cond,
                    construct=construct,
                )
            )
            return self._hcall(frag.label, frag.param_exprs), True
        # Fallback: fetch each hidden variable through an inline get call.
        # (Inline so loop conditions re-fetch every iteration.)
        new_cond = self._inline_fetch_expr(cond, construct)
        return new_cond, False

    def _inline_fetch_expr(self, expr, original_stmt):
        """Like :meth:`_rewrite_open_expr` but embeds ``get`` calls directly
        in the expression instead of hoisting them into pre-statements."""

        def rewrite(e):
            if e is None:
                return None
            if isinstance(e, ast.VarRef):
                if self._is_hidden(e.name):
                    frag = self._get_fragment(e.name)
                    self._fetched.add(e.name)
                    self.ilps.append(
                        ILPSite(
                            frag.label,
                            "value",
                            frag,
                            original_stmt=original_stmt,
                            leaked_var=e.name,
                        )
                    )
                    return self._hcall(frag.label, [])
                return ast.VarRef(e.name, e.binding)
            if isinstance(e, ast.BinaryOp):
                return ast.BinaryOp(e.op, rewrite(e.left), rewrite(e.right))
            if isinstance(e, ast.UnaryOp):
                return ast.UnaryOp(e.op, rewrite(e.operand))
            if isinstance(e, ast.Call):
                return ast.Call(e.name, [rewrite(a) for a in e.args])
            if isinstance(e, ast.MethodCall):
                return ast.MethodCall(rewrite(e.receiver), e.name, [rewrite(a) for a in e.args])
            if isinstance(e, ast.Index):
                return ast.Index(rewrite(e.base), rewrite(e.index))
            if isinstance(e, ast.FieldAccess):
                return ast.FieldAccess(rewrite(e.obj), e.name)
            return clone_expr(e)

        return rewrite(expr)

    def _rewrite_if(self, stmt):
        new_cond, _ = self._rewrite_cond(stmt.cond, stmt)
        self._fetch_cache.clear()
        then_body = self._rewrite_body(stmt.then_body)
        self._fetch_cache.clear()
        else_body = self._rewrite_body(stmt.else_body)
        self._fetch_cache.clear()
        return [ast.If(new_cond, then_body, else_body)]

    def _rewrite_while(self, stmt):
        new_cond, _ = self._rewrite_cond(stmt.cond, stmt)
        self._fetch_cache.clear()
        body = self._rewrite_body(stmt.body)
        self._fetch_cache.clear()
        return [ast.While(new_cond, body)]

    def _rewrite_for(self, stmt):
        init_needs = stmt.init is not None and self._stmt_touches_hidden(stmt.init)
        update_needs = stmt.update is not None and self._stmt_touches_hidden(stmt.update)
        cond_needs = self._cond_reads_hidden(stmt.cond)
        if not (init_needs or update_needs or cond_needs):
            return [
                ast.For(
                    clone_stmt(stmt.init) if stmt.init is not None else None,
                    clone_expr(stmt.cond),
                    clone_stmt(stmt.update) if stmt.update is not None else None,
                    self._clear_cache_and_rewrite(stmt.body),
                )
            ]
        # Desugar to a while loop so init/update can expand into several
        # statements.  ``continue`` inside the body would skip the update,
        # so reject that combination.
        for inner in ast.walk_stmts(stmt.body):
            if isinstance(inner, ast.Continue):
                raise SplitError(
                    "cannot split for-loop with 'continue' and hidden header"
                )
        out = []
        if stmt.init is not None:
            out.extend(self._rewrite_stmt(stmt.init))
        new_cond, _ = self._rewrite_cond(stmt.cond, stmt) if stmt.cond is not None else (
            ast.BoolLit(True),
            False,
        )
        self._fetch_cache.clear()
        body = self._rewrite_body(stmt.body)
        if stmt.update is not None:
            body.extend(self._rewrite_stmt(stmt.update))
        self._fetch_cache.clear()
        out.append(ast.While(new_cond, body))
        return out

    def _clear_cache_and_rewrite(self, body):
        self._fetch_cache.clear()
        out = self._rewrite_body(body)
        self._fetch_cache.clear()
        return out

    def _stmt_touches_hidden(self, stmt):
        defs = None
        if isinstance(stmt, ast.VarDecl):
            defs = stmt.name
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.VarRef):
            defs = stmt.target.name
        if defs is not None and self._is_hidden(defs):
            return True
        return any(
            isinstance(e, ast.VarRef) and self._is_hidden(e.name)
            for e in ast.stmt_exprs(stmt)
        )
