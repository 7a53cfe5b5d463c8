"""The Fig. 3 algorithm: conservative estimation of ILP arithmetic
complexity by propagating ``<Type, Inputs, Degree>`` triples along def-use
edges of the *original* function, given the hidden/open partition produced
by the splitter.

Key rules, as in the paper:

* ``AC(d_v@n) = EVAL(exp)`` for a definition ``n : v = exp``;
* ``AC(u_b@n) = MIN over reaching definitions of PC(d_b@n', u_b@n)`` —
  MIN because the estimate is a lower bound;
* ``PC`` short-circuits *observable* values: a value assigned in the open
  component — or a hidden definition *definitely leaked* at some open use
  (``LeakedDefn``) — propagates as Constant (compile-time constant) or
  Linear (a fresh observable input), regardless of how it was computed;
* ``RAISE(PC, Iter(L))`` adjusts a value that escapes a loop nest it was
  iteratively accumulated in, based on the arithmetic complexity of the
  loop's trip count.  (We apply RAISE only to definitions participating in
  a loop-carried recurrence — a loop-invariant value does not gain
  complexity from the loop, and the estimate must stay a lower bound;
  multiplicative recurrences raise straight to Arbitrary.)

Observability here is *wire-level*: any value that crosses the channel in
the clear is observable.  That covers values sent by ``Of`` (set fragments,
case (ii) right-hand sides, hidden parameters), values fetched by ``Of``
(get fragments), array elements and fields served to ``Hf`` through
callbacks, and bare-variable expression fragments.
"""

from repro.lang import ast
from repro.analysis.ddg import exits_loop
from repro.analysis.loops import match_counted_loop
from repro.analysis.slicing import SliceKind
from repro.lang.typecheck import BUILTIN_SIGNATURES
from repro.security.lattice import (
    AC,
    CType,
    VARYING,
    ac_max,
    ac_min,
    arbitrary_ac,
    constant_ac,
    eval_binary,
    eval_builtin,
    eval_unary,
    linear_ac,
    raise_by_iteration,
)

_MAX_ROUNDS = 100


class ILPComplexity:
    """Result record: one ILP with its arithmetic (and, once
    :mod:`repro.security.controlflow` has run, control-flow) complexity.

    ``fn_name`` is the qualified name of the split function; together with
    the fragment label it forms :attr:`key`, the stable identity that the
    runtime telemetry uses too."""

    def __init__(self, ilp, ac, cc=None, fn_name=None):
        self.ilp = ilp
        self.ac = ac
        self.cc = cc
        self.fn_name = fn_name

    @property
    def key(self):
        """``(fn, label)`` — matches the ``fn``/``label`` label pair on
        ``repro_channel_values_total`` and ``repro_server_fragment_steps``,
        so runtime observations join to this static estimate
        (:mod:`repro.obs.audit`)."""
        return (self.fn_name or "-", str(self.ilp.label))

    def __repr__(self):
        return "<ILPComplexity %r AC=%r CC=%r>" % (self.ilp, self.ac, self.cc)


def estimate_split_complexities(split, analysis):
    """Estimate ``AC(f_ILP)`` for every ILP of ``split``.

    ``analysis`` is the :class:`~repro.analysis.function.FunctionAnalysis`
    of the *original* function.
    """
    estimator = Estimator(split, analysis)
    fn_name = split.original.qualified_name
    return [
        ILPComplexity(ilp, estimator.ilp_ac(ilp), fn_name=fn_name)
        for ilp in split.ilps
    ]


class Estimator:
    def __init__(self, split, analysis):
        self.split = split
        self.analysis = analysis
        self.defuse = analysis.defuse
        self.cfg = analysis.cfg
        self.loops = analysis.loops
        self.ddg = analysis.ddg
        self.hidden_vars = split.hidden_vars
        self._hidden_exec = self._hidden_executed_statements()
        self._recurrent_cache = {}
        self._iter_cache = {}
        self._iter_in_progress = set()
        self.ac = {}  # Def -> current AC estimate (hidden-executed defs only)
        self._leaked = self._compute_leaked_defs()
        self._solve()

    # -- partition ------------------------------------------------------------

    def _hidden_executed_statements(self):
        """Original statements whose execution happens inside ``Hf``."""
        hidden = set()
        for stmt, kind in self.split.slice.statements.items():
            if kind == SliceKind.FULL:
                hidden.add(stmt)
        for construct in self.split.hidden_constructs:
            for s in ast.walk_stmts([construct]):
                hidden.add(s)
            if isinstance(construct, ast.For):
                if construct.init is not None:
                    hidden.add(construct.init)
                if construct.update is not None:
                    hidden.add(construct.update)
        return hidden

    def _def_executed_hidden(self, d):
        if d.entry:
            # Entry values of hidden parameters are sent over the channel;
            # everything else starts on the open side anyway.
            return False
        return d.node.stmt in self._hidden_exec

    def _compute_leaked_defs(self):
        """Hidden definitions definitely leaked at some open use
        (the paper's ``LeakedDefn``)."""
        leaked = set()
        for use in self.defuse.uses:
            reaching = self.defuse.reaching_defs(use)
            if len(reaching) != 1:
                continue
            d = reaching[0]
            if not self._def_executed_hidden(d):
                continue
            if self._use_surfaces_raw_value(use):
                leaked.add(d)
        return leaked

    def _use_surfaces_raw_value(self, use):
        """Does this use cause the raw value to cross the channel?"""
        node = use.node
        if node.kind == "cond":
            # Either hidden with the construct, or leaked only as a boolean
            # through a pred fragment — never the raw value.
            return False
        stmt = node.stmt
        if stmt in self._hidden_exec:
            return False
        kind = self.split.slice.kind_of(stmt)
        if kind in (SliceKind.USE, SliceKind.LHS):
            return True  # open evaluation fetches the variable's raw value
        if kind == SliceKind.RHS:
            # The fragment returns the expression's value; it equals the
            # variable only when the expression is the bare variable.
            expr = stmt.value if isinstance(stmt, (ast.Assign, ast.Return, ast.Print)) else None
            return isinstance(expr, ast.VarRef) and expr.name == use.name
        if kind is None:
            return True  # plain open statement
        return False

    def _observable(self, d):
        return (not self._def_executed_hidden(d)) or d in self._leaked

    def _def_is_constant(self, d):
        return d.expr is not None and isinstance(
            d.expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)
        )

    # -- fixpoint -----------------------------------------------------------------

    def _solve(self):
        # MIN-based propagation: descending Kleene iteration from TOP.
        # (Starting at bottom would pin loop recurrences like ``sum = sum+i``
        # at Constant through their self-edge.)
        hidden_defs = [d for d in self.defuse.defs if self._def_executed_hidden(d)]
        for d in hidden_defs:
            self.ac[d] = arbitrary_ac()
        for _round in range(_MAX_ROUNDS):
            changed = False
            for d in hidden_defs:
                new = self._def_ac(d)
                if new != self.ac[d]:
                    self.ac[d] = new
                    changed = True
            if not changed:
                break

    def _def_ac(self, d):
        """``AC(d_v@n) = EVAL(exp)``."""
        if d.expr is None:
            # weak def (array store) or bare declaration: treated as an
            # unknown stored value
            return constant_ac()
        return self._expr_ac(d.expr, d.node)

    def _expr_ac(self, expr, node, output_mode=False):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return constant_ac()
        if isinstance(expr, ast.VarRef):
            return self._use_ac(expr.name, node, output_mode)
        if isinstance(expr, ast.BinaryOp):
            return eval_binary(
                expr.op,
                self._expr_ac(expr.left, node, output_mode),
                self._expr_ac(expr.right, node, output_mode),
            )
        if isinstance(expr, ast.UnaryOp):
            return eval_unary(expr.op, self._expr_ac(expr.operand, node, output_mode))
        if isinstance(expr, ast.Call):
            args = [self._expr_ac(a, node, output_mode) for a in expr.args]
            if expr.name in BUILTIN_SIGNATURES:
                return eval_builtin(expr.name, args)
            # A non-builtin call result is computed openly (case (ii)) and
            # sent across: a fresh observable input.
            return AC(CType.LINEAR, frozenset([expr.name + "()"]), 1)
        if isinstance(expr, ast.MethodCall):
            return AC(CType.LINEAR, frozenset([expr.name + "()"]), 1)
        if isinstance(expr, ast.Index):
            # Array elements are served over the channel one at a time: an
            # observable input; inside a loop the element changes per
            # iteration, so the input set is "varying" (the paper's javac
            # case).
            base = expr.base.name if isinstance(expr.base, ast.VarRef) else "?"
            if self._node_in_loop(node):
                return AC(CType.LINEAR, VARYING, 1)
            return AC(CType.LINEAR, frozenset([base + "[]"]), 1)
        if isinstance(expr, ast.FieldAccess):
            name = "%s.%s" % (
                expr.obj.name if isinstance(expr.obj, ast.VarRef) else "?",
                expr.name,
            )
            return AC(CType.LINEAR, frozenset([name]), 1)
        if isinstance(expr, (ast.NewArray, ast.NewObject)):
            return arbitrary_ac()
        raise TypeError("no AC evaluation for %r" % (expr,))

    def _node_in_loop(self, node):
        return any(loop.contains(node) for loop in self.loops)

    def _use_ac(self, name, node, output_mode=False):
        """``AC(u)`` = MIN over reaching defs of ``PC``; in output mode the
        observability shortcut is skipped for the single-reaching-def case
        (the paper's output rule: report the complexity of the leaked
        defining expression, not of the already-leaked value)."""
        use = self._find_use(name, node)
        if use is None:
            return linear_ac(name)
        reaching = self.defuse.reaching_defs(use)
        if not reaching:
            return linear_ac(name)
        if output_mode:
            # The paper defines the overall ILP complexity as the MAX across
            # paths; at the leak point itself we therefore join over the
            # reaching definitions, reporting each hidden definition's own
            # computation (LeakedDefn output rule) rather than the shortcut
            # "this value is already leaked here".
            result = None
            for d in reaching:
                if self._def_executed_hidden(d):
                    pc = self._raise_along(self._current_ac(d), d, use)
                else:
                    pc = self._raise_along(self._def_ac_open(d), d, use)
                result = pc if result is None else ac_max(result, pc)
            return result
        result = None
        for d in reaching:
            pc = self._pc(d, use)
            result = pc if result is None else ac_min(result, pc)
        return result

    def _find_use(self, name, node):
        for use in self.defuse.uses_at.get(node, []):
            if use.name == name:
                return use
        return None

    def _current_ac(self, d):
        if d in self.ac:
            return self.ac[d]
        return self._def_ac_open(d)

    def _def_ac_open(self, d):
        if self._def_is_constant(d):
            return constant_ac()
        return linear_ac(d.name)

    def _pc(self, d, use):
        """``PC(d@n', u@n)`` with the RAISE adjustment."""
        if self._observable(d):
            if self._def_is_constant(d):
                return constant_ac()
            pc = linear_ac(d.name)
        else:
            pc = self.ac.get(d, constant_ac())
        return self._raise_along(pc, d, use)

    def _raise_along(self, pc, d, use):
        for dep in self.ddg.deps_from_def(d):
            if dep.u is not use:
                continue
            for loop in exits_loop(dep, self.loops):
                if not self._is_recurrent(d, loop):
                    continue
                iter_ac = self._loop_iter_ac(loop)
                pc = raise_by_iteration(
                    pc, iter_ac, multiplicative=self._is_multiplicative(d)
                )
            break
        return pc

    # -- loops ------------------------------------------------------------------

    def _is_recurrent(self, d, loop):
        key = loop.header.id
        if key not in self._recurrent_cache:
            self._recurrent_cache[key] = self.ddg.recurrent_defs(loop)
        return d in self._recurrent_cache[key]

    def _is_multiplicative(self, d):
        """Does the recurrence combine the accumulator multiplicatively?
        (``x = x * k`` / ``x = x / k`` / under a builtin — geometric.)"""
        if d.expr is None:
            return False
        return _var_under_mul(d.expr, d.name, under=False)

    def _loop_iter_ac(self, loop):
        """``AC(Iter(L))``: arithmetic complexity of the trip count in terms
        of values at loop entry.

        Trip counts can be mutually dependent (each loop's bound accumulated
        inside the other, under a common outer loop); the in-progress set
        breaks that cycle at Arbitrary — such trip counts have no closed
        form the adversary could exploit anyway.
        """
        key = loop.header.id
        if key in self._iter_cache:
            return self._iter_cache[key]
        if key in self._iter_in_progress:
            return arbitrary_ac()
        self._iter_in_progress.add(key)
        try:
            result = self._compute_iter_ac(loop)
        finally:
            self._iter_in_progress.discard(key)
        self._iter_cache[key] = result
        return result

    def _compute_iter_ac(self, loop):
        counted = match_counted_loop(loop.stmt) if loop.stmt is not None else None
        if counted is None:
            return arbitrary_ac()
        cond_node = loop.header
        bound_ac = self._expr_ac(counted.bound_expr, cond_node)
        entry_ac = self._entry_value_ac(counted.var, cond_node, loop)
        # trip = (bound - entry) / step, step a compile-time constant
        return eval_binary("-", bound_ac, entry_ac)

    def _entry_value_ac(self, name, cond_node, loop):
        """AC of a variable's value on loop entry: MIN over the reaching
        definitions that come from outside the loop."""
        use = self._find_use(name, cond_node)
        if use is None:
            return linear_ac(name)
        outside = [
            d
            for d in self.defuse.reaching_defs(use)
            if d.entry or not loop.contains(d.node)
        ]
        if not outside:
            return linear_ac(name)
        result = None
        for d in outside:
            pc = self._pc(d, use)
            result = pc if result is None else ac_min(result, pc)
        return result

    # -- ILP output rule -----------------------------------------------------------

    def ilp_ac(self, ilp):
        node = self.cfg.node_of_stmt.get(ilp.original_stmt)
        if node is None:
            # Statement synthesised during splitting (shouldn't happen for
            # ILPs, which always anchor to an original statement).
            return arbitrary_ac()
        if ilp.kind == "pred":
            return self._expr_ac(ilp.leaked_expr, node, output_mode=True)
        if ilp.leaked_var is not None:
            return self._use_ac(ilp.leaked_var, node, output_mode=True)
        return self._expr_ac(ilp.leaked_expr, node, output_mode=True)


def _var_under_mul(expr, name, under):
    """True when ``name`` occurs under *, /, %, or a builtin in ``expr``."""
    if isinstance(expr, ast.VarRef):
        return under and expr.name == name
    if isinstance(expr, ast.BinaryOp):
        nested = under or expr.op in ("*", "/", "%")
        return _var_under_mul(expr.left, name, nested) or _var_under_mul(
            expr.right, name, nested
        )
    if isinstance(expr, ast.UnaryOp):
        return _var_under_mul(expr.operand, name, under)
    if isinstance(expr, ast.Call):
        return any(_var_under_mul(a, name, True) for a in expr.args)
    if isinstance(expr, ast.Index):
        return _var_under_mul(expr.index, name, under)
    return False
