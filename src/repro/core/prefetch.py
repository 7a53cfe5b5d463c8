"""Prefetch plans: callback batching for hidden fragments.

The paper observed (javac, Section 4) that hiding whole loops makes the
hidden side pull open-memory values one callback at a time — "in each
iteration a different array element was being sent to the hidden side".
With the real TCP runtime every such ``fetch_index``/``fetch_field``
callback is a full round trip, and Table 5 charges them all to the
channel.

A *prefetch plan* is the static answer: per simple statement of a
fragment (and for its result expression), which open-side aggregate
**reads** can be requested together in one ``fetch_batch`` callback just
before the statement executes.  :func:`prefetch_plan` derives it from the
fragment's own AST; a tenant does so once per fragment
(:class:`repro.runtime.server.FragmentFacts`), and the hidden evaluator
consumes it at run time (:class:`repro.runtime.server._FragmentEvaluator`).
The batched callback is re-issued on every execution of the statement, so
a loop body with N array reads costs one callback per iteration instead
of N.

Eligibility — a read may be prefetched only when doing so cannot change
observable behaviour:

* it is an ``Index`` whose base is a plain variable and whose index
  expression contains no aggregate access, allocation, method call or
  non-builtin call (so the index is evaluable, purely, at statement
  entry), or a ``FieldAccess`` on a plain variable;
* it is evaluated unconditionally by the statement: reads on the
  right-hand side of ``&&``/``||`` are skipped (short-circuiting could
  mean the original run never touched them — prefetching could fault on
  an index the program guards against);
* only ``Assign``/``VarDecl`` statements and fragment result expressions
  carry plans: their reads all happen before the statement writes
  its (hidden) target, and a fragment never writes open memory, so a
  batched fetch at statement entry sees exactly the state the individual
  fetches would have seen.

Nothing of the plan travels in a deployment manifest
(:mod:`repro.core.deploy`): a served hidden component derives it from the
fragments it parses, so no manifest can name a read the rules exclude.

Wire format and accounting are documented in docs/PROTOCOL.md.
"""

from repro.lang import ast
from repro.lang.typecheck import BUILTIN_SIGNATURES


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------


def _pure_scalar_expr(expr):
    """True when ``expr`` can be evaluated at statement entry without any
    open-memory access or side effect (hidden fragments may only call
    builtins, which are pure)."""
    for e in ast.walk_exprs(expr):
        if isinstance(e, (ast.Index, ast.FieldAccess, ast.MethodCall,
                          ast.NewArray, ast.NewObject)):
            return False
        if isinstance(e, ast.Call) and e.name not in BUILTIN_SIGNATURES:
            return False
    return True


def _is_batchable_read(expr):
    if isinstance(expr, ast.Index):
        return isinstance(expr.base, ast.VarRef) and _pure_scalar_expr(expr.index)
    if isinstance(expr, ast.FieldAccess):
        return isinstance(expr.obj, ast.VarRef)
    return False


def touches_open_aggregates(fragment):
    """True when any statement or expression of ``fragment`` accesses an
    open-side array element or object field (i.e. running it requires
    callbacks).  Fragments that do are never deferrable: their callbacks
    must observe open memory as it was when the call was issued."""
    for stmt in ast.walk_stmts(fragment.body):
        for e in ast.stmt_exprs(stmt):
            if isinstance(e, (ast.Index, ast.FieldAccess)):
                return True
    if fragment.result_expr is not None:
        for e in ast.walk_exprs(fragment.result_expr):
            if isinstance(e, (ast.Index, ast.FieldAccess)):
                return True
    return False


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


def _unconditional_reads(expr, conditional, out):
    """Append the batchable, unconditionally-evaluated reads of ``expr``
    to ``out``, left to right.  ``conditional`` marks short-circuit
    positions."""
    if expr is None:
        return
    if not conditional and _is_batchable_read(expr):
        out.append(expr)
        # by eligibility the subtree contains no further aggregate reads
        return
    if isinstance(expr, ast.BinaryOp):
        _unconditional_reads(expr.left, conditional, out)
        _unconditional_reads(
            expr.right, conditional or expr.op in ("&&", "||"), out
        )
    elif isinstance(expr, ast.UnaryOp):
        _unconditional_reads(expr.operand, conditional, out)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _unconditional_reads(arg, conditional, out)
    elif isinstance(expr, ast.Index):
        # ineligible read: its index may still contain eligible inner reads
        _unconditional_reads(expr.index, conditional, out)
    elif isinstance(expr, ast.NewArray):
        _unconditional_reads(expr.size, conditional, out)


def _batch(expr):
    """The reads of ``expr`` worth one batched callback: two or more (a
    single read costs the same either way), else an empty list."""
    reads = []
    _unconditional_reads(expr, False, reads)
    return reads if len(reads) >= 2 else []


def prefetch_plan(fragment):
    """The reads of ``fragment`` to prefetch, as live AST nodes.

    Returns ``(stmt_map, result_reads)``: ``stmt_map`` maps
    ``id(statement)`` of every ``Assign``/``VarDecl`` (``For`` headers
    included) with two or more batchable reads to those reads, in
    evaluation order; ``result_reads`` is the same for the result
    expression (empty when it has fewer than two).  A fragment assigns
    only to names, so an assignment's target reads nothing.
    """
    stmt_map = {}
    for stmt in ast.walk_stmts(fragment.body):
        if isinstance(stmt, ast.VarDecl):
            reads = _batch(stmt.init)
        elif isinstance(stmt, ast.Assign):
            reads = _batch(stmt.value)
        else:
            continue
        if reads:
            stmt_map[id(stmt)] = reads
    return stmt_map, _batch(fragment.result_expr)
