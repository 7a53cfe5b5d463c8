"""Prefetch manifests: callback batching for hidden fragments.

The paper observed (javac, Section 4) that hiding whole loops makes the
hidden side pull open-memory values one callback at a time — "in each
iteration a different array element was being sent to the hidden side".
With the real TCP runtime every such ``fetch_index``/``fetch_field``
callback is a full round trip, and Table 5 charges them all to the
channel.

A *prefetch manifest* is the splitter's static answer: for every fragment
it records, per simple statement (and for the fragment's result
expression), which open-side aggregate **reads** can be requested together
in one ``fetch_batch`` callback just before the statement executes.  The
hidden evaluator consumes the resolved manifest at run time (see
:class:`repro.runtime.server._FragmentEvaluator`); the batched callback is
re-issued on every execution of the statement, so a loop body with N
array reads costs one callback per iteration instead of N.

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
  carry manifests: their reads all happen before the statement writes
  its (hidden) target, and a fragment never writes open memory, so a
  batched fetch at statement entry sees exactly the state the individual
  fetches would have seen.

Manifests are path-based and therefore JSON-serialisable: deployment
manifests (:mod:`repro.core.deploy`) ship them with the fragments so a
served hidden component batches without re-analysis.

Wire format and accounting are documented in docs/PROTOCOL.md.
"""

from repro.lang import ast
from repro.lang.typecheck import BUILTIN_SIGNATURES

#: manifest entries for the fragment's result expression use this marker
RESULT = "result"


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
# Collection (splitter side)
# ---------------------------------------------------------------------------


def _expr_read_paths(expr, path, conditional, out):
    """Record paths of batchable, unconditionally-evaluated reads in
    ``expr``.  ``conditional`` marks short-circuit positions."""
    if expr is None:
        return
    if not conditional and _is_batchable_read(expr):
        out.append(list(path))
        # by eligibility the subtree contains no further aggregate reads
        return
    if isinstance(expr, ast.BinaryOp):
        short = expr.op in ("&&", "||")
        _expr_read_paths(expr.left, path + [["left", None]], conditional, out)
        _expr_read_paths(
            expr.right, path + [["right", None]], conditional or short, out
        )
    elif isinstance(expr, ast.UnaryOp):
        _expr_read_paths(expr.operand, path + [["operand", None]], conditional, out)
    elif isinstance(expr, ast.Call):
        for i, arg in enumerate(expr.args):
            _expr_read_paths(arg, path + [["arg", i]], conditional, out)
    elif isinstance(expr, ast.Index):
        # ineligible read: its index may still contain eligible inner reads
        _expr_read_paths(expr.index, path + [["index", None]], conditional, out)
    elif isinstance(expr, ast.FieldAccess):
        pass  # obj must be a VarRef for the evaluator; nothing inside
    elif isinstance(expr, ast.NewArray):
        _expr_read_paths(expr.size, path + [["size", None]], conditional, out)


def _stmt_read_paths(stmt):
    """Paths of batchable reads evaluated unconditionally by an
    ``Assign``/``VarDecl``: those of its value/init expression (a fragment
    assigns only to names, so the target reads nothing)."""
    out = []
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            _expr_read_paths(stmt.init, [["init", None]], False, out)
    elif isinstance(stmt, ast.Assign):
        _expr_read_paths(stmt.value, [["value", None]], False, out)
    return out


def _walk_stmt_paths(stmts, prefix):
    """Yield ``(path, stmt)`` for every statement, recursively.

    A statement path alternates list selections and field steps:
    ``["stmt", i]`` selects statement ``i`` of the current list (starting
    from the fragment body), ``["then"|"else"|"loop", None]`` descends
    into an ``If`` branch or a loop/block body, and ``["init"|"update",
    None]`` selects a ``For`` header statement.
    """
    for i, stmt in enumerate(stmts):
        path = prefix + [["stmt", i]]
        yield path, stmt
        if isinstance(stmt, ast.If):
            for inner in _walk_stmt_paths(stmt.then_body, path + [["then", None]]):
                yield inner
            for inner in _walk_stmt_paths(stmt.else_body, path + [["else", None]]):
                yield inner
        elif isinstance(stmt, (ast.While, ast.Block)):
            for inner in _walk_stmt_paths(stmt.body, path + [["loop", None]]):
                yield inner
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                yield path + [["init", None]], stmt.init
            if stmt.update is not None:
                yield path + [["update", None]], stmt.update
            for inner in _walk_stmt_paths(stmt.body, path + [["loop", None]]):
                yield inner


def collect_prefetch(fragment):
    """Build the prefetch manifest for ``fragment``.

    Returns a list of ``{"at": stmt_path | "result", "reads": [expr_path,
    ...]}`` entries, one per statement with **two or more** batchable reads
    (a single read costs the same either way).  Paths are lists of
    ``[field, index]`` steps and JSON-serialisable.
    """
    manifest = []
    for path, stmt in _walk_stmt_paths(fragment.body, []):
        reads = _stmt_read_paths(stmt)
        if len(reads) >= 2:
            manifest.append({"at": path, "reads": reads})
    if fragment.result_expr is not None:
        reads = []
        _expr_read_paths(fragment.result_expr, [], False, reads)
        if len(reads) >= 2:
            manifest.append({"at": RESULT, "reads": reads})
    return manifest


# ---------------------------------------------------------------------------
# Resolution (server side)
# ---------------------------------------------------------------------------

_BRANCH_FIELDS = {"then": "then_body", "else": "else_body", "loop": "body"}
_EXPR_FIELDS = {
    "left": "left",
    "right": "right",
    "operand": "operand",
    "index": "index",
    "size": "size",
    "value": "value",
    "init": "init",
}


def _follow_stmt_path(body, path):
    node = None
    scope = body  # current statement list
    for field, idx in path:
        if field == "stmt":
            node = scope[idx]
        elif field in _BRANCH_FIELDS:
            scope = getattr(node, _BRANCH_FIELDS[field])
        elif field in ("init", "update"):
            node = getattr(node, field)
        else:
            raise LookupError(field)
        if node is None:
            raise LookupError(field)
    return node


def _follow_expr_path(root, path):
    node = root
    for field, idx in path:
        if field == "arg":
            node = node.args[idx]
        else:
            node = getattr(node, _EXPR_FIELDS[field])
        if node is None:
            raise LookupError(field)
    return node


def resolve_prefetch(fragment):
    """Resolve a fragment's manifest to live AST nodes.

    Returns ``(stmt_map, result_reads)`` where ``stmt_map`` maps
    ``id(statement)`` to the list of read nodes to prefetch before that
    statement executes, and ``result_reads`` is the list for the result
    expression (empty when none).  Entries whose paths no longer resolve
    (hand-edited fragments, manifest drift) are skipped — batching is an
    optimisation, never a correctness requirement.
    """
    manifest = fragment.prefetch
    if manifest is None:
        manifest = collect_prefetch(fragment)
    stmt_map = {}
    result_reads = []
    for entry in manifest:
        try:
            if entry["at"] == RESULT:
                root = fragment.result_expr
                if root is None:
                    continue
                reads = [_follow_expr_path(root, p) for p in entry["reads"]]
                if all(_is_batchable_read(r) for r in reads):
                    result_reads = reads
                continue
            stmt = _follow_stmt_path(fragment.body, entry["at"])
            reads = [_follow_expr_path(stmt, p) for p in entry["reads"]]
            if all(_is_batchable_read(r) for r in reads):
                stmt_map[id(stmt)] = reads
        except (LookupError, AttributeError, IndexError, TypeError):
            continue
    return stmt_map, result_reads
