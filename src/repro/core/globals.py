"""Global variable hiding (Section 2.2).

"We can select a global variable for hiding and then identify all
statements in each of the functions that refer to the global variable.  If
a function meets the characteristics outlined earlier, then slices starting
from statements referring to the selected global variable are computed for
transfer to Hf. ...  On the other hand, if the function does not meet the
required characteristics, it is not sliced.  Instead corresponding to each
reference to the global variable, an appropriate call to a hidden function
is made either to update the value of the global variable on the hidden
side or fetch its value for use in the open side."

The hidden global's storage lives on the server (shared across all
activations); the transformed program no longer declares it — the open
component is genuinely incomplete without the secure side.
"""

from repro.lang import ast
from repro.analysis.callgraph import build_callgraph
from repro.analysis.function import analyze_function
from repro.core.program import assemble_split
from repro.core.splitter import (
    SplitError,
    SplitOptions,
    rewrite_references_only,
    split_function,
)
from repro.runtime.values import default_value, unary_op


def _initial_value(decl):
    if decl.init is None:
        return default_value(decl.var_type)
    expr = decl.init
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        return unary_op(expr.op, expr.operand.value)
    raise SplitError("global initialiser too complex")


def functions_referencing(program, name):
    """Functions with at least one reference to global ``name``."""
    out = []
    for fn in program.all_functions():
        for stmt in ast.walk_stmts(fn.body):
            if any(
                isinstance(e, ast.VarRef) and e.name == name and e.binding == "global"
                for e in ast.stmt_exprs(stmt)
            ):
                out.append(fn)
                break
    return out


def _defines(fn, name):
    for stmt in ast.walk_stmts(fn.body):
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.target, ast.VarRef)
            and stmt.target.name == name
            and stmt.target.binding == "global"
        ):
            return True
    return False


def hide_global(program, checker, name, options=None):
    """Hide global ``name``: returns a :class:`SplitProgram` in which every
    function referencing it interacts with the secure side instead."""
    options = options or SplitOptions()
    decl = None
    for g in program.globals:
        if g.name == name:
            decl = g
            break
    if decl is None:
        raise SplitError("no global named %r" % name)
    if not ast.is_scalar_type(decl.var_type):
        raise SplitError("only scalar globals can be hidden")

    cg = build_callgraph(program, checker)
    recursive = cg.recursive_functions()
    referencing = functions_referencing(program, name)
    if not referencing:
        raise SplitError("global %r is never referenced" % name)

    splits = {}
    for fn_id, fn in enumerate(referencing):
        analysis = analyze_function(fn, checker)
        qualified = fn.qualified_name
        eligible = (
            qualified not in recursive
            and qualified not in cg.called_in_loop
            and _defines(fn, name)
        )
        if eligible:
            split = split_function(
                fn,
                name,
                analysis,
                fn_id=fn_id,
                options=options,
                hidden_storage={name},
                storage_class="global",
            )
        else:
            split = rewrite_references_only(
                fn, {name}, analysis, fn_id=fn_id, options=options,
                storage_class="global",
            )
        splits[qualified] = split

    return assemble_split(
        program, splits, hidden_global_inits={name: _initial_value(decl)}
    )
