"""Deep copying of AST subtrees.

The splitter must leave the original program untouched (the security
estimator runs on it), so every statement or expression placed into an open
or hidden component is cloned.  ``binding`` annotations on variable
references and source positions are preserved.

Whole functions are never cloned: a split program shares each unsplit
function (and every global and field declaration) with the original, so
no AST of a split program or its original may be mutated in place (see
:class:`~repro.core.program.SplitProgram`).
"""

from repro.lang import ast


def clone_expr(expr):
    if expr is None:
        return None
    if isinstance(expr, ast.IntLit):
        return ast.IntLit(expr.value).at(expr.line, expr.col)
    if isinstance(expr, ast.FloatLit):
        return ast.FloatLit(expr.value).at(expr.line, expr.col)
    if isinstance(expr, ast.BoolLit):
        return ast.BoolLit(expr.value).at(expr.line, expr.col)
    if isinstance(expr, ast.VarRef):
        return ast.VarRef(expr.name, expr.binding).at(expr.line, expr.col)
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, clone_expr(expr.left), clone_expr(expr.right)).at(
            expr.line, expr.col
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, clone_expr(expr.operand)).at(expr.line, expr.col)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.name, [clone_expr(a) for a in expr.args]).at(
            expr.line, expr.col
        )
    if isinstance(expr, ast.MethodCall):
        return ast.MethodCall(
            clone_expr(expr.receiver), expr.name, [clone_expr(a) for a in expr.args]
        ).at(expr.line, expr.col)
    if isinstance(expr, ast.Index):
        return ast.Index(clone_expr(expr.base), clone_expr(expr.index)).at(
            expr.line, expr.col
        )
    if isinstance(expr, ast.FieldAccess):
        return ast.FieldAccess(clone_expr(expr.obj), expr.name).at(expr.line, expr.col)
    if isinstance(expr, ast.NewArray):
        return ast.NewArray(clone_type(expr.elem_type), clone_expr(expr.size)).at(
            expr.line, expr.col
        )
    if isinstance(expr, ast.NewObject):
        return ast.NewObject(expr.class_name).at(expr.line, expr.col)
    raise TypeError("cannot clone %r" % (expr,))


def clone_type(t):
    if t is None:
        return None
    if isinstance(t, ast.IntType):
        return ast.IntType()
    if isinstance(t, ast.FloatType):
        return ast.FloatType()
    if isinstance(t, ast.BoolType):
        return ast.BoolType()
    if isinstance(t, ast.ArrayType):
        return ast.ArrayType(clone_type(t.elem))
    if isinstance(t, ast.ClassType):
        return ast.ClassType(t.name)
    raise TypeError("cannot clone type %r" % (t,))


def clone_stmt(stmt):
    if isinstance(stmt, ast.VarDecl):
        return ast.VarDecl(clone_type(stmt.var_type), stmt.name, clone_expr(stmt.init)).at(
            stmt.line, stmt.col
        )
    if isinstance(stmt, ast.Assign):
        return ast.Assign(clone_expr(stmt.target), clone_expr(stmt.value)).at(
            stmt.line, stmt.col
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            clone_expr(stmt.cond), clone_body(stmt.then_body), clone_body(stmt.else_body)
        ).at(stmt.line, stmt.col)
    if isinstance(stmt, ast.While):
        return ast.While(clone_expr(stmt.cond), clone_body(stmt.body)).at(
            stmt.line, stmt.col
        )
    if isinstance(stmt, ast.For):
        return ast.For(
            clone_stmt(stmt.init) if stmt.init is not None else None,
            clone_expr(stmt.cond),
            clone_stmt(stmt.update) if stmt.update is not None else None,
            clone_body(stmt.body),
        ).at(stmt.line, stmt.col)
    if isinstance(stmt, ast.Return):
        return ast.Return(clone_expr(stmt.value)).at(stmt.line, stmt.col)
    if isinstance(stmt, ast.CallStmt):
        return ast.CallStmt(clone_expr(stmt.call)).at(stmt.line, stmt.col)
    if isinstance(stmt, ast.Print):
        return ast.Print(clone_expr(stmt.value)).at(stmt.line, stmt.col)
    if isinstance(stmt, ast.Break):
        return ast.Break().at(stmt.line, stmt.col)
    if isinstance(stmt, ast.Continue):
        return ast.Continue().at(stmt.line, stmt.col)
    if isinstance(stmt, ast.Block):
        return ast.Block(clone_body(stmt.body)).at(stmt.line, stmt.col)
    raise TypeError("cannot clone %r" % (stmt,))


def clone_body(body):
    return [clone_stmt(s) for s in body]
