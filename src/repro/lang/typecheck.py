"""Type checker and name resolver for the MiniJava-like language.

Beyond reporting errors, the checker records facts the analysis passes rely
on:

* every :class:`~repro.lang.ast.VarRef` gets its ``binding`` attribute set to
  ``"local"``, ``"field"`` or ``"global"``;
* :attr:`TypeChecker.expr_types` maps expression nodes to their types;
* :attr:`TypeChecker.local_types` maps each function to its local/parameter
  type environment;
* :attr:`TypeChecker.calls` lists every resolved call to a program function
  (the call graph's one source, :func:`~repro.analysis.callgraph.build_callgraph`).

One deliberate restriction: a variable name may be declared only once per
function (no shadowing across blocks).  This gives every scalar local a
single identity, which is what the paper's slicing and hiding transformations
assume ("the variables in f that are selected to be hidden variables").
"""

from repro.lang import ast
from repro.lang.errors import TypeError_

#: Builtin function signatures: name -> (param type ctors, return type ctor).
#: ``"num"`` accepts int or float and returns the promoted operand type.
BUILTIN_SIGNATURES = {
    "sqrt": (("num",), ast.FloatType),
    "exp": (("num",), ast.FloatType),
    "log": (("num",), ast.FloatType),
    "sin": (("num",), ast.FloatType),
    "cos": (("num",), ast.FloatType),
    "pow": (("num", "num"), ast.FloatType),
    "abs": (("num",), "same"),
    "min": (("num", "num"), "promote"),
    "max": (("num", "num"), "promote"),
    "floor": (("num",), ast.IntType),
    "len": (("array",), ast.IntType),
}

#: Operators the security analysis classifies as arithmetically "arbitrary".
ARBITRARY_BUILTINS = {"sqrt", "exp", "log", "sin", "cos", "pow", "floor"}


def types_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.ArrayType):
        return types_equal(a.elem, b.elem)
    if isinstance(a, ast.ClassType):
        return a.name == b.name
    return True


def is_numeric(t):
    return isinstance(t, (ast.IntType, ast.FloatType))


def is_assignable(dst, src):
    """True when a value of type ``src`` may be stored into ``dst``
    (exact match, or the implicit int -> float promotion)."""
    if types_equal(dst, src):
        return True
    return isinstance(dst, ast.FloatType) and isinstance(src, ast.IntType)


def promote(a, b):
    """Binary numeric promotion."""
    if isinstance(a, ast.FloatType) or isinstance(b, ast.FloatType):
        return ast.FloatType()
    return ast.IntType()


class _FunctionScope:
    """Per-function environment used while checking one function body."""

    def __init__(self, fn, class_decl):
        self.fn = fn
        self.class_decl = class_decl
        self.locals = {}
        for p in fn.params:
            if p.name in self.locals:
                raise TypeError_("duplicate parameter %r" % p.name, p.line, p.col)
            self.locals[p.name] = p.param_type
        #: inside a loop statement: its body, or a ``For``'s init and
        #: update, but not the loop's own condition
        self.in_loop = False


class TypeChecker:
    """Checks a whole program and records resolution facts."""

    def __init__(self, program):
        self.program = program
        self.expr_types = {}
        self.local_types = {}
        #: ``(caller, callee, expr, in_loop)`` per call of a program function
        #: (builtins excluded), caller and callee being ``Function`` nodes
        self.calls = []
        self.global_types = {g.name: g.var_type for g in program.globals}
        self.class_decls = {c.name: c for c in program.classes}
        self.functions = {}
        for fn in program.functions:
            if fn.name in self.functions:
                raise TypeError_("duplicate function %r" % fn.name, fn.line, fn.col)
            self.functions[fn.name] = fn
        self.methods = {}
        for cls in program.classes:
            for m in cls.methods:
                key = (cls.name, m.name)
                if key in self.methods:
                    raise TypeError_("duplicate method %r" % m.name, m.line, m.col)
                self.methods[key] = m

    def check(self):
        for g in self.program.globals:
            if g.init is not None:
                t = self._check_expr_no_scope(g.init)
                if not is_assignable(g.var_type, t):
                    raise TypeError_(
                        "cannot initialise global %r of type %s with %s" % (g.name, g.var_type, t),
                        g.line,
                        g.col,
                    )
        for fn in self.program.functions:
            self._check_function(fn, None)
        for cls in self.program.classes:
            seen_fields = set()
            for fld in cls.fields:
                if fld.name in seen_fields:
                    raise TypeError_("duplicate field %r" % fld.name, fld.line, fld.col)
                seen_fields.add(fld.name)
            for method in cls.methods:
                self._check_function(method, cls)
        return self

    # -- functions ----------------------------------------------------------

    def _check_function(self, fn, class_decl):
        scope = _FunctionScope(fn, class_decl)
        self._check_body(fn.body, scope)
        self.local_types[fn] = dict(scope.locals)

    def _check_body(self, body, scope):
        for stmt in body:
            self._check_stmt(stmt, scope)

    def _check_loop_part(self, stmts, scope):
        outer = scope.in_loop
        scope.in_loop = True
        for stmt in stmts:
            self._check_stmt(stmt, scope)
        scope.in_loop = outer

    def _check_stmt(self, stmt, scope):
        if isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            target_t = self._check_lvalue(stmt.target, scope)
            value_t = self._check_expr(stmt.value, scope)
            if not is_assignable(target_t, value_t):
                raise TypeError_(
                    "cannot assign %s to %s" % (value_t, target_t), stmt.line, stmt.col
                )
        elif isinstance(stmt, ast.If):
            cond_t = self._check_expr(stmt.cond, scope)
            if not isinstance(cond_t, ast.BoolType):
                raise TypeError_("if condition must be bool, got %s" % cond_t, stmt.line, stmt.col)
            self._check_body(stmt.then_body, scope)
            self._check_body(stmt.else_body, scope)
        elif isinstance(stmt, ast.While):
            cond_t = self._check_expr(stmt.cond, scope)
            if not isinstance(cond_t, ast.BoolType):
                raise TypeError_("while condition must be bool, got %s" % cond_t, stmt.line, stmt.col)
            self._check_loop_part(stmt.body, scope)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._check_loop_part([stmt.init], scope)
            if stmt.cond is not None:
                cond_t = self._check_expr(stmt.cond, scope)
                if not isinstance(cond_t, ast.BoolType):
                    raise TypeError_("for condition must be bool, got %s" % cond_t, stmt.line, stmt.col)
            if stmt.update is not None:
                if isinstance(stmt.update, ast.VarDecl):
                    raise TypeError_("for update may not declare a variable", stmt.line, stmt.col)
                self._check_loop_part([stmt.update], scope)
            self._check_loop_part(stmt.body, scope)
        elif isinstance(stmt, ast.Return):
            if scope.fn.ret_type is None:
                if stmt.value is not None:
                    raise TypeError_("void function returns a value", stmt.line, stmt.col)
            else:
                if stmt.value is None:
                    raise TypeError_("non-void function returns nothing", stmt.line, stmt.col)
                t = self._check_expr(stmt.value, scope)
                if not is_assignable(scope.fn.ret_type, t):
                    raise TypeError_(
                        "return type mismatch: expected %s, got %s" % (scope.fn.ret_type, t),
                        stmt.line,
                        stmt.col,
                    )
        elif isinstance(stmt, ast.CallStmt):
            self._check_expr(stmt.call, scope, allow_void=True)
        elif isinstance(stmt, ast.Print):
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not scope.in_loop:
                raise TypeError_("break/continue outside a loop", stmt.line, stmt.col)
        elif isinstance(stmt, ast.Block):
            self._check_body(stmt.body, scope)
        else:
            raise TypeError_("unknown statement %r" % stmt, stmt.line, stmt.col)

    def _check_var_decl(self, stmt, scope):
        if stmt.name in scope.locals:
            raise TypeError_(
                "variable %r declared more than once in function %r"
                % (stmt.name, scope.fn.name),
                stmt.line,
                stmt.col,
            )
        if isinstance(stmt.var_type, ast.ClassType) and stmt.var_type.name not in self.class_decls:
            raise TypeError_("unknown class %r" % stmt.var_type.name, stmt.line, stmt.col)
        scope.locals[stmt.name] = stmt.var_type
        if stmt.init is not None:
            t = self._check_expr(stmt.init, scope)
            if not is_assignable(stmt.var_type, t):
                raise TypeError_(
                    "cannot initialise %r of type %s with %s" % (stmt.name, stmt.var_type, t),
                    stmt.line,
                    stmt.col,
                )

    # -- expressions --------------------------------------------------------

    def _check_lvalue(self, expr, scope):
        if isinstance(expr, (ast.VarRef, ast.Index, ast.FieldAccess)):
            return self._check_expr(expr, scope)
        raise TypeError_("invalid assignment target", expr.line, expr.col)

    def _check_expr_no_scope(self, expr):
        """Check a global initialiser, which may only use literals."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return self._record(expr, self._literal_type(expr))
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.operand, (ast.IntLit, ast.FloatLit)):
            return self._record(expr, self._literal_type(expr.operand))
        raise TypeError_("global initialisers must be literals", expr.line, expr.col)

    def _literal_type(self, expr):
        if isinstance(expr, ast.IntLit):
            return ast.IntType()
        if isinstance(expr, ast.FloatLit):
            return ast.FloatType()
        return ast.BoolType()

    def _record(self, expr, t):
        self.expr_types[expr] = t
        return t

    def _check_expr(self, expr, scope, allow_void=False):
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return self._record(expr, self._literal_type(expr))
        if isinstance(expr, ast.VarRef):
            return self._record(expr, self._resolve_var(expr, scope))
        if isinstance(expr, ast.BinaryOp):
            return self._record(expr, self._check_binary(expr, scope))
        if isinstance(expr, ast.UnaryOp):
            t = self._check_expr(expr.operand, scope)
            if expr.op == "-":
                if not is_numeric(t):
                    raise TypeError_("unary '-' needs a number, got %s" % t, expr.line, expr.col)
                return self._record(expr, t)
            if expr.op == "!":
                if not isinstance(t, ast.BoolType):
                    raise TypeError_("'!' needs a bool, got %s" % t, expr.line, expr.col)
                return self._record(expr, ast.BoolType())
            raise TypeError_("unknown unary operator %r" % expr.op, expr.line, expr.col)
        if isinstance(expr, ast.Call):
            return self._record(expr, self._check_call(expr, scope, allow_void))
        if isinstance(expr, ast.MethodCall):
            return self._record(expr, self._check_method_call(expr, scope, allow_void))
        if isinstance(expr, ast.Index):
            base_t = self._check_expr(expr.base, scope)
            if not isinstance(base_t, ast.ArrayType):
                raise TypeError_("indexing a non-array %s" % base_t, expr.line, expr.col)
            index_t = self._check_expr(expr.index, scope)
            if not isinstance(index_t, ast.IntType):
                raise TypeError_("array index must be int, got %s" % index_t, expr.line, expr.col)
            return self._record(expr, base_t.elem)
        if isinstance(expr, ast.FieldAccess):
            obj_t = self._check_expr(expr.obj, scope)
            if not isinstance(obj_t, ast.ClassType):
                raise TypeError_("field access on non-object %s" % obj_t, expr.line, expr.col)
            cls = self.class_decls.get(obj_t.name)
            if cls is None:
                raise TypeError_("unknown class %r" % obj_t.name, expr.line, expr.col)
            for fld in cls.fields:
                if fld.name == expr.name:
                    return self._record(expr, fld.field_type)
            raise TypeError_(
                "class %r has no field %r" % (obj_t.name, expr.name), expr.line, expr.col
            )
        if isinstance(expr, ast.NewArray):
            size_t = self._check_expr(expr.size, scope)
            if not isinstance(size_t, ast.IntType):
                raise TypeError_("array size must be int, got %s" % size_t, expr.line, expr.col)
            return self._record(expr, ast.ArrayType(expr.elem_type))
        if isinstance(expr, ast.NewObject):
            if expr.class_name not in self.class_decls:
                raise TypeError_("unknown class %r" % expr.class_name, expr.line, expr.col)
            return self._record(expr, ast.ClassType(expr.class_name))
        raise TypeError_("unknown expression %r" % expr, expr.line, expr.col)

    def _resolve_var(self, expr, scope):
        if expr.name in scope.locals:
            expr.binding = "local"
            return scope.locals[expr.name]
        if scope.class_decl is not None:
            for fld in scope.class_decl.fields:
                if fld.name == expr.name:
                    expr.binding = "field"
                    return fld.field_type
        if expr.name in self.global_types:
            expr.binding = "global"
            return self.global_types[expr.name]
        raise TypeError_("undefined variable %r" % expr.name, expr.line, expr.col)

    def _check_binary(self, expr, scope):
        lt = self._check_expr(expr.left, scope)
        rt = self._check_expr(expr.right, scope)
        op = expr.op
        if op in ("+", "-", "*", "/"):
            if not (is_numeric(lt) and is_numeric(rt)):
                raise TypeError_("%r needs numbers, got %s and %s" % (op, lt, rt), expr.line, expr.col)
            return promote(lt, rt)
        if op == "%":
            if not (isinstance(lt, ast.IntType) and isinstance(rt, ast.IntType)):
                raise TypeError_("'%%' needs ints, got %s and %s" % (lt, rt), expr.line, expr.col)
            return ast.IntType()
        if op in ("<", "<=", ">", ">="):
            if not (is_numeric(lt) and is_numeric(rt)):
                raise TypeError_("%r needs numbers, got %s and %s" % (op, lt, rt), expr.line, expr.col)
            return ast.BoolType()
        if op in ("==", "!="):
            ok = (is_numeric(lt) and is_numeric(rt)) or (
                isinstance(lt, ast.BoolType) and isinstance(rt, ast.BoolType)
            )
            if not ok:
                raise TypeError_("%r cannot compare %s and %s" % (op, lt, rt), expr.line, expr.col)
            return ast.BoolType()
        if op in ("&&", "||"):
            if not (isinstance(lt, ast.BoolType) and isinstance(rt, ast.BoolType)):
                raise TypeError_("%r needs bools, got %s and %s" % (op, lt, rt), expr.line, expr.col)
            return ast.BoolType()
        raise TypeError_("unknown operator %r" % op, expr.line, expr.col)

    def _check_call(self, expr, scope, allow_void):
        if expr.name in BUILTIN_SIGNATURES:
            return self._check_builtin(expr, scope)
        fn = self.functions.get(expr.name)
        if fn is None and scope.class_decl is not None:
            fn = self.methods.get((scope.class_decl.name, expr.name))
        if fn is None:
            raise TypeError_("undefined function %r" % expr.name, expr.line, expr.col)
        return self._check_resolved_call(expr, fn, scope, allow_void)

    def _check_method_call(self, expr, scope, allow_void):
        obj_t = self._check_expr(expr.receiver, scope)
        if not isinstance(obj_t, ast.ClassType):
            raise TypeError_("method call on non-object %s" % obj_t, expr.line, expr.col)
        fn = self.methods.get((obj_t.name, expr.name))
        if fn is None:
            raise TypeError_(
                "class %r has no method %r" % (obj_t.name, expr.name), expr.line, expr.col
            )
        return self._check_resolved_call(expr, fn, scope, allow_void)

    def _check_resolved_call(self, expr, fn, scope, allow_void):
        self.calls.append((scope.fn, fn, expr, scope.in_loop))
        self._check_args(expr, fn, scope)
        if fn.ret_type is None and not allow_void:
            raise TypeError_("void call used as a value", expr.line, expr.col)
        return fn.ret_type if fn.ret_type is not None else ast.IntType()

    def _check_args(self, expr, fn, scope):
        if len(expr.args) != len(fn.params):
            raise TypeError_(
                "%r expects %d arguments, got %d" % (fn.name, len(fn.params), len(expr.args)),
                expr.line,
                expr.col,
            )
        for arg, param in zip(expr.args, fn.params):
            t = self._check_expr(arg, scope)
            if not is_assignable(param.param_type, t):
                raise TypeError_(
                    "argument %r: expected %s, got %s" % (param.name, param.param_type, t),
                    expr.line,
                    expr.col,
                )

    def _check_builtin(self, expr, scope):
        param_spec, ret_spec = BUILTIN_SIGNATURES[expr.name]
        if len(expr.args) != len(param_spec):
            raise TypeError_(
                "builtin %r expects %d arguments, got %d"
                % (expr.name, len(param_spec), len(expr.args)),
                expr.line,
                expr.col,
            )
        arg_types = []
        for arg, spec in zip(expr.args, param_spec):
            t = self._check_expr(arg, scope)
            if spec == "num" and not is_numeric(t):
                raise TypeError_(
                    "builtin %r needs a number, got %s" % (expr.name, t), expr.line, expr.col
                )
            if spec == "array" and not isinstance(t, ast.ArrayType):
                raise TypeError_(
                    "builtin %r needs an array, got %s" % (expr.name, t), expr.line, expr.col
                )
            arg_types.append(t)
        if ret_spec == "same":
            return arg_types[0]
        if ret_spec == "promote":
            return promote(arg_types[0], arg_types[1])
        return ret_spec()


def check_program(program):
    """Type-check ``program``; returns the populated :class:`TypeChecker`."""
    return TypeChecker(program).check()
