"""Python-source code generation of function bodies and hidden fragments.

The ``codegen`` engine is the third execution tier (docs/ENGINE.md): it
lowers each open function body and each hidden fragment to *actual Python
source* compiled with :func:`compile`/``exec`` — locals become real Python
locals, loops become real ``while`` loops, step accounting is hoisted to a
local counter that is flushed back in a ``finally``, operators are inlined
(raw Python arithmetic where the static types prove it safe, guarded
fast-path helpers otherwise), and the hidden-store / channel-callback
machinery is bound as fast locals in the generated prologue.  Both halves
share one lowering core (:class:`_Lowering`); each side adds only hooks.

Bit-identity contract: identical to the closure tier's — same outputs,
same ``steps``, same per-statement-kind metric counts, same channel
traffic, same error messages as the AST engine, pinned by
tests/test_engine_equivalence.py and the fuzz oracle's codegen cells.
The generated code therefore replicates the AST walkers' evaluation order
exactly, including which sub-expression runs before which check fires.

Anything the generator cannot lower (or that trips CPython's ``compile``
limits, e.g. pathological nesting depth) *deopts*: the function or
fragment silently falls back to the closure tier, counted in
``repro_codegen_deopt_total``.  Compilation is lazy and cached per
function/fragment like the closure tier; wall-clock cost lands in
``repro_engine_compile_seconds{engine="codegen"}``.
"""

import re
import time

from repro import obs
from repro.lang import ast
from repro.obs import profile as _profile
from repro.obs.metrics import declare
from repro.lang.typecheck import BUILTIN_SIGNATURES
from repro.runtime.compile import (
    M_COMPILE_SECONDS,  # noqa: F401 (re-exported for tooling)
    CompiledFragment,
    OpenCompiler,
    _Break,
    _Continue,
    _MISSING,
    _Return,
    _close_fragment,
    _hidden_truthy,
    _observe_compile,
    _open_truthy,
)
from repro.runtime.values import (
    BINARY_OPS,
    UNARY_OPS,
    ArrayValue,
    ObjectValue,
    RuntimeErr,
    StepLimitExceeded,
    binary_op,
    call_builtin,
    default_value,
    scalar_repr,
)

#: deopt events (function/fragment fell back to the closure tier), labelled
#: ``side`` (open|hidden) and ``reason`` (the classified cause below)
M_DEOPT = declare("repro_codegen_deopt_total", "counter",
                  "codegen deopt fallbacks to the closure tier",
                  ("side", "reason"))

#: ``reason`` label values on :data:`M_DEOPT` (docs/OBSERVABILITY.md)
DEOPT_REFUSED = "refused"  # the generator deliberately declined a construct
DEOPT_COMPILE_LIMIT = "compile-limit"  # CPython's compile() limits tripped
DEOPT_INTERNAL = "internal-error"  # generator bug: unexpected exception

_INF = float("inf")

_op_add = BINARY_OPS["+"]
_op_sub = BINARY_OPS["-"]
_op_mul = BINARY_OPS["*"]
_op_lt = BINARY_OPS["<"]
_op_le = BINARY_OPS["<="]
_op_gt = BINARY_OPS[">"]
_op_ge = BINARY_OPS[">="]
_div = BINARY_OPS["/"]
_rem = BINARY_OPS["%"]
_op_neg = UNARY_OPS["-"]
_op_not = UNARY_OPS["!"]


class CodegenRefused(Exception):
    """Raised inside the generator to *deliberately* decline lowering a
    construct (vs. tripping a CPython compile limit or hitting a bug).
    Carries the reason code reported on the deopt counter and event."""

    def __init__(self, reason=DEOPT_REFUSED, message=""):
        super().__init__(message or reason)
        self.reason = reason


#: exceptions that mean "the generated source exceeded what compile()
#: accepts" — e.g. "too many statically nested blocks" (SyntaxError) on
#: pathological nesting depth
_COMPILE_LIMIT_ERRORS = (
    SyntaxError, RecursionError, MemoryError, OverflowError, SystemError,
)


def _classify_deopt(exc):
    """The ``reason`` code for one build failure."""
    if isinstance(exc, CodegenRefused):
        return exc.reason
    if isinstance(exc, _COMPILE_LIMIT_ERRORS):
        return DEOPT_COMPILE_LIMIT
    return DEOPT_INTERNAL


def _count_deopt(side, reason):
    registry = obs.active_registry()
    if registry is not None:
        registry.counter(M_DEOPT, side=side, reason=reason).inc()


def _record_deopt(side, name, exc, line=None):
    """Attribute one fallback: reason-labelled counter bump plus a
    flight-recorder ``deopt`` event carrying the site identity."""
    reason = _classify_deopt(exc)
    _count_deopt(side, reason)
    recorder = obs.get_recorder()
    if recorder is not None:
        recorder.deopt(side, name, reason,
                       "line %d" % line if line else "")
    return reason


# -- guarded operators ---------------------------------------------------------
# Used when the generator cannot prove operand types.  The fast path takes
# exact-``int`` operands (``bool.__class__`` is ``bool``, so booleans fall
# through to the checking implementations, which raise exactly like the
# AST engine's ``binary_op``).

def _gadd(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l + r
    return _op_add(l, r)


def _gsub(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l - r
    return _op_sub(l, r)


def _gmul(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l * r
    return _op_mul(l, r)


def _glt(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l < r
    return _op_lt(l, r)


def _gle(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l <= r
    return _op_le(l, r)


def _ggt(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l > r
    return _op_gt(l, r)


def _gge(l, r):
    if l.__class__ is int and r.__class__ is int:
        return l >= r
    return _op_ge(l, r)


def _gneg(v):
    if v.__class__ is int:
        return -v
    return _op_neg(v)


def _gnot(v):
    if v.__class__ is bool:
        return not v
    return _op_not(v)


def _flt(v):
    if isinstance(v, int):  # includes bool, matching the AST engine
        return float(v)
    return v


# -- error raisers -------------------------------------------------------------
# Python cannot raise in an expression, so the generated checks call these
# cold helpers.  Messages are byte-identical to the AST engine's.

def _err(msg):
    raise RuntimeErr(msg)


def _e_lim(I):
    raise StepLimitExceeded("exceeded %d steps" % I.max_steps)


def _e_hlim(server):
    raise RuntimeErr("hidden server exceeded %d steps" % server.max_steps)


def _e_nia(v):
    raise RuntimeErr("indexing non-array %r" % (v,))


def _e_ania(v):
    raise RuntimeErr("assigning into non-array %r" % (v,))


def _e_bidx(i):
    raise RuntimeErr("array index must be an int, got %r" % (i,))


def _e_oob(i, n):
    raise RuntimeErr("array index %d out of bounds [0, %d)" % (i, n))


def _e_fano(v):
    raise RuntimeErr("field access on non-object %r" % (v,))


def _e_nof(o, name):
    raise RuntimeErr("object %s has no field %r" % (o.class_name, name))


def _e_anof(v):
    raise RuntimeErr("assigning field of non-object %r" % (v,))


def _e_mnno(v):
    raise RuntimeErr("method call on non-object %r" % (v,))


def _e_nomm(o, name):
    raise RuntimeErr("class %s has no method %r" % (o.class_name, name))


def _e_nhr(name):
    raise RuntimeErr(
        "%r called but no hidden runtime is attached (running an open "
        "component standalone?)" % name
    )


#: shared exec namespace for every generated function (copied per function,
#: then extended with that function's constants)
_EXEC_GLOBALS = {
    "__builtins__": {},
    "float": float,
    "len": len,
    "dict": dict,
    "isinstance": isinstance,
    "int": int,
    "bool": bool,
    "_INF": _INF,
    "_MISS": _MISSING,
    "_Arr": ArrayValue,
    "_Obj": ObjectValue,
    "_Brk": _Break,
    "_Cnt": _Continue,
    "_T": _open_truthy,
    "_HT": _hidden_truthy,
    "_cb": call_builtin,
    "_repr": scalar_repr,
    "_gadd": _gadd,
    "_gsub": _gsub,
    "_gmul": _gmul,
    "_glt": _glt,
    "_gle": _gle,
    "_ggt": _ggt,
    "_gge": _gge,
    "_div": _div,
    "_rem": _rem,
    "_gneg": _gneg,
    "_gnot": _gnot,
    "_flt": _flt,
    "_err": _err,
    "_e_lim": _e_lim,
    "_e_hlim": _e_hlim,
    "_e_nia": _e_nia,
    "_e_ania": _e_ania,
    "_e_bidx": _e_bidx,
    "_e_oob": _e_oob,
    "_e_fano": _e_fano,
    "_e_nof": _e_nof,
    "_e_anof": _e_anof,
    "_e_mnno": _e_mnno,
    "_e_nomm": _e_nomm,
    "_e_nhr": _e_nhr,
}




class _Writer:
    """Indentation-aware line buffer for generated source."""

    __slots__ = ("lines", "_depth")

    def __init__(self, depth=0):
        self.lines = []
        self._depth = depth

    def line(self, text):
        self.lines.append("    " * self._depth + text)

    def indent(self):
        self._depth += 1

    def dedent(self):
        self._depth -= 1

    def text(self):
        return "\n".join(self.lines) + "\n"

    def extend(self, text):
        """Splice already-indented generated ``text`` in verbatim."""
        self.lines.extend(text.rstrip("\n").split("\n"))


_WORD = re.compile(r"\w+")


def _bind(w, bindings, text, always=()):
    """Emit ``name = source`` for each binding ``(name, source)`` that the
    generated ``text`` mentions (or ``always`` names), in table order."""
    used = set(_WORD.findall(text)).union(always)
    for name, source in bindings:
        if name in used:
            w.line("%s = %s" % (name, source))


#: builtins whose result type does not depend on their arguments
_BUILTIN_TYPES = {
    "sqrt": "float", "exp": "float", "log": "float", "sin": "float",
    "cos": "float", "pow": "float", "floor": "int", "len": "int",
}


def _subtree_has_calls(stmts):
    """True when any statement in ``stmts`` (recursively) contains a call.

    Loops whose bodies can raise a stray ``_Break``/``_Continue`` — thrown
    by a callee executing a ``break`` outside any lexical loop, which the
    AST engine propagates to the *caller's* enclosing loop — must catch
    them; call-free loop bodies skip the handlers entirely."""
    for stmt in ast.walk_stmts(stmts):
        for e in ast.stmt_exprs(stmt):
            if isinstance(e, (ast.Call, ast.MethodCall)):
                return True
    return False


def _has_direct_continue(stmts):
    """True when ``stmts`` contains a ``continue`` not nested in an inner
    loop (i.e. one that targets the loop owning ``stmts``)."""
    for stmt in stmts:
        if isinstance(stmt, ast.Continue):
            return True
        if isinstance(stmt, (ast.While, ast.For)):
            continue  # inner loops own their continues
        for sub in ast.child_stmt_lists(stmt):
            if _has_direct_continue(sub):
                return True
    return False


# -- the shared lowering core --------------------------------------------------


class _Lowering:
    """Lowers statements and expressions to Python source for either half.

    The core owns everything the two sides share: statement dispatch and
    step ticks, control flow, operators, conditions, evaluation-order
    hoisting, VarDecl coercion, and the ``build`` skeleton (hoisted step
    counter, per-kind counters, ``finally`` flush, ``exec``).  A side
    supplies only what differs:

    - ``_HEAD``, ``_BINDINGS``, ``_COUNTS``: the prologue — signature,
      fast-local bindings, and where per-kind counts flush to;
    - ``_STEPS``, ``_LIMIT``, ``_TRUTHY``: who holds ``steps``, the
      step-limit raise, and the truthiness helper;
    - ``_load``, ``_store``, ``_decl_slot``: name read/write routing;
    - ``_LOWER``: its own node kinds (calls, memory accesses, allocation,
      returns, prints), and ``_ERR`` for the error messages it raises;
    - ``_assign`` (open only): stores into array elements and fields —
      a hidden fragment assigns only to names;
    - ``_loop_catches``: which stray ``_Brk``/``_Cnt`` a loop must catch;
    - ``_action`` (hidden only): the per-statement prefetch wrapper.
    """

    _ERR = ""  # prefix of the unknown-node messages

    def __init__(self, counting):
        self.counting = counting
        self.w = None
        self.consts = {}
        self._const_ids = {}
        self._ntmp = 0
        self._nconst = 0
        self.kinds = set()

    # -- emission helpers ------------------------------------------------------

    def temp(self):
        self._ntmp += 1
        return "_t%d" % self._ntmp

    def const(self, obj):
        key = id(obj)
        name = self._const_ids.get(key)
        if name is None:
            name = "_k%d" % self._nconst
            self._nconst += 1
            self._const_ids[key] = name
            self.consts[name] = obj
        return name

    def _as_temp(self, code):
        """Ensure ``code`` is a name (so it can be referenced repeatedly)."""
        if code.isidentifier():
            return code
        t = self.temp()
        self.w.line("%s = %s" % (t, code))
        return t

    def _raise(self, message):
        """Emit a raise of ``message``; the (unreachable) value is None."""
        self.w.line("_err(%s)" % self.const(message))
        return "None", None, True

    def _emits(self, expr):
        """True when compiling ``expr`` produces prologue statements (so
        siblings evaluated earlier must be hoisted to preserve order)."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit,
                             ast.VarRef)):
            return False
        if isinstance(expr, ast.BinaryOp):
            return self._emits(expr.left) or self._emits(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._emits(expr.operand)
        if isinstance(expr, ast.NewArray) and ast.NewArray in self._LOWER:
            return self._emits(expr.size)  # lowered inline
        return True  # calls, memory accesses, and hoisted raises

    def _seq(self, exprs):
        """Compile ``exprs`` in evaluation order, hoisting earlier results
        to temps whenever a later sibling emits statements."""
        emits_after = []
        flag = False
        for e in reversed(exprs):
            emits_after.append(flag)
            flag = flag or self._emits(e)
        emits_after.reverse()
        out = []
        for e, hoist in zip(exprs, emits_after):
            code, typ, atomic = self.expr(e)
            if hoist and not atomic:
                t = self.temp()
                self.w.line("%s = %s" % (t, code))
                code, atomic = t, True
            out.append((code, typ))
        return out

    def _args(self, exprs):
        return ", ".join(code for code, _t in self._seq(list(exprs)))

    # -- build -----------------------------------------------------------------

    def _emit_def(self, stmts, tail=None, entry=(), always=()):
        """Lower ``stmts`` (then a ``tail`` line) into the shared skeleton:
        ``_HEAD``, the step counter hoisted to ``_s``, the ``_BINDINGS``
        the body uses, per-kind counters, the ``entry`` lines, and a
        ``finally`` that flushes both counters back (also on an abort).
        Returns the writer."""
        self.w = body = _Writer(2)
        for stmt in stmts:
            self.stmt(stmt, None)
        if tail is not None:
            body.line(tail)
        text = body.text()
        w = _Writer()
        w.line(self._HEAD[0])
        w.indent()
        for line in self._HEAD[1:]:
            w.line(line)
        w.line("_s = %s.steps" % self._STEPS)
        w.line("_lim = %s.max_steps" % self._STEPS)
        w.line("if _lim is None: _lim = _INF")
        _bind(w, self._BINDINGS, text, always)
        kinds = sorted(self.kinds)
        if self.counting:
            w.line("_C = %s" % self._COUNTS)
            for kind in kinds:
                w.line("_n_%s = 0" % kind)
        for line in entry:
            w.line(line)
        w.line("try:")
        w.extend(text)
        w.line("finally:")
        w.indent()
        w.line("%s.steps = _s" % self._STEPS)
        if self.counting:
            for kind in kinds:
                w.line('if _n_%s: _C["%s"] = _C.get("%s", 0) + _n_%s'
                       % (kind, kind, kind, kind))
        w.dedent()
        w.dedent()
        return w

    def _exec(self, w, name):
        glb = dict(_EXEC_GLOBALS)
        glb.update(self.consts)
        exec(compile(w.text(), "<codegen:%s>" % name, "exec"), glb)
        return glb

    # -- statements ------------------------------------------------------------

    def tick(self, kind=None):
        self.w.line("_s += 1")
        self.w.line("if _s > _lim: %s" % self._LIMIT)
        if kind is not None and self.counting:
            self.w.line("_n_%s += 1" % kind)
            self.kinds.add(kind)

    def stmt(self, stmt, loop):
        self.tick(type(stmt).__name__)
        self._action(stmt, loop)

    def _action(self, stmt, loop):
        w = self.w
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is None:
                code = repr(default_value(stmt.var_type))
            else:
                code, typ, _atomic = self.expr(stmt.init)
                if isinstance(stmt.var_type, ast.FloatType):
                    if typ in ("int", "bool"):
                        code = "float(%s)" % code
                    elif typ != "float":
                        code = "_flt(%s)" % code
            w.line("%s = %s" % (self._decl_slot(stmt.name), code))
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.If):
            w.line("if %s:" % self.cond(stmt.cond))
            w.indent()
            self._stmts(stmt.then_body, loop)
            w.dedent()
            if stmt.else_body:
                w.line("else:")
                w.indent()
                self._stmts(stmt.else_body, loop)
                w.dedent()
        elif isinstance(stmt, ast.While):
            w.line("while True:")
            w.indent()
            w.line("if not %s: break" % self.cond(stmt.cond))
            self.tick()
            self._loop_body(stmt, "while")
            w.dedent()
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.stmt(stmt.init, loop)
            w.line("while True:")
            w.indent()
            if stmt.cond is not None:
                w.line("if not %s: break" % self.cond(stmt.cond))
            self.tick()
            self._loop_body(stmt, "for")
            if stmt.update is not None:
                self.stmt(stmt.update, loop)
            w.dedent()
        elif isinstance(stmt, ast.Break):
            w.line("break" if loop else "raise _Brk()")
        elif isinstance(stmt, ast.Continue):
            # in a for body the handler catches it, so the update still runs
            w.line("continue" if loop == "while" else "raise _Cnt()")
        elif isinstance(stmt, ast.Block):
            for s in stmt.body:
                self.stmt(s, loop)
        elif type(stmt) in self._LOWER:
            self._LOWER[type(stmt)](self, stmt)
        else:
            self._raise(self._ERR + "cannot execute %r" % (stmt,))

    def _stmts(self, stmts, loop):
        for s in stmts:
            self.stmt(s, loop)
        if not stmts:
            self.w.line("pass")

    def _loop_body(self, stmt, loop):
        w = self.w
        catches = self._loop_catches(stmt)
        if catches:
            w.line("try:")
            w.indent()
        self._stmts(stmt.body, loop)
        if catches:
            w.dedent()
        for exc in catches:
            w.line("except %s:" % exc)
            w.indent()
            if exc == "_Brk":
                w.line("break")
            else:
                w.line("continue" if loop == "while" else "pass")
            w.dedent()

    def _assign(self, stmt):
        # a name target; the open side adds array elements and fields
        code, _typ, _atomic = self.expr(stmt.value)
        self._store(stmt.target.name, code)

    # -- conditions ------------------------------------------------------------

    def cond(self, expr):
        """Compile ``expr`` as a Python boolean condition (AST truthiness)."""
        code, typ, _atomic = self.expr(expr)
        if typ == "bool":
            return code
        if typ == "int":
            return "(%s != 0)" % code
        return "%s(%s)" % (self._TRUTHY, code)

    # -- expressions -----------------------------------------------------------

    def expr(self, expr):
        """Returns ``(code, type, atomic)``; may emit prologue lines."""
        if isinstance(expr, ast.BoolLit):
            return ("True" if expr.value else "False"), "bool", True
        if isinstance(expr, ast.IntLit):
            return repr(expr.value), "int", True
        if isinstance(expr, ast.FloatLit):
            return repr(expr.value), "float", True
        if isinstance(expr, ast.VarRef):
            return self._load(expr.name)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.UnaryOp):
            code, typ, _atomic = self.expr(expr.operand)
            if expr.op == "-":
                if typ in ("int", "float"):
                    return "(-%s)" % code, typ, False
                return "_gneg(%s)" % code, None, False
            if expr.op == "!":
                if typ == "bool":
                    return "(not %s)" % code, "bool", False
                return "_gnot(%s)" % code, "bool", False
            t = self._as_temp(code)
            self._raise("unknown unary operator %r" % expr.op)
            return t, None, True
        if type(expr) in self._LOWER:
            return self._LOWER[type(expr)](self, expr)
        return self._raise(self._ERR + "cannot evaluate %r" % (expr,))

    def _binary(self, expr):
        w = self.w
        op = expr.op

        if op in ("&&", "||"):
            keyword = "and" if op == "&&" else "or"
            if not self._emits(expr.right):
                lcode = self.cond(expr.left)
                rcode = self.cond(expr.right)
                return "(%s %s %s)" % (lcode, keyword, rcode), "bool", False
            # impure right-hand side: short-circuit via an if-block
            t = self.temp()
            w.line("%s = %s" % (t, self.cond(expr.left)))
            w.line("if %s%s:" % ("" if op == "&&" else "not ", t))
            w.indent()
            w.line("%s = %s" % (t, self.cond(expr.right)))
            w.dedent()
            return t, "bool", True

        pieces = self._seq([expr.left, expr.right])
        (lcode, lt), (rcode, rt) = pieces
        numeric = ("int", "float")

        if op in ("==", "!="):
            return "(%s %s %s)" % (lcode, op, rcode), "bool", False
        if op in ("<", "<=", ">", ">="):
            if lt in numeric and rt in numeric:
                return "(%s %s %s)" % (lcode, op, rcode), "bool", False
            helper = {"<": "_glt", "<=": "_gle", ">": "_ggt", ">=": "_gge"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), "bool", False
        if op in ("+", "-", "*"):
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
                return "(%s %s %s)" % (lcode, op, rcode), typ, False
            helper = {"+": "_gadd", "-": "_gsub", "*": "_gmul"}[op]
            return "%s(%s, %s)" % (helper, lcode, rcode), None, False
        if op == "/":
            typ = None
            if lt in numeric and rt in numeric:
                typ = "int" if (lt == "int" and rt == "int") else "float"
            return "_div(%s, %s)" % (lcode, rcode), typ, False
        if op == "%":
            typ = "int" if (lt == "int" and rt == "int") else None
            return "_rem(%s, %s)" % (lcode, rcode), typ, False

        # unknown operator: defer to binary_op for its operand-first
        # error order
        t = self.temp()
        w.line("%s = %s(%s, %s, %s)"
               % (t, self.const(binary_op), self.const(op), lcode, rcode))
        return t, None, True

    def _builtin(self, expr, typ):
        args = self._args(expr.args)
        if len(expr.args) == 1:
            args += ","
        return '_cb("%s", (%s))' % (expr.name, args), typ, False


# -- open side -----------------------------------------------------------------


class OpenCodegen:
    """Lazily lowers one program's function bodies to Python source.

    One instance per Interpreter running ``engine="codegen"``.  ``body(fn)``
    returns a callable ``(I, env) -> return value`` (native Python
    ``return``); the cache is keyed by the ``Function`` node, exactly like
    :class:`~repro.runtime.compile.OpenCompiler`.
    """

    __slots__ = ("_functions", "_methods", "_classes", "_globals", "_counting",
                 "_cache", "_fallback")

    def __init__(self, functions, methods, classes, globals_names, counting):
        self._functions = functions
        self._methods = methods
        self._classes = classes
        self._globals = frozenset(globals_names)
        self._counting = counting
        self._cache = {}
        self._fallback = None

    def body(self, fn):
        run = self._cache.get(fn)
        if run is None:
            started = time.perf_counter()
            try:
                run = _FnCodegen(self, fn).build()
                _profile.register_code(
                    run.__code__, fn.qualified_name, "codegen", "open"
                )
            except Exception as exc:
                run = self._deopt(fn, exc)
            self._cache[fn] = run
            _observe_compile("open", time.perf_counter() - started,
                             engine="codegen")
        return run

    def _deopt(self, fn, exc):
        """Closure-tier fallback for one function the generator refused."""
        _record_deopt("open", fn.qualified_name, exc, fn.line)
        if self._fallback is None:
            self._fallback = OpenCompiler(
                self._functions, self._methods, self._classes
            )
        thunks = tuple(self._fallback.compile_stmt(s, fn) for s in fn.body)

        def run(I, env):
            try:
                for t in thunks:
                    t(I, env)
            except _Return as r:
                return r.value
            return None

        return run


class _FnCodegen(_Lowering):
    """Emits the Python source for one open function body."""

    _HEAD = ("def __gen(I, env):",)
    _BINDINGS = (
        ("_L", "env.locals"),
        ("_G", "I.globals"),
        ("_h", "I.hidden"),
        ("_call", "I.call_function"),
        ("_lk", "I.lookup"),
        ("_as", "I.assign_name"),
        ("_oa", "I.open_access"),
    )
    _COUNTS = "I._stmt_counts"
    _STEPS = "I"
    _LIMIT = "_e_lim(I)"
    _TRUTHY = "_T"

    def __init__(self, owner, fn):
        super().__init__(owner._counting)
        self.owner = owner
        self.fn = fn
        self.uses_hidden = any(
            isinstance(e, ast.Call) and e.name in ("hopen", "hcall", "hclose")
            for stmt in ast.walk_stmts(fn.body)
            for e in ast.stmt_exprs(stmt)
        )
        self.regs, self.types = self._classify()

    # -- name classification ---------------------------------------------------

    def _field_names(self):
        if self.fn.owner is None:
            return frozenset()
        cls = self.owner._classes.get(self.fn.owner)
        if cls is None:
            return frozenset()
        return frozenset(f.name for f in cls.fields)

    def _classify(self):
        """Decide which names become real Python locals (registers).

        A name is a register when it is *definitely bound* (param, or
        top-level VarDecl / fresh-creating top-level assign) before any
        use, so the generated local can never be unbound where the AST
        engine would have found a value (or raised ``undefined
        variable``).  In functions containing hidden builtins the
        activation ``env`` escapes to fragment callbacks, which fetch
        open *aggregates* through ``Interpreter.lookup`` — so there only
        certainly-scalar names may leave ``env.locals``.
        """
        fn = self.fn
        fields = self._field_names()
        globals_names = self.owner._globals
        declared = {}  # name -> declared Type (param or first VarDecl)
        for p in fn.params:
            declared[p.name] = p.param_type
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, ast.VarDecl) and stmt.name not in declared:
                declared[stmt.name] = stmt.var_type

        bound = set(p.name for p in fn.params)
        ineligible = set()

        def check_expr(expr):
            for e in ast.walk_exprs(expr):
                if isinstance(e, ast.VarRef) and e.name not in bound:
                    ineligible.add(e.name)

        def check_subtree(stmt):
            for s in ast.walk_stmts([stmt]):
                for top in ast.child_expr_lists(s):
                    check_expr(top)
                if isinstance(s, ast.VarDecl) and s.name not in bound:
                    ineligible.add(s.name)
                if isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef):
                    if s.target.name not in bound:
                        ineligible.add(s.target.name)

        for stmt in fn.body:
            if isinstance(stmt, ast.VarDecl):
                if stmt.init is not None:
                    check_expr(stmt.init)
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.VarRef
            ):
                check_expr(stmt.value)
                name = stmt.target.name
                if name not in bound:
                    if name not in fields and name not in globals_names:
                        bound.add(name)  # assign_name creates a fresh local
                    else:
                        ineligible.add(name)
            else:
                check_subtree(stmt)

        candidates = bound - ineligible
        if self.uses_hidden:
            candidates = {
                n for n in candidates
                if n.startswith("__t")
                or isinstance(declared.get(n),
                              (ast.IntType, ast.FloatType, ast.BoolType))
            }

        regs = {}
        for name in candidates:
            regs[name] = "u_" + name

        types = self._infer_types(regs, declared)
        return regs, types

    def _infer_types(self, regs, declared):
        """Static scalar types for registers, demoted to ``None`` on any
        write the types cannot prove.  Parameters start untyped: the
        runtime only coerces int→float for float params — bools (and, for
        non-scalar params, anything) flow through unchecked."""
        types = {}
        param_names = {p.name for p in self.fn.params}
        for name in regs:
            t = declared.get(name)
            if name in param_names:
                types[name] = None
            elif isinstance(t, ast.IntType):
                types[name] = "int"
            elif isinstance(t, ast.FloatType):
                types[name] = "float"
            elif isinstance(t, ast.BoolType):
                types[name] = "bool"
            else:
                types[name] = None

        def etype(expr):
            if isinstance(expr, ast.BoolLit):
                return "bool"
            if isinstance(expr, ast.IntLit):
                return "int"
            if isinstance(expr, ast.FloatLit):
                return "float"
            if isinstance(expr, ast.VarRef):
                return types.get(expr.name) if expr.name in regs else None
            if isinstance(expr, ast.BinaryOp):
                lt, rt = etype(expr.left), etype(expr.right)
                op = expr.op
                if op in ("&&", "||", "==", "!=", "<", "<=", ">", ">="):
                    return "bool"
                if op in ("+", "-", "*", "/"):
                    if lt == "int" and rt == "int":
                        return "int"
                    if lt in ("int", "float") and rt in ("int", "float"):
                        return "float"
                    return None
                if op == "%":
                    if lt == "int" and rt == "int":
                        return "int"
                    return None
                return None
            if isinstance(expr, ast.UnaryOp):
                ot = etype(expr.operand)
                if expr.op == "-":
                    return ot if ot in ("int", "float") else None
                if expr.op == "!":
                    return "bool"
                return None
            if isinstance(expr, ast.Call):
                name = expr.name
                if name in ("hopen", "hclose"):
                    return "int"
                if name == "abs":
                    at = etype(expr.args[0]) if expr.args else None
                    return at if at in ("int", "float") else None
                return _BUILTIN_TYPES.get(name)
            return None

        self._etype = etype

        def write_type(var_type, expr, is_decl):
            t = etype(expr)
            if is_decl and isinstance(var_type, ast.FloatType):
                # VarDecl coerces int (incl. bool) initialisers to float
                return "float" if t in ("int", "float", "bool") else None
            return t

        changed = True
        while changed:
            changed = False
            for stmt in ast.walk_stmts(self.fn.body):
                if isinstance(stmt, ast.VarDecl) and stmt.name in regs:
                    if stmt.init is None:
                        # default-initialised: the value has the declared type
                        wt = {
                            ast.IntType: "int", ast.FloatType: "float",
                            ast.BoolType: "bool",
                        }.get(type(stmt.var_type))
                    else:
                        wt = write_type(stmt.var_type, stmt.init, True)
                    cur = types.get(stmt.name)
                    if cur is not None and wt != cur:
                        types[stmt.name] = None
                        changed = True
                elif (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.target, ast.VarRef)
                    and stmt.target.name in regs
                ):
                    wt = etype(stmt.value)
                    cur = types.get(stmt.target.name)
                    if cur is not None and wt != cur:
                        types[stmt.target.name] = None
                        changed = True
        return types

    # -- build -----------------------------------------------------------------

    def build(self):
        fn = self.fn
        entry = ['%s = _L["%s"]' % (self.regs[p.name], p.name)
                 for p in fn.params if p.name in self.regs]
        w = self._emit_def(fn.body, "return None", entry,
                           always=("_L",) if entry else ())
        return self._exec(w, fn.qualified_name)["__gen"]

    # -- hooks: name routing, loops --------------------------------------------

    def _is_pure_global(self, name):
        """Reads/writes of ``name`` go straight to ``I.globals``: it can
        never be a local of this function, never a receiver field."""
        return (
            self.fn.owner is None
            and name in self.owner._globals
            and name not in self.regs
        )

    def _load(self, name):
        reg = self.regs.get(name)
        if reg is not None:
            return reg, self.types.get(name), True
        if self._is_pure_global(name):
            return '_G["%s"]' % name, None, False
        return '_lk(env, "%s")' % name, None, False

    def _store(self, name, code):
        reg = self.regs.get(name)
        if reg is not None:
            self.w.line("%s = %s" % (reg, code))
        elif self._is_pure_global(name):
            self.w.line('_G["%s"] = %s' % (name, code))
        else:
            self.w.line('_as(env, "%s", %s)' % (name, code))

    def _decl_slot(self, name):
        return self.regs.get(name) or '_L["%s"]' % name

    def _loop_catches(self, stmt):
        if _subtree_has_calls(stmt.body) or (
            isinstance(stmt, ast.For) and _has_direct_continue(stmt.body)
        ):
            return ("_Brk", "_Cnt")
        return ()

    def _assign(self, stmt):
        target = stmt.target
        if isinstance(target, ast.VarRef):
            super()._assign(stmt)
            return
        vcode, _vt, vatomic = self.expr(stmt.value)
        if not vatomic:
            vcode = self._as_temp(vcode)
        if isinstance(target, ast.Index):
            self._write_index(target, vcode)
        elif isinstance(target, ast.FieldAccess):
            self._write_field(target, vcode)
        else:
            self._raise("invalid assignment target %r" % (target,))

    # -- hooks: open-only statements -------------------------------------------

    def _return(self, stmt):
        w = self.w
        if stmt.value is None:
            w.line("return None")
            return
        code, typ, _atomic = self.expr(stmt.value)
        if isinstance(self.fn.ret_type, ast.FloatType):
            if typ in ("int", "bool"):
                code = "float(%s)" % code
            elif typ != "float":
                t = self.temp()
                w.line("%s = %s" % (t, code))
                w.line(
                    "if %s is not None and isinstance(%s, int): "
                    "%s = float(%s)" % (t, t, t, t)
                )
                code = t
        w.line("return %s" % code)

    def _call_stmt(self, stmt):
        code, _typ, atomic = self.expr(stmt.call)
        if not atomic:
            self.w.line(code)

    def _print(self, stmt):
        code, _typ, _atomic = self.expr(stmt.value)
        self.w.line("I.output.append(_repr(%s))" % code)

    # -- hooks: memory ---------------------------------------------------------

    def _elem(self, expr, not_array):
        """AST order: base, array check, index, index checks.  Returns the
        ``(elems, index)`` temps of the checked element."""
        w = self.w
        bcode, _bt, _batomic = self.expr(expr.base)
        tb = self._as_temp(bcode)
        w.line("if %s.__class__ is not _Arr: %s(%s)" % (tb, not_array, tb))
        icode, it, _iatomic = self.expr(expr.index)
        ti = self._as_temp(icode)
        te = self.temp()
        w.line("%s = %s.elems" % (te, tb))
        if it != "int":
            w.line("if %s.__class__ is not int: _e_bidx(%s)" % (ti, ti))
        w.line("if %s < 0 or %s >= len(%s): _e_oob(%s, len(%s))"
               % (ti, ti, te, ti, te))
        return te, ti

    def _index(self, expr):
        te, ti = self._elem(expr, "_e_nia")
        t = self.temp()
        self.w.line("%s = %s[%s]" % (t, te, ti))
        return t, None, True

    def _write_index(self, target, vcode):
        te, ti = self._elem(target, "_e_ania")
        self.w.line("%s[%s] = %s" % (te, ti, vcode))

    def _field(self, expr):
        w = self.w
        ocode, _ot, _atomic = self.expr(expr.obj)
        to = self._as_temp(ocode)
        w.line("if %s.__class__ is not _Obj: _e_fano(%s)" % (to, to))
        tf = self.temp()
        w.line("%s = %s.fields" % (tf, to))
        w.line('if "%s" not in %s: _e_nof(%s, "%s")'
               % (expr.name, tf, to, expr.name))
        t = self.temp()
        w.line('%s = %s["%s"]' % (t, tf, expr.name))
        return t, None, True

    def _write_field(self, target, vcode):
        ocode, _ot, _oatomic = self.expr(target.obj)
        to = self._as_temp(ocode)
        self.w.line("if %s.__class__ is not _Obj: _e_anof(%s)" % (to, to))
        self.w.line('%s.fields["%s"] = %s' % (to, target.name, vcode))

    def _new_array(self, expr):
        scode, _st, _atomic = self.expr(expr.size)
        et = self.const(expr.elem_type)
        return "_Arr.of_size(%s, %s)" % (et, scode), None, False

    def _new_object(self, expr):
        cname = expr.class_name
        cls = self.owner._classes.get(cname)
        if cls is None:
            return self._raise("no class %r" % cname)
        field_defaults = tuple(
            (f.name, default_value(f.field_type)) for f in cls.fields
        )
        fd = self.const(field_defaults)
        t = self.temp()
        self.w.line('%s = I.new_object("%s", dict(%s))' % (t, cname, fd))
        return t, None, True

    # -- hooks: calls ----------------------------------------------------------

    def _sync_call(self, lhs, call_code):
        w = self.w
        w.line("I.steps = _s")
        w.line("try:")
        w.indent()
        w.line("%s = %s" % (lhs, call_code))
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("_s = I.steps")
        w.dedent()

    def _call(self, expr):
        name = expr.name
        if name in ("hopen", "hcall", "hclose"):
            return self._hidden_builtin(expr)
        if name in BUILTIN_SIGNATURES:
            return self._builtin(expr, self._etype(expr))

        target = self.owner._functions.get(name)
        receiver = ""
        if target is None and self.fn.owner is not None:
            target = self.owner._methods.get((self.fn.owner, name))
            receiver = ", env.receiver"
        if target is not None:
            args = self._args(expr.args)
            t = self.temp()
            self._sync_call(t, "_call(%s, [%s]%s)"
                            % (self.const(target), args, receiver))
            return t, None, True

        # unknown function: arguments evaluate first (AST order), then raise
        for e in expr.args:
            code, _typ, atomic = self.expr(e)
            if not atomic:
                self._as_temp(code)
        return self._raise("no function %r" % name)

    def _method_call(self, expr):
        w = self.w
        rcode, _rt, _atomic = self.expr(expr.receiver)
        tr = self._as_temp(rcode)
        w.line("if %s.__class__ is not _Obj: _e_mnno(%s)" % (tr, tr))
        tm = self.temp()
        w.line('%s = _M.get((%s.class_name, "%s"))' % (tm, tr, expr.name))
        self.consts["_M"] = self.owner._methods
        w.line('if %s is None: _e_nomm(%s, "%s")' % (tm, tr, expr.name))
        args = self._args(expr.args)
        t = self.temp()
        self._sync_call(t, "_call(%s, [%s], %s)" % (tm, args, tr))
        return t, None, True

    def _hidden_builtin(self, expr):
        w = self.w
        name = expr.name
        w.line('if _h is None: _e_nhr("%s")' % name)
        if name == "hopen":
            code, _t, _atomic = self.expr(expr.args[0])
            t = self.temp()
            w.line("%s = _h.open_activation(%s, env.receiver)" % (t, code))
            return t, "int", True
        if name == "hclose":
            code, _t, _atomic = self.expr(expr.args[0])
            w.line("_h.close_activation(%s)" % code)
            return "0", "int", True
        pieces = self._seq(list(expr.args))
        values = ", ".join(code for code, _t in pieces[2:])
        t = self.temp()
        w.line("%s = _h.call(%s, %s, [%s], _oa(env))"
               % (t, pieces[0][0], pieces[1][0], values))
        return t, None, True

    _LOWER = {
        ast.Return: _return,
        ast.CallStmt: _call_stmt,
        ast.Print: _print,
        ast.Call: _call,
        ast.MethodCall: _method_call,
        ast.Index: _index,
        ast.FieldAccess: _field,
        ast.NewArray: _new_array,
        ast.NewObject: _new_object,
    }


# -- hidden side ---------------------------------------------------------------


class _FragCodegen(_Lowering):
    """Emits Python source for one hidden fragment (body + result expr).

    Hidden locals stay in the activation ``env`` dict — they persist
    across ``hcall``s and must survive mid-fragment aborts — but
    statement dispatch, step accounting, operator application, storage
    routing, and the batch-cache probes are all lowered to straight-line
    Python.  Open-memory reads still go through the call's access window
    (``ev.access``; the Link charges them); a fragment never writes open
    memory.
    """

    _HEAD = ("def __frag(ev):", "server = ev.server")
    _BINDINGS = (
        ("_env", "ev.env"),
        ("_pm", "ev.prefetch_map"),
        ("_bc", "ev._batch_cache"),
        ("_HG", "server.hidden_globals"),
        ("_ifd", "ev._instance_fields"),
        ("_cfi", "ev.access.fetch_index"),
        ("_cff", "ev.access.fetch_field"),
    )
    #: the result expression's bindings: it neither prefetches nor writes
    _RESULT_BINDINGS = (
        ("_env", "ev.env"),
        ("_bc", "ev._batch_cache"),
        ("_HG", "ev.server.hidden_globals"),
        ("_ifd", "ev._instance_fields"),
        ("_cfi", "ev.access.fetch_index"),
        ("_cff", "ev.access.fetch_field"),
    )
    _COUNTS = "ev.stmt_counts"
    _STEPS = "server"
    _LIMIT = "_e_hlim(server)"
    _TRUTHY = "_HT"
    _ERR = "hidden fragment "

    def __init__(self, fragment, storage_map, counting, stmt_map):
        super().__init__(counting)
        self.fragment = fragment
        self.storage = storage_map
        # which statements *can* carry a prefetch plan: the map
        # the server passes at call time, so the generated probe sites
        # line up with the runtime ``prefetch_map`` keys
        self.stmt_map = stmt_map

    def build(self):
        fragment = self.fragment
        w = self._emit_def(fragment.body, None if fragment.body else "pass")
        if fragment.result_expr is not None:
            self.w = _Writer(1)
            code, _typ, _atomic = self.expr(fragment.result_expr)
            self.w.line("return %s" % code)
            text = self.w.text()
            w.line("def __res(ev):")
            w.indent()
            _bind(w, self._RESULT_BINDINGS, text)
            w.extend(text)
            w.dedent()
        glb = self._exec(w, "fragment#%s" % (getattr(fragment, "label", "?"),))
        return CompiledFragment((glb["__frag"],), glb.get("__res"))

    # -- hooks -----------------------------------------------------------------

    def _action(self, stmt, loop):
        if id(stmt) not in self.stmt_map:
            super()._action(stmt, loop)
            return
        # this statement carries a prefetch plan: when the call
        # runs batched (prefetch_map passed), pull its open-memory reads in
        # one callback before executing, then drop the cache
        w = self.w
        r = self.temp()
        w.line("%s = _pm.get(%d) if _pm is not None else None"
               % (r, id(stmt)))
        w.line("if %s is not None: ev.prefetch_reads(%s)" % (r, r))
        w.line("try:")
        w.indent()
        super()._action(stmt, loop)
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("if %s is not None: ev.clear_batch_cache()" % r)
        w.dedent()

    def _slot(self, name):
        kind = self.storage.get(name)
        if kind == "global":
            return "_HG"
        if kind == "field":
            return "_ifd()"
        return "_env"

    def _load(self, name):
        return '%s.get("%s", 0)' % (self._slot(name), name), None, False

    def _store(self, name, code):
        self.w.line('%s["%s"] = %s' % (self._slot(name), name, code))

    def _decl_slot(self, name):
        return '_env["%s"]' % name

    def _loop_catches(self, stmt):
        # fragments call no functions, so no stray _Brk/_Cnt reach a loop;
        # only a for body's own continue must still run the update
        if isinstance(stmt, ast.For) and _has_direct_continue(stmt.body):
            return ("_Cnt",)
        return ()

    def _call(self, expr):
        if expr.name not in BUILTIN_SIGNATURES:
            # matches the AST engine: rejected before arguments run
            return self._raise(
                "hidden fragment may not call function %r" % expr.name)
        return self._builtin(expr, _BUILTIN_TYPES.get(expr.name))

    def _probe(self, expr, fetch):
        """Read through the batch cache, keyed by the node's identity;
        on a miss, ``fetch()`` lowers the callback."""
        w = self.w
        t = self.temp()
        w.line("%s = _bc.get(%d, _MISS) if _bc else _MISS" % (t, id(expr)))
        w.line("if %s is _MISS:" % t)
        w.indent()
        w.line("%s = %s" % (t, fetch()))
        w.dedent()
        return t, None, True

    def _index(self, expr):
        base = expr.base
        if not isinstance(base, ast.VarRef):
            return self._raise("hidden fragment: complex array base")
        return self._probe(expr, lambda: '_cfi("%s", %s)'
                           % (base.name, self.expr(expr.index)[0]))

    def _field(self, expr):
        obj = expr.obj
        if not isinstance(obj, ast.VarRef):
            return self._raise("hidden fragment: complex field object")
        return self._probe(expr, lambda: '_cff("%s", "%s")'
                           % (obj.name, expr.name))

    _LOWER = {
        ast.Call: _call,
        ast.Index: _index,
        ast.FieldAccess: _field,
    }


def codegen_fragment(fragment, storage_map, counting, stmt_map):
    """Lower one hidden fragment to Python source; closure-tier deopt on
    any generation failure.  ``stmt_map`` is the statement map of
    the fragment's prefetch plan (:func:`repro.core.prefetch.
    prefetch_plan`).  Returns
    a :class:`CompiledFragment`-shaped object (``body`` iterable of
    callables taking the per-call ``_FragmentEvaluator``, ``result``
    callable or ``None``)."""
    started = time.perf_counter()
    name = "fragment#%s" % (getattr(fragment, "label", "?"),)
    try:
        compiled = _FragCodegen(fragment, storage_map or {}, counting,
                                stmt_map).build()
        for part in tuple(compiled.body) + (compiled.result,):
            if part is not None:
                _profile.register_code(
                    part.__code__, name, "codegen", "hidden"
                )
    except Exception as exc:
        line = None
        if fragment.body:
            line = fragment.body[0].line
        elif fragment.result_expr is not None:
            line = fragment.result_expr.line
        _record_deopt("hidden", name, exc, line)
        compiled = _close_fragment(fragment, storage_map)
    _observe_compile("hidden", time.perf_counter() - started, engine="codegen")
    return compiled
