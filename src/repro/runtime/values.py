"""Runtime values and operator semantics.

Scalars map onto Python ``int``/``float``/``bool``.  Integer division and
remainder follow Java semantics (truncation toward zero), matching the
paper's Java setting; the property tests pin this down.
"""

import math

from repro.lang import ast


class RuntimeErr(Exception):
    """Raised for dynamic errors (division by zero, bad index, ...)."""


class StepLimitExceeded(RuntimeErr):
    """The configured execution budget was exhausted.

    Lives here (rather than in :mod:`repro.runtime.interpreter`, which
    re-exports it) so that both execution engines — the AST walker and the
    closure compiler in :mod:`repro.runtime.compile` — can raise it without
    a circular import.
    """


class ArrayValue:
    """A one-dimensional array."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = elems

    @classmethod
    def of_size(cls, elem_type, size):
        if size < 0:
            raise RuntimeErr("negative array size %d" % size)
        return cls([default_value(elem_type)] * size)

    def get(self, index):
        self._check(index)
        return self.elems[index]

    def set(self, index, value):
        self._check(index)
        self.elems[index] = value

    def _check(self, index):
        if not isinstance(index, int) or isinstance(index, bool):
            raise RuntimeErr("array index must be an int, got %r" % (index,))
        if index < 0 or index >= len(self.elems):
            raise RuntimeErr(
                "array index %d out of bounds [0, %d)" % (index, len(self.elems))
            )

    def __len__(self):
        return len(self.elems)

    def __repr__(self):
        return "ArrayValue(%r)" % (self.elems,)


class ObjectValue:
    """An instance of a class: a field dictionary plus an identity.

    ``oid`` numbers the objects of one run from 1
    (:meth:`repro.runtime.interpreter.Interpreter.new_object`), so a split
    class's ``open`` events do not depend on what ran before."""

    __slots__ = ("class_name", "fields", "oid")

    def __init__(self, class_name, fields, oid):
        self.class_name = class_name
        self.fields = fields
        self.oid = oid

    def __repr__(self):
        return "ObjectValue(%s#%d)" % (self.class_name, self.oid)


def default_value(t):
    if isinstance(t, ast.IntType):
        return 0
    if isinstance(t, ast.FloatType):
        return 0.0
    if isinstance(t, ast.BoolType):
        return False
    return None  # arrays and objects default to null


def java_int_div(a, b):
    if b == 0:
        raise RuntimeErr("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_int_rem(a, b):
    if b == 0:
        raise RuntimeErr("integer remainder by zero")
    return a - java_int_div(a, b) * b


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _numeric(v, op):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RuntimeErr("operator %r needs a number, got %r" % (op, v))
    return v


def _op_and(left, right):
    return bool(left) and bool(right)


def _op_or(left, right):
    return bool(left) or bool(right)


def _op_eq(left, right):
    return left == right


def _op_ne(left, right):
    return left != right


def _op_lt(left, right):
    return _numeric(left, "<") < _numeric(right, "<")


def _op_le(left, right):
    return _numeric(left, "<=") <= _numeric(right, "<=")


def _op_gt(left, right):
    return _numeric(left, ">") > _numeric(right, ">")


def _op_ge(left, right):
    return _numeric(left, ">=") >= _numeric(right, ">=")


def _op_add(left, right):
    return _numeric(left, "+") + _numeric(right, "+")


def _op_sub(left, right):
    return _numeric(left, "-") - _numeric(right, "-")


def _op_mul(left, right):
    return _numeric(left, "*") * _numeric(right, "*")


def _op_div(left, right):
    a = _numeric(left, "/")
    b = _numeric(right, "/")
    if _is_int(a) and _is_int(b):
        return java_int_div(a, b)
    if b == 0:
        raise RuntimeErr("float division by zero")
    return a / b


def _op_rem(left, right):
    a = _numeric(left, "%")
    b = _numeric(right, "%")
    if _is_int(a) and _is_int(b):
        return java_int_rem(a, b)
    raise RuntimeErr("'%%' needs ints, got %r and %r" % (a, b))


#: operator symbol -> implementation.  The compiled engine
#: (repro.runtime.compile) binds these functions into closures at compile
#: time; the AST engine reaches them through :func:`binary_op`.
BINARY_OPS = {
    "&&": _op_and,
    "||": _op_or,
    "==": _op_eq,
    "!=": _op_ne,
    "<": _op_lt,
    "<=": _op_le,
    ">": _op_gt,
    ">=": _op_ge,
    "+": _op_add,
    "-": _op_sub,
    "*": _op_mul,
    "/": _op_div,
    "%": _op_rem,
}


def binary_op(op, left, right):
    """Evaluate a binary operator on runtime values."""
    fn = BINARY_OPS.get(op)
    if fn is not None:
        return fn(left, right)
    # Unknown operator: the historical error order checks the operands
    # before rejecting the operator itself.
    _numeric(left, op)
    _numeric(right, op)
    raise RuntimeErr("unknown operator %r" % op)


def _op_neg(value):
    return -_numeric(value, "-")


def _op_not(value):
    if not isinstance(value, bool):
        raise RuntimeErr("'!' needs a bool, got %r" % (value,))
    return not value


UNARY_OPS = {"-": _op_neg, "!": _op_not}


def unary_op(op, value):
    fn = UNARY_OPS.get(op)
    if fn is None:
        raise RuntimeErr("unknown unary operator %r" % op)
    return fn(value)


def call_builtin(name, args):
    """Evaluate one of the language's math builtins."""
    try:
        if name == "sqrt":
            if args[0] < 0:
                raise RuntimeErr("sqrt of negative number %r" % (args[0],))
            return math.sqrt(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "log":
            if args[0] <= 0:
                raise RuntimeErr("log of non-positive number %r" % (args[0],))
            return math.log(args[0])
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "pow":
            return float(math.pow(args[0], args[1]))
        if name == "abs":
            return abs(args[0])
        if name == "min":
            return min(args[0], args[1])
        if name == "max":
            return max(args[0], args[1])
        if name == "floor":
            return int(math.floor(args[0]))
        if name == "len":
            arr = args[0]
            if not isinstance(arr, ArrayValue):
                raise RuntimeErr("len needs an array, got %r" % (arr,))
            return len(arr)
    except (OverflowError, ValueError):  # e.g. floor(inf), floor(nan)
        raise RuntimeErr("math error in %s%r" % (name, tuple(args)))
    raise RuntimeErr("unknown builtin %r" % name)


def scalar_repr(value):
    """Canonical print format (used to compare original vs. split output)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)
