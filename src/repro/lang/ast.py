"""Abstract syntax tree for the MiniJava-like language.

Nodes are slotted dataclasses with identity-based equality (``eq=False``)
so they can be used as dictionary keys by the analysis passes, which attach
facts to individual statements and expressions.  Structural comparison, used
by the parser/pretty-printer round-trip tests, is provided separately by
:func:`structurally_equal`.

Every node carries an optional source position, ``line`` and ``col``.
"""

from dataclasses import dataclass, field


class Node:
    """Base class for all AST nodes.

    The source position lives in this base's slots rather than in the
    dataclass fields, so :func:`structurally_equal` ignores it."""

    __slots__ = ("line", "col")

    def __post_init__(self):
        self.line = None
        self.col = None

    def at(self, line, col):
        """Attach a source position; returns ``self`` for chaining."""
        self.line = line
        self.col = col
        return self


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Type(Node):
    """Base class for type annotations."""


@dataclass(eq=False, slots=True)
class IntType(Type):
    def __str__(self):
        return "int"


@dataclass(eq=False, slots=True)
class FloatType(Type):
    def __str__(self):
        return "float"


@dataclass(eq=False, slots=True)
class BoolType(Type):
    def __str__(self):
        return "bool"


@dataclass(eq=False, slots=True)
class ArrayType(Type):
    elem: Type

    def __str__(self):
        return "%s[]" % self.elem


@dataclass(eq=False, slots=True)
class ClassType(Type):
    name: str

    def __str__(self):
        return self.name


def is_scalar_type(t):
    """Scalar types are the only ones the paper allows to be hidden."""
    return isinstance(t, (IntType, FloatType, BoolType))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Expr(Node):
    """Base class for expressions."""


@dataclass(eq=False, slots=True)
class IntLit(Expr):
    value: int


@dataclass(eq=False, slots=True)
class FloatLit(Expr):
    value: float


@dataclass(eq=False, slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(eq=False, slots=True)
class VarRef(Expr):
    """Reference to a local variable, parameter, field, or global.

    Name resolution (local vs. implicit field vs. global) is performed by
    the type checker and recorded in ``binding``:  one of ``"local"``,
    ``"field"``, ``"global"`` or ``None`` when unresolved.
    """

    name: str
    binding: str = None


@dataclass(eq=False, slots=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass(eq=False, slots=True)
class Call(Expr):
    """Free-function or builtin call: ``f(a, b)``."""

    name: str
    args: list


@dataclass(eq=False, slots=True)
class MethodCall(Expr):
    """Method call on an object expression: ``obj.m(a, b)``."""

    receiver: Expr
    name: str
    args: list


@dataclass(eq=False, slots=True)
class Index(Expr):
    """Array element access ``base[index]``."""

    base: Expr
    index: Expr


@dataclass(eq=False, slots=True)
class FieldAccess(Expr):
    """Field read ``obj.f``."""

    obj: Expr
    name: str


@dataclass(eq=False, slots=True)
class NewArray(Expr):
    elem_type: Type
    size: Expr


@dataclass(eq=False, slots=True)
class NewObject(Expr):
    class_name: str


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Stmt(Node):
    """Base class for statements."""


@dataclass(eq=False, slots=True)
class VarDecl(Stmt):
    var_type: Type
    name: str
    init: Expr = None


@dataclass(eq=False, slots=True)
class Assign(Stmt):
    """Assignment; ``target`` is a :class:`VarRef`, :class:`Index` or
    :class:`FieldAccess`."""

    target: Expr
    value: Expr


@dataclass(eq=False, slots=True)
class If(Stmt):
    cond: Expr
    then_body: list
    else_body: list = field(default_factory=list)


@dataclass(eq=False, slots=True)
class While(Stmt):
    cond: Expr
    body: list


@dataclass(eq=False, slots=True)
class For(Stmt):
    """C-style for loop.  ``init`` and ``update`` are simple statements
    (:class:`VarDecl` or :class:`Assign`) or ``None``."""

    init: Stmt
    cond: Expr
    update: Stmt
    body: list


@dataclass(eq=False, slots=True)
class Return(Stmt):
    value: Expr = None


@dataclass(eq=False, slots=True)
class CallStmt(Stmt):
    """Expression statement wrapping a :class:`Call` or :class:`MethodCall`."""

    call: Expr


@dataclass(eq=False, slots=True)
class Print(Stmt):
    value: Expr


@dataclass(eq=False, slots=True)
class Break(Stmt):
    pass


@dataclass(eq=False, slots=True)
class Continue(Stmt):
    pass


@dataclass(eq=False, slots=True)
class Block(Stmt):
    """A bare ``{ ... }`` scope."""

    body: list


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Param(Node):
    param_type: Type
    name: str


@dataclass(eq=False, slots=True)
class Function(Node):
    """A free function (``func``) or a class method (``method``)."""

    name: str
    params: list
    ret_type: Type  # None means void
    body: list
    owner: str = None  # class name when this is a method

    @property
    def is_method(self):
        return self.owner is not None

    @property
    def qualified_name(self):
        if self.owner:
            return "%s.%s" % (self.owner, self.name)
        return self.name


@dataclass(eq=False, slots=True)
class FieldDecl(Node):
    field_type: Type
    name: str


@dataclass(eq=False, slots=True)
class GlobalDecl(Node):
    var_type: Type
    name: str
    init: Expr = None


@dataclass(eq=False, slots=True)
class ClassDecl(Node):
    name: str
    fields: list
    methods: list


@dataclass(eq=False, slots=True)
class Program(Node):
    globals: list
    classes: list
    functions: list

    def function(self, name):
        """Look up a free function or ``Class.method`` by qualified name."""
        for fn in self.all_functions():
            if fn.qualified_name == name or fn.name == name:
                return fn
        raise KeyError(name)

    def all_functions(self):
        """All free functions followed by all class methods."""
        out = list(self.functions)
        for cls in self.classes:
            out.extend(cls.methods)
        return out

    def class_decl(self, name):
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def child_expr_lists(stmt):
    """Expressions directly owned by ``stmt`` (not those of nested stmts)."""
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, For):
        out = []
        if stmt.cond is not None:
            out.append(stmt.cond)
        return out
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, CallStmt):
        return [stmt.call]
    if isinstance(stmt, Print):
        return [stmt.value]
    return []


def child_stmt_lists(stmt):
    """Statement lists nested directly inside ``stmt``."""
    if isinstance(stmt, If):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, While):
        return [stmt.body]
    if isinstance(stmt, For):
        pre = [s for s in (stmt.init, stmt.update) if s is not None]
        return [pre, stmt.body] if pre else [stmt.body]
    if isinstance(stmt, Block):
        return [stmt.body]
    return []


def walk_stmts(stmts):
    """Yield every statement in ``stmts``, recursively, pre-order.

    Walks with an explicit stack of list iterators, so deep nesting costs
    no generator per level."""
    stack = [iter(stmts)]
    while stack:
        for stmt in stack[-1]:
            yield stmt
            subs = child_stmt_lists(stmt)
            if subs:
                stack.extend(iter(sub) for sub in reversed(subs))
                break
        else:
            stack.pop()


def walk_exprs(expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    return _walk_exprs([expr])


def stmt_exprs(stmt):
    """Yield every expression (recursively) owned directly by ``stmt``."""
    return _walk_exprs(child_expr_lists(stmt)[::-1])


_LEAF_EXPRS = (VarRef, IntLit, FloatLit, BoolLit, NewObject)


def _walk_exprs(stack):
    """Pre-order walk of the expressions on ``stack`` (top last), skipping
    ``None``; children are pushed right to left so the leftmost comes next."""
    pop = stack.pop
    push = stack.append
    while stack:
        expr = pop()
        if expr is None:
            continue
        yield expr
        if isinstance(expr, _LEAF_EXPRS):
            continue
        if isinstance(expr, BinaryOp):
            push(expr.right)
            push(expr.left)
        elif isinstance(expr, UnaryOp):
            push(expr.operand)
        elif isinstance(expr, Call):
            stack.extend(reversed(expr.args))
        elif isinstance(expr, MethodCall):
            stack.extend(reversed(expr.args))
            push(expr.receiver)
        elif isinstance(expr, Index):
            push(expr.index)
            push(expr.base)
        elif isinstance(expr, FieldAccess):
            push(expr.obj)
        elif isinstance(expr, NewArray):
            push(expr.size)


def structurally_equal(a, b):
    """Structural (shape + literal) equality for AST nodes and node lists.

    Ignores source positions; used by round-trip tests.
    """
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            return False
        if len(a) != len(b):
            return False
        return all(structurally_equal(x, y) for x, y in zip(a, b))
    if type(a) is not type(b):
        return False
    if not isinstance(a, Node):
        return a == b
    for name in a.__dataclass_fields__:
        if not structurally_equal(getattr(a, name), getattr(b, name)):
            return False
    return True
