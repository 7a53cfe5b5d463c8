"""Seed-driven program generator for the differential fuzzer.

The grammar is written against a tiny *choice source* interface
(:class:`Draw`) so the same building blocks serve two masters:

* the fuzzer draws from :class:`RandomDraw` (a seeded
  :class:`random.Random`) — fully deterministic per seed;
* the hypothesis property tests (``tests/genprograms.py``) adapt
  ``draw`` into the same interface, so shrinking and replay work there
  while the fuzzer and the property suite share one grammar.

Every generated program is correct by construction:

* it type-checks (names are tracked with their types; division and
  remainder only ever see non-zero constant divisors);
* it terminates — every loop is counted with a small constant bound,
  there is no recursion, and multiplication inside loop bodies is
  restricted to ``expr * small-constant`` so values grow at most
  geometrically in the (bounded) iteration count;
* array accesses are in bounds (constant indices below the array
  length, or a loop variable whose bound is below the array length).

Feature coverage goes well beyond ``tests/genprograms.py``: classes
with fields and methods (method splitting + the paper's instance ids),
a function reading an object parameter's fields (so hidden fragments
read open fields back through ``fetch_field`` callbacks), global
variables, a second callee function, nested counted loops with guarded
``break``, and several candidate hidden variables per function.
"""

import random

from repro.lang import builders as b

#: array length used by every generated program (loop bounds stay below it)
ARRAY_LEN = 8

#: candidate hidden variables declared in every generated function
INT_LOCALS = ("v0", "v1", "v2", "v3")
BOOL_LOCAL = "flag"

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*")


class Draw:
    """Choice-source interface the grammar draws from."""

    def integer(self, lo, hi):
        raise NotImplementedError

    def choice(self, options):
        raise NotImplementedError

    def boolean(self, numerator=1, denominator=2):
        """True with probability ``numerator/denominator``."""
        return self.integer(0, denominator - 1) < numerator


class RandomDraw(Draw):
    """Deterministic choice source over a seeded :class:`random.Random`."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def integer(self, lo, hi):
        return self.rng.randint(lo, hi)

    def choice(self, options):
        options = list(options)
        return options[self.rng.randrange(len(options))]


class GenConfig:
    """Size and feature knobs for one generated program."""

    def __init__(self, max_stmts=7, expr_depth=2, loop_nesting=2,
                 with_classes=True, with_globals=True, with_callee=True,
                 with_floats=False):
        self.max_stmts = max_stmts
        self.expr_depth = expr_depth
        self.loop_nesting = loop_nesting
        self.with_classes = with_classes
        self.with_globals = with_globals
        self.with_callee = with_callee
        self.with_floats = with_floats


class Scope:
    """Names visible at a generation site, by type.

    ``ints``/``bools`` are readable; ``writable_ints``/``writable_bools``
    are the subsets assignments may target (parameters are read-only by
    convention — hiding never applies to them and some style checkers
    reject writes)."""

    def __init__(self, ints=(), bools=(), arrays=(), callees=(),
                 writable_ints=None, writable_bools=None, in_loop=False,
                 fields=()):
        self.ints = list(ints)          # readable int names
        self.bools = list(bools)        # readable bool names
        self.writable_ints = list(ints if writable_ints is None
                                  else writable_ints)
        self.writable_bools = list(bools if writable_bools is None
                                   else writable_bools)
        self.arrays = list(arrays)      # int[] names of length ARRAY_LEN
        self.fields = list(fields)      # readable (object, int field) pairs
        self.indices = []               # loop vars provably < ARRAY_LEN
        self.callees = list(callees)    # (name, n_int_args) callable here
        self.in_loop = in_loop
        self._fresh = 0

    def add_int(self, name, writable=True):
        self.ints.append(name)
        if writable:
            self.writable_ints.append(name)

    def add_bool(self, name, writable=True):
        self.bools.append(name)
        if writable:
            self.writable_bools.append(name)

    def fresh_loop_var(self):
        name = "k%d" % self._fresh
        self._fresh += 1
        return name

    def nested(self, index_var=None):
        inner = Scope(self.ints, self.bools, self.arrays, self.callees,
                      writable_ints=self.writable_ints,
                      writable_bools=self.writable_bools, in_loop=True,
                      fields=self.fields)
        inner.indices = list(self.indices)
        if index_var is not None:
            # the loop variable is readable and a safe array index, but
            # never writable: a body write could defeat the loop bound
            inner.indices.append(index_var)
            inner.ints.append(index_var)
        inner._fresh = self._fresh
        return inner

    def merge_fresh(self, inner):
        self._fresh = max(self._fresh, inner._fresh)


# --------------------------------------------------------------------------
# expressions

def int_expr(d, scope, depth):
    """An int-typed expression over the names in ``scope``.

    Inside loops (``scope.in_loop``) multiplication keeps one operand a
    small constant so repeated assignment cannot blow values up
    super-geometrically in the bounded iteration count.
    """
    if depth <= 0:
        return _int_leaf(d, scope)
    kind = d.choice(("leaf", "arith", "arith", "divmod", "neg", "call"))
    if kind == "leaf":
        return _int_leaf(d, scope)
    if kind == "arith":
        op = d.choice(_ARITH_OPS)
        left = int_expr(d, scope, depth - 1)
        if op == "*" and scope.in_loop:
            right = b.lit(d.integer(-4, 4))
        else:
            right = int_expr(d, scope, depth - 1)
        return b.binop(op, left, right)
    if kind == "divmod":
        # non-zero constant divisor: total, deterministic
        op = d.choice(("/", "%"))
        return b.binop(op, int_expr(d, scope, depth - 1),
                       b.lit(d.integer(1, 9)))
    if kind == "neg":
        return b.neg(int_expr(d, scope, depth - 1))
    if kind == "call" and scope.callees:
        name, n_args = d.choice(scope.callees)
        return b.call(name, *[_int_leaf(d, scope) for _ in range(n_args)])
    return _int_leaf(d, scope)


def _int_leaf(d, scope):
    kinds = ["lit", "var", "var"]
    if scope.arrays:
        kinds.append("index")
    if scope.fields:
        kinds += ["field", "field"]
    kind = d.choice(kinds)
    if kind == "var" and scope.ints:
        return b.var(d.choice(scope.ints))
    if kind == "index" and scope.arrays:
        return b.index(d.choice(scope.arrays), _index_expr(d, scope))
    if kind == "field":
        return b.field(*d.choice(scope.fields))
    return b.lit(d.integer(-9, 9))


def _index_expr(d, scope):
    """An in-bounds index: a bounded loop variable or a constant."""
    if scope.indices and d.boolean(1, 2):
        return b.var(d.choice(scope.indices))
    return b.lit(d.integer(0, ARRAY_LEN - 1))


def bool_expr(d, scope, depth):
    """A bool-typed expression (conditions)."""
    if depth <= 0 or d.boolean(1, 2):
        if scope.bools and d.boolean(1, 3):
            return b.var(d.choice(scope.bools))
        return b.binop(d.choice(_CMP_OPS), int_expr(d, scope, 1),
                       int_expr(d, scope, 1))
    kind = d.choice(("and", "or", "not"))
    if kind == "not":
        return b.not_(bool_expr(d, scope, depth - 1))
    op = "&&" if kind == "and" else "||"
    return b.binop(op, bool_expr(d, scope, depth - 1),
                   bool_expr(d, scope, depth - 1))


# --------------------------------------------------------------------------
# statements

def simple_stmt(d, scope, cfg):
    """Assignment to an int local, bool local, or array element."""
    targets = []
    if scope.writable_ints:
        targets += ["int"] * 3
    if scope.writable_bools:
        targets.append("bool")
    if scope.arrays:
        targets.append("array")
    kind = d.choice(targets)
    if kind == "bool":
        return b.assign(d.choice(scope.writable_bools),
                        bool_expr(d, scope, cfg.expr_depth - 1))
    if kind == "array":
        return b.assign(
            b.index(d.choice(scope.arrays), _index_expr(d, scope)),
            int_expr(d, scope, cfg.expr_depth),
        )
    return b.assign(d.choice(scope.writable_ints),
                    int_expr(d, scope, cfg.expr_depth))


def if_stmt(d, scope, cfg, loop_depth):
    cond = bool_expr(d, scope, cfg.expr_depth - 1)
    then_body = stmt_list(d, scope, cfg, d.integer(1, 2), loop_depth)
    else_body = (
        stmt_list(d, scope, cfg, d.integer(1, 2), loop_depth)
        if d.boolean(1, 2) else []
    )
    return b.if_(cond, then_body, else_body)


def counted_loop(d, scope, cfg, loop_depth):
    """``for (int kN = 0; kN < bound; kN = kN + 1) { ... }`` with a
    constant bound below ``ARRAY_LEN`` — always terminates, and the loop
    variable is a safe array index inside the body."""
    var = scope.fresh_loop_var()
    bound = d.integer(1, ARRAY_LEN - 2)
    inner = scope.nested(index_var=var)
    body = stmt_list(d, inner, cfg, d.integer(1, 3), loop_depth + 1)
    if d.boolean(1, 4):
        # a guarded jump; ``continue`` in a for loop still runs the
        # update, so the constant bound keeps holding
        jump = b.break_() if d.boolean(1, 2) else b.continue_()
        body.append(b.if_(bool_expr(d, inner, 1), [jump], []))
    scope.merge_fresh(inner)
    return b.for_(
        b.decl("int", var, b.lit(0)),
        b.lt(var, bound),
        b.assign(var, b.add(var, 1)),
        body,
    )


def stmt_list(d, scope, cfg, n, loop_depth=0):
    out = []
    for _ in range(n):
        kinds = ["simple", "simple", "if"]
        if loop_depth < cfg.loop_nesting:
            kinds.append("loop")
        kind = d.choice(kinds)
        if kind == "simple":
            out.append(simple_stmt(d, scope, cfg))
        elif kind == "if":
            out.append(if_stmt(d, scope, cfg, loop_depth))
        else:
            out.append(counted_loop(d, scope, cfg, loop_depth))
    return out


# --------------------------------------------------------------------------
# top-level units

def gen_function(d, cfg, name="f", params=(("int", "x"), ("int", "y"),
                                           ("int[]", "B")), callees=()):
    """The function the splitter targets: several candidate hidden int
    locals, a bool local, arrays, branches, and (nested) loops."""
    param_ints = [p for t, p in params if t == "int"]
    arrays = [p for t, p in params if t == "int[]"]
    scope = Scope(ints=list(param_ints), writable_ints=(), arrays=arrays,
                  callees=callees)
    body = []
    for v in INT_LOCALS:
        body.append(b.decl("int", v, int_expr(d, scope, 1)))
        scope.add_int(v)
    body.append(b.decl("bool", BOOL_LOCAL, bool_expr(d, scope, 1)))
    scope.add_bool(BOOL_LOCAL)
    body.extend(stmt_list(d, scope, cfg, d.integer(2, cfg.max_stmts)))
    body.append(b.ret(int_expr(d, scope, cfg.expr_depth)))
    return b.func(name, list(params), "int", body)


def gen_callee(d, cfg, name="g2"):
    """A small leaf function ``f`` (and ``main``) may call."""
    scope = Scope(ints=["u"], writable_ints=())
    body = [b.decl("int", "t", int_expr(d, scope, 1))]
    scope.add_int("t")
    body.extend(stmt_list(d, scope, GenConfig(max_stmts=2, expr_depth=1,
                                              loop_nesting=1),
                          d.integer(1, 2)))
    body.append(b.ret(int_expr(d, scope, 1)))
    return b.func(name, [("int", "u")], "int", body)


def gen_class(d, cfg, name="Box"):
    """A class with int fields and two methods: a mutator with a local
    (a method-splitting candidate) and a reader over the fields."""
    fields = [("int", "a"), ("int", "b")]
    field_names = [n for _t, n in fields]

    mscope = Scope(ints=["u"] + field_names, writable_ints=field_names)
    mbody = [b.decl("int", "t", int_expr(d, mscope, 1))]
    mscope.add_int("t")
    mcfg = GenConfig(max_stmts=3, expr_depth=cfg.expr_depth, loop_nesting=1)
    mbody.extend(stmt_list(d, mscope, mcfg, d.integer(1, 3)))
    mbody.append(b.assign(d.choice(field_names), int_expr(d, mscope, 1)))
    mbody.append(b.ret(int_expr(d, mscope, 1)))
    step = b.func("step", [("int", "u")], "int", mbody)

    rscope = Scope(ints=field_names)
    total = b.func("total", [], "int", [b.ret(int_expr(d, rscope, 2))])
    return b.class_(name, fields, [step, total])


def gen_field_reader(d, cfg, cls="Box", fields=("a", "b"), name="fr"):
    """``fr(int x, Box p)``: candidate hidden locals computed from the
    object parameter's fields, in straight-line code and in loops, so a
    split of ``fr`` reads open fields from the hidden side."""
    scope = Scope(ints=["x"], writable_ints=(),
                  fields=[("p", f) for f in fields])
    body = []
    for v in INT_LOCALS[:2]:
        body.append(b.decl("int", v, int_expr(d, scope, 1)))
        scope.add_int(v)
    body.extend(stmt_list(d, scope, cfg, d.integer(2, cfg.max_stmts)))
    body.append(b.ret(int_expr(d, scope, cfg.expr_depth)))
    return b.func(name, [("int", "x"), (cls, "p")], "int", body)


def gen_global(d, name="g0"):
    return b.global_("int", name, b.lit(d.integer(-9, 9)))


def gen_global_bumper(d, cfg, global_name="g0", name="bump"):
    """A function with a hidden-variable candidate that also reads and
    writes a global — exercises the open/hidden global plumbing."""
    scope = Scope(ints=["w", global_name], writable_ints=[global_name])
    body = [
        b.decl("int", "t", int_expr(d, scope, 1)),
    ]
    scope.add_int("t")
    body.append(b.assign(global_name, b.add(global_name, "t")))
    body.append(b.ret(int_expr(d, scope, 1)))
    return b.func(name, [("int", "w")], "int", body)


def gen_main(d, cfg, features):
    """``main(int x, int y)``: allocate and fill the array, run every
    generated unit, and print every observable effect."""
    scope = Scope(ints=["x", "y"], writable_ints=(), arrays=["B"])
    body = [b.decl("int[]", "B", b.new_array("int", ARRAY_LEN))]
    fill_var = scope.fresh_loop_var()
    body.append(b.for_(
        b.decl("int", fill_var, b.lit(0)),
        b.lt(fill_var, ARRAY_LEN),
        b.assign(fill_var, b.add(fill_var, 1)),
        [b.assign(b.index("B", fill_var),
                  b.add(b.mul(fill_var, d.integer(-4, 4)), "x"))],
    ))
    body.append(b.print_(b.call("f", "x", "y", "B")))
    if features.get("callee"):
        body.append(b.print_(b.call("g2", d.choice(("x", "y")))))
    if features.get("class"):
        body.append(b.decl("Box", "p", b.new_object("Box")))
        body.append(b.decl("Box", "q", b.new_object("Box")))
        body.append(b.print_(b.method_call("p", "step", "x")))
        body.append(b.print_(b.method_call("q", "step", b.add("y", 1))))
        if d.boolean(1, 2):
            body.append(b.print_(b.method_call("p", "step", "y")))
        body.append(b.print_(b.method_call("p", "total")))
        body.append(b.print_(b.method_call("q", "total")))
        body.append(b.print_(b.field("p", "a")))
    if features.get("fields"):
        body.append(b.print_(b.call("fr", "y", "p")))
    if features.get("global"):
        body.append(b.print_(b.call("bump", "x")))
        body.append(b.print_(b.call("bump", "y")))
        body.append(b.print_(b.var("g0")))
    for i in range(ARRAY_LEN):
        body.append(b.print_(b.index("B", i)))
    return b.func("main", [("int", "x"), ("int", "y")], "void", body)


def gen_program(d, cfg=None):
    """Generate one full program from the choice source ``d``.

    Always contains ``f(int x, int y, int[] B)`` (with the candidate
    hidden locals ``v0..v3``) and ``main(int x, int y)``; classes,
    globals, and a callee function join per-seed, and with a class comes
    the field reader ``fr``.
    """
    cfg = cfg or GenConfig()
    features = {
        "callee": cfg.with_callee and d.boolean(1, 2),
        "class": cfg.with_classes and d.boolean(2, 3),
        "global": cfg.with_globals and d.boolean(1, 2),
    }
    features["fields"] = features["class"]
    functions, classes, globals_ = [], [], []
    callees = []
    if features["callee"]:
        functions.append(gen_callee(d, cfg))
        callees.append(("g2", 1))
    functions.insert(0, gen_function(d, cfg, callees=callees))
    if features["class"]:
        classes.append(gen_class(d, cfg))
    if features["global"]:
        globals_.append(gen_global(d))
        functions.append(gen_global_bumper(d, cfg))
    main = gen_main(d, cfg, features)
    if features["fields"]:
        # drawn last, so the other units of a seed stay as they were
        functions.append(gen_field_reader(d, cfg))
    functions.append(main)
    return b.program(functions=functions, classes=classes, globals_=globals_)


def gen_arg_sets(d, n=2):
    """Argument tuples for ``main(int x, int y)``: one fixed anchor plus
    seed-drawn pairs."""
    sets = [(0, 0)]
    for _ in range(n):
        sets.append((d.integer(-9, 9), d.integer(-9, 9)))
    return sets


def generate_program(seed, cfg=None):
    """Deterministically generate ``(program, arg_sets)`` for ``seed``."""
    d = RandomDraw(seed)
    return gen_program(d, cfg), gen_arg_sets(d)
