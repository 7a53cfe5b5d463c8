"""AST helpers: traversal, structural equality, builders, cloning."""

from repro.lang import ast, parse_program
from repro.lang import builders as b
from repro.lang.ast import structurally_equal, walk_exprs, walk_stmts
from repro.lang.clone import clone_body, clone_stmt
from repro.lang.parser import parse_expression


SRC = """
func int f(int x) {
    int s = 0;
    for (int i = 0; i < x; i = i + 1) {
        if (i % 2 == 0) {
            s = s + i;
        } else {
            s = s - 1;
        }
    }
    while (s > 10) {
        s = s / 2;
    }
    return s;
}
"""


def test_walk_stmts_visits_nested():
    fn = parse_program(SRC).functions[0]
    kinds = [type(s).__name__ for s in walk_stmts(fn.body)]
    assert "For" in kinds and "If" in kinds and "While" in kinds
    assert kinds.count("Assign") >= 4  # nested assigns found


def test_walk_stmts_preorder():
    fn = parse_program(SRC).functions[0]
    stmts = list(walk_stmts(fn.body))
    assert stmts[0] is fn.body[0]


def test_walk_exprs_visits_all_subexpressions():
    expr = parse_expression("f(a + b[i], c.d) * 2")
    names = {e.name for e in walk_exprs(expr) if isinstance(e, ast.VarRef)}
    assert names == {"a", "b", "i", "c"}


def test_stmt_exprs_excludes_nested_statements():
    fn = parse_program(SRC).functions[0]
    loop = fn.body[1]  # for loop
    top_exprs = list(ast.stmt_exprs(loop))
    # only the loop condition's expressions, not the body's
    names = {e.name for e in top_exprs if isinstance(e, ast.VarRef)}
    assert names == {"i", "x"}


def test_structural_equality_ignores_positions():
    a = parse_expression("1 + x * 2").at(1, 1)
    c = parse_expression("1 + x * 2").at(7, 12)
    assert a is not c
    assert (a.line, a.col) != (c.line, c.col)
    assert structurally_equal(a, c)


def test_structural_inequality():
    assert not structurally_equal(parse_expression("1 + 2"), parse_expression("1 - 2"))
    assert not structurally_equal(parse_expression("x"), parse_expression("y"))


def test_nodes_are_distinct_objects():
    program = parse_program(SRC)
    stmts = list(walk_stmts(program.functions[0].body))
    assert len({id(s) for s in stmts}) == len(stmts)


def test_nodes_have_no_instance_dict():
    concrete = [cls for cls in vars(ast).values()
                if isinstance(cls, type) and issubclass(cls, ast.Node)
                and cls.__subclasses__() == []]
    assert len(concrete) > 30
    for cls in concrete:
        node = cls(*[None] * len(cls.__dataclass_fields__))
        assert not hasattr(node, "__dict__"), cls.__name__


def test_program_function_lookup():
    program = parse_program(SRC + "class C { method int m() { return 1; } }")
    assert program.function("f").name == "f"
    assert program.function("C.m").owner == "C"
    assert len(program.all_functions()) == 2


def test_builders_produce_valid_ast():
    fn = b.func(
        "g",
        [("int", "x")],
        "int",
        [
            b.decl("int", "s", b.mul("x", 3)),
            b.if_(b.gt("s", 10), [b.assign("s", 10)]),
            b.ret("s"),
        ],
    )
    program = b.program(functions=[fn])
    from repro.lang.typecheck import check_program

    check_program(program)


def test_builders_coerce_python_values():
    e = b.add(1, "x")
    assert isinstance(e.left, ast.IntLit)
    assert isinstance(e.right, ast.VarRef)
    assert isinstance(b.lit(True), ast.BoolLit)
    assert isinstance(b.lit(2.5), ast.FloatLit)


def test_ty_spec_parsing():
    assert isinstance(b.ty("int"), ast.IntType)
    assert isinstance(b.ty("float[]"), ast.ArrayType)
    assert isinstance(b.ty("Point"), ast.ClassType)
    assert b.ty("void") is None


def test_clone_is_structurally_equal_but_fresh():
    fn = parse_program(SRC).functions[0]
    copy = clone_body(fn.body)
    assert structurally_equal(fn.body, copy)
    assert copy[0] is not fn.body[0]


def test_clone_body_deep():
    program = parse_program(SRC)
    body = program.functions[0].body
    copy = clone_body(body)
    copy[0].name = "renamed"
    copy[2].body[0].value.left.name = "renamed"
    assert body[0].name == "s"
    assert body[2].body[0].value.left.name == "s"


def test_clone_preserves_bindings():
    from repro.lang.typecheck import check_program

    program = parse_program("global int g = 0; func int f() { return g; }")
    check_program(program)
    copy = clone_stmt(program.functions[0].body[0])
    ref = copy.value
    assert ref.binding == "global"


def test_is_scalar_type():
    assert ast.is_scalar_type(ast.IntType())
    assert ast.is_scalar_type(ast.BoolType())
    assert not ast.is_scalar_type(ast.ArrayType(ast.IntType()))
    assert not ast.is_scalar_type(ast.ClassType("C"))


# Recursive reference walkers: the explicit-stack walkers in ``ast`` must
# yield exactly this pre-order.
def _ref_walk_stmts(stmts):
    for stmt in stmts:
        yield stmt
        for sub in ast.child_stmt_lists(stmt):
            yield from _ref_walk_stmts(sub)


def _ref_walk_exprs(expr):
    if expr is None:
        return
    yield expr
    if isinstance(expr, ast.BinaryOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, ast.UnaryOp):
        children = [expr.operand]
    elif isinstance(expr, ast.Call):
        children = expr.args
    elif isinstance(expr, ast.MethodCall):
        children = [expr.receiver] + expr.args
    elif isinstance(expr, ast.Index):
        children = [expr.base, expr.index]
    elif isinstance(expr, ast.FieldAccess):
        children = [expr.obj]
    elif isinstance(expr, ast.NewArray):
        children = [expr.size]
    else:
        children = []
    for child in children:
        yield from _ref_walk_exprs(child)


def _assert_walks_match(program):
    for fn in program.all_functions():
        stmts = list(walk_stmts(fn.body))
        assert stmts == list(_ref_walk_stmts(fn.body))
        for stmt in stmts:
            expected = [
                e for top in ast.child_expr_lists(stmt) for e in _ref_walk_exprs(top)
            ]
            assert list(ast.stmt_exprs(stmt)) == expected
            for top in ast.child_expr_lists(stmt):
                assert list(walk_exprs(top)) == list(_ref_walk_exprs(top))


def test_walkers_match_recursive_reference_on_fuzz_programs():
    from repro.fuzz.generate import generate_program

    for seed in range(50):
        program, _args = generate_program(seed)
        _assert_walks_match(program)


def test_walkers_match_recursive_reference_on_fig2():
    from repro.bench.paperexamples import FIG2_SOURCE

    _assert_walks_match(parse_program(FIG2_SOURCE))
    assert list(walk_exprs(None)) == []
