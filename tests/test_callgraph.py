"""Call graph, recursion detection, loop-call detection, cut selection."""

from repro.lang import parse_program, check_program
from repro.analysis.callgraph import build_callgraph, select_cut


def graph(source):
    program = parse_program(source)
    checker = check_program(program)
    return build_callgraph(program, checker)


def test_simple_edges():
    cg = graph(
        "func int a() { return b() + c(); } func int b() { return 1; } "
        "func int c() { return 2; } func void main() { print(a()); }"
    )
    assert cg.callees["a"] == {"b", "c"}
    assert cg.callers["b"] == {"a"}


def test_method_resolution_by_receiver_type():
    cg = graph(
        """
        class P { method int m() { return 1; } }
        class Q { method int m() { return 2; } }
        func void main() { P p = new P(); print(p.m()); }
        """
    )
    assert "P.m" in cg.callees["main"]
    assert "Q.m" not in cg.callees["main"]


def test_same_class_free_call_resolution():
    cg = graph(
        """
        class C {
            method int helper() { return 1; }
            method int driver() { return helper(); }
        }
        """
    )
    assert cg.callees["C.driver"] == {"C.helper"}


def test_builtins_excluded():
    cg = graph("func float f(float x) { return sqrt(x); }")
    assert cg.callees["f"] == set()


def test_direct_recursion_detected():
    cg = graph("func int f(int n) { if (n < 1) { return 0; } return f(n - 1); }")
    assert cg.recursive_functions() == {"f"}


def test_indirect_recursion_detected():
    cg = graph(
        "func int a(int n) { return b(n); } func int b(int n) { if (n < 1) "
        "{ return 0; } return a(n - 1); } func void main() { print(a(3)); }"
    )
    assert cg.recursive_functions() == {"a", "b"}


def test_non_recursive_clean():
    cg = graph("func int a() { return b(); } func int b() { return 1; }")
    assert cg.recursive_functions() == set()


def test_called_in_loop():
    cg = graph(
        "func int w() { return 1; } func int s() { return 2; } "
        "func void main() { int i = 0; while (i < 3) { print(w()); i = i + 1; } print(s()); }"
    )
    assert "w" in cg.called_in_loop
    assert "s" not in cg.called_in_loop


def test_called_in_for_update_counts_as_loop():
    cg = graph(
        "func int step(int i) { return i + 1; } "
        "func void main() { for (int i = 0; i < 3; i = step(i)) { } }"
    )
    assert "step" in cg.called_in_loop


def test_reachable_from():
    cg = graph(
        "func int a() { return b(); } func int b() { return 1; } "
        "func int orphan() { return 9; } func void main() { print(a()); }"
    )
    assert cg.reachable_from("main") == {"main", "a", "b"}


def test_cut_selects_first_eligible_layer():
    cg = graph(
        "func int leaf() { return 1; } "
        "func int mid() { return leaf(); } "
        "func void main() { print(mid()); }"
    )
    assert select_cut(cg) == ["mid"]


def test_cut_skips_loop_called_and_recursive():
    cg = graph(
        """
        func int rec(int n) { if (n < 1) { return 0; } return rec(n - 1); }
        func int inner() { return 1; }
        func int loopy() { return inner(); }
        func void main() {
            int i = 0;
            while (i < 2) { print(loopy()); i = i + 1; }
            print(rec(3));
        }
        """
    )
    cut = select_cut(cg)
    assert "loopy" not in cut
    assert "rec" not in cut
    assert "inner" in cut  # eligible once past the ineligible frontier


def test_cut_falls_back_to_entry():
    cg = graph("func void main() { print(1); }")
    assert select_cut(cg) == ["main"]


# -- loop nesting tracked in the one statement walk ------------------------------


def _reference_sites(program, checker):
    """The call sites as the builder found them when every site searched
    the function body again from the root for its loop nesting; kept here
    as the reference the single-walk builder must reproduce."""
    from repro.analysis import callgraph as cg_mod
    from repro.lang import ast
    from repro.lang.typecheck import BUILTIN_SIGNATURES

    def search(body, target, inside):
        for s in body:
            if s is target:
                return inside
            if isinstance(s, ast.If):
                for sub in (s.then_body, s.else_body):
                    found = search(sub, target, inside)
                    if found is not None:
                        return found
            elif isinstance(s, ast.While):
                found = search(s.body, target, True)
                if found is not None:
                    return found
            elif isinstance(s, ast.For):
                if target is s.init or target is s.update:
                    return True
                found = search(s.body, target, True)
                if found is not None:
                    return found
            elif isinstance(s, ast.Block):
                found = search(s.body, target, inside)
                if found is not None:
                    return found
        return None

    methods_by_name = {}
    for cls in program.classes:
        for m in cls.methods:
            methods_by_name.setdefault(m.name, []).append(m)
    sites = []
    for fn in program.all_functions():
        for stmt in ast.walk_stmts(fn.body):
            for expr in ast.stmt_exprs(stmt):
                if isinstance(expr, ast.Call):
                    if expr.name in BUILTIN_SIGNATURES:
                        continue
                    callee = cg_mod._resolve_free_call(program, fn, expr.name)
                elif isinstance(expr, ast.MethodCall):
                    callee = cg_mod._resolve_method_call(
                        program, checker, methods_by_name, expr)
                else:
                    continue
                sites.append((fn.qualified_name, callee, id(expr),
                              search(fn.body, stmt, False)))
    return sites


def _assert_matches_reference(program, checker):
    cg = build_callgraph(program, checker)
    reference = _reference_sites(program, checker)
    assert [(s.caller, s.callee, id(s.expr), s.in_loop)
            for s in cg.call_sites] == reference
    assert cg.called_in_loop == {
        callee for _caller, callee, _expr, in_loop in reference
        if in_loop and callee in cg.functions}


def test_loop_nesting_matches_reference_on_table5_corpora():
    from repro.workloads.corpora import build_corpus
    from repro.workloads.inputs import TABLE5_RUNS

    for name in sorted({run.benchmark for run in TABLE5_RUNS}):
        corpus = build_corpus(name)
        _assert_matches_reference(corpus.program, corpus.checker)


def test_loop_nesting_matches_reference_on_fuzz_programs():
    from repro.fuzz.generate import generate_program

    for seed in range(50):
        program, _args = generate_program(seed)
        _assert_matches_reference(program, check_program(program))


def test_for_init_and_update_count_as_in_loop():
    cg = graph(
        """
        func int a() { return 1; } func int b() { return 2; }
        func int c() { return 3; } func int d() { return 4; }
        func void main() {
            int s = 0;
            for (int i = a(); i < d(); i = i + b()) { s = s + c(); }
            print(s);
        }
        """
    )
    assert cg.called_in_loop == {"a", "b", "c"}
