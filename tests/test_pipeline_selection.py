"""Selection strategy and one-call pipeline tests."""

from repro.lang import parse_program, check_program
from repro.analysis.function import analyze_function
from repro.core.pipeline import auto_split, split_source
from repro.core.selection import select_functions, select_variable, splittable_variables
from repro.runtime.splitrun import check_equivalence
from repro.security.lattice import CType


SOURCE = """
func int interesting(int x, int z, int[] B) {
    int seed = x * 3 + 1;
    int i = seed;
    int s = 0;
    while (i < z) { s = s + i; i = i + 1; }
    B[0] = s;
    return s;
}
func int boring(int x, int[] B) {
    int t = 5;
    B[1] = t;
    return t;
}
func int rec(int n) { if (n < 1) { return 0; } return rec(n - 1); }
func int helper(int x) { return x + 1; }
func void main(int x) {
    int[] B = new int[4];
    print(interesting(x, 20, B));
    print(boring(x, B));
    print(rec(3));
    int i = 0;
    while (i < 2) { print(helper(i)); i = i + 1; }
}
"""


def setup():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return program, checker


def test_splittable_variables_excludes_params_and_aggregates():
    program, checker = setup()
    fn = program.function("interesting")
    analysis = analyze_function(fn, checker)
    assert set(splittable_variables(fn, analysis)) == {"seed", "i", "s"}


def test_select_functions_respects_paper_restrictions():
    program, checker = setup()
    names = select_functions(program, checker)
    assert "interesting" in names
    assert "boring" in names
    assert "rec" not in names  # recursive
    assert "helper" not in names  # called from inside a loop


def test_select_variable_prefers_high_complexity():
    program, checker = setup()
    fn = program.function("interesting")
    analysis = analyze_function(fn, checker)
    var, split = select_variable(fn, analysis)
    # seed leads to the hidden accumulator loop (Polynomial ILPs) — a better
    # choice than splitting on s alone
    assert var == "seed"
    assert split is not None


def test_select_variable_none_when_no_candidates():
    program = parse_program("func int f(int x) { return x; } ")
    checker = check_program(program)
    fn = program.function("f")
    analysis = analyze_function(fn, checker)
    var, split = select_variable(fn, analysis)
    assert var is None and split is None


def test_auto_split_end_to_end():
    program, checker = setup()
    sp = auto_split(program, checker)
    assert "interesting" in sp.splits
    check_equivalence(program, sp, args=(2,))
    check_equivalence(program, sp, args=(9,))


def test_auto_split_max_functions():
    program, checker = setup()
    sp = auto_split(program, checker, max_functions=1)
    assert len(sp.splits) == 1


def test_auto_split_max_functions_counts_functions_split():
    # ``a`` declares a local but hiding it protects nothing; the cap must
    # not be spent on it while ``b`` still qualifies.
    source = """
    func int a(int x) { int t = 1; return x; }
    func int b(int x) {
        int s = x * 3;
        s = s + x;
        return s * 2;
    }
    func void main(int x) {
        print(a(x));
        print(b(x));
    }
    """
    for cap in (None, 1, 2):
        _program, _checker, sp = split_source(source, max_functions=cap)
        assert sorted(sp.splits) == ["b"], cap


def test_auto_split_custom_scorer():
    program, checker = setup()
    calls = []

    def scorer(split, analysis):
        calls.append(split.slice.var)
        return split.slice.size()

    sp = auto_split(program, checker, scorer=scorer)
    assert calls  # scorer consulted
    assert sp.splits


def test_default_scorer_ranks_by_max_type():
    program, checker = setup()
    fn = program.function("interesting")
    analysis = analyze_function(fn, checker)
    _var, split = select_variable(fn, analysis)
    from repro.security.estimator import estimate_split_complexities

    results = estimate_split_complexities(split, analysis)
    assert any(c.ac.type in (CType.POLYNOMIAL, CType.ARBITRARY) for c in results)
