"""Hf only reads open memory: the invariant and where it is checked.

A store to an array element or a field stays in Of (the splitter's case
(iii)), so no fragment the splitter emits writes open memory, and the
callback surface has no store.  ``HiddenFragment`` refuses a body that
would write open memory; the splitter, the deployment manifest loader and
hand-built registries all pass through that one check.
"""

import glob
import json
import os

import pytest

import repro.analysis.slicing as slicing
import repro.core.hidden as hidden
from repro.analysis.function import analyze_function
from repro.core.deploy import export_split, import_hidden
from repro.core.hidden import FragmentKind, HiddenFragment
from repro.core.pipeline import auto_split, split_source
from repro.core.splitter import SplitError, split_function
from repro.fuzz.generate import generate_program
from repro.lang import ast, check_program, parse_program, pretty_stmt
from repro.lang.parser import parse_statements
from repro.lang.pretty import pretty
from repro.workloads.corpora import CORPUS_BUILDERS, build_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = """
func int f(int x, int[] a) {
    int v = x + 1;
    a[0] = v;
    return v;
}
func void main(int x) {
    int[] a = new int[1];
    print(f(x, a));
    print(a[0]);
}
"""


@pytest.mark.parametrize("body", [
    "a[i] = v;",
    "p.a = v;",
    "while (i < 3) { a[i] = v; i = i + 1; }",
    "for (int k = 0; k < 3; k = k + 1) { if (k > 1) { p.a = k; } }",
])
def test_hidden_fragment_refuses_a_store_into_open_memory(body):
    with pytest.raises(ValueError) as err:
        HiddenFragment(7, FragmentKind.STMTS, params=["i", "v"],
                       body=parse_statements(body))
    stores = [s for s in ast.walk_stmts(parse_statements(body))
              if isinstance(s, ast.Assign)
              and not isinstance(s.target, ast.VarRef)]
    assert "hidden fragment 7 stores into open memory" in str(err.value)
    assert pretty_stmt(stores[0]).strip() in str(err.value)


def test_hidden_fragment_accepts_name_targets():
    fragment = HiddenFragment(
        0, FragmentKind.STMTS, params=["i"],
        body=parse_statements("s = a[i] + p.a; while (s > 0) { s = s - 1; }"))
    assert len(fragment.body) == 2


def test_split_function_refuses_a_planted_store(monkeypatch):
    # plant the bug the invariant guards against: a slicer that lets an
    # array store join a case (i) statement run
    classify = slicing.classify_statement

    def full_array_stores(stmt, local_types, hidden_storage=()):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target,
                                                       ast.Index):
            return slicing.SliceKind.FULL
        return classify(stmt, local_types, hidden_storage)

    monkeypatch.setattr(slicing, "classify_statement", full_array_stores)
    program = parse_program(SOURCE)
    checker = check_program(program)
    fn = program.function("f")
    with pytest.raises(SplitError) as err:
        split_function(fn, "v", analyze_function(fn, checker))
    assert "stores into open memory: a[0] = v;" in str(err.value)


def test_import_hidden_refuses_a_manifest_carrying_a_store():
    _program, _checker, split = split_source(SOURCE, choices=[("f", "v")])
    manifest = export_split(split)
    import_hidden(json.dumps(manifest))  # the honest manifest imports
    [entry] = manifest["functions"].values()
    stmts = [s for s in entry["fragments"] if s["kind"] == FragmentKind.STMTS]
    stmts[0]["body"] += "\na[0] = v;"
    with pytest.raises(ValueError) as err:
        import_hidden(json.dumps(manifest))
    assert "stores into open memory: a[0] = v;" in str(err.value)


def _scanned_programs():
    for name in sorted(CORPUS_BUILDERS):
        corpus = build_corpus(name)
        yield name, corpus.program, corpus.checker
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "programs",
                                              "*.mj"))):
        with open(path) as f:
            program = parse_program(f.read())
        yield os.path.basename(path), program, check_program(program)
    for seed in range(100):
        program = parse_program(pretty(generate_program(seed)[0]))
        yield "seed %d" % seed, program, check_program(program)


def test_no_split_trips_the_refusal(monkeypatch):
    """Every Table 5 corpus, every example program and fuzz seeds 0-99,
    trial splits included (selection skips a variable whose split
    fails, so the refusal is counted where it is made)."""
    checked, trips = [0], []
    refuse = hidden._refuse_open_stores

    def counting(label, body):
        checked[0] += 1
        try:
            refuse(label, body)
        except ValueError as exc:
            trips.append(str(exc))
            raise

    monkeypatch.setattr(hidden, "_refuse_open_stores", counting)
    kept = 0
    for _name, program, checker in _scanned_programs():
        split = auto_split(program, checker)
        kept += sum(len(s.fragments) for s in split.splits.values())
    assert trips == []
    assert kept > 1000 and checked[0] > kept
