"""The benchmark-ledger gate (tools/check_bench.py): the committed
BENCH.json passes, every rule catches its own violation, and a fresh
ledger is banded against the committed one."""

import copy
import json
import pathlib
import sys

import pytest

from repro.runtime import ENGINES

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_bench  # noqa: E402

COMMITTED = json.loads((REPO / "BENCH.json").read_text())


def plant(doc, path, value):
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value


def broken(kind, bar, value):
    """A value that breaks one rule."""
    if kind == "true":
        return False
    if kind == "zero":
        return 1
    if kind == "has":
        if isinstance(value, list):
            return [name for name in value if name != bar[0]]
        return {k: v for k, v in value.items() if k != bar[0]}
    step = -1 if kind in ("higher", "min") else 1
    if isinstance(bar, float):
        step *= 0.01 * bar
    return bar + step


def test_committed_ledger_passes(capsys):
    assert check_bench.main([]) == 0, capsys.readouterr().out
    assert check_bench.check(COMMITTED) == []


def test_gate_expects_the_registered_engines():
    assert check_bench.ENGINES == tuple(sorted(ENGINES))


@pytest.mark.parametrize(
    "rule", check_bench.RULES, ids=["%s:%s" % r[:2] for r in check_bench.RULES])
def test_each_rule_catches_a_planted_violation(rule):
    path, kind, bar = rule
    doc = copy.deepcopy(COMMITTED)
    where, value = check_bench.lookup(doc, path)[0]
    plant(doc, where, broken(kind, bar, value))
    problems = check_bench.check(doc)
    assert any(p.startswith(where + ":") for p in problems), problems


def delete(doc, path):
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    del node[last]


@pytest.mark.parametrize(
    "rule", check_bench.RULES, ids=["%s:%s" % r[:2] for r in check_bench.RULES])
def test_each_rule_catches_a_planted_deletion(rule):
    path, kind, bar = rule
    doc = copy.deepcopy(COMMITTED)
    where = check_bench.lookup(doc, path)[0][0]
    delete(doc, where)
    parent = where.rpartition(".")[0]
    problems = check_bench.check(doc)
    # a named key is missing; a ``*`` entry is lacked by its parent's rule
    assert any(p.startswith((where + ":", parent + ":")) for p in problems), \
        problems


@pytest.mark.parametrize("path, problem", [
    ("load.reports.bloat", "load.reports: lacks bloat"),
    ("load.reports.bloat.ops", "load.reports.bloat.ops: missing"),
    ("load.reports.bloat.errors.reply",
     "load.reports.bloat.errors: lacks reply"),
    ("profile.corpora.jasmin.codegen.attributed_pct",
     "profile.corpora.jasmin.codegen.attributed_pct: missing"),
    ("profile.corpora.javac.ast.samples",
     "profile.corpora.javac.ast.samples: missing"),
    ("engines.workloads.jess.speedup.codegen",
     "engines.workloads.jess.speedup.codegen: missing"),
])
def test_a_deleted_entry_under_a_wildcard_fails(path, problem):
    doc = copy.deepcopy(COMMITTED)
    delete(doc, path)
    assert problem in check_bench.check(doc)


def test_missing_section_is_named():
    doc = copy.deepcopy(COMMITTED)
    del doc["telemetry"]
    problems = check_bench.check(doc)
    assert "telemetry.trace_overhead_pct: missing" in problems


@pytest.mark.parametrize("path", [
    "engines.workloads.tight_loop.speedup.codegen",
    "telemetry.trace_overhead_pct",
])
def test_fresh_ledger_is_banded_against_the_committed_one(path):
    committed = check_bench.lookup(COMMITTED, path)[0][1]
    kind = {r[0]: r[1] for r in check_bench.RULES}[path]
    worse = -1 if kind == "higher" else 1
    slack = check_bench.band(committed)

    def fresh(factor):
        doc = copy.deepcopy(COMMITTED)
        median = committed["median"] + worse * factor * slack
        plant(doc, path, {"median": median, "repeats": [median]})
        return check_bench.check(doc, COMMITTED)

    assert fresh(0.95) == []
    problems = fresh(1.05)
    assert len(problems) == 1 and problems[0].startswith(path + ":")
    assert "band" in problems[0]


def test_band_is_max_of_ten_percent_and_three_mads():
    # a single repeat gets the 10 % floor, bare or recorded
    assert check_bench.band(5.0) == pytest.approx(0.5)
    assert check_bench.band({"median": 5.0, "repeats": [5.0]}) == \
        pytest.approx(0.5)
    # spread repeats widen it to 3 MAD
    assert check_bench.band({"median": 3.0, "repeats": [1, 2, 3, 4, 5]}) \
        == pytest.approx(3.0)
    # every claim the same way: an overhead in percent is no exception
    assert check_bench.band(20.0) == pytest.approx(2.0)


def test_fresh_document_argument(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(COMMITTED))
    assert check_bench.main([str(fresh)]) == 0
    doc = copy.deepcopy(COMMITTED)
    plant(doc, "load.reports.jess.errors.protocol", 2)
    fresh.write_text(json.dumps(doc))
    assert check_bench.main([str(fresh)]) == 1
    assert ("load.reports.jess.errors.protocol: is 2, must be 0"
            in capsys.readouterr().out)
