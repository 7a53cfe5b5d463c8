"""The splitter's output is pinned byte for byte, and it costs what it splits.

The manifest digests below are the splitter's output for every evaluation
corpus; a change to selection, slicing or rewriting that moves one of them
changes what the reproduction reports.  The remaining tests pin how that
output is made: unsplit declarations are shared with the original (and
neither program is mutated), each selected function is analysed once, and
the winning trial split is the one kept.
"""

import hashlib

import pytest

import repro.core.pipeline as pipeline
import repro.core.program as program_mod
import repro.core.selection as selection
from repro.core.deploy import export_split_json
from repro.core.pipeline import auto_split
from repro.core.selection import select_functions
from repro.lang.pretty import pretty
from repro.runtime import ENGINES
from repro.runtime.splitrun import run_original, run_split
from repro.workloads.corpora import build_corpus
from repro.workloads.inputs import TABLE5_RUNS

MANIFEST_SHA256 = {
    "bloat": "9c1ea9350c75ee810c8a6e024cca46ddd83494da4fcd103983c8c5bc12015e4b",
    "jasmin": "dee1020abfdca0c74e10069c1b5c13d451cfd9f96e27c7b85c1df0872bdebf52",
    "javac": "3b7818c0d1fde92caa51181232cc7c80e015268f0dee2e23bbfb4296f8aa3f93",
    "jess": "52094a971c2ce7be4b4e02d9dbe4ed6502b0f4bf1b93a233a7f0eb55e83ef5a6",
    "jfig": "6c5a2c939fba4fccb775578bfebf67a00a9c7916c8769bfc7afee0ac20f5f830",
}

# the cheapest Table 5 row: jess "hard", 11 interactions
ROW = next(r for r in TABLE5_RUNS if r.benchmark == "jess" and r.input_name.startswith("hard"))


@pytest.fixture(scope="module")
def corpora():
    return {name: build_corpus(name) for name in MANIFEST_SHA256}


@pytest.mark.parametrize("name", sorted(MANIFEST_SHA256))
def test_manifest_digest(corpora, name):
    corpus = corpora[name]
    split = auto_split(corpus.program, corpus.checker)
    digest = hashlib.sha256(export_split_json(split).encode()).hexdigest()
    assert digest == MANIFEST_SHA256[name]


@pytest.mark.parametrize("name", sorted(MANIFEST_SHA256))
def test_unsplit_declarations_are_the_originals(corpora, name):
    corpus = corpora[name]
    split = auto_split(corpus.program, corpus.checker)
    original, transformed = corpus.program, split.program
    assert split.splits
    originals = original.all_functions()
    assert len(transformed.all_functions()) == len(originals)
    for old, new in zip(originals, transformed.all_functions()):
        kept = split.splits.get(old.qualified_name)
        assert new is (old if kept is None else kept.open_fn)
    assert all(a is b for a, b in zip(original.globals, transformed.globals))
    for old_cls, new_cls in zip(original.classes, transformed.classes):
        assert all(a is b for a, b in zip(old_cls.fields, new_cls.fields))


def test_original_is_not_mutated_by_splitting_or_running(corpora):
    corpus = corpora[ROW.benchmark]
    before = pretty(corpus.program)
    split = auto_split(corpus.program, corpus.checker)
    assert pretty(corpus.program) == before
    open_before = pretty(split.program)
    args = (ROW.n, ROW.m)
    for engine in ENGINES:
        original = run_original(corpus.program, args=args, engine=engine)
        result = run_split(split, args=args, engine=engine)
        assert result.output == original.output
    assert pretty(corpus.program) == before
    assert pretty(split.program) == open_before


def _counting(monkeypatch, module, name, log):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        log.append((args[0].qualified_name, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


def test_each_selected_function_analysed_once_and_trial_kept(corpora, monkeypatch):
    corpus = corpora["jasmin"]
    selected = select_functions(corpus.program, corpus.checker)
    analyses, trials, resplits = [], [], []
    for module in (pipeline, selection, program_mod):
        if hasattr(module, "analyze_function"):
            log = analyses if module is pipeline else resplits
            _counting(monkeypatch, module, "analyze_function", log)
    _counting(monkeypatch, selection, "split_function", trials)
    _counting(monkeypatch, program_mod, "split_function", resplits)
    split = auto_split(corpus.program, corpus.checker)

    assert sorted(name for name, _ in analyses) == sorted(selected)
    assert resplits == []
    assert split.splits
    trial_results = {id(result) for _, result in trials}
    for name, kept in split.splits.items():
        assert id(kept) in trial_results, name
