"""The differential fuzzing subsystem, tested end to end.

Three layers: the generator (deterministic, valid, terminating
programs), the oracle (clean matrix on good engines, divergence when a
bug is planted), and the minimizer (shrinks while preserving the
predicate).  The committed corpus under ``tests/fuzz_corpus/`` is
replayed through the default matrix here, turning every past finding into
a permanent regression test, and the self-check drill — including its
"minimized repro stays small" bound — is pinned as an acceptance test.
"""

import glob
import io
import os

import pytest

from repro import obs
from repro.cli import main
from repro.fuzz import campaign, oracle, reduce, selfcheck
from repro.fuzz.generate import GenConfig, generate_program
from repro.lang import check_program, parse_program
from repro.lang.pretty import pretty
from repro.runtime import ENGINES
from repro.runtime.remote import RemoteHiddenRuntime
from repro.runtime.splitrun import run_original

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic():
    for seed in (0, 7, 123):
        first, args_a = generate_program(seed)
        second, args_b = generate_program(seed)
        assert pretty(first) == pretty(second)
        assert args_a == args_b


def test_generator_seeds_differ():
    sources = {pretty(generate_program(s)[0]) for s in range(10)}
    assert len(sources) == 10


def test_generated_programs_typecheck_and_terminate():
    for seed in range(25):
        program, arg_sets = generate_program(seed)
        source = pretty(program)
        reparsed = parse_program(source)
        check_program(reparsed)
        for args in arg_sets:
            result = run_original(reparsed, args=args, max_steps=500_000)
            assert result.steps_open < 500_000


def test_generator_covers_the_paper_constructs():
    """Across a modest seed range every feature the splitter handles
    must appear: classes, globals, callees, loops, breaks/continues."""
    joined = "\n".join(pretty(generate_program(s)[0]) for s in range(40))
    for needle in ("class Box", "global int g0", "func int g2", "for (",
                   "break;", "continue;", "if ("):
        assert needle in joined, "no seed in range generated %r" % needle


def test_gen_config_knobs():
    program, _ = generate_program(3, GenConfig(with_classes=False,
                                               with_globals=False,
                                               with_callee=False))
    source = pretty(program)
    assert "class" not in source and "global" not in source


# -- oracle ------------------------------------------------------------------


def test_matrix_clean_on_honest_engines():
    for seed in (0, 1):
        source = pretty(generate_program(seed)[0])
        result = oracle.run_matrix(source, [(0, 0), (2, -3)])
        assert not result.diverged, result.divergences
        assert result.split_summary  # these seeds do split


def test_matrix_records_baseline_observations():
    source = pretty(generate_program(0)[0])
    result = oracle.run_matrix(source, [(1, 2)],
                               configs=oracle.select_configs("split-ast"))
    base = result.observations[(oracle.BASELINE, (1, 2))]
    assert base.error is None and base.output


def test_select_configs():
    assert oracle.select_configs(None) == oracle.CONFIGS
    subset = oracle.select_configs("split-ast, original-compiled")
    assert [c.name for c in subset] == ["split-ast", "original-compiled"]
    with pytest.raises(ValueError) as excinfo:
        oracle.select_configs("split-ast,bogus")
    message = str(excinfo.value)
    assert "bogus" in message
    for config in oracle.ORIGINALS + oracle.PRODUCT:
        assert config.name in message


def test_every_product_cell_is_selectable_by_name():
    names = [c.name for c in oracle.PRODUCT]
    assert len(set(names)) == len(names)
    for config in oracle.PRODUCT:
        assert oracle.select_configs(config.name) == (config,)
    assert oracle.select_configs(",".join(names)) == oracle.PRODUCT


def test_every_non_reference_engine_has_an_original_cell():
    originals = [c for c in oracle.CONFIGS if not c.split]
    assert sorted(c.engine for c in originals) == sorted(
        e for e in ENGINES if e != oracle.REFERENCE.engine)
    assert oracle.BASELINE == "original-ast"


def test_default_matrix_covers_every_pair_of_axis_values():
    """Every pair of axis values some valid cell holds runs together in
    a default cell, with fewer cells than the full product."""

    axes = list(oracle.AXES)

    def pairs(cells):
        return {((a, getattr(c, a)), (b, getattr(c, b)))
                for c in cells
                for i, a in enumerate(axes)
                for b in axes[i + 1:]}

    split_cells = [c for c in oracle.CONFIGS if c.split]
    assert pairs(split_cells) == pairs(oracle.PRODUCT)
    assert len(oracle.CONFIGS) < 15 and len(split_cells) < len(oracle.PRODUCT)
    # trace context rides on the wire: in-process tracing is no cell
    assert (("socket", False), ("trace", True)) not in pairs(oracle.PRODUCT)


def test_unsplittable_program_is_not_a_divergence():
    source = "func void main(int x, int y) { print(x + y); }"
    result = oracle.run_matrix(source, [(1, 2)])
    assert not result.diverged
    assert result.split_summary == ""


def test_oracle_counts_metrics():
    source = pretty(generate_program(0)[0])
    with obs.telemetry() as (registry, _tracer):
        oracle.run_matrix(source, [(0, 0)],
                          configs=oracle.select_configs("split-ast"))
        programs = registry.counter(oracle.M_PROGRAMS).value
        divergences = registry.counter(oracle.M_DIVERGENCES).value
    assert programs == 1 and divergences == 0


def test_planted_bug_diverges_split_configs_only():
    source = pretty(generate_program(0)[0])
    with selfcheck.planted_engine_bug():
        result = oracle.run_matrix(source, [(0, 0)])
    assert result.diverged
    cells = {c.name: c for c in oracle.CONFIGS}
    assert all(cells[d.config].split for d in result.divergences)


class _CloseRecordedAsOpen:
    """A client channel that books every ``close`` round trip as an
    ``open``: the count stays right, only the transcript is wrong."""

    def __init__(self, channel):
        self._channel = channel

    def __getattr__(self, name):
        return getattr(self._channel, name)

    def round_trip(self, kind, *args, **kwargs):
        return self._channel.round_trip(
            "open" if kind == "close" else kind, *args, **kwargs)


def test_socket_transcript_bug_diverges_socket_cells_only(monkeypatch):
    init = RemoteHiddenRuntime.__init__

    def buggy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.channel = _CloseRecordedAsOpen(self.channel)

    monkeypatch.setattr(RemoteHiddenRuntime, "__init__", buggy_init)
    source = pretty(generate_program(0)[0])
    result = oracle.run_matrix(source, [(0, 0), (2, -3)])
    assert result.diverged
    cells = {c.name: c for c in oracle.CONFIGS}
    assert {d.kind for d in result.divergences} == {"transcript"}
    assert all(cells[d.config].socket for d in result.divergences)


# -- minimizer ---------------------------------------------------------------


def test_minimize_shrinks_to_the_predicate_core():
    source = pretty(generate_program(1)[0])

    def still_prints_global(src):
        return "print(g0);" in src

    if not still_prints_global(source):  # seed without the global feature
        pytest.skip("seed 1 no longer generates a global")
    minimized = reduce.minimize(source, still_prints_global)
    assert still_prints_global(minimized)
    assert len(minimized) < len(source) / 2
    check_program(parse_program(minimized))  # stays valid


def test_minimize_rejects_uninteresting_input():
    with pytest.raises(ValueError):
        reduce.minimize("func void main(int x, int y) { }", lambda s: False)


def test_repro_name_is_content_addressed():
    a = reduce.repro_name("func void main(int x, int y) { }", seed=3)
    b = reduce.repro_name("func void main(int x, int y) { }", seed=3)
    assert a == b and a.startswith("div-seed3-") and a.endswith(".mj")


def test_write_repro_roundtrips_args_header(tmp_path):
    source = "func void main(int x, int y) { print(x); }"
    path = reduce.write_repro(
        str(tmp_path), source,
        header_lines=["args: 1 2", "args: -3 4"], seed=9)
    result = campaign.replay_file(path,
                                  configs=oracle.select_configs("split-ast"))
    assert result.arg_sets == [(1, 2), (-3, 4)]
    assert not result.diverged


# -- campaign and CLI --------------------------------------------------------


def test_campaign_runs_and_counts():
    result = campaign.run_campaign(
        seed=0, runs=3, configs=oracle.select_configs("split-compiled"))
    assert result.programs == 3 and result.ok


def test_campaign_parallel_matches_serial():
    serial = campaign.run_campaign(
        seed=0, runs=4, configs=oracle.select_configs("split-ast"))
    threaded = campaign.run_campaign(
        seed=0, runs=4, jobs=3, configs=oracle.select_configs("split-ast"))
    assert (serial.programs, serial.divergent) == (
        threaded.programs, threaded.divergent)


def test_campaign_time_budget_stops():
    result = campaign.run_campaign(
        seed=0, runs=None, time_budget=0.0,
        configs=oracle.select_configs("split-ast"))
    assert result.programs == 0


def test_cli_fuzz_clean_run():
    out = io.StringIO()
    code = main(["fuzz", "--runs", "2", "--seed", "0",
                 "--configs", "split-ast,split-compiled"], out=out)
    assert code == 0
    assert "divergent programs: 0" in out.getvalue()


def test_cli_fuzz_unknown_config():
    out = io.StringIO()
    assert main(["fuzz", "--runs", "1", "--configs", "nope"], out=out) == 2
    assert "unknown config" in out.getvalue()


def test_cli_fuzz_replay_corpus_entry():
    entries = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.mj")))
    assert entries, "corpus must contain at least one committed entry"
    out = io.StringIO()
    code = main(["fuzz", "--replay", entries[0],
                 "--configs", "split-ast,split-compiled"], out=out)
    assert code == 0, out.getvalue()


def test_cli_fuzz_writes_minimized_repro(tmp_path):
    """--minimize + the planted bug: the whole find->shrink->write path."""
    out = io.StringIO()
    with selfcheck.planted_engine_bug():
        code = main(["fuzz", "--runs", "1", "--seed", "0", "--minimize",
                     "--configs", "split-compiled",
                     "--corpus-dir", str(tmp_path)], out=out)
    assert code == 1
    written = list(tmp_path.glob("*.mj"))
    assert len(written) == 1
    assert "minimized repro" in out.getvalue()


# -- corpus regression + self-check acceptance -------------------------------


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CORPUS_DIR, "*.mj"))),
    ids=os.path.basename)
def test_corpus_replays_clean(path):
    """Every committed repro must stay divergence-free on the default
    matrix."""
    result = campaign.replay_file(path)
    assert not result.diverged, [d.describe() for d in result.divergences]


def test_selfcheck_catches_minimizes_and_clears():
    report = selfcheck.run_selfcheck(seed=0)
    assert report.caught and report.seed == 0
    assert report.only_split_configs
    assert report.clean_without_bug
    assert report.minimized_lines <= 15  # acceptance bound (ISSUE 5)
    assert report.passed


def test_stale_cache_selfcheck_implicates_cache_cells_only():
    report = selfcheck.run_selfcheck(seed=0, plant="stale-cache")
    assert report.passed
    cells = {c.name: c for c in oracle.CONFIGS}
    assert report.divergences
    assert all(cells[d.config].cache for d in report.divergences)
