"""The documentation hygiene checks CI runs (tools/check_docs.py), as a
tier-1 test so dead links and stale metric names fail locally too."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


def test_docs_are_clean(capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


def test_checker_sees_this_repos_metrics():
    known = check_docs.defined_metrics()
    assert "repro_channel_round_trips_total" in known
    assert "repro_channel_coalesced_total" in known
    assert "repro_channel_batch_size" in known
    assert "repro_phase_seconds" in known


def test_checker_flags_dead_link(tmp_path):
    doc = tmp_path / "X.md"
    doc.write_text("see [gone](nope/missing.md)")
    errors = []
    check_docs.check_links(doc, doc.read_text(), errors)
    assert len(errors) == 1 and "missing.md" in errors[0]


def test_checker_flags_stale_metric(tmp_path):
    doc = tmp_path / "X.md"
    doc.write_text("`repro_totally_made_up_total` is great")
    errors = []
    check_docs.check_metrics(
        doc, doc.read_text(), {"repro_channel_round_trips_total"}, errors
    )
    assert len(errors) == 1 and "repro_totally_made_up_total" in errors[0]


def test_checker_flags_metric_table_mismatch(tmp_path):
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(
        "| Metric | Type | Labels | Meaning |\n"
        "| --- | --- | --- | --- |\n"
        "| `repro_a_total` | counter | `kind` | right |\n"
        "| `repro_b_seconds` | counter | `side` | wrong kind, label missing |\n"
    )
    declared = {
        "repro_a_total": ("counter", ("kind",)),
        "repro_b_seconds": ("histogram", ("side", "engine")),
        "repro_c": ("gauge", ()),
    }
    errors = []
    check_docs.check_metric_table(doc, doc.read_text(), declared, errors)
    assert len(errors) == 2
    assert "repro_b_seconds" in errors[0] and "histogram" in errors[0]
    assert "repro_c" in errors[1] and "no table row" in errors[1]


def test_checker_reads_declarations():
    declared = check_docs.declared_metrics()
    assert declared["repro_engine_compile_seconds"] == (
        "histogram", ("side", "engine"))
    assert declared["repro_channel_simulated_ms_total"] == ("counter", ())


def test_retired_metric_names_are_not_declared():
    # the retired names excuse only the change history: none may still be
    # live, or the exemption would hide a current name
    assert check_docs._RETIRED_METRICS
    assert not check_docs._RETIRED_METRICS & check_docs.defined_metrics()


def test_checker_reads_the_callback_surface():
    assert check_docs.defined_callbacks() == {
        "fetch_index", "fetch_field", "fetch_batch", "cb_fetch", "cb_batch"}


def test_checker_flags_a_stale_callback(tmp_path):
    doc = tmp_path / "PROTOCOL.md"
    doc.write_text(
        "Each read is a `cb_fetch`; `{\"cb\": \"fetch_batch\"}` batches.\n"
        "A write was a `cb_store` (`store_index`), never fetch_more.\n")
    errors = []
    check_docs.check_callbacks(doc, doc.read_text(),
                               check_docs.defined_callbacks(), errors)
    assert len(errors) == 2
    assert "'cb_store'" in errors[0] and "'store_index'" in errors[1]
