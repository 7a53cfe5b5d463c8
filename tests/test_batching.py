"""The communication optimisation layer (docs/PROTOCOL.md): send
coalescing, prefetch manifests, callback batching, and the --batching
off/on equivalence guarantees."""

import json

import pytest

from repro import obs
from repro.core.deploy import export_split_json, import_split
from repro.core.hidden import FragmentKind, HiddenFragment
from repro.core.prefetch import (
    RESULT,
    collect_prefetch,
    resolve_prefetch,
    touches_open_aggregates,
)
from repro.core.program import split_program
from repro.lang import check_program, parse_program
from repro.lang.parser import parse_expression, parse_statements
from repro.runtime.channel import (
    M_BATCH_SIZE,
    M_COALESCED,
    M_ROUND_TRIPS,
    Channel,
    LatencyModel,
)
from repro.runtime.remote import remote_server, run_split_remote
from repro.runtime.splitrun import run_split

#: the hidden statement reads two open array elements, so the prefetch
#: manifest batches them into one fetch_batch callback per iteration
SOURCE = """
func int f(int x, int[] B) {
    int a = x;
    int i = 0;
    while (i < 4) {
        a = a + B[i] * B[i + 1];
        i = i + 1;
    }
    return a;
}
func void main(int x) {
    int[] B = new int[8];
    int j = 0;
    while (j < 8) {
        B[j] = j * 2 + 1;
        j = j + 1;
    }
    print(f(x, B));
}
"""


def _split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return split_program(program, checker, [("f", "a")])


# -- channel coalescing -------------------------------------------------------


def test_defer_and_flush_counts_one_round_trip():
    channel = Channel(LatencyModel.instant())
    channel.defer("close", 1, "f", None, ())
    channel.defer("call", 2, "f", 3, (7, 8))
    assert channel.interactions == 0
    assert channel.flush_deferred() == 2
    assert channel.interactions == 1
    assert channel.values_sent == 2
    assert channel.coalesced_messages == 2
    [event] = channel.transcript.events
    assert event.kind == "batch"
    assert event.sent == (7, 8)


def test_round_trip_auto_flushes_pending():
    channel = Channel(LatencyModel.instant())
    channel.defer("close", 1, "f", None, ())
    channel.round_trip("call", 2, "f", 0, (1,), 5)
    kinds = [e.kind for e in channel.transcript.events]
    assert kinds == ["batch", "call"]
    assert channel.interactions == 2


def test_flush_deferred_empty_is_noop():
    channel = Channel(LatencyModel.instant())
    assert channel.flush_deferred() == 0
    assert channel.interactions == 0
    assert len(channel.transcript.events) == 0


def test_batch_flush_charges_latency_once():
    channel = Channel(LatencyModel(per_message_ms=2.0, per_value_us=0.0))
    channel.defer("close", 1, "f", None, ())
    channel.defer("close", 2, "f", None, ())
    channel.defer("close", 3, "f", None, ())
    channel.flush_deferred()
    assert channel.simulated_ms == pytest.approx(2.0)


def test_batch_metrics_recorded():
    with obs.telemetry() as (registry, _tracer):
        channel = Channel(LatencyModel.instant())
        channel.defer("close", 1, "f", None, ())
        channel.defer("call", 2, "f", 3, (7,))
        channel.flush_deferred()
    assert registry.value(M_ROUND_TRIPS, kind="batch") == 1
    assert registry.value(M_COALESCED, kind="close") == 1
    assert registry.value(M_COALESCED, kind="call") == 1
    hist = registry.histogram(M_BATCH_SIZE)
    assert hist.count == 1
    assert hist.sum == 2


def test_latency_model_rejects_negative_parameters():
    with pytest.raises(ValueError):
        LatencyModel(per_message_ms=-0.1)
    with pytest.raises(ValueError):
        LatencyModel(per_value_us=-1.0)


# -- prefetch manifests -------------------------------------------------------


def _fragment(body_src, result_src=None, params=("i",)):
    return HiddenFragment(
        0,
        FragmentKind.STMTS if result_src is None else FragmentKind.EXPR,
        params=list(params),
        body=parse_statements(body_src),
        result_expr=parse_expression(result_src) if result_src else None,
    )


def test_manifest_emitted_for_two_reads():
    frag = _fragment("a = B[i] + B[i + 1];")
    manifest = collect_prefetch(frag)
    assert len(manifest) == 1
    assert len(manifest[0]["reads"]) == 2
    stmt_map, result_reads = resolve_prefetch(frag)
    assert result_reads == []
    [reads] = stmt_map.values()
    assert len(reads) == 2


def test_single_read_not_worth_batching():
    frag = _fragment("a = a + B[i];")
    assert collect_prefetch(frag) == []


def test_short_circuit_rhs_excluded():
    # B[i + 1] may never be evaluated; prefetching it could fault on an
    # index the program deliberately guards against
    frag = _fragment("ok = B[i] > 0 && B[i + 1] > 0;")
    assert collect_prefetch(frag) == []


def test_result_expression_manifest():
    frag = _fragment("int t = i;", result_src="B[i] + B[i + 1]")
    manifest = collect_prefetch(frag)
    assert [entry["at"] for entry in manifest] == [RESULT]
    _stmt_map, result_reads = resolve_prefetch(frag)
    assert len(result_reads) == 2


def test_impure_index_not_batchable():
    # B[C[i]] itself cannot be prefetched (its index reads open memory),
    # but the inner C[i] and the sibling B[i] can
    frag = _fragment("a = B[C[i]] + B[i];")
    [entry] = collect_prefetch(frag)
    assert len(entry["reads"]) == 2
    stmt_map, _ = resolve_prefetch(frag)
    [reads] = stmt_map.values()
    bases = sorted(read.base.name for read in reads)
    assert bases == ["B", "C"]


def test_manifest_survives_json_round_trip():
    frag = _fragment("a = B[i] + B[i + 1];")
    frag.prefetch = json.loads(json.dumps(collect_prefetch(frag)))
    stmt_map, _ = resolve_prefetch(frag)
    assert len(stmt_map) == 1


def test_stale_manifest_is_skipped_not_fatal():
    frag = _fragment("a = B[i] + B[i + 1];")
    frag.prefetch = [{"at": [["stmt", 9]], "reads": [[["value", None]]]}]
    stmt_map, result_reads = resolve_prefetch(frag)
    assert stmt_map == {} and result_reads == []


def test_touches_open_aggregates():
    assert touches_open_aggregates(_fragment("a = B[i];"))
    assert not touches_open_aggregates(_fragment("a = a + i;"))


def test_splitter_emits_manifests():
    sp = _split()
    manifests = [
        frag.prefetch
        for split in sp.splits.values()
        for frag in split.fragments.values()
    ]
    assert all(m is not None for m in manifests)
    assert any(m for m in manifests)  # the two-read statement got one


# -- end-to-end ---------------------------------------------------------------


def test_batching_preserves_behaviour_and_reduces_round_trips():
    sp = _split()
    off = run_split(sp, args=(3,), latency=LatencyModel.instant())
    on = run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)
    assert on.value == off.value
    assert on.output == off.output
    assert on.interactions < off.interactions
    kinds = {e.kind for e in on.channel.transcript.events}
    assert "cb_batch" in kinds and "batch" in kinds
    assert "cb_fetch" not in kinds  # both reads ride the batched callback


def test_batching_off_keeps_transcript_shape():
    sp = _split()
    result = run_split(sp, args=(3,), latency=LatencyModel.instant())
    kinds = {e.kind for e in result.channel.transcript.events}
    assert "batch" not in kinds and "cb_batch" not in kinds
    assert result.channel.coalesced_messages == 0


def test_remote_batching_matches_simulated_traffic():
    sp = _split()
    simulated = run_split(sp, args=(5,), latency=LatencyModel.instant(),
                          batching=True)
    with remote_server(sp) as address:
        remote = run_split_remote(sp, address, args=(5,), batching=True)
    assert remote.output == simulated.output
    assert remote.value == simulated.value
    # the hello that turns batching on is uncounted: the wire carries
    # exactly the simulated traffic
    assert remote.interactions == simulated.interactions
    assert remote.channel.coalesced_messages == simulated.channel.coalesced_messages


def test_deployed_manifest_ships_prefetch():
    sp = _split()
    deployed = import_split(export_split_json(sp))
    frags = [
        frag
        for _name, fragments, _storage in deployed.registry().values()
        for frag in fragments.values()
    ]
    assert any(frag.prefetch for frag in frags)
    off = run_split(sp, args=(2,), latency=LatencyModel.instant())
    on = run_split(deployed, args=(2,), latency=LatencyModel.instant(),
                   batching=True)
    assert on.output == off.output
    assert on.interactions < off.interactions
