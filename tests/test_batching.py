"""The communication optimisation layer (docs/PROTOCOL.md): send
coalescing, prefetch plans, callback batching, and the --batching
off/on equivalence guarantees."""

import pytest

from repro import obs
from repro.core.deploy import export_split, export_split_json, import_split
from repro.core.hidden import FragmentKind, HiddenFragment
from repro.core.prefetch import prefetch_plan, touches_open_aggregates
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
from repro.runtime.interpreter import Interpreter, OpenAccess
from repro.runtime.remote import remote_server, run_split_remote
from repro.runtime.server import Tenant
from repro.runtime.splitrun import run_split
from repro.runtime.values import RuntimeErr

#: the hidden statement reads two open array elements, so the prefetch
#: plan batches them into one fetch_batch callback per iteration
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


# -- prefetch plans -----------------------------------------------------------


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
    stmt_map, result_reads = prefetch_plan(frag)
    assert result_reads == []
    assert list(stmt_map) == [id(frag.body[0])]
    [reads] = stmt_map.values()
    assert reads == [frag.body[0].value.left, frag.body[0].value.right]


def test_single_read_not_worth_batching():
    frag = _fragment("a = a + B[i];")
    assert prefetch_plan(frag) == ({}, [])


def test_short_circuit_rhs_excluded():
    # B[i + 1] may never be evaluated; prefetching it could fault on an
    # index the program deliberately guards against
    frag = _fragment("ok = B[i] > 0 && B[i + 1] > 0;")
    assert prefetch_plan(frag) == ({}, [])


def test_result_expression_manifest():
    frag = _fragment("int t = i;", result_src="B[i] + B[i + 1]")
    stmt_map, result_reads = prefetch_plan(frag)
    assert stmt_map == {}
    assert result_reads == [frag.result_expr.left, frag.result_expr.right]


def test_impure_index_not_batchable():
    # B[C[i]] itself cannot be prefetched (its index reads open memory),
    # but the inner C[i] and the sibling B[i] can
    frag = _fragment("a = B[C[i]] + B[i];")
    stmt_map, _ = prefetch_plan(frag)
    [reads] = stmt_map.values()
    assert [read.base.name for read in reads] == ["C", "B"]


def test_plan_covers_nested_statements_and_for_headers():
    frag = _fragment(
        "for (int k = B[i] + B[0]; k < 3; k = k + B[1] * B[2]) {"
        "  if (k > 0) { a = B[k] - B[0]; } }"
    )
    loop = frag.body[0]
    stmt_map, _ = prefetch_plan(frag)
    inner = loop.body[0].then_body[0]
    assert set(stmt_map) == {id(loop.init), id(loop.update), id(inner)}
    assert all(len(reads) == 2 for reads in stmt_map.values())


def test_manifest_survives_json_round_trip():
    # a deployed fragment is re-parsed from source text; its plan is
    # derived from the parsed fragment and batches the same reads
    sp = _split()
    deployed = import_split(export_split_json(sp))
    shapes = []
    for program in (sp, deployed):
        [(_name, fragments, _storage)] = program.registry().values()
        shapes.append(sorted(
            (label, sorted(len(r) for r in prefetch_plan(frag)[0].values()))
            for label, frag in fragments.items()
        ))
    assert shapes[0] == shapes[1]
    assert any(counts for _label, counts in shapes[0])


#: ``ok``'s right-hand read is guarded: with x = 5 the original never
#: evaluates B[5]
GUARDED = """
func int f(int x, int[] B) {
    int a = x;
    bool ok = a < 3 && B[a] > 0;
    if (ok) {
        a = a + 10;
    }
    return a;
}
func void main(int x) {
    int[] B = new int[3];
    print(f(x, B));
}
"""


def test_stale_manifest_is_skipped_not_fatal():
    # a manifest that still carries the old path-encoded ``prefetch`` key
    # (here naming the guarded B[a]) imports with the key ignored, so a
    # batched run never prefetches a read the original skipped
    program = parse_program(GUARDED)
    sp = split_program(program, check_program(program), [("f", "a")])
    manifest = export_split(sp)
    [spec] = [spec for spec in manifest["functions"]["f"]["fragments"]
              if "&&" in spec["body"]]
    at = next(i for i, stmt in enumerate(parse_statements(spec["body"]))
              if getattr(stmt, "name", None) == "ok")
    spec["prefetch"] = [{"at": [["stmt", at]],
                         "reads": [[["init", None], ["right", None],
                                    ["left", None]]]}]
    deployed = import_split(manifest)
    result = run_split(deployed, args=(5,), latency=LatencyModel.instant(),
                       batching=True)
    assert result.output == ["5"]
    kinds = {e.kind for e in result.channel.transcript.events}
    assert "cb_batch" not in kinds and "cb_fetch" not in kinds


def test_touches_open_aggregates():
    assert touches_open_aggregates(_fragment("a = B[i];"))
    assert not touches_open_aggregates(_fragment("a = a + i;"))


def test_split_fragments_carry_no_plan():
    # the splitter stamps nothing: the plan is the hidden host's to derive
    sp = _split()
    frags = [frag for split in sp.splits.values()
             for frag in split.fragments.values()]
    assert not any(hasattr(frag, "prefetch") or hasattr(frag, "purity")
                   for frag in frags)
    assert any(prefetch_plan(frag)[0] for frag in frags)


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


def test_deployed_manifest_batches_without_a_plan():
    sp = _split()
    manifest = export_split(sp)
    specs = [spec for entry in manifest["functions"].values()
             for spec in entry["fragments"]]
    assert not any("prefetch" in spec for spec in specs)
    deployed = import_split(manifest)
    off = run_split(sp, args=(2,), latency=LatencyModel.instant())
    on = run_split(deployed, args=(2,), latency=LatencyModel.instant(),
                   batching=True)
    assert on.output == off.output
    assert on.interactions < off.interactions


# -- batched-prefetch error paths (regression) --------------------------------


def test_short_batch_reply_rejected(monkeypatch):
    # regression: a fetch_batch reply with the wrong arity used to
    # partially populate the batch cache via zip() and silently fall back
    # to unbatched callbacks for the missing reads
    sp = _split()
    original = OpenAccess.fetch_batch

    def short_reply(self, items):
        return original(self, items)[:-1]

    monkeypatch.setattr(OpenAccess, "fetch_batch", short_reply)
    with pytest.raises(RuntimeErr, match=r"fetch_batch returned 1 values for 2 reads"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)


def test_long_batch_reply_rejected(monkeypatch):
    sp = _split()
    original = OpenAccess.fetch_batch

    def long_reply(self, items):
        values = original(self, items)
        return values + [0]

    monkeypatch.setattr(OpenAccess, "fetch_batch", long_reply)
    with pytest.raises(RuntimeErr, match=r"fetch_batch returned 3 values for 2 reads"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)


def test_failed_prefetch_leaves_no_stale_batch_entries(monkeypatch):
    # an abort mid-prefetch (here: the open side refusing the callback)
    # must clear the per-statement batch cache so nothing stale survives
    sp = _split()
    evaluators = []
    from repro.runtime import server as server_mod

    original_init = server_mod._FragmentEvaluator.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        evaluators.append(self)

    monkeypatch.setattr(server_mod._FragmentEvaluator, "__init__", tracking_init)

    calls = {"n": 0}
    original_fetch = OpenAccess.fetch_batch

    def failing_fetch(self, items):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeErr("open side refused the batch")
        return original_fetch(self, items)

    monkeypatch.setattr(OpenAccess, "fetch_batch", failing_fetch)
    with pytest.raises(RuntimeErr, match="open side refused the batch"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)
    assert calls["n"] == 2
    assert evaluators, "the hidden loop must have built an evaluator"
    for evaluator in evaluators:
        assert not evaluator._batch_cache


def test_no_partial_traffic_before_arity_check(monkeypatch):
    # the cb_batch round trip is recorded only after the reply validates,
    # so a rejected reply leaves no phantom traffic in the transcript
    sp = _split()
    original = OpenAccess.fetch_batch

    def short_reply(self, items):
        return original(self, items)[:-1]

    monkeypatch.setattr(OpenAccess, "fetch_batch", short_reply)
    with obs.telemetry():
        channel = Channel(LatencyModel.instant(), record=True)
        link = Tenant.from_program("default", sp).new_link(
            channel, batching=True
        )
        interp = Interpreter(sp.program, hidden_runtime=link)
        with pytest.raises(RuntimeErr):
            interp.run("main", (3,))
        link.sync()
    kinds = [e.kind for e in channel.transcript.events]
    assert "cb_batch" not in kinds
