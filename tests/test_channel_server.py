"""Channel accounting, transcripts, and hidden-server behaviour."""

import pytest

from repro.lang import parse_program, check_program
from repro.core.program import split_program
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.server import Tenant
from repro.runtime.splitrun import run_split
from repro.runtime.values import RuntimeErr


SOURCE = """
func int f(int x, int[] B) {
    int a = x * 3 + 1;
    B[0] = a;
    int b = a - 2;
    B[1] = b;
    return b;
}
func void main(int x) {
    int[] B = new int[4];
    print(f(x, B));
    print(B[0]);
    print(B[1]);
}
"""


def split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return program, split_program(program, checker, [("f", "a")])


def test_channel_counts_round_trips():
    channel = Channel(LatencyModel.instant())
    channel.round_trip("call", 1, "f", 0, (1, 2), 7)
    channel.round_trip("open", 2, "f", None, (0,), 2)
    assert channel.interactions == 2
    assert channel.values_sent == 3
    assert channel.values_received == 2


def test_latency_model_costs():
    model = LatencyModel(per_message_ms=1.0, per_value_us=500.0)
    assert model.cost_ms(2) == pytest.approx(2.0)
    assert LatencyModel.instant().cost_ms(10) == 0.0
    assert LatencyModel.smart_card().per_message_ms > LatencyModel.lan().per_message_ms


def test_simulated_time_accumulates():
    channel = Channel(LatencyModel(per_message_ms=2.0, per_value_us=0.0))
    channel.round_trip("call", 1, "f", 0, (), None)
    channel.round_trip("call", 1, "f", 1, (), None)
    assert channel.simulated_ms == pytest.approx(4.0)


def test_transcript_records_events_in_order():
    _, sp = split()
    result = run_split(sp, args=(4,))
    transcript = result.channel.transcript
    kinds = [e.kind for e in transcript.events]
    assert kinds[0] == "open"
    assert "call" in kinds
    assert kinds[-1] == "close" or "close" in kinds
    seqs = [e.seq for e in transcript.events]
    assert seqs == sorted(seqs)


def test_transcript_calls_filter():
    _, sp = split()
    result = run_split(sp, args=(4,))
    calls = result.channel.transcript.calls(fn_name="f")
    assert calls
    assert all(e.fn_name == "f" for e in calls)
    one_label = result.channel.transcript.calls(fn_name="f", label=calls[0].label)
    assert all(e.label == calls[0].label for e in one_label)


def test_record_false_disables_transcript():
    _, sp = split()
    result = run_split(sp, args=(4,), record=False)
    assert result.channel.transcript is None
    assert result.channel.interactions > 0


def test_server_activation_lifecycle():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    hid = server.open_activation(0)
    assert hid in server.activations
    server.close_activation(hid)
    assert hid not in server.activations
    # closing twice is harmless
    server.close_activation(hid)


def test_server_unknown_fn_id():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    with pytest.raises(RuntimeErr):
        server.open_activation(99)


def test_server_unknown_activation():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    with pytest.raises(RuntimeErr):
        server.call(42, 0, [], None)


def test_server_unknown_label():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    hid = server.open_activation(0)
    with pytest.raises(RuntimeErr, match="no fragment"):
        server.call(hid, 999, [], None)


def test_server_call_after_close():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    hid = server.open_activation(0)
    label = next(iter(sp.splits["f"].fragments))
    server.close_activation(hid)
    with pytest.raises(RuntimeErr, match="no activation"):
        server.call(hid, label, [0] * len(sp.splits["f"].fragments[label].params), None)


def test_server_exceeds_max_steps():
    # a hidden fragment containing a loop: the server's own step budget
    # must fire, not the open interpreter's
    source = """
    func int f(int x, int[] B) {
        int a = x;
        int s = 0;
        while (a > 0) {
            s = s + a;
            a = a - 1;
        }
        B[0] = s;
        return s;
    }
    func void main(int x) {
        int[] B = new int[2];
        print(f(x, B));
    }
    """
    program = parse_program(source)
    checker = check_program(program)
    sp = split_program(program, checker, [("f", "a")])
    server = Tenant("f", sp.registry()).new_server(max_steps=10)
    hid = server.open_activation(0)
    fragments = sp.splits["f"].fragments
    loop_label = next(
        l for l, f in fragments.items()
        if any("While" in type(s).__name__ for s in f.body)
    )
    # prime the hidden counter (fragment 0 executes `a = x`), then run the
    # fully hidden loop: its per-iteration ticks must trip the budget
    server.call(hid, 0, [1000] * len(fragments[0].params), None)
    with pytest.raises(RuntimeErr, match="exceeded 10 steps"):
        server.call(hid, loop_label, [], None)


def test_server_wrong_value_count():
    _, sp = split()
    server = Tenant("f", sp.registry()).new_server()
    hid = server.open_activation(0)
    label, frag = next(
        (l, f) for l, f in sp.splits["f"].fragments.items() if f.params
    )
    with pytest.raises(RuntimeErr):
        server.call(hid, label, [1] * (len(frag.params) + 1), None)


def test_activations_isolated():
    # two concurrent activations of the same function must not share state
    source = """
    func int f(int x, int[] B) {
        int a = x + 1;
        B[0] = a;
        return a;
    }
    func void main() {
        int[] B = new int[2];
        print(f(1, B));
        print(f(100, B));
    }
    """
    program = parse_program(source)
    checker = check_program(program)
    sp = split_program(program, checker, [("f", "a")])
    result = run_split(sp, args=())
    assert result.output[:2] == ["2", "101"]


def test_values_flow_back_and_forth():
    _, sp = split()
    result = run_split(sp, args=(4,))
    assert result.output == ["11", "13", "11"]
    assert result.channel.values_sent > 0
    assert result.channel.values_received > 0


def test_transcript_summary_matches_channel_accounting():
    _, sp = split()
    result = run_split(sp, args=(4,))
    channel = result.channel
    summary = channel.transcript.summary()
    assert summary["round_trips"] == channel.interactions
    assert summary["total_values"] == channel.values_sent + channel.values_received
    assert summary["simulated_ms"] == pytest.approx(channel.simulated_ms)
