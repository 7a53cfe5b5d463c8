"""Class splitting tests (Section 2.2 extension): hidden fields and
per-instance ids."""

import pytest

from repro.lang import parse_program, check_program
from repro.core.classes import split_class
from repro.core.splitter import SplitError
from repro.runtime.splitrun import check_equivalence, run_split


ACCOUNT = """
class Account {
    field int balance;
    field int ops;
    method void deposit(int amount) {
        int fee = amount / 20;
        balance = balance + amount - fee;
        ops = ops + 1;
    }
    method int report(int[] B) {
        B[0] = ops;
        return balance;
    }
}
func void main(int a) {
    int[] B = new int[2];
    Account acc = new Account();
    Account acc2 = new Account();
    acc.deposit(a);
    acc2.deposit(a * 3);
    acc.deposit(5);
    print(acc.report(B));
    print(acc2.report(B));
    print(B[0]);
}
"""


def setup(source=ACCOUNT, class_name="Account", fields=None):
    program = parse_program(source)
    checker = check_program(program)
    return program, checker, split_class(program, checker, class_name, fields)


def test_equivalence_across_inputs():
    program, _, sp = setup()
    for args in [(0,), (40,), (100,), (-5,)]:
        check_equivalence(program, sp, args=args)


def test_transcript_does_not_depend_on_earlier_runs():
    # the object ids a split class's ``new`` sends are numbered per run
    _, _, sp = setup()
    first, second = (run_split(sp, args=(40,)) for _ in range(2))
    events = [
        [(e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
         for e in result.channel.transcript.events]
        for result in (first, second)
    ]
    assert events[0] == events[1]
    assert [e[4] for e in events[0] if e[0] == "open" and e[1] is None] \
        == [(1,), (2,)]


def test_instances_isolated():
    program, _, sp = setup()
    result = run_split(sp, args=(40,))
    # acc: 100->(40-2)+(5-0 fee)=43... compute: acc.deposit(40): 38; acc.deposit(5): +5; acc2.deposit(120): 114
    assert result.output[0] != result.output[1]


def test_hidden_fields_removed_from_open_class():
    _, _, sp = setup()
    cls = sp.program.class_decl("Account")
    assert cls.fields == []


def test_partial_field_selection():
    program, checker, sp = setup(fields=["balance"])
    cls = sp.program.class_decl("Account")
    assert [f.name for f in cls.fields] == ["ops"]
    for args in [(3,), (77,)]:
        check_equivalence(program, sp, args=args)


def test_hidden_field_defaults_recorded():
    _, _, sp = setup()
    assert sp.hidden_field_classes == {"Account": {"balance": 0, "ops": 0}}


def test_storage_map_marks_fields():
    _, _, sp = setup()
    for split in sp.splits.values():
        assert split.storage_map.get("balance") == "field"


def test_methods_without_hidden_refs_untouched():
    source = """
    class Mixed {
        field int secret;
        field int open_count;
        method void stash(int v) { secret = secret + v; }
        method int total() { return secret; }
        method void note() { open_count = open_count + 1; }
    }
    func void main(int v) {
        Mixed m = new Mixed();
        m.stash(v);
        m.note();
        print(m.total());
        print(m.open_count);
    }
    """
    program = parse_program(source)
    checker = check_program(program)
    sp = split_class(program, checker, "Mixed", ["secret"])
    assert set(sp.splits) == {"Mixed.stash", "Mixed.total"}
    for args in [(4,), (0,)]:
        check_equivalence(program, sp, args=args)


def test_explicit_external_field_access_rejected():
    source = """
    class Leaky { field int v; method void set(int x) { v = x; } }
    func void main() {
        Leaky l = new Leaky();
        l.set(3);
        print(l.v);
    }
    """
    program = parse_program(source)
    checker = check_program(program)
    with pytest.raises(SplitError):
        split_class(program, checker, "Leaky")


def test_unknown_class_rejected():
    program = parse_program(ACCOUNT)
    checker = check_program(program)
    with pytest.raises(SplitError):
        split_class(program, checker, "Nope")


def test_unknown_field_rejected():
    program = parse_program(ACCOUNT)
    checker = check_program(program)
    with pytest.raises(SplitError):
        split_class(program, checker, "Account", ["nope"])


def test_instance_creation_notifies_server():
    _, _, sp = setup()
    result = run_split(sp, args=(1,))
    opens = [e for e in result.channel.transcript.events if e.kind == "open" and e.fn_name == "Account"]
    assert len(opens) == 2  # two instances created


def test_many_instances_stress():
    source = """
    class Cell {
        field int v;
        method void put(int x) { v = v * 2 + x; }
        method int get() { return v; }
    }
    func void main(int n) {
        Cell a = new Cell();
        Cell b = new Cell();
        Cell c = new Cell();
        a.put(n); b.put(n + 1); c.put(n + 2);
        a.put(1); b.put(2);
        print(a.get() + b.get() * 10 + c.get() * 100);
    }
    """
    program = parse_program(source)
    checker = check_program(program)
    sp = split_class(program, checker, "Cell")
    for args in [(0,), (5,), (11,)]:
        check_equivalence(program, sp, args=args)
