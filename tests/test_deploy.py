"""Deployment manifest (serialisation) tests."""

import json

import pytest

from repro.core.classes import split_class
from repro.cli import _load_tenants
from repro.core.deploy import (
    export_split,
    export_split_json,
    import_hidden,
    import_split,
)
from repro.core.globals import hide_global
from repro.core.program import split_program
from repro.lang import parse_program, check_program
from repro.lang.errors import LangError
from repro.runtime.remote import remote_server, run_split_remote
from repro.runtime.server import Tenant
from repro.runtime.splitrun import run_original, run_split


SOURCE = """
func int f(int x, int y, int z, int[] B) {
    int a = 3 * x + y;
    int i = a;
    int sum = 0;
    while (i < z) { sum = sum + i; i = i + 1; }
    if (sum > 50) { B[0] = sum / 2; } else { B[0] = 0; }
    return sum;
}
func void main(int x, int y) {
    int[] B = new int[2];
    print(f(x, y, 25, B));
    print(B[0]);
}
"""

GLOBAL_SOURCE = """
global int counter = 10;
func void bump(int k) { counter = counter + k; }
func void main(int k) { bump(k); bump(k * 2); print(counter); }
"""

CLASS_SOURCE = """
class Safe {
    field int pin;
    method void set(int p) { pin = p * 7; }
    method int check() { return pin; }
}
func void main(int p) {
    Safe s = new Safe();
    s.set(p);
    print(s.check());
}
"""


def make_split():
    program = parse_program(SOURCE)
    checker = check_program(program)
    return program, split_program(program, checker, [("f", "a")])


def test_export_is_json_serialisable():
    _, sp = make_split()
    text = export_split_json(sp)
    data = json.loads(text)
    assert data["format"] == "repro-split/1"
    assert "f" in data["functions"]
    assert data["functions"]["f"]["fragments"]


def test_roundtrip_same_output():
    program, sp = make_split()
    deployed = import_split(export_split(sp))
    for args in [(1, 2), (5, 5), (0, 0)]:
        original = run_original(program, args=args)
        redeployed = run_split(deployed, args=args)
        assert redeployed.output == original.output


def test_roundtrip_same_traffic():
    _, sp = make_split()
    deployed = import_split(export_split(sp))
    a = run_split(sp, args=(3, 4))
    d = run_split(deployed, args=(3, 4))
    assert d.interactions == a.interactions
    assert [e.kind for e in d.channel.transcript.events] == [
        e.kind for e in a.channel.transcript.events
    ]
    assert [e.sent for e in d.channel.transcript.events] == [
        e.sent for e in a.channel.transcript.events
    ]


def test_roundtrip_through_json_text():
    program, sp = make_split()
    deployed = import_split(export_split_json(sp))
    original = run_original(program, args=(2, 9))
    assert run_split(deployed, args=(2, 9)).output == original.output


def test_global_hiding_manifest():
    program = parse_program(GLOBAL_SOURCE)
    checker = check_program(program)
    sp = hide_global(program, checker, "counter")
    manifest = export_split(sp)
    assert manifest["hidden_globals"] == {"counter": 10}
    deployed = import_split(manifest)
    original = run_original(program, args=(4,))
    assert run_split(deployed, args=(4,)).output == original.output


def test_class_splitting_manifest():
    program = parse_program(CLASS_SOURCE)
    checker = check_program(program)
    sp = split_class(program, checker, "Safe")
    manifest = export_split(sp)
    assert manifest["hidden_fields"] == {"Safe": {"pin": 0}}
    deployed = import_split(manifest)
    original = run_original(program, args=(6,))
    assert run_split(deployed, args=(6,)).output == original.output


def test_storage_map_preserved():
    source = "global int g = 1; func void main() { g = g + 1; print(g); }"
    program = parse_program(source)
    checker = check_program(program)
    sp = hide_global(program, checker, "g")
    deployed = import_split(export_split(sp))
    _fn, _frags, storage = next(iter(deployed.registry().values()))
    assert storage == {"g": "global"}


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        import_split({"format": "other/9"})


def test_manifest_fragments_are_source_text():
    _, sp = make_split()
    manifest = export_split(sp)
    bodies = [f["body"] for f in manifest["functions"]["f"]["fragments"]]
    assert any("while (" in b for b in bodies)  # the hidden loop ships as source


def test_fragment_specs_hold_the_fragment_only():
    for make, _args in CASES.values():
        manifest = export_split(make())
        for entry in manifest["functions"].values():
            for spec in entry["fragments"]:
                assert sorted(spec) == sorted(
                    ["label", "kind", "params", "body", "result", "set_var"]
                )


# -- manifests carrying derived facts ------------------------------------------

#: ``deposit`` writes the hidden global on every call, and main calls it
#: twice with the same amount: 100 + 38 + 38
BANK = """
global int balance = 100;
func void deposit(int amount) {
    int fee = amount / 20;
    balance = balance + amount - fee;
}
func void main(int a) {
    deposit(a);
    deposit(a);
    print(balance);
}
"""


def _forged_bank_manifest():
    """The BANK split's manifest with every ``deposit`` fragment carrying
    the ``purity`` stamp an older manifest may have, calling it
    cacheable; an import ignores the key."""
    program, checker = _checked(BANK)
    manifest = export_split(hide_global(program, checker, "balance"))
    for spec in manifest["functions"]["deposit"]["fragments"]:
        spec["purity"] = {
            "cacheable": True, "reason": "", "writes_hidden_store": False,
            "env_reads": [], "reads_globals": False, "reads_fields": False,
        }
    assert run_original(program, args=(40,)).output == ["176"]
    return manifest


def test_forged_purity_is_ignored_in_process():
    deployed = import_split(_forged_bank_manifest())
    assert run_split(deployed, args=(40,)).output == ["176"]


def test_forged_purity_is_ignored_by_a_served_tenant():
    manifest = _forged_bank_manifest()
    tenant = Tenant("bank", *import_hidden(manifest))
    with remote_server(tenants=[tenant]) as address:
        result = run_split_remote(import_split(manifest), address,
                                  args=(40,), program="bank")
    assert result.output == ["176"]


# -- hidden-only import (what repro serve reads) --------------------------------------

#: kind of hidden state -> (its split, the arguments of main)
CASES = {
    "function": (lambda: make_split()[1], (3, 4)),
    "global": (lambda: hide_global(*_checked(GLOBAL_SOURCE), "counter"), (4,)),
    "class": (lambda: split_class(*_checked(CLASS_SOURCE), "Safe"), (6,)),
}


def _checked(source):
    program = parse_program(source)
    return program, check_program(program)


def _wire_events(result):
    # what crosses the wire; the client side does not learn fn_name or hid
    return [(e.kind, e.label, e.sent, e.result)
            for e in result.channel.transcript.events]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_manifest_without_open_program_serves_like_the_source_split(
        tmp_path, kind):
    make, args = CASES[kind]
    sp = make()
    manifest = export_split(sp)
    del manifest["open_program"]
    path = tmp_path / "app.json"
    path.write_text(json.dumps(manifest))
    [tenant] = _load_tenants([str(path)])
    assert tenant.name == "app"
    local = run_split(sp, args=args)
    with remote_server(tenants=[tenant]) as address:
        remote = run_split_remote(sp, address, args=args)
    assert (remote.value, remote.output) == (local.value, local.output)
    assert _wire_events(remote) == _wire_events(local)


def test_import_split_still_parses_open_program():
    manifest = export_split(make_split()[1])
    manifest["open_program"] = "func void main( {"
    with pytest.raises(LangError):
        import_split(manifest)
    del manifest["open_program"]
    with pytest.raises(KeyError):
        import_split(manifest)
