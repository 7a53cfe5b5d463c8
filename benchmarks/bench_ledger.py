"""CI smoke of the benchmark ledger's measurements (``repro.bench.ledger``)
on small inputs, without touching the committed ``BENCH.json``::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_ledger.py
"""

from repro.bench import ledger
from repro.bench.experiments import run_loadgen_experiment


def test_engines_agree_and_compiled_tiers_win_smoke():
    row = ledger.engine_speed(ledger.tight_loop_program(), (50_000,),
                              repeats=2)
    assert row["identical"], row  # same value and step count everywhere
    assert row["speedup"]["compiled"]["median"] >= 1.0, row
    assert row["speedup"]["codegen"]["median"] >= 2.0, row


def test_tracing_off_accounting_identical_smoke():
    section = ledger.telemetry(iters=25, rounds=1, repeats=1)
    assert section["off_accounting_identical"], section


def test_loadgen_fleet_has_no_errors_smoke():
    data = run_loadgen_experiment(scale=0.1, clients_total=8).data
    assert data["clients_total"] == 8
    assert len(data["tenants"]) == 4
    for report in data["reports"].values():
        assert report["errors"] == {
            "protocol": 0, "reply": 0, "skipped_ops": 0}
        assert report["latency_ms"]["p95"] > 0
