#!/usr/bin/env python3
"""Gate the benchmark ledger (BENCH.json) with one table of rules.

Each rule is ``(path, kind, bar)``.  ``path`` walks the document's keys
with dots, and ``*`` matches every key at its level; a key the path
names that is absent under a matched parent fails as missing.
Invariants:

* ``true`` — a flag that must be true;
* ``zero`` — a count that must be 0;
* ``has`` — a mapping or list that must name every entry of ``bar``.

Claims, each today's bar unchanged:

* ``higher`` / ``lower`` — a ratio measured against a baseline taken
  alongside it, stored as ``{"median": m, "repeats": [...]}`` (a bare
  number is one repeat), whose median must be at least / at most ``bar``;
* ``min`` / ``max`` — the same bar on absolute detail (milliseconds,
  counts), which the relative band below leaves alone.

Given a fresh ``DOC``, a ``higher``/``lower`` claim also fails when its
median is worse than the committed BENCH.json's by more than
max(10 % of the committed median, 3 MAD of the committed repeats).

The expected engines are the ``ENGINES`` registry of
``src/repro/runtime/__init__.py``.  Regenerate and gate with::

    PYTHONPATH=src python -m repro.bench ledger --output BENCH.json
    python tools/check_bench.py [DOC]
"""

import json
import pathlib
import statistics
import sys

from check_docs import defined_engines

COMMITTED = pathlib.Path(__file__).resolve().parent.parent / "BENCH.json"

#: the four Table 5 corpora, each a daemon tenant
CORPORA = ("javac", "jess", "jasmin", "bloat")
ENGINES = tuple(sorted(defined_engines()))

RULES = (
    ("engines.workloads", "has", ("tight_loop",)),
    ("engines.workloads.*.stmts_per_s", "has", ENGINES),
    ("engines.workloads.*.identical", "true", None),
    ("engines.workloads.*.speedup.compiled", "higher", 1.0),
    ("engines.workloads.tight_loop.speedup.compiled", "higher", 2.0),
    ("engines.workloads.*.speedup.codegen", "higher", 2.0),
    ("engines.workloads.tight_loop.speedup.codegen", "higher", 8.0),
    ("telemetry.off_accounting_identical", "true", None),
    ("telemetry.round_trips", "min", 1),
    ("telemetry.trace_overhead_pct", "lower", 75.0),
    ("telemetry.telemetry_overhead_pct", "lower", 400.0),
    ("load.tenants", "has", CORPORA),
    ("load.clients_total", "min", 100),
    ("load.reports", "has", CORPORA),
    ("load.reports.*.errors", "has", ("protocol", "reply", "skipped_ops")),
    ("load.reports.*.errors.*", "zero", None),
    ("load.reports.*.latency_ms", "has", ("p50", "p95", "p99")),
    ("load.reports.*.latency_ms.p95", "max", 500.0),
    ("load.reports.*.ops", "min", 1),
    ("profile.corpora", "has", CORPORA),
    ("profile.corpora.*", "has", ENGINES),
    ("profile.corpora.*.*.attributed_pct", "higher", 95.0),
    ("profile.corpora.*.*.samples", "min", 100),
    ("profile.corpora.*.codegen.deopts.total", "zero", None),
)


#: the value of a key a rule names but the document lacks
MISSING = object()


def lookup(doc, path):
    """``[(concrete path, value)]`` for every match of ``path``; an absent
    key (or a ``*`` over a non-mapping) matches as ``MISSING``."""
    found = [("", doc)]
    for key in path.split("."):
        step = []
        for where, node in found:
            prefix = where + "." if where else ""
            if key == "*" and isinstance(node, dict):
                step += [(prefix + k, node[k]) for k in sorted(node)]
            elif key != "*" and isinstance(node, dict) and key in node:
                step.append((prefix + key, node[key]))
            else:
                step.append((prefix + key, MISSING))
        found = step
    return found


def median(value):
    return value.get("median") if isinstance(value, dict) else value


def repeats(value):
    if isinstance(value, dict):
        return value.get("repeats") or [median(value)]
    return [value]


def band(committed):
    """How much worse than ``committed`` a fresh median may be."""
    values = repeats(committed)
    mid = statistics.median(values)
    mad = statistics.median(abs(v - mid) for v in values)
    return max(0.10 * abs(mid), 3 * mad)


def violation(kind, bar, value):
    """Why ``value`` breaks a rule, or None."""
    if value is MISSING:
        return "missing"
    if kind == "true":
        return None if value is True else "is %r, must be true" % (value,)
    if kind == "zero":
        return None if value == 0 and value is not False \
            else "is %r, must be 0" % (value,)
    if kind == "has":
        if not isinstance(value, (dict, list)):
            return "is %r, must name %s" % (value, ", ".join(bar))
        missing = [name for name in bar if name not in value]
        return "lacks %s" % ", ".join(missing) if missing else None
    number = median(value) if kind in ("higher", "lower") else value
    if not isinstance(number, (int, float)) or isinstance(number, bool):
        return "is %r, not a number" % (number,)
    if kind in ("higher", "min") and number < bar:
        return "%g is below the bar %g" % (number, bar)
    if kind in ("lower", "max") and number > bar:
        return "%g is above the bar %g" % (number, bar)
    return None


def check(doc, baseline=None):
    """Problems (strings naming their path) of ``doc``, banded against
    ``baseline`` when given."""
    problems = []
    for path, kind, bar in RULES:
        for where, value in lookup(doc, path):
            why = violation(kind, bar, value)
            if why:
                problems.append("%s: %s" % (where, why))
            elif baseline is not None and kind in ("higher", "lower"):
                committed = lookup(baseline, where)[0][1]
                if committed is MISSING:
                    continue
                slack = band(committed)
                drop = median(committed) - median(value)
                if (drop if kind == "higher" else -drop) > slack:
                    problems.append(
                        "%s: %g regressed from the committed %g by more than "
                        "its band %g" % (where, median(value),
                                         median(committed), slack))
    return list(dict.fromkeys(problems))  # rules may share a path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: check_bench.py [DOC]", file=sys.stderr)
        return 2
    try:
        baseline = json.loads(COMMITTED.read_text())
        doc = json.loads(pathlib.Path(argv[0]).read_text()) if argv \
            else baseline
    except (OSError, ValueError) as exc:
        print("BENCH: cannot read the ledger: %s" % exc)
        return 1
    problems = check(doc, baseline if argv else None)
    for problem in problems:
        print("BENCH: %s" % problem)
    if problems:
        return 1
    print("BENCH ok: %d rules hold%s" % (
        len(RULES), " within the committed bands" if argv else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
