"""ILP leak-budget auditing: join runtime observations to Section 3.

The static estimator (:mod:`repro.security.estimator`) bounds, per
information leak point, how hard the leaked value is to reconstruct —
``<Type, Inputs, Degree>`` (Table 3) plus control-flow shape (Table 4).
The runtime records, per ILP, how much actually crossed the wire —
``repro_channel_values_total{fn,label}``, the count of
``repro_server_fragment_steps{fn,label}`` (fragment executions), and the
flight recorder's per-event stream.  This module joins the two on
:attr:`~repro.security.estimator.ILPComplexity.key` and applies a **leak
budget**: the number of observed values an ILP may emit before an
adversary plausibly has enough samples to fit its class of function.

Default budgets follow the paper's recovery argument (and the attack
module's empirical results): a Constant leaks entirely in one
observation; a Linear function of *k* inputs falls to regression in about
``k + 1`` samples; Polynomial/Rational need combinatorially more;
Arbitrary has no closed form to fit, so it carries no budget at all.  An
explicit uniform budget (``repro audit --budget N``) overrides the
per-class defaults — useful as a hard traffic ceiling in CI.

An over-budget verdict does not mean the split is broken; it means the
observed exposure exceeded what the static class justifies, so the split
choice (or the workload) deserves a second look — exactly the check the
paper's Section 3 tables let a human make, automated.
"""

from repro.runtime.channel import M_VALUES
from repro.runtime.server import M_FRAGMENT_STEPS
from repro.security.lattice import CType
from repro.security.report import analyze_split_security

#: per-complexity-class default leak budgets (observed values per ILP);
#: ``None`` means unbounded (no closed form for the adversary to fit)
DEFAULT_BUDGETS = {
    CType.CONSTANT: 1,
    CType.LINEAR: 8,
    CType.POLYNOMIAL: 64,
    CType.RATIONAL: 256,
    CType.ARBITRARY: None,
}

#: verdict strings (stable: the CLI JSON format and tests rely on them)
VERDICT_OVER = "OVER-BUDGET"
VERDICT_OK = "ok"
VERDICT_UNBOUNDED = "unbounded"


class AuditRow:
    """One ILP: its static complexity joined to its observed exposure."""

    __slots__ = ("fn", "label", "ilp_kind", "ac", "cc", "observed_values",
                 "observed_calls", "observed_events", "budget")

    def __init__(self, fn, label, ilp_kind, ac, cc, observed_values,
                 observed_calls, observed_events, budget):
        self.fn = fn
        self.label = label
        self.ilp_kind = ilp_kind
        self.ac = ac
        self.cc = cc
        self.observed_values = observed_values
        self.observed_calls = observed_calls
        self.observed_events = observed_events
        self.budget = budget

    @property
    def over_budget(self):
        return self.budget is not None and self.observed_values > self.budget

    @property
    def verdict(self):
        if self.budget is None:
            return VERDICT_UNBOUNDED
        return VERDICT_OVER if self.over_budget else VERDICT_OK

    def to_dict(self):
        return {
            "fn": self.fn,
            "label": self.label,
            "ilp_kind": self.ilp_kind,
            "ac": str(self.ac),
            "ac_type": self.ac.type,
            "cc": str(self.cc) if self.cc is not None else None,
            "observed_values": self.observed_values,
            "observed_calls": self.observed_calls,
            "observed_events": self.observed_events,
            "budget": self.budget,
            "verdict": self.verdict,
        }

    def __repr__(self):
        return "<AuditRow %s#%s values=%d budget=%r %s>" % (
            self.fn, self.label, self.observed_values, self.budget,
            self.verdict,
        )


class AuditReport:
    """All audit rows of one split program run."""

    def __init__(self, rows, unattributed_values=0):
        self.rows = list(rows)
        #: values that crossed the channel outside any ILP's label
        #: (activation management, callbacks — the ``label="-"`` traffic)
        self.unattributed_values = unattributed_values

    def over_budget(self):
        return [row for row in self.rows if row.over_budget]

    def to_dict(self):
        return {
            "ilps": [row.to_dict() for row in self.rows],
            "unattributed_values": self.unattributed_values,
            "over_budget": len(self.over_budget()),
        }

    def __repr__(self):
        return "<AuditReport %d ILPs, %d over budget>" % (
            len(self.rows), len(self.over_budget()),
        )


def resolve_budget(ac, budget=None, budgets=None):
    """The leak budget for one ILP: a uniform override when given,
    otherwise the per-class default."""
    if budget is not None:
        return budget
    table = budgets if budgets is not None else DEFAULT_BUDGETS
    return table.get(ac.type)


def audit_split(split_program, checker, registry, recorder=None, budget=None,
                budgets=None):
    """Audit one recorded run of ``split_program``.

    ``registry`` is the metrics registry the run populated (the per-ILP
    ``repro_channel_values_total`` samples and the per-ILP count of
    ``repro_server_fragment_steps``);
    ``recorder`` optionally adds the flight recorder's per-event counts.
    Returns an :class:`AuditReport` with one row per ILP, sorted by
    function then label.
    """
    report = analyze_split_security(split_program, checker)
    rows = []
    for c in sorted(report.complexities, key=lambda c: c.key):
        fn, label = c.key
        observed_values = registry.value(M_VALUES, fn=fn, label=label)
        observed_calls = registry.value(M_FRAGMENT_STEPS, fn=fn, label=label)
        observed_events = 0
        if recorder is not None:
            observed_events = sum(
                1 for e in recorder.by_type("channel")
                if e["fn"] == fn and e["label"] == label
            )
        rows.append(AuditRow(
            fn, label, c.ilp.kind, c.ac, c.cc,
            observed_values, observed_calls, observed_events,
            resolve_budget(c.ac, budget=budget, budgets=budgets),
        ))
    keyed = {(row.fn, row.label) for row in rows}
    unattributed = sum(
        m.value for m in registry.collect()
        if m.name == M_VALUES
        and (m.labels.get("fn", "-"), m.labels.get("label", "-")) not in keyed
    )
    return AuditReport(rows, unattributed_values=unattributed)


def render_report(report):
    """The audit table the CLI prints (one row per ILP plus a summary)."""
    from repro.bench.tables import Table

    table = Table(
        "ILP leak-budget audit (observed exposure vs Section 3 estimate)",
        ["ILP", "kind", "AC", "CC", "Calls", "Values", "Budget", "Verdict"],
    )
    for row in report.rows:
        table.add_row(
            "%s#%s" % (row.fn, row.label),
            row.ilp_kind,
            str(row.ac),
            str(row.cc) if row.cc is not None else "-",
            str(row.observed_calls),
            str(row.observed_values),
            "-" if row.budget is None else str(row.budget),
            row.verdict,
        )
    lines = [table.render()]
    lines.append(
        "%d ILP(s) over budget; %d unattributed channel values"
        % (len(report.over_budget()), report.unattributed_values)
    )
    return "\n".join(lines)
