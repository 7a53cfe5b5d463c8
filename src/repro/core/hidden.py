"""Hidden component model.

The hidden component ``Hf`` of a split function is a set of code fragments,
each identified by a unique label (the paper's Section 2.2 "Function
Splitting Details"): calls placed in the open component ``Of`` name the
label and carry an array of values; the fragment executes against the hidden
activation state and returns a single value (an arbitrary ``any`` when the
open side does not need one).

``Hf`` only reads open memory: a store to an array element or a field
stays in ``Of`` (the splitter's case (iii)).  :class:`HiddenFragment`
refuses a body that would write one, whoever builds it — the splitter, a
deployment manifest's loader or a hand-built registry.
"""

from repro.lang import ast, pretty_stmt, pretty_expr


class FragmentKind:
    """What a fragment does when invoked."""

    STMTS = "stmts"  # execute hidden statements; returns any
    EXPR = "expr"  # evaluate an expression hidden-side; returns its value
    PRED = "pred"  # evaluate a (hidden) branch predicate; returns a bool
    GET = "get"  # return the current value of one hidden variable
    SET = "set"  # store a value sent by Of into one hidden variable


class HiddenFragment:
    """One labelled fragment of ``Hf``.

    ``params`` are the names bound, in order, to the value array sent by the
    open component; ``param_exprs`` are the open-side expressions evaluated
    to produce those values (usually plain variable reads).  ``body`` is a
    list of statements executed on the hidden side, after which
    ``result_expr`` (if any) is evaluated and returned.

    The fragment is all a hidden host is given: what it needs to know
    beyond it — which reads to batch (:mod:`repro.core.prefetch`) — it
    derives from the fragment (:class:`repro.runtime.server.FragmentFacts`).

    A body assigning to an array element or a field raises ``ValueError``.
    """

    def __init__(self, label, kind, params=None, param_exprs=None, body=None,
                 result_expr=None, set_var=None, source_stmts=None):
        self.label = label
        self.kind = kind
        self.params = list(params or [])
        self.param_exprs = list(param_exprs or [])
        self.body = list(body or [])
        _refuse_open_stores(label, self.body)
        self.result_expr = result_expr
        self.set_var = set_var
        #: original AST statements this fragment was carved from
        self.source_stmts = list(source_stmts or [])

    def describe(self):
        """Human-readable rendering (used by examples and reports)."""
        lines = ["fragment %d (%s)" % (self.label, self.kind)]
        if self.params:
            lines.append("  receives: %s" % ", ".join(self.params))
        for stmt in self.body:
            lines.extend(
                "  | " + line for line in pretty_stmt(stmt).rstrip("\n").split("\n")
            )
        if self.result_expr is not None:
            lines.append("  returns: %s" % pretty_expr(self.result_expr))
        elif self.kind == FragmentKind.SET:
            lines.append("  stores into: %s" % self.set_var)
        else:
            lines.append("  returns: any")
        return "\n".join(lines)

    def __repr__(self):
        return "<HiddenFragment %d %s params=%s>" % (self.label, self.kind, self.params)


def _refuse_open_stores(label, body):
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.target, (ast.Index, ast.FieldAccess)
        ):
            raise ValueError(
                "hidden fragment %s stores into open memory: %s"
                % (label, pretty_stmt(stmt).strip())
            )


class ILPSite:
    """An information leak point (Section 3): a point in the open component
    where a value returned by the hidden component is used in future open
    computation.

    ``kind`` is one of ``"value"`` (an expression result or hidden-variable
    fetch feeding open computation/storage), ``"pred"`` (a hidden branch
    predicate leaked as a boolean), or ``"return"`` (the function's return
    value computed hidden-side).
    """

    def __init__(self, label, kind, fragment, original_stmt=None, leaked_var=None,
                 leaked_expr=None, construct=None):
        self.label = label
        self.kind = kind
        self.fragment = fragment
        self.original_stmt = original_stmt
        self.leaked_var = leaked_var
        self.leaked_expr = leaked_expr
        self.construct = construct

    def __repr__(self):
        what = self.leaked_var or (
            pretty_expr(self.leaked_expr) if self.leaked_expr is not None else "?"
        )
        return "<ILP %d %s leaks %s>" % (self.label, self.kind, what)


class SplitFunction:
    """The result of splitting one function: the rewritten open component,
    the fragment set, variable classification and ILP inventory."""

    def __init__(self, original, open_fn, fragments, hidden_vars, fully_hidden,
                 partially_hidden, ilps, slice_, hidden_constructs,
                 pred_constructs=(), storage_map=None):
        self.original = original
        self.open_fn = open_fn
        self.fragments = fragments  # label -> HiddenFragment
        self.hidden_vars = set(hidden_vars)
        self.fully_hidden = set(fully_hidden)
        self.partially_hidden = set(partially_hidden)
        self.ilps = list(ilps)
        self.slice = slice_
        #: original constructs whose control flow moved entirely to Hf
        self.hidden_constructs = set(hidden_constructs)
        #: original constructs whose predicate is evaluated by a pred fragment
        self.pred_constructs = set(pred_constructs)
        #: hidden names that live outside the activation: "global" or "field"
        self.storage_map = dict(storage_map or {})

    @property
    def name(self):
        return self.original.qualified_name

    def fragment(self, label):
        return self.fragments[label]

    def statements_in_slice(self):
        """Slice size as reported in Table 2."""
        return self.slice.size()

    def describe(self):
        lines = [
            "split of %s on variable %r" % (self.name, self.slice.var),
            "  hidden vars: fully=%s partially=%s"
            % (sorted(self.fully_hidden), sorted(self.partially_hidden)),
            "  fragments: %d, ILPs: %d" % (len(self.fragments), len(self.ilps)),
        ]
        return "\n".join(lines)

    def __repr__(self):
        return "<SplitFunction %s var=%s fragments=%d ilps=%d>" % (
            self.name,
            self.slice.var,
            len(self.fragments),
            len(self.ilps),
        )
