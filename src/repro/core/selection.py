"""Function and variable selection (Section 2.2, "Function Selection").

Functions: a cut across the call graph, avoiding recursion and functions
called from inside loops, so that (a) some split function executes in any
run and (b) the interaction overhead stays bounded.

Variables: the paper initiates splitting "with respect to a single local
variable ... selected to be the one which creates an ILP with the highest
maximum arithmetic complexity across all ILPs created by different local
variables" (Section 4).  :func:`select_variable` therefore trial-splits the
function on every candidate scalar local and scores the resulting ILPs with
the security estimator.
"""

from repro.lang import ast
from repro.analysis.callgraph import build_callgraph, select_cut
from repro.analysis.slicing import forward_slice
from repro.core.splitter import SplitError, SplitInvariantError, split_function


def splittable_variables(fn, analysis=None):
    """Candidate hidden variables: scalar locals declared in ``fn`` (the
    paper restricts hiding to scalars local to the function; parameters are
    excluded because their incoming values are openly visible anyway).

    The candidates are read off the declarations alone; ``analysis`` is
    accepted for callers that hold one and is not needed."""
    params = {p.name for p in fn.params}
    names = []
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, ast.VarDecl) and ast.is_scalar_type(stmt.var_type):
            if stmt.name not in params:
                names.append(stmt.name)
    return names


def select_variable(fn, analysis, options=None, scorer=None, fn_id=0):
    """Pick the hidden variable for ``fn``.

    ``scorer(split_fn, analysis) -> sortable`` ranks trial splits; the
    default is the security estimator's maximum ILP arithmetic complexity
    (ties broken by slice size).  Returns ``(var, split_fn)`` or
    ``(None, None)`` when the function has no usable candidate.  A
    candidate whose trial split raises ``SplitError`` is skipped, unless
    it is a :class:`~repro.core.splitter.SplitInvariantError`.

    Trial splits are made with ``fn_id``, so when it is the function's
    final id the winning ``split_fn`` is the split itself and need not be
    recomputed.
    """
    if scorer is None:
        scorer = _default_scorer
    best = None
    for var in splittable_variables(fn):
        sl = forward_slice(fn, var, analysis.defuse, analysis.local_types)
        if sl.size() < 2:
            continue  # hiding a variable nothing depends on protects nothing
        try:
            split = split_function(fn, var, analysis, fn_id=fn_id,
                                   options=options)
        except SplitInvariantError:
            raise
        except SplitError:
            continue
        if not split.ilps:
            continue
        score = scorer(split, analysis)
        if best is None or score > best[0]:
            best = (score, var, split)
    if best is None:
        return None, None
    return best[1], best[2]


def _default_scorer(split, analysis):
    """Rank trial splits by the arithmetic complexity of what they leak.

    The paper selects "the one which creates an ILP with the highest
    maximum arithmetic complexity"; ranking by the *sum* of per-ILP ranks
    (with max rank and slice size as tie-breakers) implements that while
    refusing the degenerate reading where hiding a bare loop counter — one
    Arbitrary predicate ILP and nothing else — would beat a split that
    hides the function's real computation.
    """
    # Imported lazily: repro.security depends on repro.core.
    from repro.security.estimator import estimate_split_complexities
    from repro.security.lattice import TYPE_ORDER

    from repro import obs

    with obs.span("classify", fn=split.name):
        complexities = estimate_split_complexities(split, analysis)
    if not complexities:
        return (0, 0, 0, split.slice.size())
    ranks = [TYPE_ORDER.index(c.ac.type) for c in complexities]
    return (sum(ranks), max(ranks), len(split.ilps), split.slice.size())


def select_functions(program, checker, entry="main",
                     avoid_recursive=True, avoid_loop_called=True):
    """Choose the set of functions to split: the call-graph cut, filtered to
    functions that declare a splittable variable.  Whether a candidate's
    split leaks anything is :func:`select_variable`'s question."""
    cg = build_callgraph(program, checker)
    cut = select_cut(
        cg,
        entry=entry,
        avoid_recursive=avoid_recursive,
        avoid_loop_called=avoid_loop_called,
    )
    return [name for name in cut if splittable_variables(cg.functions[name])]
