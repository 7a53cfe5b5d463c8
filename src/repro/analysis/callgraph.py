"""Call graph construction, recursion detection, loop-call detection, and
the call-graph cut used for function selection (Section 2.2, "Function
Selection").
"""


class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("caller", "callee", "expr", "in_loop")

    def __init__(self, caller, callee, expr, in_loop):
        self.caller = caller
        self.callee = callee
        self.expr = expr
        self.in_loop = in_loop


class CallGraph:
    """Static call graph over qualified function names."""

    def __init__(self, program):
        self.program = program
        self.functions = {fn.qualified_name: fn for fn in program.all_functions()}
        self.call_sites = []
        self.callees = {name: set() for name in self.functions}
        self.callers = {name: set() for name in self.functions}
        self.called_in_loop = set()  # callee names with >= 1 loop call site

    def add_call(self, caller, callee, expr, in_loop):
        self.call_sites.append(CallSite(caller, callee, expr, in_loop))
        self.callees[caller].add(callee)
        self.callers[callee].add(caller)
        if in_loop:
            self.called_in_loop.add(callee)

    # -- queries -------------------------------------------------------------

    def recursive_functions(self):
        """Names participating in direct or indirect recursion (non-trivial
        SCCs plus self-loops), via Tarjan's algorithm."""
        index_counter = [0]
        index, lowlink = {}, {}
        stack, on_stack = [], set()
        recursive = set()

        def strongconnect(v):
            work = [(v, iter(sorted(self.callees[v])))]
            index[v] = lowlink[v] = index_counter[0]
            index_counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = lowlink[w] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(self.callees[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        lowlink[node] = min(lowlink[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    if len(scc) > 1:
                        recursive.update(scc)
                    elif node in self.callees[node]:
                        recursive.add(node)

        for v in sorted(self.functions):
            if v not in index:
                strongconnect(v)
        return recursive

    def reachable_from(self, root):
        """Function names reachable from ``root`` (inclusive)."""
        seen = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen or name not in self.functions:
                continue
            seen.add(name)
            stack.extend(self.callees[name])
        return seen


def build_callgraph(program, checker):
    """The call graph of ``program``, read off the calls its populated
    :class:`~repro.lang.typecheck.TypeChecker` resolved while checking it
    (free calls by name, method calls by receiver static type)."""
    cg = CallGraph(program)
    for caller, callee, expr, in_loop in checker.calls:
        cg.add_call(caller.qualified_name, callee.qualified_name, expr, in_loop)
    return cg


def select_cut(cg, entry="main", avoid_recursive=True, avoid_loop_called=True):
    """Select functions to split: a cut across the call graph (Section 2.2).

    We take, per the paper, a set of functions such that every call path
    from ``entry`` into the reachable graph crosses the set — guaranteeing
    some split function executes in any run — while preferring functions
    that are not recursive and not called from inside loops.

    Implementation: walk breadth-first from ``entry``; the frontier of the
    first "layer" of eligible functions forms the cut (a callee is not
    explored past an already-selected function).
    """
    recursive = cg.recursive_functions() if avoid_recursive else set()
    selected = []
    seen = {entry}
    frontier = [entry]
    while frontier:
        next_frontier = []
        for name in frontier:
            if name not in cg.functions:
                continue
            for callee in sorted(cg.callees[name]):
                if callee in seen:
                    continue
                seen.add(callee)
                eligible = callee not in recursive and not (
                    avoid_loop_called and callee in cg.called_in_loop
                )
                if eligible:
                    selected.append(callee)
                else:
                    next_frontier.append(callee)
        frontier = next_frontier
    if not selected and entry in cg.functions:
        selected = [entry]
    return selected
