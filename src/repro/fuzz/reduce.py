"""Delta-debugging minimizer for diverging programs.

Shrinks a program while an ``is_interesting(source) -> bool`` predicate
(supplied by the caller — typically "the differential oracle still
reports a divergence") keeps holding.  Works on pretty-printed source:
every candidate is re-parsed and re-type-checked before the predicate
runs, so the minimizer can *propose* aggressively and let the language
front end veto nonsense — a removal that orphans a variable use simply
fails the type check and is skipped.

Passes, applied to a fixpoint:

1. **unit removal** — drop whole functions, classes, globals, and class
   methods and fields;
2. **statement removal** — ddmin-style chunked deletion over every
   statement list (function bodies, branch and loop bodies);
3. **unwrapping** — replace an ``if``/``while``/``for`` with its body;
4. **expression simplification** — replace initialisers, right-hand
   sides, returned/printed values and conditions with small literals or
   with one operand of a binary expression.

The result is written to ``tests/fuzz_corpus/`` by the fuzz CLI so a
diverging program becomes a committed regression test.
"""

import hashlib

from repro.lang import ast, check_program, parse_program
from repro.lang.pretty import pretty

#: upper bound on predicate evaluations per minimization, so a slow or
#: flaky predicate cannot hang a campaign
DEFAULT_BUDGET = 4000


class _Budget:
    def __init__(self, limit):
        self.remaining = limit

    def spend(self):
        self.remaining -= 1
        return self.remaining >= 0


def _valid(source):
    try:
        check_program(parse_program(source))
        return True
    except Exception:
        return False


def _reparse(source):
    return parse_program(source)


def _all_functions(program):
    fns = list(program.functions)
    for cls in program.classes:
        fns.extend(cls.methods)
    return fns


def _stmt_lists(program):
    """Every statement list in the program, in a deterministic order that
    is stable across re-parses of the same source."""
    lists = []
    for fn in _all_functions(program):
        stack = [fn.body]
        while stack:
            body = stack.pop()
            lists.append(body)
            for stmt in body:
                stack.extend(reversed(ast.child_stmt_lists(stmt)))
    return lists


def _expr_slots(program):
    """Assignable expression slots as ``(get, set)`` closures over the
    parsed program, in deterministic order."""
    slots = []

    def add(obj, attr):
        if getattr(obj, attr, None) is not None:
            slots.append((obj, attr))

    for fn in _all_functions(program):
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, (ast.VarDecl,)):
                add(stmt, "init")
            elif isinstance(stmt, ast.Assign):
                add(stmt, "value")
            elif isinstance(stmt, ast.Return):
                add(stmt, "value")
            elif isinstance(stmt, ast.Print):
                add(stmt, "value")
            elif isinstance(stmt, (ast.If, ast.While)):
                add(stmt, "cond")
            elif isinstance(stmt, ast.For):
                add(stmt, "cond")
    return slots


def _try(source, mutate, is_interesting, budget):
    """Apply ``mutate`` to a fresh parse; return new source if it stays
    valid and interesting, else None."""
    if not budget.spend():
        return None
    program = _reparse(source)
    if not mutate(program):
        return None
    candidate = pretty(program)
    if candidate == source or not _valid(candidate):
        return None
    return candidate if is_interesting(candidate) else None


def _units(program):
    """Removable units as ``(list, index)`` pairs, in deterministic order:
    functions but ``main``, classes, globals, then class members."""
    units = [(program.functions, i) for i, fn in enumerate(program.functions)
             if fn.name != "main"]
    units += [(program.classes, i) for i in range(len(program.classes))]
    units += [(program.globals, i) for i in range(len(program.globals))]
    for cls in program.classes:
        units += [(cls.methods, i) for i in range(len(cls.methods))]
        units += [(cls.fields, i) for i in range(len(cls.fields))]
    return units


def _unit_pass(source, is_interesting, budget):
    """Drop units one at a time; after each success start over."""
    progressed = False
    i = 0
    while budget.remaining > 0 and i < len(_units(_reparse(source))):
        def drop(p, i=i):
            units = _units(p)
            if i >= len(units):
                return False
            members, j = units[i]
            del members[j]
            return True

        new = _try(source, drop, is_interesting, budget)
        if new:
            source, progressed, i = new, True, 0
        else:
            i += 1
    return source, progressed


def _stmt_pass(source, is_interesting, budget):
    """Chunked statement deletion: classic ddmin schedule per list.

    Lists are visited in the pre-order DFS index of :func:`_stmt_lists`;
    deleting from list ``li`` only ever removes lists *after* ``li`` (its
    statements' own bodies), so indices up to ``li`` stay valid and the
    pass never needs a full restart."""
    progressed = False
    li = 0
    while budget.remaining > 0:
        lists = _stmt_lists(_reparse(source))
        if li >= len(lists):
            break
        size = max(len(lists[li]), 1)
        while size >= 1 and budget.remaining > 0:
            start = 0
            while start < len(_stmt_lists(_reparse(source))[li]):
                def drop(p, li=li, start=start, size=size):
                    target = _stmt_lists(p)[li]
                    if start >= len(target):
                        return False
                    del target[start:start + size]
                    return True

                new = _try(source, drop, is_interesting, budget)
                if new:
                    source, progressed = new, True
                    # the window shrank in place: retry the same start
                else:
                    start += size
            size //= 2
        li += 1
    return source, progressed


def _unwrap_pass(source, is_interesting, budget):
    """Replace compound statements with (one of) their bodies, visiting
    sites in order; a successful unwrap re-tries the same site (the
    promoted body may itself start with a compound statement)."""
    progressed = False
    li = 0
    while budget.remaining > 0:
        lists = _stmt_lists(_reparse(source))
        if li >= len(lists):
            break
        si = 0
        while si < len(_stmt_lists(_reparse(source))[li]):
            stmt = _stmt_lists(_reparse(source))[li][si]
            n_bodies = 2 if isinstance(stmt, ast.If) else (
                1 if isinstance(stmt, (ast.While, ast.For, ast.Block)) else 0)
            unwrapped = False
            for bi in range(n_bodies):
                def unwrap(p, li=li, si=si, bi=bi):
                    target = _stmt_lists(p)[li]
                    if si >= len(target):
                        return False
                    stmt = target[si]
                    if isinstance(stmt, ast.If):
                        inner = [stmt.then_body, stmt.else_body][bi]
                    elif isinstance(stmt, (ast.While, ast.For, ast.Block)):
                        inner = stmt.body
                    else:
                        return False
                    target[si:si + 1] = list(inner)
                    return True

                new = _try(source, unwrap, is_interesting, budget)
                if new:
                    source, progressed, unwrapped = new, True, True
                    break
            if not unwrapped:
                si += 1
        li += 1
    return source, progressed


_REPLACEMENTS = (
    lambda: ast.IntLit(0),
    lambda: ast.IntLit(1),
    lambda: ast.BoolLit(True),
    lambda: ast.BoolLit(False),
)


def _expr_pass(source, is_interesting, budget):
    """Replace expression slots with small literals or one binary operand.

    Slot count and order are unaffected by these replacements, so the
    pass sweeps each slot once; a successful operand-promotion re-tries
    the same slot (``a + b`` may collapse further)."""
    progressed = False
    i = 0
    while budget.remaining > 0:
        slots = _expr_slots(_reparse(source))
        if i >= len(slots):
            break
        current = getattr(*slots[i])
        ops = ("lit0", "lit1", "true", "false")
        if isinstance(current, ast.BinaryOp):
            ops += ("left", "right")
        replaced = False
        for op in ops:
            if isinstance(current, (ast.IntLit, ast.BoolLit)) and op in (
                    "lit0", "true"):
                continue  # already minimal-ish; still try the alternates

            def replace(p, i=i, op=op):
                fresh = _expr_slots(p)
                if i >= len(fresh):
                    return False
                o, a = fresh[i]
                old = getattr(o, a)
                if op == "lit0":
                    replacement = ast.IntLit(0)
                elif op == "lit1":
                    replacement = ast.IntLit(1)
                elif op == "true":
                    replacement = ast.BoolLit(True)
                elif op == "false":
                    replacement = ast.BoolLit(False)
                else:
                    if not isinstance(old, ast.BinaryOp):
                        return False
                    replacement = old.left if op == "left" else old.right
                setattr(o, a, replacement)
                return True

            new = _try(source, replace, is_interesting, budget)
            if new:
                source, progressed, replaced = new, True, True
                break
        if not replaced or not isinstance(current, ast.BinaryOp):
            i += 1
    return source, progressed


def minimize(source, is_interesting, budget=DEFAULT_BUDGET):
    """Shrink ``source`` while ``is_interesting`` holds; returns the
    minimized source.  The input itself must be interesting."""
    if not is_interesting(source):
        raise ValueError("minimize: the input program is not interesting")
    tracker = _Budget(budget)
    passes = (_unit_pass, _stmt_pass, _unwrap_pass, _expr_pass)
    progressed = True
    while progressed and tracker.remaining > 0:
        progressed = False
        for p in passes:
            source, moved = p(source, is_interesting, tracker)
            progressed = progressed or moved
    return source


def repro_name(source, seed=None):
    """Stable corpus file name for a (minimized) repro."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:10]
    if seed is None:
        return "div-%s.mj" % digest
    return "div-seed%d-%s.mj" % (seed, digest)


def write_repro(corpus_dir, source, header_lines=(), seed=None):
    """Write a minimized repro (with a ``//`` comment header) into the
    corpus directory; returns the path."""
    import os

    os.makedirs(corpus_dir, exist_ok=True)
    name = repro_name(source, seed)
    path = os.path.join(corpus_dir, name)
    header = "".join("// %s\n" % line for line in header_lines)
    with open(path, "w") as f:
        f.write(header + source)
    return path
