"""Definitions, uses, reaching definitions and def-use chains.

Variables are identified by name; the type checker guarantees a name is
declared at most once per function, so names are unambiguous within a CFG.
Array-element and field stores are *weak* defs of the base variable (they do
not kill earlier defs); scalar assignments are *strong* defs.

Parameters, globals and fields receive a synthetic def at the CFG entry so
every use has at least one reaching definition.
"""

from repro.lang import ast


class Def:
    """A definition site: variable ``name`` defined at CFG node ``node``.

    ``strong`` marks killing definitions.  ``entry`` marks the synthetic
    definition of parameters/globals/fields at function entry.  For ordinary
    defs, ``expr`` is the right-hand side expression when the statement is a
    scalar assignment/declaration (``None`` for weak defs and entry defs).
    """

    __slots__ = ("id", "node", "name", "strong", "entry", "expr")

    def __init__(self, def_id, node, name, strong, entry=False, expr=None):
        self.id = def_id
        self.node = node
        self.name = name
        self.strong = strong
        self.entry = entry
        self.expr = expr

    def __repr__(self):
        flavor = "entry" if self.entry else ("strong" if self.strong else "weak")
        where = self.node.id if self.node is not None else "?"
        return "<Def %s@%s %s>" % (self.name, where, flavor)


class Use:
    """A use site: variable ``name`` used at CFG node ``node``."""

    __slots__ = ("node", "name", "expr")

    def __init__(self, node, name, expr=None):
        self.node = node
        self.name = name
        self.expr = expr

    def __repr__(self):
        return "<Use %s@%d>" % (self.name, self.node.id)


def target_def_name(target):
    """(name, strong) for an assignment target, or ``(None, False)`` when the
    target is not a variable (should not happen for well-formed trees)."""
    if isinstance(target, ast.VarRef):
        return target.name, True
    if isinstance(target, ast.Index):
        base = target.base
        while isinstance(base, ast.Index):
            base = base.base
        if isinstance(base, ast.VarRef):
            return base.name, False
        return None, False
    if isinstance(target, ast.FieldAccess):
        if isinstance(target.obj, ast.VarRef):
            return target.obj.name, False
        return None, False
    return None, False


def expr_var_names(expr):
    """All variable names referenced in ``expr`` (reads)."""
    return [e.name for e in ast.walk_exprs(expr) if isinstance(e, ast.VarRef)]


def stmt_defs_uses(stmt):
    """``(defs, uses, rhs_expr)`` for a simple statement.

    ``defs`` is a list of ``(name, strong)``; ``uses`` a list of variable
    names; ``rhs_expr`` the defining expression for strong scalar defs.
    """
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            return [(stmt.name, True)], expr_var_names(stmt.init), stmt.init
        return [(stmt.name, True)], [], None
    if isinstance(stmt, ast.Assign):
        name, strong = target_def_name(stmt.target)
        uses = expr_var_names(stmt.value)
        if isinstance(stmt.target, ast.Index):
            uses += expr_var_names(stmt.target.index)
            base = stmt.target.base
            while isinstance(base, ast.Index):
                uses += expr_var_names(base.index)
                base = base.base
        elif isinstance(stmt.target, ast.FieldAccess):
            uses += expr_var_names(stmt.target.obj)
        defs = [(name, strong)] if name is not None else []
        return defs, uses, stmt.value if strong else None
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            return [], expr_var_names(stmt.value), None
        return [], [], None
    if isinstance(stmt, ast.CallStmt):
        return [], expr_var_names(stmt.call), None
    if isinstance(stmt, ast.Print):
        return [], expr_var_names(stmt.value), None
    if isinstance(stmt, (ast.Break, ast.Continue)):
        return [], [], None
    raise TypeError("no def/use extraction for %r" % (stmt,))


class DefUseInfo:
    """Reaching definitions and def-use chains for one CFG."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.defs = []  # all Def objects, id == index
        self.uses = []  # all Use objects
        self.defs_at = {}  # node -> [Def]
        self.uses_at = {}  # node -> [Use]
        self.reach_in = {}  # node -> frozenset of def ids
        self.reach_out = {}
        self.du_chains = {}  # Def -> [Use]
        self.ud_chains = {}  # Use -> [Def]
        self.entry_defs = {}  # name -> Def
        self._referencing = None  # name -> statements, built on first use

    def stmts_referencing(self, name):
        """The statements holding a use or a non-entry def of ``name``
        (the CFG node's ``stmt``); every name is indexed on the first
        call."""
        if self._referencing is None:
            index = {}
            for d in self.defs:
                if not d.entry:
                    index.setdefault(d.name, set()).add(d.node.stmt)
            for u in self.uses:
                index.setdefault(u.name, set()).add(u.node.stmt)
            self._referencing = index
        return self._referencing.get(name, frozenset())

    def reaching_defs(self, use):
        return self.ud_chains.get(use, [])

    def uses_of_def(self, d):
        return self.du_chains.get(d, [])


def _collect_sites(cfg, info):
    """Populate defs/uses per CFG node."""
    external = set()  # names used or defined but never declared: params, globals, fields
    declared = set()
    for node in cfg.nodes:
        node_defs, node_uses = [], []
        if node.kind == "stmt":
            defs, uses, rhs = stmt_defs_uses(node.stmt)
            for name, strong in defs:
                d = Def(len(info.defs), node, name, strong, expr=rhs if strong else None)
                info.defs.append(d)
                node_defs.append(d)
            for name in uses:
                u = Use(node, name)
                info.uses.append(u)
                node_uses.append(u)
            if isinstance(node.stmt, ast.VarDecl):
                declared.add(node.stmt.name)
        elif node.kind == "cond":
            if node.cond_expr is not None:
                for name in expr_var_names(node.cond_expr):
                    u = Use(node, name, node.cond_expr)
                    info.uses.append(u)
                    node_uses.append(u)
        info.defs_at[node] = node_defs
        info.uses_at[node] = node_uses
    for d in info.defs:
        if d.name not in declared:
            external.add(d.name)
    for u in info.uses:
        if u.name not in declared:
            external.add(u.name)
    for name in sorted(external):
        d = Def(len(info.defs), cfg.entry, name, True, entry=True)
        info.defs.append(d)
        info.defs_at[cfg.entry].append(d)
        info.entry_defs[name] = d
    # Parameters are always externally defined even if unused.
    for p in cfg.fn.params:
        if p.name not in info.entry_defs and p.name not in declared:
            d = Def(len(info.defs), cfg.entry, p.name, True, entry=True)
            info.defs.append(d)
            info.defs_at[cfg.entry].append(d)
            info.entry_defs[p.name] = d


def compute_defuse(cfg):
    """Run reaching definitions and build def-use chains for ``cfg``."""
    info = DefUseInfo(cfg)
    _collect_sites(cfg, info)

    gen = {}
    kill = {}
    defs_by_name = {}
    for d in info.defs:
        defs_by_name.setdefault(d.name, set()).add(d.id)
    for node in cfg.nodes:
        g = set()
        k = set()
        for d in info.defs_at[node]:
            g.add(d.id)
            if d.strong:
                k |= defs_by_name[d.name] - {d.id}
        gen[node] = g
        kill[node] = k

    order = cfg.reverse_postorder()
    reach_in = {node: set() for node in cfg.nodes}
    reach_out = {node: set(gen[node]) for node in cfg.nodes}
    changed = True
    while changed:
        changed = False
        for node in order:
            new_in = set()
            for pred in node.preds:
                new_in |= reach_out[pred]
            new_out = gen[node] | (new_in - kill[node])
            if new_in != reach_in[node] or new_out != reach_out[node]:
                reach_in[node] = new_in
                reach_out[node] = new_out
                changed = True

    info.reach_in = {n: frozenset(s) for n, s in reach_in.items()}
    info.reach_out = {n: frozenset(s) for n, s in reach_out.items()}

    for u in info.uses:
        reaching = [
            info.defs[did]
            for did in info.reach_in[u.node]
            if info.defs[did].name == u.name
        ]
        # A use in the same node as a weak def of the same name (e.g.
        # ``A[i] = A[j] + 1``) also sees that def; reaching-in already covers
        # everything needed because the node's own defs are not in reach_in.
        info.ud_chains[u] = reaching
        for d in reaching:
            info.du_chains.setdefault(d, []).append(u)
    for d in info.defs:
        info.du_chains.setdefault(d, [])
    return info
