"""Whole-program splitting.

Applies :func:`~repro.core.splitter.split_function` to a chosen set of
(function, variable) pairs and assembles the transformed program: split
functions are replaced by their open components, everything else is shared
with the original unchanged.  The hidden fragments are collected into the
registry the :class:`~repro.runtime.server.HiddenServer` serves from.
"""

from repro.lang import ast
from repro.analysis.function import analyze_function
from repro.core.splitter import SplitOptions, split_function


class SplitProgram:
    """A program split into open and hidden components.

    ``program`` shares every unsplit declaration with ``original``: its
    unsplit ``Function``, ``GlobalDecl`` and ``FieldDecl`` nodes *are* the
    original's, and only the open components (and the ``Program`` and
    ``ClassDecl`` containers) are new.  Nothing may therefore mutate either
    program's AST in place.  What runs on them respects that: the type
    checker writes ``binding`` only while checking a fresh parse, the
    engines key their code caches per ``Interpreter``, and the fuzz
    reducer edits fresh parses of its source.
    """

    def __init__(self, original, program, splits, fn_ids,
                 hidden_global_inits=None, hidden_field_classes=None):
        #: the untouched original program (security analysis runs on this)
        self.original = original
        #: the transformed program: open components + unchanged functions
        self.program = program
        #: qualified function name -> SplitFunction
        self.splits = splits
        #: qualified function name -> fn_id used by ``hopen``
        self.fn_ids = fn_ids
        #: hidden global name -> initial value (global-hiding mode)
        self.hidden_global_inits = dict(hidden_global_inits or {})
        #: class name -> {hidden field name -> initial value} (class splitting)
        self.hidden_field_classes = dict(hidden_field_classes or {})

    def registry(self):
        """fn_id -> (name, {label: fragment}, storage_map) for the server."""
        out = {}
        for name, fn_id in self.fn_ids.items():
            split = self.splits[name]
            out[fn_id] = (name, split.fragments, split.storage_map)
        return out

    def all_ilps(self):
        for split in self.splits.values():
            for ilp in split.ilps:
                yield split, ilp

    def methods_sliced(self):
        """Table 2: number of methods chosen for splitting."""
        return len(self.splits)

    def statements_in_slices(self):
        """Table 2: total statements across all constructed slices."""
        return sum(s.statements_in_slice() for s in self.splits.values())

    def ilp_count(self):
        """Table 2: number of ILPs present after splitting."""
        return sum(len(s.ilps) for s in self.splits.values())

    def stats(self):
        """Communication/code statistics per split function (used by the
        CLI and the code-size benchmark)."""
        from repro.core.hidden import FragmentKind
        from repro.lang import ast

        out = {}
        for name, split in self.splits.items():
            by_kind = {}
            params_total = 0
            hidden_stmts = 0
            for frag in split.fragments.values():
                by_kind[frag.kind] = by_kind.get(frag.kind, 0) + 1
                params_total += len(frag.params)
                hidden_stmts += sum(1 for _ in ast.walk_stmts(frag.body))
            open_stmts = sum(1 for _ in ast.walk_stmts(split.open_fn.body))
            original_stmts = sum(1 for _ in ast.walk_stmts(split.original.body))
            out[name] = {
                "fragments": len(split.fragments),
                "fragments_by_kind": by_kind,
                "params_total": params_total,
                "hidden_stmts": hidden_stmts,
                "open_stmts": open_stmts,
                "original_stmts": original_stmts,
                "ilps": len(split.ilps),
                "hidden_vars": len(split.hidden_vars),
            }
        return out

    def __repr__(self):
        return "<SplitProgram %d splits, %d ILPs>" % (len(self.splits), self.ilp_count())


def split_program(program, checker, choices, options=None):
    """Split ``program`` on ``choices``: a list of ``(qualified_name, var)``.

    ``checker`` is the program's populated type checker (bindings must be
    resolved before splitting).
    """
    options = options or SplitOptions()
    splits = {}
    for fn_id, (name, var) in enumerate(choices):
        fn = program.function(name)
        qualified = fn.qualified_name
        if qualified in splits:
            raise ValueError("function %r chosen twice" % qualified)
        analysis = analyze_function(fn, checker)
        splits[qualified] = split_function(fn, var, analysis, fn_id=fn_id, options=options)
    return assemble_split(program, splits)


def assemble_split(program, splits, hidden_global_inits=None,
                   hidden_field_classes=None):
    """Assemble the :class:`SplitProgram` of ``program`` from ``splits``:
    qualified function name -> :class:`~repro.core.hidden.SplitFunction`,
    in ``fn_id`` order (the i-th split must have been made with
    ``fn_id=i``).

    Split functions are replaced by their open components; every other
    declaration is shared with ``program``.  The hidden globals (the keys
    of ``hidden_global_inits``) and hidden fields (``hidden_field_classes``:
    class -> {field: initial value}) are left out of the open program.
    """
    hidden_global_inits = hidden_global_inits or {}
    hidden_field_classes = hidden_field_classes or {}

    def open_fn(fn):
        split = splits.get(fn.qualified_name)
        return fn if split is None else split.open_fn

    new_globals = [g for g in program.globals if g.name not in hidden_global_inits]
    new_classes = []
    for cls in program.classes:
        hidden = hidden_field_classes.get(cls.name, ())
        fields = [f for f in cls.fields if f.name not in hidden]
        methods = [open_fn(m) for m in cls.methods]
        new_classes.append(ast.ClassDecl(cls.name, fields, methods))
    new_functions = [open_fn(fn) for fn in program.functions]
    transformed = ast.Program(new_globals, new_classes, new_functions)
    fn_ids = {name: fn_id for fn_id, name in enumerate(splits)}
    return SplitProgram(program, transformed, splits, fn_ids,
                        hidden_global_inits=hidden_global_inits,
                        hidden_field_classes=hidden_field_classes)
