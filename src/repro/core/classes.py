"""Class splitting (Section 2.2).

"In order to split the entire class into open and hidden components, we can
view the class fields as globals and class methods as functions and apply
the method for hiding global variables described above.  ...  Every time a
class instance is created by the open component, a unique instance id is
assigned to this instance.  A call to the server side is made causing it to
create a corresponding class instance which contains the hidden class
fields. ...  Calls to Hm, where m is a method, include the instance id so
that the hidden component located on the secure device can apply the hidden
part of the method to the appropriate class instance."

Implementation notes:

* hidden fields are removed from the transformed class — the open
  component's instances simply do not carry them;
* the interpreter reports every ``new`` of a split class to the hidden
  server (:meth:`HiddenServer.notify_new_instance`), which allocates the
  hidden field record under the same instance id;
* method activations carry their receiver's instance id, so fragments
  resolve hidden field names against the right record;
* hidden fields may only be referenced through the class's own methods
  (as bare field names).  Explicit ``obj.field`` access to a hidden field —
  from outside the class or on another instance — is rejected up front.
"""

from repro.lang import ast
from repro.analysis.callgraph import build_callgraph
from repro.analysis.function import analyze_function
from repro.core.program import assemble_split
from repro.core.splitter import (
    SplitError,
    SplitOptions,
    rewrite_references_only,
    split_function,
)
from repro.runtime.values import default_value


def _references_any(fn, names):
    for stmt in ast.walk_stmts(fn.body):
        for e in ast.stmt_exprs(stmt):
            if isinstance(e, ast.VarRef) and e.binding == "field" and e.name in names:
                return True
    return False


def _defined_fields(fn, names):
    out = []
    for stmt in ast.walk_stmts(fn.body):
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.target, ast.VarRef)
            and stmt.target.binding == "field"
            and stmt.target.name in names
            and stmt.target.name not in out
        ):
            out.append(stmt.target.name)
    return out


def _check_no_explicit_field_access(program, class_name, hidden, checker):
    for fn in program.all_functions():
        for stmt in ast.walk_stmts(fn.body):
            for e in ast.stmt_exprs(stmt):
                if not isinstance(e, ast.FieldAccess):
                    continue
                obj_type = checker.expr_types.get(e.obj)
                if (
                    isinstance(obj_type, ast.ClassType)
                    and obj_type.name == class_name
                    and e.name in hidden
                ):
                    raise SplitError(
                        "hidden field %s.%s is accessed explicitly in %s; "
                        "hidden fields may only be used through the class's "
                        "own methods" % (class_name, e.name, fn.qualified_name)
                    )


def split_class(program, checker, class_name, field_names=None, options=None):
    """Split class ``class_name``: its scalar fields (or the chosen subset)
    move to the secure side, with per-instance ids."""
    options = options or SplitOptions()
    try:
        cls = program.class_decl(class_name)
    except KeyError:
        raise SplitError("no class named %r" % class_name)

    scalar_fields = [f.name for f in cls.fields if ast.is_scalar_type(f.field_type)]
    if field_names is None:
        hidden = set(scalar_fields)
    else:
        hidden = set(field_names)
        unknown = hidden - set(scalar_fields)
        if unknown:
            raise SplitError(
                "not scalar fields of %s: %s" % (class_name, sorted(unknown))
            )
    if not hidden:
        raise SplitError("class %s has no scalar fields to hide" % class_name)

    _check_no_explicit_field_access(program, class_name, hidden, checker)

    cg = build_callgraph(program, checker)
    recursive = cg.recursive_functions()

    splits = {}
    for method in cls.methods:
        if not _references_any(method, hidden):
            continue
        analysis = analyze_function(method, checker)
        qualified = method.qualified_name
        fn_id = len(splits)
        defined = _defined_fields(method, hidden)
        eligible = qualified not in recursive and defined
        if eligible:
            split = split_function(
                method,
                defined[0],
                analysis,
                fn_id=fn_id,
                options=options,
                hidden_storage=hidden,
                storage_class="field",
            )
        else:
            split = rewrite_references_only(
                method, hidden, analysis, fn_id=fn_id, options=options,
                storage_class="field",
            )
        splits[qualified] = split

    if not splits:
        raise SplitError("no method of %s references the hidden fields" % class_name)

    defaults = {
        f.name: default_value(f.field_type) for f in cls.fields if f.name in hidden
    }
    return assemble_split(
        program, splits, hidden_field_classes={class_name: defaults}
    )
