"""Serialising split programs for deployment.

In the paper's scenarios the two components are *installed on different
machines*: the open component ships to clients, the hidden component to a
smart card or secure server.  This module provides that packaging:

* :func:`export_split` renders a :class:`~repro.core.program.SplitProgram`
  into a JSON-able manifest — the open program as source text, every
  hidden fragment as (label, kind, params, body source, result source,
  set variable), plus the storage metadata.  Nothing derived from a
  fragment ships with it: the hidden host derives its prefetch plan from
  the parsed fragment itself, so a manifest cannot make it batch a
  guarded read;
* :func:`import_hidden` reads only the hidden half of a manifest — the
  fragment registry and hidden-state initialisers a secure host serves —
  and never parses ``open_program``;
* :func:`import_split` reconstructs a runnable split program from a
  manifest: the parsed ``open_program`` plus :func:`import_hidden`.

Round trip is exact: the re-imported program produces identical output and
identical channel traffic (tests assert this).
"""

import json

from repro.core.hidden import HiddenFragment
from repro.lang.parser import parse_expression, parse_program, parse_statements
from repro.lang.pretty import pretty, pretty_expr, pretty_stmt

FORMAT = "repro-split/1"


def export_split(split_program):
    """Render ``split_program`` as a JSON-able dict."""
    functions = {}
    for name, split in split_program.splits.items():
        fragments = []
        for label in sorted(split.fragments):
            frag = split.fragments[label]
            fragments.append(
                {
                    "label": frag.label,
                    "kind": frag.kind,
                    "params": list(frag.params),
                    "body": "".join(pretty_stmt(s) for s in frag.body),
                    "result": (
                        pretty_expr(frag.result_expr)
                        if frag.result_expr is not None
                        else None
                    ),
                    "set_var": frag.set_var,
                }
            )
        functions[name] = {
            "fn_id": split_program.fn_ids[name],
            "storage_map": dict(split.storage_map),
            "fragments": fragments,
        }
    return {
        "format": FORMAT,
        "open_program": pretty(split_program.program),
        "functions": functions,
        "hidden_globals": dict(split_program.hidden_global_inits),
        "hidden_fields": {
            cls: dict(fields)
            for cls, fields in split_program.hidden_field_classes.items()
        },
    }


def export_split_json(split_program, indent=2):
    """:func:`export_split` as a JSON string."""
    return json.dumps(export_split(split_program), indent=indent)


class DeployedSplitProgram:
    """A split program reconstructed from a manifest.

    Provides everything :func:`repro.runtime.splitrun.run_split` needs:
    ``program``, ``registry()`` and the hidden-state initialisers.  The
    original program and the analysis-side metadata are not part of a
    deployment (that is rather the point)."""

    def __init__(self, program, registry, hidden_global_inits, hidden_field_classes):
        self.program = program
        self._registry = registry
        self.hidden_global_inits = hidden_global_inits
        self.hidden_field_classes = hidden_field_classes

    def registry(self):
        return self._registry

    def __repr__(self):
        return "<DeployedSplitProgram %d functions>" % len(self._registry)


def _checked(manifest):
    """``manifest`` as a dict, after its format check."""
    if isinstance(manifest, str):
        manifest = json.loads(manifest)
    if manifest.get("format") != FORMAT:
        raise ValueError("unsupported manifest format %r" % manifest.get("format"))
    return manifest


def import_hidden(manifest):
    """The hidden component of an :func:`export_split` manifest (a dict or
    JSON string): ``(registry, hidden_globals, hidden_fields)``, the
    arguments of :class:`repro.runtime.server.Tenant` after its name.

    Every fragment body and result is parsed, so a bad one fails here;
    ``open_program`` is never read — the hidden host has no use for it,
    and a manifest without it imports the same.  A fragment spec's other
    keys (the ``prefetch`` and ``purity`` that older manifests carry) are
    ignored."""
    manifest = _checked(manifest)
    registry = {}
    for name, entry in manifest["functions"].items():
        fragments = {}
        for spec in entry["fragments"]:
            fragments[spec["label"]] = HiddenFragment(
                spec["label"],
                spec["kind"],
                params=spec["params"],
                body=parse_statements(spec["body"]),
                result_expr=(
                    parse_expression(spec["result"])
                    if spec["result"] is not None
                    else None
                ),
                set_var=spec.get("set_var"),
            )
        registry[entry["fn_id"]] = (name, fragments, dict(entry["storage_map"]))
    return (
        registry,
        dict(manifest.get("hidden_globals", {})),
        {
            cls: dict(fields)
            for cls, fields in manifest.get("hidden_fields", {}).items()
        },
    )


def import_split(manifest):
    """Reconstruct a runnable split program from :func:`export_split`
    output (a dict or JSON string)."""
    manifest = _checked(manifest)
    program = parse_program(manifest["open_program"])
    return DeployedSplitProgram(program, *import_hidden(manifest))
