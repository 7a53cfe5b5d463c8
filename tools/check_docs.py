#!/usr/bin/env python3
"""Documentation hygiene checks, run by the CI docs job.

Failure modes that rot silently:

1. **Dead relative links** — ``[text](OTHER.md)`` in ``docs/*.md`` (and
   the top-level ``*.md``) pointing at files that do not exist, including
   broken anchors of the form ``FILE.md#section``.
2. **Stale metric names** — docs citing a ``repro_*`` metric that no
   ``declare("repro_...", ...)`` call in ``src/`` declares any more (the
   metric names are a stable interface; see docs/OBSERVABILITY.md), and
   a metric table in docs/OBSERVABILITY.md that disagrees with the
   declarations: every declared metric needs a row whose type and label
   set equal its declaration's.
3. **Stale CLI surface** — docs/OBSERVABILITY.md or docs/OPERATIONS.md
   citing an HTTP endpoint the exposition server does not route
   (``ROUTES`` in ``src/repro/obs/httpexpo.py``) or a ``--flag`` no
   ``add_argument`` in ``src/repro/cli.py`` defines; any doc invoking a
   ``repro <sub>`` subcommand no ``add_parser`` registers; any
   ``--engine X`` choice shown in a doc that the engine registry
   (``ENGINES`` in ``src/repro/runtime/__init__.py``) does not list.
4. **Stale callbacks** — a backticked ``cb_*`` event kind or
   ``fetch_*``/``store_*`` callback in ``docs/``, README.md or DESIGN.md
   that the source does not define: the callbacks are the ``"cb": ...``
   literals of ``src/repro/runtime/remote.py``, the event kinds those
   ``_charge("cb_...")`` in ``src/repro/runtime/channel.py`` books.

Exit status 0 when clean, 1 with a findings listing otherwise.  No
dependencies beyond the standard library, so it runs anywhere::

    python tools/check_docs.py
"""

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images and absolute URLs
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(#[A-Za-z0-9_.-]*)?\)")
#: a row of docs/OBSERVABILITY.md's metric table: name, type, labels
_TABLE_ROW = re.compile(r"^\| `(repro_[a-z0-9_]+)` \| ([a-z]+) \| ([^|]*) \|",
                        re.MULTILINE)
#: metric mentions in docs (prometheus names; histogram suffixes stripped)
_METRIC_USE = re.compile(r"\brepro_[a-z0-9_]+\b")
#: suffixes the prometheus exposition appends to histogram names
_EXPO_SUFFIXES = ("_bucket", "_sum", "_count")
#: the root documents that describe this code; with docs/ they are held
#: to the declared metric names (other root files quote outside text)
_CODE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
              "CHANGES.md")
#: metric names deleted on purpose: the change history (CHANGES.md) records
#: when they came and went, every other document is held to the declared
#: names
_RETIRED_METRICS = frozenset((
    "repro_server_calls_total",  # the _count of repro_server_fragment_steps
    "repro_remote_ops_total",  # the _count of repro_remote_exec_seconds
    # the fragment result cache's counters, removed with the cache
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_cache_invalidations_total",
))
#: backticked endpoint paths in docs (`/metrics`, `/healthz`, ...)
_ENDPOINT_USE = re.compile(r"`(/[a-z][a-z.]*)`")
#: route literals in the exposition server source
_ROUTE_DEF = re.compile(r'"(/[a-z][a-z.]*)"')
#: long-option mentions in docs
_FLAG_USE = re.compile(r"(--[a-z][a-z-]+)\b")
#: long options the CLI defines
_FLAG_DEF = re.compile(r'add_argument\(\s*\n?\s*"(--[a-z][a-z-]+)"')
#: subcommand mentions in docs: fenced ``python -m repro trace ...``
#: invocations and backticked `repro trace` references (a bare "repro"
#: in prose or a Python import never matches)
_SUBCOMMAND_USE = re.compile(r"(?:python -m repro|`repro) ([a-z][a-z0-9-]+)")
#: subcommands the CLI defines
_SUBCOMMAND_DEF = re.compile(r'add_parser\(\s*\n?\s*"([a-z][a-z0-9-]+)"')
#: engine names passed to --engine in docs
_ENGINE_USE = re.compile(r"--engine[ =]([a-z]+)")
#: the engine registry tuple in runtime/__init__.py
_ENGINE_DEF = re.compile(r"^ENGINES\s*=\s*\(([^)]*)\)", re.MULTILINE)
#: callback names and callback event kinds inside a backticked span
_BACKTICKED = re.compile(r"`[^`\n]+`")
_CALLBACK_USE = re.compile(r"\b(?:cb_|fetch_|store_)[a-z_]+\b")
#: callbacks the daemon sends, and the event kinds the Link charges them as
_CALLBACK_DEF = re.compile(r'"cb": "([a-z_]+)"')
_CB_KIND_DEF = re.compile(r'_charge\(\s*"(cb_[a-z_]+)"')
#: the documents held to the defined callbacks
_CALLBACK_DOCS = ("README.md", "DESIGN.md")


def _rel(path):
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def doc_files():
    files = sorted((REPO / "docs").glob("*.md"))
    files.extend(sorted(REPO.glob("*.md")))
    return files


def declared_metrics():
    """``{name: (kind, label names)}`` of every literal
    ``declare(name, kind, help, labels, ...)`` call under ``src/``."""
    declared = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "declare"):
                continue
            args = list(node.args)
            args += [k.value for k in node.keywords if k.arg == "labels"]
            name, kind = (ast.literal_eval(a) for a in args[:2])
            labels = ast.literal_eval(args[3]) if len(args) > 3 else ()
            declared[name] = (kind, tuple(labels))
    return declared


def defined_metrics():
    return set(declared_metrics())


def check_links(path, text, errors):
    for match in _LINK.finditer(text):
        target, _anchor = match.group(1), match.group(2)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(
                "%s: dead relative link -> %s" % (_rel(path), target)
            )


def check_metrics(path, text, known, errors):
    for name in sorted(set(_METRIC_USE.findall(text))):
        base = name
        for suffix in _EXPO_SUFFIXES:
            if base.endswith(suffix) and base[: -len(suffix)] in known:
                base = base[: -len(suffix)]
                break
        if base not in known:
            # brace-expansion shorthand: repro_remote_{clients,...}
            # scans as the prefix "repro_remote_"; accept it when some
            # defined metric actually carries that prefix
            if base.endswith("_") and any(k.startswith(base) for k in known):
                continue
            errors.append(
                "%s: stale metric name %r (no declare() call declares it)"
                % (_rel(path), name)
            )


def check_metric_table(path, text, declared, errors):
    """Every declared metric has a table row, and the row's type and
    label set are the declaration's."""
    rows = {
        name: (kind, sorted(re.findall(r"`([a-z_]+)`", labels)))
        for name, kind, labels in _TABLE_ROW.findall(text)
    }
    for name, (kind, labels) in sorted(declared.items()):
        row = rows.get(name)
        if row is None:
            errors.append("%s: declared metric %r has no table row"
                          % (_rel(path), name))
        elif row != (kind, sorted(labels)):
            errors.append(
                "%s: table row %r says %s {%s}, its declaration %s {%s}"
                % (_rel(path), name, row[0], ", ".join(row[1]), kind,
                   ", ".join(sorted(labels))))


def defined_routes():
    source = (REPO / "src/repro/obs/httpexpo.py").read_text(encoding="utf-8")
    return set(_ROUTE_DEF.findall(source))


def defined_flags():
    source = (REPO / "src/repro/cli.py").read_text(encoding="utf-8")
    return set(_FLAG_DEF.findall(source))


def defined_subcommands():
    source = (REPO / "src/repro/cli.py").read_text(encoding="utf-8")
    return set(_SUBCOMMAND_DEF.findall(source))


def defined_engines():
    source = (REPO / "src/repro/runtime/__init__.py").read_text(encoding="utf-8")
    match = _ENGINE_DEF.search(source)
    if match is None:
        return set()
    return set(re.findall(r'"([a-z]+)"', match.group(1)))


def defined_callbacks():
    remote = (REPO / "src/repro/runtime/remote.py").read_text(encoding="utf-8")
    channel = (REPO / "src/repro/runtime/channel.py").read_text(
        encoding="utf-8")
    return set(_CALLBACK_DEF.findall(remote)) | set(
        _CB_KIND_DEF.findall(channel))


def check_callbacks(path, text, callbacks, errors):
    """Every backticked callback or callback event kind must be one the
    hidden side can still issue."""
    used = {name for span in _BACKTICKED.findall(text)
            for name in _CALLBACK_USE.findall(span)}
    for name in sorted(used - callbacks):
        errors.append(
            "%s: unknown callback %r (neither a \"cb\" literal of "
            "runtime/remote.py nor a kind runtime/channel.py charges)"
            % (_rel(path), name))


def check_engines(path, text, engines, errors):
    """Every ``--engine X`` a doc shows must name a registered engine."""
    for name in sorted(set(_ENGINE_USE.findall(text))):
        if name not in engines:
            errors.append(
                "%s: unknown --engine choice %r (not in the "
                "repro.runtime.ENGINES registry)" % (_rel(path), name)
            )


def check_subcommands(path, text, subcommands, errors):
    """Every ``repro <sub>`` invocation a doc shows must be a subcommand
    the CLI parser actually registers."""
    for name in sorted(set(_SUBCOMMAND_USE.findall(text))):
        if name not in subcommands:
            errors.append(
                "%s: unknown subcommand 'repro %s' (no add_parser defines it)"
                % (_rel(path), name)
            )


def check_cli_surface(path, text, routes, flags, errors, repro_lines_only=False):
    """The worked examples in docs/OBSERVABILITY.md and docs/TESTING.md
    name endpoints and CLI flags; both must exist in the source they
    document.  With ``repro_lines_only`` the flag check is restricted to
    lines invoking ``repro`` — TESTING.md also shows pytest/coverage
    flags this tool must not vet against our CLI."""
    for endpoint in sorted(set(_ENDPOINT_USE.findall(text))):
        if endpoint not in routes:
            errors.append(
                "%s: unknown exposition endpoint %r (not in httpexpo ROUTES)"
                % (_rel(path), endpoint)
            )
    flag_text = text
    if repro_lines_only:
        flag_text = "\n".join(
            line for line in text.splitlines() if "repro " in line
        )
    for flag in sorted(set(_FLAG_USE.findall(flag_text))):
        if flag not in flags:
            errors.append(
                "%s: unknown CLI flag %r (no add_argument defines it)"
                % (_rel(path), flag)
            )


def main():
    declared = declared_metrics()
    known = set(declared)
    if not known:
        print("check_docs: found no declare() calls under src/ — "
              "the declaration scan is broken", file=sys.stderr)
        return 1
    routes = defined_routes()
    flags = defined_flags()
    subcommands = defined_subcommands()
    engines = defined_engines()
    callbacks = defined_callbacks()
    if not (routes and flags and subcommands and engines and callbacks):
        print("check_docs: found no routes/flags/subcommands/engines/"
              "callbacks in src/ — the definition regexes are broken",
              file=sys.stderr)
        return 1
    errors = []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        check_links(path, text, errors)
        if path.parent != REPO or path.name in _CODE_DOCS:
            check_metrics(path, text, known | _RETIRED_METRICS
                          if path.name == "CHANGES.md" else known, errors)
        if path.name == "OBSERVABILITY.md":
            check_metric_table(path, text, declared, errors)
        check_engines(path, text, engines, errors)
        if path.parent != REPO or path.name in _CALLBACK_DOCS:
            check_callbacks(path, text, callbacks, errors)
        if path.name != "ROADMAP.md":  # the roadmap names future surface
            check_subcommands(path, text, subcommands, errors)
        if path.name in ("OBSERVABILITY.md", "OPERATIONS.md"):
            check_cli_surface(path, text, routes, flags, errors)
        elif path.name == "TESTING.md":
            check_cli_surface(path, text, routes, flags, errors,
                              repro_lines_only=True)
    if errors:
        print("documentation checks failed:", file=sys.stderr)
        for error in errors:
            print("  " + error, file=sys.stderr)
        return 1
    print("docs ok: %d files, %d known metrics" % (len(doc_files()), len(known)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
