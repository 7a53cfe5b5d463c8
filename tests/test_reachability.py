"""Every module under ``src/repro`` is reachable by imports from an entry
point: ``repro.cli``, a package's ``__main__`` (run by ``python -m``,
never imported), or a script under ``perfbench/`` or ``benchmarks/``.

The import graph is read statically with :mod:`ast` — lazy imports
inside functions count — so a module nothing reaches is dead code and
fails here instead of accreting."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT_DIRS = ("perfbench", "benchmarks")


def module_index(src):
    """``{dotted module name: path}`` for every module of the packages
    under ``src``."""
    index = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        index[".".join(parts)] = path
    return index


def imports_of(path, name, index):
    """Modules of ``index`` that the file at ``path`` (module ``name``)
    imports, including the packages they live in."""
    package = name.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    wanted = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            wanted.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            wanted.add(module)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``
            wanted.update(module + "." + alias.name for alias in node.names)
    found = set()
    for dotted in wanted:
        parts = dotted.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in index:
                found.add(prefix)
    return found


def unreachable(src, roots, scripts=()):
    """Modules under ``src`` that no import chain from ``roots`` (module
    names) or ``scripts`` (file paths) reaches."""
    index = module_index(src)
    todo = list(roots)
    for script in scripts:
        todo.extend(imports_of(script, script.stem, index))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in index:
            continue
        seen.add(name)
        todo.extend(imports_of(index[name], name, index))
    return sorted(set(index) - seen)


def test_every_module_is_reachable_from_an_entry_point():
    src = REPO / "src"
    roots = ["repro.cli"] + [
        name for name in module_index(src)
        if name.split(".")[-1] == "__main__"
    ]
    scripts = [p for d in SCRIPT_DIRS for p in sorted((REPO / d).glob("*.py"))]
    assert scripts, "no perfbench/benchmarks scripts found"
    assert unreachable(src, roots, scripts) == []


def test_an_orphan_module_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "main.py").write_text(
        "from pkg.sub import used\n"
        "def lazy():\n"
        "    from . import helper\n"
    )
    (pkg / "helper.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "sub" / "used.py").write_text("")
    (pkg / "sub" / "orphan.py").write_text("import pkg.helper\n")
    assert unreachable(tmp_path, ["pkg.main"]) == ["pkg.sub.orphan"]
