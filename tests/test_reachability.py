"""Every module under ``src/repro`` is reachable from the CLI entry point.

A static import walk: parse each file with ``ast``, collect module-level
and function-level imports (relative ones resolved), and follow them from
``repro.__main__``.  A package that only its own tests and examples import
shows up here as unreached, so it cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = "repro.__main__"


def _modules() -> dict:
    """Dotted module name → source path, packages under their own name."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path, modules: dict) -> set:
    """The modules of ``modules`` that ``name`` imports, anywhere in its body."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # one dot is the importer's own package
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            # ``from pkg import name`` imports ``pkg.name`` when it is a module.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for target in found:
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
        parts = target.split(".")
        reached.update(
            prefix
            for prefix in (".".join(parts[: i + 1]) for i in range(len(parts)))
            if prefix in modules
        )
    return reached


def unreached_modules() -> list:
    modules = _modules()
    seen = {ROOT, "repro"}
    frontier = list(seen)
    while frontier:
        name = frontier.pop()
        for target in _imports(name, modules[name], modules) - seen:
            seen.add(target)
            frontier.append(target)
    return sorted(set(modules) - seen)


def test_every_module_is_reachable_from_the_cli():
    assert unreached_modules() == []
