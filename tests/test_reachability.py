"""Every module under ``src/repro`` is reached from the served system.

The rule (CONTRIBUTING, "Reachability"): a module earns its place by
being imported — directly or transitively, by ``import`` statements
inside module bodies — from ``SciBorq`` / ``SciBorqServer``, the
SkyServer data set, or the bench tooling CI runs.  A package
``__init__`` re-exporting a name does not count: that is how an
unwired module looks wired.  A module only its own tests import is
deleted together with them, or sits on ``ALLOWED`` below with the
reason and the place its verdict falls due.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "repro"

ROOTS = (
    "repro.core.server",
    "repro.core.engine",
    "repro.core.persistence",
    "repro.core.intelligence",
    "repro.skyserver.*",
    "repro.bench.gates",
    "repro.bench.harness",
    "repro.bench.report",
)

# module -> one line: why it stays unreached, and where its verdict is due
ALLOWED = {
    "repro.stats.fnchg": "verdict with ROADMAP 4(b)",
}


def _modules():
    """``{dotted name: path}`` of every module under ``src/repro``;
    a package goes by its own name and points at its ``__init__``."""
    found = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _imports(name, path, modules):
    """Modules of the package that ``name`` imports."""
    is_package = path.name == "__init__.py"
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # level 1 is the containing package: the module's
                # parent, or the package itself for an ``__init__``
                anchor = name.split(".")
                anchor = anchor[: len(anchor) - node.level + is_package]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            # ``from repro.core import server`` names a sub-module
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    return {target for target in targets if target in modules}


def _reached(modules):
    roots = set()
    for root in ROOTS:
        if root.endswith(".*"):
            prefix = root[:-1]
            roots.update(name for name in modules if name.startswith(prefix))
        else:
            roots.add(root)
    assert roots <= set(modules), sorted(roots - set(modules))
    seen, frontier = set(), sorted(roots)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        path = modules[name]
        if path.name == "__init__.py":
            # importing a package runs its ``__init__``, but the names
            # it re-exports are not uses
            continue
        frontier.extend(_imports(name, path, modules))
    return seen


def _unreached():
    modules = _modules()
    leaves = {n for n, p in modules.items() if p.name != "__init__.py"}
    return leaves - _reached(modules)


def test_every_module_is_reached_or_allow_listed():
    unlisted = _unreached() - set(ALLOWED)
    assert unlisted == set(), (
        "modules nothing on the served path imports (wire them, delete "
        "them with their tests, or allow-list with a reason): "
        f"{sorted(unlisted)}"
    )


def test_allow_list_is_short_and_current():
    assert len(ALLOWED) <= 1
    assert all(reason.strip() for reason in ALLOWED.values())
    stale = set(ALLOWED) - _unreached()
    assert stale == set(), f"allow-listed but reached or gone: {sorted(stale)}"
