"""Every module and public name under ``src/repro`` is reached.

The rule (CONTRIBUTING, "Reachability"): a module earns its place by
being imported — directly or transitively, by ``import`` statements
inside module bodies — from ``SciBorq`` / ``SciBorqServer``, the
SkyServer data set, or the bench tooling CI runs.  An import under
``if TYPE_CHECKING:`` never runs, so it reaches nothing.  A package
``__init__`` re-exporting a name does not count: that is how an
unwired module looks wired.  A module only its own tests import is
deleted together with them, or sits on ``ALLOWED`` below with the
reason and the place its verdict falls due.

The same holds name by name: every public top-level function, class
or constant of a module must be used somewhere outside ``tests/`` —
in ``src/repro`` (not counting ``__init__`` re-exports), the
benchmarks or the examples.  So must every public method and property
of every class of a reached module: a second spelling only tests call
is a second way nobody needs.  Uses inside a definition the rule
rejects do not count, iterated to a fixed point, so a method only
another unused method calls goes with it.  A name
``benchmarks/e2e/trace.py`` wraps by string in ``TARGETS`` counts as
used: the benchmark's tracer needs it to resolve.  Deliberate public
API nothing else calls sits on ``ALLOWED`` too, by its dotted name.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "repro"

ROOTS = (
    "repro.core.server",
    "repro.core.engine",
    "repro.skyserver.*",
    "repro.bench.gates",
    "repro.bench.harness",
    "repro.bench.report",
)

REPO = SRC.parent
#: where a use of a public name counts, besides ``src/repro`` itself
USERS = ("benchmarks", "examples")
#: the benchmark's tracer, whose ``TARGETS`` name what it wraps by string
TRACE = REPO / "benchmarks" / "e2e" / "trace.py"

# module or module.name -> one line: why it stays unreached, and where
# its verdict is due
ALLOWED = {
    "repro.stats.fnchg": "verdict with ROADMAP 4(b)",
    "repro.skyserver.functions.f_get_nearby_obj_eq": "SkyServer's fGetNearbyObjEq (paper §2.1)",
    "repro.stats.kde.EpanechnikovKernel": "public API: the other kernel a KDE takes",
}

# test-only helpers whose deletion, with their tests, is queued in
# ROADMAP 8-v: the list may only shrink
DUE: set[str] = set()


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


def _runtime_nodes(tree):
    """Every node of ``tree`` but those only a type checker reads: the
    body of an ``if TYPE_CHECKING:`` (bare or ``typing.``-qualified)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and (
            getattr(node.test, "id", None) == "TYPE_CHECKING"
            or getattr(node.test, "attr", None) == "TYPE_CHECKING"
        ):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _imports(name, path, modules):
    """Modules of the package that ``name`` imports when it runs."""
    is_package = path.name == "__init__.py"
    targets = set()
    for node in _runtime_nodes(ast.parse(path.read_text())):
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


def _public_definitions(modules, unreached):
    """``(names, members)``: ``{dotted name: node}`` of every public
    top-level function, class and assigned name of the package's
    modules (node None for an assignment), and of every public method
    and property of the classes of the reached ones."""
    names, members = {}, {}
    for module, path in modules.items():
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node)]
            elif isinstance(node, ast.Assign):
                defined = [(t.id, None) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [(node.target.id, None)]
            else:
                continue
            names.update(
                (f"{module}.{name}", found)
                for name, found in defined
                if not name.startswith("_")
            )
            if isinstance(node, ast.ClassDef) and module not in unreached:
                members.update(
                    (f"{module}.{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                )
    return names, members


@functools.cache
def _parse(path):
    """One tree per file, so a node found by one walk is the node the
    other walks meet."""
    return ast.parse(path.read_text())


def _user_trees():
    """The parsed modules whose uses count: ``src/repro`` but its
    ``__init__`` files, the benchmarks and the examples."""
    paths = [p for p in (SRC / PACKAGE).rglob("*.py") if p.name != "__init__.py"]
    for user in USERS:
        paths.extend((REPO / user).rglob("*.py"))
    return [_parse(path) for path in paths]


def _trace_targets():
    """Every string in the value of ``trace.py``'s ``TARGETS``."""
    for node in ast.parse(TRACE.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(getattr(target, "id", None) == "TARGETS" for target in targets):
            return {
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            }
    raise AssertionError(f"no TARGETS in {TRACE}")


def _used_identifiers(trees, skipped):
    """Every identifier ``trees`` name — variables, attributes and
    imported names — outside the definitions in ``skipped`` (ids)."""
    used = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


@functools.cache
def _unused():
    """``(names, members)`` nothing outside ``tests/`` uses.

    A use inside an unused definition does not count (an allow-listed
    one's uses do), so the sets are grown to a fixed point: each round
    can only add to them."""
    modules = _modules()
    unreached = _unreached()
    names, members = _public_definitions(modules, unreached)
    trees = _user_trees()
    exempt = _trace_targets()
    kept = set(ALLOWED) | DUE
    unused = set()
    while True:
        skipped = {
            id(node)
            for name, node in (*names.items(), *members.items())
            if name in unused and name not in kept and node is not None
        }
        used = _used_identifiers(trees, skipped) | exempt
        found = {
            name
            for name in names
            if name.rsplit(".", 1)[0] not in unreached
            and name.rsplit(".", 1)[1] not in used
        } | {name for name in members if name.rsplit(".", 1)[1] not in used}
        if found == unused:
            return found & set(names), found & set(members)
        unused = found


def test_every_module_is_reached_or_allow_listed():
    unlisted = _unreached() - set(ALLOWED)
    assert unlisted == set(), (
        "modules nothing on the served path imports (wire them, delete "
        "them with their tests, or allow-list with a reason): "
        f"{sorted(unlisted)}"
    )


def test_every_public_name_is_used_or_allow_listed():
    unlisted = _unused()[0] - set(ALLOWED) - DUE
    assert unlisted == set(), (
        "public names nothing outside tests/ uses (use them, delete them "
        f"with their tests, or allow-list with a reason): {sorted(unlisted)}"
    )


def test_every_class_member_is_used_or_allow_listed():
    modules = _modules()
    _, members = _public_definitions(modules, _unreached())
    # the walk must see the entry the benchmark drives and the methods
    # of classes below it, or it checks nothing
    assert "repro.core.server.SciBorqServer.submit" in members
    assert "repro.columnstore.table.Table.append_batch" in members
    unlisted = _unused()[1] - set(ALLOWED) - DUE
    assert unlisted == set(), (
        "methods and properties nothing outside tests/ uses (use them, "
        "delete them with their tests, or allow-list with a reason): "
        f"{sorted(unlisted)}"
    )


def test_a_trace_target_counts_as_used():
    # only the benchmark's tracer names the monitor's exact hook, and it
    # stays until the tracer stops wrapping it
    assert "observe_exact" in _trace_targets()
    assert "repro.core.monitor.ContractMonitor.observe_exact" not in _unused()[1]


def test_allow_list_is_short_and_current():
    assert len(ALLOWED) <= 3
    assert all(reason.strip() for reason in ALLOWED.values())
    unused = _unreached().union(*_unused())
    stale = set(ALLOWED) - unused
    assert stale == set(), f"allow-listed but reached or gone: {sorted(stale)}"
    assert DUE <= unused, f"used or gone: {sorted(DUE - unused)}"
