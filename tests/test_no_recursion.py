"""No code path may recurse on the depth of its input: every input must end
in a verdict or a StcheckError, never in a RecursionError.  These checks
read the source with ``ast``; they catch a function that calls itself by
name and any change of the interpreter's recursion limit.  Three more
source checks keep the pair graph to one breadth-first walk, the reports to
one check path and the node attributes to one build step, one more
keeps the one-binder unfolding step to the head compile and ``unfold``,
one keeps the module-level caches to the three that ``cache_sizes``
reports and ``clear_caches`` empties (all but the interning table), one
keeps the rows of ``stcheck bench`` to one loop in the harness, one keeps
binder bodies to the syntax and the subterm sets, and one keeps
``dataclasses`` out of the package.  The last three keep the public
surface to what is documented and used: every ``__all__`` equals its list
in the README's "Public API" section, no module imports a name it never
uses, and every stcheck name that ``perfbench/`` imports or reads exists,
since no test here runs the benchmark's worker."""

import ast
import importlib
import pathlib
import re
import types

import stcheck

SOURCES = sorted(pathlib.Path(stcheck.__file__).parent.glob("*.py"))
REPO = pathlib.Path(__file__).resolve().parent.parent

# Self-calls whose depth is bounded by a constant or a parameter, not by
# the input.
BOUNDED_SELF_CALLS = {
    # depth at most GenConfig.max_size: each level spends some budget
    ("bench", "_gen"),
}


def called(node):
    """The name *node* calls if it is ``f(..)``, or ``x.f(..)`` with ``x`` a
    name (``sys``, ``self``), not a call such as ``super()``; else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.attr
    return None


def calls(tree):
    """The names called in *tree*."""
    for node in ast.walk(tree):
        name = called(node)
        if name is not None:
            yield name


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"syntax", "subtyping", "bench"}


def test_no_module_changes_the_recursion_limit():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        assert "setrecursionlimit" not in set(calls(tree)), path.name


def test_no_function_calls_itself():
    self_calls = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in set(calls(node)):
                self_calls.add((path.stem, node.name))
    assert self_calls == BOUNDED_SELF_CALLS


def callers(name):
    """(module, function) for each call of *name* in the sources: the
    innermost enclosing function, or ``<module>`` at the top level."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        todo = [(tree, "<module>")]
        while todo:
            node, scope = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if called(node) == name:
                found.append((path.stem, scope))
            todo.extend((kid, scope) for kid in ast.iter_child_nodes(node))
    return sorted(found)


def test_one_breadth_first_walk():
    # subtyping._pairs is the only queue: the product search and the
    # pair-graph export both run it, so a second walk cannot creep back
    assert callers("deque") == [("subtyping", "_pairs")]


def test_one_report_builder():
    # subtyping.check builds every SubtypeReport: the searches return a
    # verdict and counters, so the closedness check, the clock and the
    # report cannot drift apart between algorithms
    assert callers("SubtypeReport") == [("subtyping", "check")]


def test_one_unfolding_site_per_use():
    # lts._table strips binders one at a time and keeps each node's head in
    # its table; syntax.unfold is the public loop over the same step.  No
    # search unfolds a head outside the compile, so a pair refuted on its
    # constructors unfolds nothing, and no module keeps heads of its own
    assert callers("_unfold_once") == [("lts", "_table"), ("syntax", "unfold")]
    assert callers("unfold") == []


def module_caches():
    """(module, name) for each name bound at module level to an empty
    ``{}``, ``dict()`` or ``set()``."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            value = node.value
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                called(value) in ("dict", "set") and not value.args
                and not value.keywords)
            if empty:
                found.update((path.stem, t.id) for t in targets
                             if isinstance(t, ast.Name))
    return found


def package_reads(function):
    """(module, name) for each ``_module.name`` that *function* of
    ``stcheck/__init__.py`` reads."""
    path = next(p for p in SOURCES if p.stem == "__init__")
    tree = ast.parse(path.read_text(), str(path))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {(getattr(stcheck, node.value.id).__name__.split(".")[-1],
             node.attr)
            for node in ast.walk(body)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and isinstance(getattr(stcheck, node.value.id, None),
                           types.ModuleType)}


def test_every_module_cache_is_reported_and_cleared():
    # a cache that cache_sizes does not report, clear_caches does not
    # empty either, and a long-lived process could not bound it
    caches = {("syntax", "_interned"), ("lts", "_tables"),
              ("lts", "_action_tuples")}
    assert module_caches() == package_reads("cache_sizes") == caches
    assert package_reads("clear_caches") == caches - {("syntax", "_interned")}
    assert set(stcheck.cache_sizes()) == {"interned", "head_tables",
                                          "action_tuples"}


def test_one_bench_loop():
    # bench.run_bench owns the rows of `stcheck bench`, their order and the
    # inductive cap: cmd_bench checks its input and calls it once, so
    # neither the order nor the cap can drift back into the command line
    assert callers("run_bench") == [("cli", "cmd_bench")]
    cli = ast.parse(next(p for p in SOURCES if p.stem == "cli").read_text())
    cmd_bench = next(node for node in ast.walk(cli)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "cmd_bench")
    assert {"sort", "sorted", "min"}.isdisjoint(calls(cmd_bench))


def imported_modules(tree):
    """The top-level names of the modules *tree* imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which took about
    # a quarter of a fresh `import stcheck`; the records are NamedTuples
    importers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        if "dataclasses" in set(imported_modules(tree)):
            importers.add(path.stem)
    assert importers == set()


NODE_ATTRIBUTES = {"size", "cutoff", "has_fvar", "contractive", "_kind"}


def test_one_node_builder():
    # syntax._build measures every node kind: the factories, parse and the
    # rewrite path only form a key, so no kind can get its own formula
    setters = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and target.attr in NODE_ATTRIBUTES
                            for target in ast.walk(node)):
                setters.add((path.stem, node.name))
    assert setters == {("syntax", "_build")}


def test_binder_bodies_read_only_by_syntax_and_subterms():
    # a node's head constructor is its _kind, set by syntax._build from its
    # children: no other module walks a chain of binders to find it again
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "body"
               and isinstance(node.ctx, ast.Load) for node in ast.walk(tree)):
            readers.add(path.stem)
    assert readers == {"syntax", "subterms"}


def readme_api():
    """Module name -> the names its bullet in the README's "Public API"
    section lists."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = next(block for block in section.split("\n\n")
                   if block.startswith("- "))
    api = {}
    for bullet in bullets[2:].split("\n- "):
        module, names = bullet.split(":", 1)
        api[module.strip("`")] = sorted(re.findall(r"`([^`]+)`", names))
    return api


def test_every_all_is_the_documented_list():
    # every module with an __all__ has a list, and every list a module
    api = readme_api()
    names = ["stcheck"] + [f"stcheck.{p.stem}" for p in SOURCES
                           if p.stem != "__init__"]
    assert set(api) == {name for name in names
                        if hasattr(importlib.import_module(name), "__all__")}
    for name, listed in api.items():
        module = importlib.import_module(name)
        assert sorted(module.__all__) == listed, name
        assert [n for n in listed if not hasattr(module, n)] == [], name


def exported(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            yield from ast.literal_eval(node.value)


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | set(exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add((path.stem, name))
    assert unused == set()


def test_perfbench_reads_only_names_that_exist():
    # perfbench/worker.py runs only in the benchmark: a name it needs that
    # the package lost would fail every benchmark run and no test
    missing = []
    for path in sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> the stcheck module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "stcheck":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    try:  # a name the module binds, else a submodule
                        value = getattr(module, alias.name) \
                            if hasattr(module, alias.name) \
                            else importlib.import_module(
                                f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append((path.name, node.module, alias.name))
                        continue
                    if isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules \
                    and not hasattr(modules[node.value.id], node.attr):
                missing.append((path.name, node.value.id, node.attr))
    assert missing == []
