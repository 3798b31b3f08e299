"""Source hygiene the stdlib can check: every name a package module imports
is used in that module, every public method of a package class and every
public module-level function is used by package code, no private function
has a parameter that every package call sets to the same literal, only
`cli.main` catches IncompleteSearchError, only `graph.read_text` and
`graph.write_text` open files, every `open` names its encoding, and no
function but `cuts._table` is cached.
`__init__.py` only re-exports, and `__future__` imports are
directives, so both are exempt from the import check."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hlcut

SOURCES = sorted(Path(hlcut.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree: ast.AST) -> dict[str, int]:
    """Bound name -> line of every import outside `__future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _used(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_public_method_is_used_by_the_package():
    # a method only tests call is a test helper, and belongs in the tests
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    attributes = [node for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    unused = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not any(a.attr == fn.name and id(a) not in own
                           for a in attributes):
                    unused.append(f"{name}: {cls.name}.{fn.name}")
    assert not unused, f"public methods no package code uses: {unused}"


# public functions kept although no package code calls them, each for a
# caller outside the package
UNCALLED = {
    "is_h_edge_cut",    # witness predicate of bench/checks.py
    "is_h_vertex_cut",  # witness predicate of bench/checks.py
    "canonical_cut",    # acceptance criterion C3's block construction
}


def test_every_public_function_is_called_by_the_package():
    # a function only tests call is a test helper, and belongs in the tests;
    # a function called only from dead functions is dead too
    functions = set()
    loads = []  # (name, enclosing top-level function or None)
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, ast.FunctionDef):
                owner = (path.name, top.name)
                if not top.name.startswith("_") and top.name not in UNCALLED:
                    functions.add(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    loads.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    loads.append((node.attr, owner))
    dead: set[tuple[str, str]] = set()
    while True:
        newly = {key for key in functions if key not in dead and not any(
            name == key[1] and owner != key and owner not in dead
            for name, owner in loads)}
        if not newly:
            break
        dead |= newly
    assert not dead, f"public functions no package code calls: {sorted(dead)}"


def _arguments(fn: ast.FunctionDef, call: ast.Call) -> dict | None:
    """Parameter name -> the expression a call binds to it, defaults
    included; None when a starred argument hides the binding."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return None
    spec = fn.args
    positional = spec.posonlyargs + spec.args
    bound = dict(zip([a.arg for a in positional[-len(spec.defaults):]],
                     spec.defaults)) if spec.defaults else {}
    bound.update((a.arg, d) for a, d in zip(spec.kwonlyargs, spec.kw_defaults)
                 if d is not None)
    bound.update(zip([a.arg for a in positional], call.args))
    bound.update((k.arg, k.value) for k in call.keywords)
    return bound


def test_no_private_parameter_gets_one_literal_at_every_call():
    # no option without a caller: a parameter of a private module-level
    # function that every package call sets to the same literal is a
    # constant in disguise, and belongs in the function body
    trees = [ast.parse(p.read_text()) for p in MODULES]
    private = {top.name: top for tree in trees for top in tree.body
               if isinstance(top, ast.FunctionDef)
               and top.name.startswith("_")}
    calls: dict[str, list[ast.Call]] = {name: [] for name in private}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in calls:
                    calls[name].append(node)
    constant = []
    for name, fn in private.items():
        sites = [_arguments(fn, call) for call in calls[name]]
        if not sites or None in sites:
            continue
        for param in sites[0]:
            args = [site.get(param) for site in sites]
            if all(isinstance(a, ast.Constant) for a in args) \
                    and len({ast.unparse(a) for a in args}) == 1:
                constant.append(f"{name}({param}={ast.unparse(args[0])})")
    assert not constant, f"parameters with one literal everywhere: {constant}"


def test_only_the_cli_catches_an_incomplete_search():
    # a stopped search raises its one final IncompleteSearchError itself,
    # with its incumbent and budget; only `cli.main` catches it, to map it
    # to exit 3
    caught = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) == ("cli.py", "main"):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type \
                        and "IncompleteSearchError" in ast.unparse(node.type):
                    caught.append(f"{path.name}:{node.lineno}")
    assert not caught, f"IncompleteSearchError caught at: {caught}"


def test_no_cache_but_the_induction_table():
    # a cache keeps every graph it was asked about for the life of the
    # process, and answers a repeated job without the work; only the
    # induction table, which depends on n alone, is cached
    cached = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) == ("cuts.py",
                                                           "_table"):
                continue
            for node in ast.walk(top):
                if getattr(node, "id", getattr(node, "attr", None)) in (
                        "cache", "lru_cache"):
                    cached.append(f"{path.name}:{node.lineno}")
    assert not cached, f"functools caches outside cuts._table: {cached}"


def test_every_open_names_its_encoding():
    # without encoding= the bytes a file holds depend on the locale; the
    # graph and trace formats and the reports are ASCII
    bare = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "open" \
                    and not any(k.arg == "encoding" for k in node.keywords):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare, f"open() without encoding=: {bare}"


def test_only_the_text_reader_and_writer_open_files():
    # the ASCII and line-end policy of every file lives in one reader and
    # one writer; the graph, trace and report files all go through them
    opened = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in (
                    ("graph.py", "read_text"), ("graph.py", "write_text")):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "open" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    opened.append(f"{path.name}:{node.lineno}")
    assert not opened, f"open() outside graph.read_text/write_text: {opened}"
