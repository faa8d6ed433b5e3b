"""No package module imports a name it never uses or assigns a local it
never reads, no function has a parameter that its body never reads or a
default that no caller sets, and no module defines a private name that no
module reads.

Each module under src/ is parsed with ``ast``.  An import is used when the
module loads its name or lists it in ``__all__``.  A local is a name that a
function body (outside its nested functions and classes) assigns, binds in
a loop, comprehension, ``with`` or ``except`` clause, or defines by a nested
``def`` or ``class``; it is read when that function or one nested in it
loads the name.  Names starting with ``_`` are exempt, and so are names a
function declares ``global`` or ``nonlocal``.

A parameter (positional, keyword-only, ``*args`` or ``**kwargs``) is read
when its function's body, nested functions included, loads the name;
``self``, ``cls`` and names starting with ``_`` are exempt.

A private name is one starting with a single ``_`` that a module binds at
its top level by ``def``, ``class`` or assignment.  It is read when another
top-level statement of any module loads it or reads it as an attribute
(``core._bits``); its own definition does not count.

A default is that of a positional or keyword-only parameter (``self``
and ``cls`` skipped).  It is set when a call in any module passes it, by
position or by keyword, to a function its callee can name: a name, an
attribute, both arms of a conditional expression, every value of a
subscripted dict literal, or a name assigned one of these (``search`` in
``pipeline._solve``, ``solver`` in ``cli._cmd_solve``).  Functions are
matched by name alone.

The one allowed unused import is pipeline's ``induced_collection``:
tests/test_benchmark_names.py and perfbench pin it until the benchmark
drops that binding (ROADMAP item 19).  The one allowed unset default is
``cli.main``'s ``argv``: the console script calls ``main()`` with no
argument, and only tests pass ``argv``.
"""

import ast
from pathlib import Path

import pytest

import rainbow_tournaments

SOURCES = sorted(Path(rainbow_tournaments.__file__).parent.glob("*.py"))
ALLOWED = {"pipeline: induced_collection"}
UNSET_DEFAULTS = {"cli: main.argv"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set[str]:
    return {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)
        for elt in node.value.elts
    }


def unused_imports(tree: ast.Module) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0]
                      for alias in node.names}
    return bound - _loaded(tree) - _exported(tree)


def _own_nodes(func: ast.AST):
    """The nodes of func's body outside its nested functions and classes
    (whose def or class node itself is included)."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_DEFS, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> set[str]:
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, _DEFS):
            continue
        own = list(_own_nodes(func))
        stored = {node.id for node in own if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        stored |= {node.name for node in own
                   if isinstance(node, (*_DEFS, ast.ClassDef))
                   or isinstance(node, ast.ExceptHandler) and node.name}
        for node in own:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                stored -= set(node.names)
        found |= {f"{func.name}.{name}" for name in stored - _loaded(func)
                  if not name.startswith("_")}
    return found


def unread_parameters(tree: ast.Module) -> set[str]:
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, _DEFS):
            continue
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        loaded = set().union(*map(_loaded, func.body))
        found |= {f"{func.name}.{p.arg}" for p in params
                  if p.arg not in loaded and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")}
    return found


def _top_level_privates(tree: ast.Module):
    """(private names a top-level statement binds, names it reads), per
    statement of tree."""
    for node in tree.body:
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            bound = [getattr(node.target, "id", "")]
        else:
            bound = []
        reads = {n.attr if isinstance(n, ast.Attribute) else n.id
                 for n in ast.walk(node) if isinstance(n, ast.Attribute)
                 or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield {name for name in bound
               if name.startswith("_") and not name.startswith("__")}, reads


def unread_privates(*trees: ast.Module) -> set[str]:
    statements = [s for tree in trees for s in _top_level_privates(tree)]
    return {name for i, (bound, _) in enumerate(statements) for name in bound
            if not any(name in reads for j, (_, reads) in enumerate(statements)
                       if j != i)}


def _defaults(tree: ast.Module):
    """(function, parameter, position or None) of each defaulted parameter
    of a function of tree: a position skips a leading self or cls, and a
    keyword-only parameter has None."""
    for func in ast.walk(tree):
        if not isinstance(func, _DEFS):
            continue
        args = func.args
        positional = [p.arg for p in (*args.posonlyargs, *args.args)]
        positional = positional[positional[:1] in (["self"], ["cls"]):]
        for pos in range(len(positional) - len(args.defaults),
                         len(positional)):
            yield func.name, positional[pos], pos
        for p, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield func.name, p.arg, None


def _callees(node: ast.AST, assigned: dict) -> set[str]:
    """The function names a callee expression can stand for: a name (and
    what a name is assigned), an attribute, both arms of a conditional
    expression, every value of a subscripted dict literal."""
    if isinstance(node, ast.Name):
        return {node.id}.union(*(_callees(value, {})
                                 for value in assigned.get(node.id, ())))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.IfExp):
        return _callees(node.body, assigned) | _callees(node.orelse, assigned)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Dict):
        return set().union(*(_callees(v, assigned) for v in node.value.values))
    return set()


def _calls(tree: ast.Module):
    """(callee names, positional arguments, keywords) of each call in
    tree; a starred argument passes every position, and ``**`` every
    keyword (as the keyword None)."""
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            yield (_callees(call.func, assigned),
                   float("inf") if starred else len(call.args),
                   {k.arg for k in call.keywords})


def unset_defaults(*trees: ast.Module) -> set[str]:
    calls = [call for tree in trees for call in _calls(tree)]
    return {f"{func}.{param}" for tree in trees
            for func, param, pos in _defaults(tree)
            if not any(func in names and (
                param in keywords or None in keywords
                or pos is not None and pos < count)
                for names, count, keywords in calls)}


def _scan(check) -> set[str]:
    return {f"{path.stem}: {name}" for path in SOURCES
            for name in check(ast.parse(path.read_text(), str(path)))}


def test_every_import_is_used():
    assert _scan(unused_imports) == ALLOWED


def test_every_local_is_read():
    assert _scan(unread_locals) == set()


def test_every_parameter_is_read():
    assert _scan(unread_parameters) == set()


def test_every_default_is_set_by_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    unset = unset_defaults(*trees.values())
    assert {f"{stem}: {func}.{param}" for stem, tree in trees.items()
            for func, param, _ in _defaults(tree)
            if f"{func}.{param}" in unset} == UNSET_DEFAULTS


def test_every_private_name_is_read():
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    assert unread_privates(*trees) == set()


@pytest.mark.parametrize("source, check, expected", [
    ("import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n",
     unused_imports, {"os", "b"}),
    ("from __future__ import annotations\nfrom a import b\n__all__ = ['b']\n",
     unused_imports, set()),
    ("def f(xs):\n    a = 1\n    b, _c = xs\n    for i in xs:\n        pass\n"
     "    return b\n",
     unread_locals, {"f.a", "f.i"}),
    ("def f():\n    n = 0\n    def g():\n        nonlocal n\n        n += 1\n"
     "    g()\n    return n\n",
     unread_locals, set()),
    ("def f():\n    count = 0\n    count += 1\n    def helper():\n"
     "        pass\n",
     unread_locals, {"f.count", "f.helper"}),
    ("_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\n"
     "def _g(n):\n    return _g(n - 1)\nclass _C:\n    pass\n",
     unread_privates, {"_B", "_f", "_g", "_C"}),
    ("import m\nclass _C:\n    pass\n_X = m._C\nprint(_X)\n",
     unread_privates, set()),
    ("def f(a, b=1, *c, d, _e, **f):\n    return a + d\n"
     "class C:\n    def g(self, x, y: int):\n        def h(z):\n"
     "            return x\n        return h\n",
     unread_parameters, {"f.b", "f.c", "f.f", "g.y", "h.z"}),
    ("def f(a, b=1, *, c=2, d=3):\n    pass\nclass C:\n"
     "    def g(self, x=0, y=0):\n        pass\n"
     "f(0, 5)\nm.f(0, d=4)\nC().g(1)\n",
     unset_defaults, {"f.c", "g.y"}),
    ("def h(a=0):\n    pass\ndef k(a=0):\n    pass\ndef p(a=0):\n    pass\n"
     "def q(a=0, b=0):\n    pass\ndef r(a=0, *, b=0):\n    pass\n"
     "def s(a=0):\n    pass\ndef run(flag, kw):\n"
     "    pick = h if flag else m.k\n    pick(1)\n"
     "    {'x': p, 'y': m.q}[flag](*flag)\n    r(**kw)\n",
     unset_defaults, {"s.a"}),
])
def test_the_scan_finds_what_it_should(source, check, expected):
    assert check(ast.parse(source)) == expected
