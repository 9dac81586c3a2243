"""Guards: every def and class under ``src/formality_lab`` is reachable from
the program itself, so no library code exists only for the tests; and no
test function is a copy of a package function, so the tests import the
builders they share with the program instead of restating them.

A definition is unreachable when no identifier under the package refers to
its name (a ``Name``, an ``Attribute``, an import alias, or a string constant
that is an identifier, as used by ``getattr``) from outside its own body and
outside the bodies of other unreachable definitions.  A method (a def
directly in a class body) is reached only through an attribute, an import
alias or a string: a bare ``Name`` of the same spelling is a local or a
parameter, never the method.  The scan runs to a fixed point, so helpers used
only by dead code are dead too.  Dunder methods are called by the language,
and handlers registered with ``@_op`` are called through the op table; both
count as reachable.  Matching is by bare name, so the scan can miss dead code
that shares a name with live code, never the other way round.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "formality_lab"

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _registered(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_op"
        for d in node.decorator_list
    )


def _ref_name(node):
    """(name, whether it is a bare ``Name``) of a reference, or None."""
    if isinstance(node, ast.Name):
        return node.id, True
    if isinstance(node, ast.Attribute):
        return node.attr, False
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1], False
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value, False
    return None


def _scan_module(tree, module, defs, refs):
    """Record each definition as (qualified name, node, whether it is a
    method) in ``defs`` and each reference as name -> [(tuple of enclosing
    definition nodes, whether it is a bare ``Name``)] in ``refs``."""

    def walk(node, qual, enclosing):
        for child in ast.iter_child_nodes(node):
            ref = _ref_name(child)
            if ref is not None:
                name, bare = ref
                refs.setdefault(name, []).append((enclosing, bare))
            if isinstance(child, _DEF):
                q = f"{qual}.{child.name}"
                method = isinstance(node, ast.ClassDef) and not isinstance(
                    child, ast.ClassDef
                )
                defs.append((q, child, method))
                walk(child, q, enclosing + (child,))
            else:
                walk(child, qual, enclosing)

    walk(tree, module, ())


def unreachable_definitions(package_dir):
    package_dir = Path(package_dir)
    defs, refs = [], {}
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir.parent).with_suffix("")
        module = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
        _scan_module(ast.parse(path.read_text(encoding="utf-8")), module, defs, refs)

    dead = set()
    grew = True
    while grew:
        grew = False
        for _, node, method in defs:
            if node in dead or _registered(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            live = any(
                node not in enclosing
                and dead.isdisjoint(enclosing)
                and not (method and bare)
                for enclosing, bare in refs.get(node.name, ())
            )
            if not live:
                dead.add(node)
                grew = True
    return sorted(q for q, node, _ in defs if node in dead)


def test_src_holds_no_unreachable_definitions():
    names = unreachable_definitions(PACKAGE)
    assert not names, (
        f"{len(names)} definitions under src/ are reached by no program code "
        "(delete them, or move them under tests/ if a test uses them as a "
        "tool):\n  " + "\n  ".join(names)
    )



TESTS = Path(__file__).resolve().parent


def _key(node):
    """The AST dump of a function's arguments and of its body without the
    docstring: two functions share it exactly when they differ at most in
    name, decorators, docstring and comments."""
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return ast.dump(node.args) + "".join(map(ast.dump, body))


def _functions(root, top_level):
    """(module.name, key) of every non-dunder function under ``root``, or of
    the module-level ones only when ``top_level``."""
    root = Path(root)
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body if top_level else ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{module}.{node.name}", _key(node)


def copied_definitions(tests_dir, package_dir):
    """The module-level test functions that are AST-identical to a function
    of the package, as (test function, package function) pairs.  The
    ``parent_*`` modules are exempt: they keep earlier package code verbatim,
    as oracles for its rewrites."""
    package = {}
    for name, key in _functions(package_dir, top_level=False):
        package.setdefault(key, name)
    return sorted(
        (name, package[key])
        for name, key in _functions(tests_dir, top_level=True)
        if key in package and not name.startswith("parent_")
    )


def test_tests_hold_no_copies_of_package_functions():
    pairs = copied_definitions(TESTS, PACKAGE)
    assert not pairs, (
        f"{len(pairs)} test functions copy a package function (import the "
        "package's instead):\n  "
        + "\n  ".join(f"{copy} == {original}" for copy, original in pairs)
    )
