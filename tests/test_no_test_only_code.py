"""Guard: every def and class under ``src/formality_lab`` is reachable from
the program itself, so no library code exists only for the tests.

A definition is unreachable when no identifier under the package refers to
its name (a ``Name``, an ``Attribute``, an import alias, or a string constant
that is an identifier, as used by ``getattr``) from outside its own body and
outside the bodies of other unreachable definitions.  The scan runs to a fixed
point, so helpers used only by dead code are dead too.  Dunder methods are
called by the language, and handlers registered with ``@_op`` are called
through the op table; both count as reachable.  Matching is by bare name, so
the scan can miss dead code that shares a name with live code, never the
other way round.
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
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value
    return None


def _scan_module(tree, module, defs, refs):
    """Record each definition as (qualified name, node) in ``defs`` and each
    reference as name -> [tuple of enclosing definition nodes] in ``refs``."""

    def walk(node, qual, enclosing):
        for child in ast.iter_child_nodes(node):
            name = _ref_name(child)
            if name is not None:
                refs.setdefault(name, []).append(enclosing)
            if isinstance(child, _DEF):
                q = f"{qual}.{child.name}"
                defs.append((q, child))
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
        for _, node in defs:
            if node in dead or _registered(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            live = any(
                node not in enclosing and dead.isdisjoint(enclosing)
                for enclosing in refs.get(node.name, ())
            )
            if not live:
                dead.add(node)
                grew = True
    return sorted(q for q, node in defs if node in dead)


def test_src_holds_no_unreachable_definitions():
    names = unreachable_definitions(PACKAGE)
    assert not names, (
        f"{len(names)} definitions under src/ are reached by no program code "
        "(delete them, or move them under tests/ if a test uses them as a "
        "tool):\n  " + "\n  ".join(names)
    )
