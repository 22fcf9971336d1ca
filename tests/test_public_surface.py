"""Every module-level function and class of the package, and every method
and property of its classes, has a caller.

The ``hypstruct`` command line is the package's one public surface.  So a
definition in ``src/hypstruct/`` that nothing in ``src/hypstruct/`` or
``benchmark/`` refers to (outside its own body and outside import
statements) has no user: delete it, or move it into the test tree if only the
tests need it.  ``__init__.py`` defines nothing; it is read for references
only.

A class member (dunder methods aside) counts as called when ``.name``
appears anywhere in that text outside its own definition.  The match is on
text, not on the syntax tree, because the benchmark also calls members inside
code strings it hands to a child process (``.serialize()`` in
``benchmark/run.py``).  So a member whose name is also some other attribute
(``args.trace``, ``np.trace``) passes unseen.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypstruct"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))

# Definitions kept without a caller in the package or the benchmark.
ALLOWED = {}


def definitions():
    """``module.name`` of every module-level function and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return found


def bindings(tree):
    """What a file's imports bind: local name -> ``module`` or ``module.name``.

    Package modules are named without the ``hypstruct.`` prefix.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("hypstruct").lstrip(".")
            for alias in node.names:
                bound[alias.asname or alias.name] = (f"{base}.{alias.name}" if base
                                                     else alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hypstruct.") and alias.asname:
                    bound[alias.asname] = alias.name.removeprefix("hypstruct.")
    return bound


def references():
    """``(file stem, top-level definition or None, module.name)`` of every read.

    A bare name refers to what an import bound it to, or else to the file's
    own definition; ``tr.train`` refers to ``training.train`` when ``tr`` is
    the imported ``training`` module.  Import statements bind names without
    reading them.
    """
    refs = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = bindings(tree)
        local = path.stem if path.parent == PACKAGE else None
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = bound.get(node.id, local and f"{local}.{node.id}")
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and "." not in bound.get(node.value.id, ".")):
                    target = f"{bound[node.value.id]}.{node.attr}"
                else:
                    continue
                refs.add((path.stem, owner, target))
    return refs


def uncalled():
    refs = references()
    return [qualified for qualified in definitions()
            if not any(target == qualified and (stem, owner) != tuple(qualified.split("."))
                       for stem, owner, target in refs)]


def test_every_definition_has_a_caller():
    orphans = [name for name in uncalled() if name not in ALLOWED]
    assert not orphans, f"no caller in src/hypstruct/ or benchmark/: {orphans}"


def test_allowlist_names_live_definitions_without_callers():
    assert set(ALLOWED) <= set(definitions())
    assert set(ALLOWED) <= set(uncalled())


def members():
    """``(module.Class.name, file, first line, last line)`` of every method and
    property of a package class; dunder methods are left out."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            found += [(f"{path.stem}.{cls.name}.{fn.name}", path, fn.lineno, fn.end_lineno)
                      for fn in cls.body if isinstance(fn, ast.FunctionDef)
                      and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    return found


def unused_members():
    lines = {path: path.read_text().splitlines() for path in SOURCES}
    unused = []
    for qualified, own, first, last in members():
        attribute = re.compile(rf"\.{qualified.rsplit('.', 1)[1]}\b")
        if not any(attribute.search(line) for path, text in lines.items()
                   for line in (text[:first - 1] + text[last:] if path == own else text)):
            unused.append(qualified)
    return unused


def test_every_class_member_has_a_caller():
    assert members()
    orphans = unused_members()
    assert not orphans, f"no caller in src/hypstruct/ or benchmark/: {orphans}"
