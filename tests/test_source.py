"""Source hygiene of the package, read with ``ast`` (nothing is imported).

- every import is used (``__init__``'s re-exports and ``__future__``
  are exempt);
- every private module-level name is read in its own module or taken
  from it by another module of the package, by name or as an attribute
  of the module;
- every ``__all__`` entry is bound in its module.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otrepair"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def reads(tree) -> set:
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imports(tree):
    """(statement, bound name) of every imported name, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]


def source_module(node) -> str | None:
    """The package module a ``from`` import takes names from."""
    if not isinstance(node, ast.ImportFrom) or node.module is None:
        return None
    if node.level == 1:
        return node.module
    return node.module.split(".", 1)[1] if node.module.startswith("otrepair.") else None


def definitions(tree) -> set:
    """The names the module's own top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def dunder_all(tree) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def taken_from(stem: str) -> set:
    """The names other modules of the package take from module ``stem``:
    by name, or as attributes of the module (``from . import stem``)."""
    taken = set()
    for other, tree in MODULES.items():
        if other == stem:
            continue
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names if alias.name == stem}
        for node in ast.walk(tree):
            if source_module(node) == stem:
                taken.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                taken.add(node.attr)
    return taken


def test_every_import_is_used():
    unused = []
    for stem, tree in MODULES.items():
        if stem == "__init__":
            continue
        used = reads(tree) | set(dunder_all(tree))
        unused += [f"{stem}: {name}" for node, name in imports(tree)
                   if getattr(node, "module", None) != "__future__" and name not in used]
    assert unused == []


def test_every_private_name_is_read():
    orphans = []
    for stem, tree in MODULES.items():
        used = reads(tree) | taken_from(stem)
        orphans += [f"{stem}: {name}" for name in sorted(definitions(tree))
                    if name.startswith("_") and not name.startswith("__") and name not in used]
    assert orphans == []


def test_every_dunder_all_entry_exists():
    missing = [f"{stem}: {name}" for stem, tree in MODULES.items()
               for name in dunder_all(tree)
               if name not in definitions(tree) | {name for _, name in imports(tree)}]
    assert missing == []
