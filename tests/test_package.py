"""Checks on the package source as a whole."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kcprobe"


def private_definitions_without_a_caller(package: Path) -> list[str]:
    """``module.name`` of every module-level private function or class of
    ``package`` whose name is read nowhere in the package outside its own
    definition, as a bare name, an attribute or an imported name."""
    definitions = set()
    references = set()  # (name, the module-level definition it is read in)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, top.name)
                if top.name.startswith("_") and not top.name.startswith("__"):
                    definitions.add(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    references.add((node.attr, owner))
                elif isinstance(node, ast.alias):
                    references.add((node.name, owner))
    return sorted(
        f"{module}.{name}"
        for module, name in definitions
        if not any(ref == name and owner != (module, name) for ref, owner in references)
    )


def test_every_private_helper_has_a_caller():
    assert private_definitions_without_a_caller(PACKAGE) == []
