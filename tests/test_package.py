"""Checks on the package source as a whole."""

import ast
import re
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


def raise_statements(package: Path) -> list[tuple[str, str, str]]:
    """``(module, function, source)`` of every ``raise`` in a function of
    ``package``, owned by the innermost function around it."""
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = list(ast.iter_child_nodes(fn))
            while body:
                node = body.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, ast.Raise):
                    found.append((path.stem, fn.name, ast.unparse(node)))
                body.extend(ast.iter_child_nodes(node))
    return found


# Each input rule has one check, which both defect routes read.  The label
# rule has two messages; ``joint_probability`` takes a raw ``rho`` on purpose
# and checks it against the operator it is given.
ONE_CHECK_PER_RULE = {
    "state shape": (r"state shape", {("linalg", "check_density"), ("sequences", "joint_probability")}),
    "integer labels": (r"must be integers", {("model", "_labels")}),
    "label range": (r"at position .* is not in 0\.\.", {("model", "_labels")}),
    "sequence length": (r"outcomes for a protocol of", {("model", "_sequence")}),
    "fixed length": (r"fixed outcomes, got", {("model", "_defect_args")}),
    "n": (r"n = \{n\} not in 2\.\.", {("model", "_defect_args")}),
    "final step": (r"marginalizing the final step", {("model", "_defect_args")}),
    "j": (r"j = \{j\} not in 1\.\.", {("model", "_defect_args")}),
}


def test_each_input_rule_is_checked_in_one_function():
    raises = raise_statements(PACKAGE)
    found = {
        rule: {(module, fn) for module, fn, source in raises if re.search(pattern, source)}
        for rule, (pattern, _) in ONE_CHECK_PER_RULE.items()
    }
    assert found == {rule: where for rule, (_, where) in ONE_CHECK_PER_RULE.items()}
