"""Checks on the package source as a whole."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kcprobe"


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
    "prefix length": (r"n = \{n\} not in 1\.\.", {("model", "_prefix")}),
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


def unread_public_names(init: Path, readers: list[Path]) -> set[str]:
    """Every name that ``init`` imports for export and that no file of
    ``readers`` reads outside its own definition, as a bare name, an imported
    name or an attribute.  A name read off a module from outside the package
    (``np.kron``) or imported from one is a homonym, not a reader."""
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for path in readers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = set()  # the names bound to what is imported from outside the package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                foreign.update(
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names
                    if alias.name.split(".")[0] != "kcprobe"
                )
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] != "kcprobe":
                foreign.update(alias.asname or alias.name for alias in node.names)
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in foreign:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                        names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kcprobe")):
                    names.update(alias.name for alias in node.names)
            read |= names - {getattr(top, "name", None)}
    return exported - read


# Public names with no reader in the package, the CLI, the acceptance tests
# or perfbench, each kept for the reason given.
KEPT_PUBLIC_NAMES = {
    "orthonormalize_hs": "traced by perfbench/tracer.py TARGETS",
    "unitary_from_hamiltonian": "traced by perfbench/tracer.py TARGETS",
    "history_operator": "traced by perfbench/tracer.py TARGETS",
    "joint_probability": "traced by perfbench/tracer.py TARGETS",
    "witness_report": "traced by perfbench/tracer.py TARGETS",
    "generate_algebra": "traced by perfbench/tracer.py TARGETS",
    "naive_sequence_probability": "traced by perfbench/tracer.py TARGETS",
    "effect_product_probability": "traced by perfbench/tracer.py TARGETS",
    "build_conditional_hamiltonians": "paper API: the conditional Hamiltonians of a probe-system coupling",
    "fixed_point_check": "paper API",
    "spacing_degeneracy_predicate": "paper API",
    "noise_ensemble_average": "paper API",
    "classical_wrt_state": "paper API",
    "naive_distribution": "oracle API: the naive counterpart of full_distribution",
}


def test_every_public_name_has_a_reader():
    readers = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]
    # a kept name that gains a reader leaves the list
    assert unread_public_names(PACKAGE / "__init__.py", readers) == set(KEPT_PUBLIC_NAMES)
