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


# Each input rule has one check, which every reader of the input calls.  The
# label rule has two messages; ``joint_probability`` takes a raw ``rho`` on
# purpose and checks it against the operator it is given.  A message that a
# folded check used to give is listed with no owner, so that a second
# statement of its rule, put back, fails.
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
    "n_max": (r"n_max = \{n_max\} not in", {("model", "_n_max")}),
    "qubit probe": (r"needs? a qubit probe", {("model", "_qubit")}),
    "one axis": (r"must share one axis", {("witnesses", "_axis_deltas")}),
    "trials": (r"trials must be", {("scenarios", "_trials")}),
    "a step": (r"needs? at least one step", {("model", "__post_init__")}),
    "value map outcomes": (r"value map lacks outcomes", {("witnesses", "_values")}),
    "value map values": (r"value map gives outcome", {("witnesses", "_values")}),
    # the Kraus layer's rules, which the search's batched screen reads too
    "hermitian": (r"is not Hermitian", {("linalg", "check_hermitian")}),
    "finite step time": (r"time must be finite, got", {("linalg", "_finite_step_time")}),
    "phase overflow": (r"phases w\*t overflow", {("linalg", "unitary_from_eigensystem")}),
    "phase rounding": (r"has a rounding error above", {("linalg", "unitary_from_eigensystem")}),
    "completeness": (r"effects do not sum to the identity", {("model", "_cycles")}),
    # an overflowing commutator or generator norm decides nothing
    "commutator overflow": (r"squared generator norm", {("algebra", "is_commutative")}),
    # the restricted and the full commutant stack share one raise
    "empty commutant": (r"empty commutant", {("algebra", "commutant_basis")}),
    # retired messages
    "witness qubit": (r"axis witnesses need a qubit probe", set()),
    "inequality qubit": (r"inequality check needs a qubit probe", set()),
    "CLI qubit": (r"\('witnesses need a qubit probe", set()),
    "witness steps": (r"steps, need \{n\}", set()),
    "inequality steps": (r"need two measurement steps", set()),
    "inequality axis": (r"must both be X measurements", set()),
    "protocol prefix": (r"-step prefix of", set()),
    "config n_max": (r"exceeds the protocol length", set()),
    "ensemble n_max": (r"n_max must be", set()),
    "noise steps": (r"\('need at least one step", set()),
    # an effect is the Hermitian part of K^H K, so past completeness it is positive
    "effect positivity": (r"effect \{.*\} has negative eigenvalue", set()),
}


def test_each_input_rule_is_checked_in_one_function():
    raises = raise_statements(PACKAGE)
    found = {
        rule: {(module, fn) for module, fn, source in raises if re.search(pattern, source)}
        for rule, (pattern, _) in ONE_CHECK_PER_RULE.items()
    }
    assert found == {rule: where for rule, (_, where) in ONE_CHECK_PER_RULE.items()}


def calls(package: Path) -> dict[tuple[str, str], list[str]]:
    """``{(module, function): names}``: the name of each call in each
    module-level function or method (``Class.method``) of ``package``, as a
    bare name or the attribute called, once a call."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                owned = [(f"{top.name}.{fn.name}", fn) for fn in top.body if isinstance(fn, functions)]
            else:
                owned = [(top.name, top)] if isinstance(top, functions) else []
            for name, fn in owned:
                found[path.stem, name] = [
                    getattr(node.func, "id", getattr(node.func, "attr", None))
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                ]
    return found


def test_one_assembler_builds_every_protocol_s_and_grid_s_kraus_data():
    # a grid point is its protocol by construction: both wrap one assembly
    found = calls(PACKAGE)
    for owner in (("model", "MeasurementProtocol.__post_init__"), ("model", "_grids")):
        assert found[owner].count("_cycle_stacks") == 1
        assert not {"_cycles", "_cycle_weights", "unitary_from_eigensystem"} & set(found[owner])
    assert {owner for owner, names in found.items() if "_cycles" in names} == {
        ("model", "_cycle_stacks"),
        ("model", "induced_kraus"),
        ("scenarios", "_screen"),
    }
    # completeness is the one check of a cycle: no spectrum is computed
    assert not {"eigvalsh", "eigh", "eigvals", "eig", "svd", "svdvals"} & set(found["model", "_cycles"])


def test_one_commutator_norm_decides_every_commutativity_question():
    # one stacked Frobenius norm sums every squared entry; one commutator
    # primitive decides every generator set, the random draw's and the
    # sweep's included, so their verdicts and columns cannot drift apart
    found = calls(PACKAGE)
    assert {owner for owner, names in found.items() if "vecdot" in names} == {("linalg", "_frobenius")}
    read = read_names(sorted(PACKAGE.glob("*.py")))
    assert {top for _, top in read["_commutator_norms"]} == {
        "is_commutative",
        "_noncommuting_hamiltonians",
        "_sweep_chunk",
        None,  # the imports
    }


def read_names(readers: list[Path]) -> dict[str, set]:
    """Every name that a file of ``readers`` reads, as a bare name, an imported
    name or an attribute, each with the module-level definitions (or None)
    it is read in.  A name read off a module from outside the package
    (``np.kron``) or imported from one is a homonym, not a read."""
    read: dict[str, set] = {}
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
            owner = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in foreign:
                    read.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                        read.setdefault(node.attr, set()).add(owner)
                elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kcprobe")):
                    for alias in node.names:
                        read.setdefault(alias.name, set()).add(owner)
    return read


def exported_names(init: Path) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unread_public_names(init: Path, readers: list[Path]) -> set[str]:
    """Every name that ``init`` imports for export and that no file of
    ``readers`` reads outside its own definition."""
    read = read_names(readers)
    return {name for name in exported_names(init) if all(top == name for _, top in read.get(name, ()))}


def unread_public_members(package: Path, readers: list[Path]) -> set[str]:
    """``Class.member`` for every public method or property of a class that
    the package exports, whose name no file of ``readers`` reads outside the
    class's own definition."""
    exported = exported_names(package / "__init__.py")
    read = read_names(readers)
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(top, ast.ClassDef) and top.name in exported):
                continue
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    if read.get(node.name, set()) <= {(path.stem, top.name)}:
                        found.add(f"{top.name}.{node.name}")
    return found


def unread_module_functions(package: Path, readers: list[Path]) -> set[str]:
    """``module.name`` of every public module-level function of ``package``
    whose name no file of ``readers`` reads outside its own definition."""
    read = read_names(readers)
    return {
        f"{path.stem}.{top.name}"
        for path in sorted(package.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
        if read.get(top.name, set()) <= {(path.stem, top.name)}
    }


# Public names with no reader in the package, the CLI, the acceptance tests
# or perfbench, each kept for the reason given.
KEPT_PUBLIC_NAMES = {
    "orthonormalize_hs": "traced by perfbench/tracer.py TARGETS",
    "unitary_from_hamiltonian": "traced by perfbench/tracer.py TARGETS",
    "history_operator": "traced by perfbench/tracer.py TARGETS",
    "joint_probability": "traced by perfbench/tracer.py TARGETS",
    "witness_report": "traced by perfbench/tracer.py TARGETS",
    "generate_algebra": "traced by perfbench/tracer.py TARGETS",
    "induced_kraus": "traced by perfbench/tracer.py TARGETS; protocols build their cycles in one stacked call",
    "naive_sequence_probability": "traced by perfbench/tracer.py TARGETS",
    "effect_product_probability": "traced by perfbench/tracer.py TARGETS",
    "build_conditional_hamiltonians": "paper API: the conditional Hamiltonians of a probe-system coupling",
    "fixed_point_check": "paper API",
    "spacing_degeneracy_predicate": "paper API",
    "noise_ensemble_average": "paper API",
    "classical_wrt_state": "paper API",
    "naive_distribution": "oracle API: the naive counterpart of full_distribution",
}


# Public methods and properties of exported classes with no reader there,
# each kept for the reason given.
KEPT_PUBLIC_MEMBERS = {
    "AlgebraBasis.contains": "algebra API: membership in the span, read by tests/test_algebra.py",
}


def public_readers() -> list[Path]:
    readers = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    return readers + [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]


def test_every_public_name_has_a_reader():
    # a kept name that gains a reader leaves the list
    assert unread_public_names(PACKAGE / "__init__.py", public_readers()) == set(KEPT_PUBLIC_NAMES)


def test_every_public_method_has_a_reader():
    # the public methods and properties of the exported classes, likewise
    assert unread_public_members(PACKAGE, public_readers()) == set(KEPT_PUBLIC_MEMBERS)


def test_every_module_function_has_a_reader():
    # exported or not: an unread function is kept by the list above, or it goes
    unread = unread_module_functions(PACKAGE, public_readers())
    assert {name.partition(".")[2] for name in unread} <= set(KEPT_PUBLIC_NAMES)
