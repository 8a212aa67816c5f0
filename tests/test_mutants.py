"""The mutation register stays applicable: each snippet is where it says.

Running the mutants is ``python -m tests.mutants``; this only checks, in
milliseconds, that a refactor moved every mutant with the code it targets.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    mutated = source.replace(mutant.snippet, mutant.replacement)
    assert mutated != source
    ast.parse(mutated)  # a mutant changes behaviour, not whether the file parses


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_killer_names_a_test_that_exists(mutant):
    assert mutant.killers
    for killer in mutant.killers:
        path, *names = killer.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            (tree,) = [node for node in tree.body if getattr(node, "name", None) == name]
