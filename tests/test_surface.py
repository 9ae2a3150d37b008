"""The library surface holds what the package calls.

Every public top-level function or class of gf2m, code, weil and predict
must be named somewhere in src/tracecodes outside its own definition, or
be on KEEP with the reason it stays.  Literal references that only the
tests compare against belong in tests/oracles.py.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracecodes"
MODULES = ("gf2m", "code", "weil", "predict")

KEEP = {
    "gf2_solve": "the benchmark's tracing wraps it",
    "weil_sum_direct_all_b": "a benchmark operation",
    "weil_sum_closed_all_b": "a benchmark operation",
    "codeword_weight_formula": "a benchmark operation",
    "subfield_image_counts": "acceptance criterion 7 counts with it",
    "is_irreducible": "the tests check their moduli with it",
}


def _names(node: ast.AST) -> Counter:
    """How often each Name id and Attribute attr occurs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced() -> set[str]:
    """Public top-level definitions of MODULES named nowhere but in themselves."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    return {
        node.name for mod in MODULES for node in trees[mod].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and total[node.name] == _names(node)[node.name]
    }


def test_every_public_definition_is_called_or_kept():
    unreferenced = _unreferenced()
    unused = sorted(unreferenced - KEEP.keys())
    assert not unused, f"public but called nowhere in src/tracecodes: {unused}"
    stale = sorted(KEEP.keys() - unreferenced)
    assert not stale, f"kept names that src/tracecodes calls or no longer defines: {stale}"
