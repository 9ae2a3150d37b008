"""The library surface holds what the package calls and reads.

Every public top-level function or class of gf2m, code, weil and predict
must be named somewhere in src/tracecodes outside its own definition, or
be on KEEP with the reason it stays.  Every public field of a public class
there (a name its body binds, or an attribute its __init__ sets on self)
must be read as an attribute somewhere in src/tracecodes, or be on
KEEP_FIELDS with the reason it stays.  Literal references that only the
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
    "is_irreducible": "the tests check their moduli with it",
}

KEEP_FIELDS = {
    "WeilSumValue.is_exact": "the benchmark reads it",
    "VerificationReport.ss_ratio": "acceptance criterion 8 reads it",
    "VerificationReport.ss_suitable": "acceptance criterion 8 reads it",
    "LinearCode.defset": "the tests select punctured codes by its kind",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> Counter:
    """How often each Name id and Attribute attr occurs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced() -> set[str]:
    """Public top-level definitions of MODULES named nowhere but in themselves."""
    trees = _trees()
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


def _fields(cls: ast.ClassDef) -> set[str]:
    """Public names cls's body binds, and attributes its __init__ sets on self."""
    out = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            out.update(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                       and isinstance(n.value, ast.Name) and n.value.id == "self")
    return {f for f in out if not f.startswith("_")}


def _unread_fields() -> set[str]:
    """Class.field for every public field of MODULES read nowhere as an attribute."""
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return {
        f"{node.name}.{f}" for mod in MODULES for node in trees[mod].body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for f in _fields(node) if f not in read
    }


def test_every_public_field_is_read_or_kept():
    unread = _unread_fields()
    unused = sorted(unread - KEEP_FIELDS.keys())
    assert not unused, f"fields read nowhere in src/tracecodes: {unused}"
    stale = sorted(KEEP_FIELDS.keys() - unread)
    assert not stale, f"kept fields that src/tracecodes reads or no longer defines: {stale}"
