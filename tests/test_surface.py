"""The library surface holds what the package calls and reads.

Every public top-level function or class of gf2m, code, weil and predict
must be named somewhere in src/tracecodes outside its own definition, or
be on KEEP with the reason it stays.  Every public field of a public class
there (a name its body binds, or an attribute its __init__ sets on self)
must be read as an attribute somewhere in src/tracecodes, or be on
KEEP_FIELDS with the reason it stays.  Literal references that only the
tests compare against belong in tests/oracles.py.  Every name the README
gives in backticks with an underscore, or as a call, must be defined at top
level in gf2m, code, weil, predict or cli.  Every function the benchmark's
tracing wraps by name, and every lib.<module>.<name> its workloads call,
must be a callable of the package.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracecodes"
README = SRC.parent.parent / "README.md"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
MODULES = ("gf2m", "code", "weil", "predict")

KEEP = {
    "weil_sum_direct_all_b": "a benchmark operation",
    "weil_sum_closed_all_b": "a benchmark operation",
    "codeword_weight_formula": "a benchmark operation",
    "is_irreducible": "the tests check their moduli with it",
}

KEEP_FIELDS = {
    "WeilSumValue.is_exact": "the benchmark reads it",
    "VerificationReport.ss_ratio": "acceptance criterion 8 reads it",
    "VerificationReport.ss_suitable": "acceptance criterion 8 reads it",
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
    """Class.field for every public field of MODULES read nowhere as an
    attribute.  An attribute of a numpy dtype (els.dtype.kind) reads no field."""
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Attribute) and n.value.attr == "dtype")}
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


def _top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and variables a module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_readme_names_what_the_package_defines():
    # a backticked identifier with an underscore, or one written as a call,
    # optionally behind a module prefix, names something the package defines
    trees = _trees()
    defined = {mod: _top_level_names(trees[mod]) for mod in MODULES + ("cli",)}
    anywhere = set().union(*defined.values())
    ident = re.compile(r"(?:(%s)\.)?([A-Za-z_]\w*)(\(.*)?" % "|".join(defined))
    named = [m.groups() for span in re.findall(r"`([^`\n]+)`", README.read_text())
             if (m := ident.fullmatch(span)) and ("_" in m[2] or m[3])]
    assert len(named) >= 10  # the README describes the package by these names
    missing = sorted({f"{mod}.{name}" if mod else name for mod, name, _ in named
                      if name not in (defined[mod] if mod else anywhere)})
    assert not missing, f"README names what the package does not define: {missing}"


def test_every_traced_name_is_a_package_callable(monkeypatch):
    # Tracer.install wraps each name of LAYERS, so one the package no longer
    # defines would fail every traced benchmark run.  The file is loaded by
    # path, so no import of the benchmark package is assumed; its dataclasses
    # look their module up in sys.modules while the file runs.
    spec = importlib.util.spec_from_file_location("_tracing_under_test", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = sorted(
        f"{mod}.{name}" for mod, names in tracing.LAYERS.items() for name in names
        if not callable(getattr(importlib.import_module(f"tracecodes.{mod}"), name, None))
    )
    assert not missing, f"the benchmark traces what the package does not define: {missing}"


def test_every_library_call_of_the_workloads_is_a_package_callable():
    # the workloads call the package as lib.<module>.<name>(...); one the
    # package no longer defines would otherwise show only in a benchmark run
    calls = {
        (n.func.value.attr, n.func.attr) for n in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Attribute) and isinstance(n.func.value.value, ast.Name)
        and n.func.value.value.id == "lib"
    }
    assert len(calls) >= 10  # the workloads reach the package through these calls
    missing = sorted(
        f"{mod}.{name}" for mod, name in calls
        if not callable(getattr(importlib.import_module(f"tracecodes.{mod}"), name, None))
    )
    assert not missing, f"the benchmark calls what the package does not define: {missing}"
