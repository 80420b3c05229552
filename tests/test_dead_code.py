"""No function in src/tidyscale that only the tests call.

Every function and method defined in the package must be referenced by
name somewhere in the package outside its own body.  Exempt are the names
the package exports in `__all__`, dunders, the public methods and
properties of exported classes, and the names listed in ALLOWED.
"""

import ast
from pathlib import Path

import pytest

import tidyscale

SOURCE = Path(tidyscale.__file__).parent

ALLOWED = {
    # a PyYAML loader hook: the config loader calls it
    "cli._StrictConstructor.construct_document",
    # the paper's Proposition 2.1 comparison and the L subgroup it builds;
    # they move into tests/ when finprod decides containment by membership
    "finprod.prop21_comparison",
    "finprod.l_subgroup",
    # called by the benchmark harness's own test (bench/tests/test_bench.py);
    # goes with the next change to bench/
    "exactmath.smith_decomposition",
}


def _trees():
    return {
        path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))
    }


def _definitions(trees):
    """(module name, class name or None, def node) for every module-level
    function and every method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield module, None, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield module, node.name, sub


def _references(trees):
    """[(name, node)] for every name, attribute and import in the package."""
    out = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, node))
            elif isinstance(node, ast.alias):
                out.append((node.name, node))
    return out


def test_every_function_is_used_in_the_package():
    exported = set(tidyscale.__all__)
    trees = _trees()
    references = _references(trees)
    unused = []
    for module, cls_name, node in _definitions(trees):
        name = node.name
        qualified = f"{module}.{cls_name}.{name}" if cls_name else f"{module}.{name}"
        if name.startswith("__") and name.endswith("__"):
            continue
        if qualified in ALLOWED or name in exported:
            continue
        if cls_name in exported and not name.startswith("_"):
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(ref == name and id(n) not in own for ref, n in references):
            unused.append(qualified)
    assert not unused, f"defined but never used in the package: {unused}"


def test_the_check_sees_an_unused_function(tmp_path, monkeypatch):
    # a function nothing calls is reported; its own recursion does not count
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "padic.py").write_text(
        (SOURCE / "padic.py").read_text()
        + "\n\ndef _orphan(k):\n    return _orphan(k - 1) if k else 0\n"
    )
    monkeypatch.setitem(globals(), "SOURCE", tmp_path)
    with pytest.raises(AssertionError, match=r"\['padic\._orphan'\]"):
        test_every_function_is_used_in_the_package()
