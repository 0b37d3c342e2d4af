"""Static guards on how canonical maps are built: every map given on
elementary tensors goes through ``TensorProduct.realize``, so no module fits
a least-squares map and the tensor modules form no Kronecker product.  The
one pseudo-inverse left is ``hilbmod.commutant_lifting``'s.
"""

import ast
from pathlib import Path

import modfactor

SRC = Path(modfactor.__file__).resolve().parent
PINV_ALLOWED = {("hilbmod.py", "commutant_lifting")}
NO_KRON = ("tensorcalc.py", "prodsys.py")


def _references(path: Path, name: str) -> list:
    """(module, function, line) of each reference to numpy's ``name`` in a
    module: an attribute ``<...>.name`` or a name imported from numpy."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == name or \
                isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and any(alias.name == name for alias in node.names):
            found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_the_one_pseudo_inverse_is_commutant_lifting():
    found = [ref for path in sorted(SRC.glob("*.py")) for ref in _references(path, "pinv")]
    assert {ref[:2] for ref in found} >= PINV_ALLOWED  # the scan sees the kept one
    assert [ref for ref in found if ref[:2] not in PINV_ALLOWED] == []


def test_tensor_modules_form_no_kronecker_product():
    assert [ref for name in NO_KRON for ref in _references(SRC / name, "kron")] == []
