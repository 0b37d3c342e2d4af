"""Static guards on how canonical maps are built: every map given on
elementary tensors goes through ``TensorProduct.realize``, so no module fits
a least-squares map and the tensor modules form no Kronecker product.  The
one pseudo-inverse left is ``hilbmod.commutant_lifting``'s, and no module
takes a reciprocal under a cutoff of its own.  Tensor products take their
coordinates from a thin factor: no tensor module factors a Gram.  A map's
products are certified by a construction's bound or by the kernel, so
``hilbmod`` reads no algebra's frame.  The constructions of ``tensorcalc``
and ``factorizations`` are modules by their defining identities, so
neither measures a span's invariants through ``module_from_parts``.  A
distance to a span is read off ``OperatorSpace.distances``, which forms no
product for a span that fills its space, never off ``decompose``'s
residuals outside ``numkernel``.
"""

import ast
from pathlib import Path

import modfactor

SRC = Path(modfactor.__file__).resolve().parent
PINV_ALLOWED = {("hilbmod.py", "commutant_lifting")}
NO_KRON = ("tensorcalc.py", "prodsys.py", "harness.py")
NO_GRAM = ("tensorcalc.py", "factorizations.py")
# modules whose spans are modules by construction: no invariance pass
BY_CONSTRUCTION = ("tensorcalc.py", "factorizations.py")
FRAME_HELPERS = {"_frame", "_held_frame", "_frame_pays"}


def _references(path: Path, name: str, sources=("numpy", "scipy")) -> list:
    """(module, function, line) of each reference to ``name`` of one of the
    ``sources`` in a module: an attribute ``<...>.name`` or a name imported
    from a source (numpy or scipy by default; a package module by its name,
    as ``from .hilbmod import`` gives it)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == name or \
                isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] in sources \
                and any(alias.name == name for alias in node.names):
            found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def _cutoff_reciprocals(path: Path) -> list:
    """(module, function, line) of each reciprocal taken under a cutoff, the
    body of a hand-rolled pseudo-inverse: ``divide`` or ``reciprocal`` with a
    ``where=`` mask, or ``where(cond, 1 / x, ...)``."""
    found = []

    def divides(node):
        return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                   for n in ast.walk(node))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            masked = callee in ("divide", "reciprocal", "true_divide") and \
                any(k.arg == "where" for k in node.keywords)
            if masked or callee == "where" and any(map(divides, node.args[1:])):
                found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_the_one_pseudo_inverse_is_commutant_lifting():
    found = [ref for path in sorted(SRC.glob("*.py"))
             for name in ("pinv", "pinvh") for ref in _references(path, name)]
    assert {ref[:2] for ref in found} >= PINV_ALLOWED  # the scan sees the kept one
    assert [ref for ref in found if ref[:2] not in PINV_ALLOWED] == []
    assert [ref for path in sorted(SRC.glob("*.py")) for ref in _cutoff_reciprocals(path)] == []


def test_the_cutoff_scan_sees_a_hand_rolled_pseudo_inverse(tmp_path):
    path = tmp_path / "inverter.py"
    path.write_text(
        "import numpy as np\n"
        "def inverter(s):\n"
        "    return np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s[0])\n"
        "def masked(s):\n"
        "    return np.where(s > 0, 1.0 / s, 0.0)\n"
        "def kept(s, r):\n"
        "    return 1.0 / s[:r]\n")
    assert [ref[1] for ref in _cutoff_reciprocals(path)] == ["inverter", "masked"]


def test_tensor_modules_form_no_kronecker_product():
    assert [ref for name in NO_KRON for ref in _references(SRC / name, "kron")] == []


def _decompose_residuals(path: Path) -> list:
    """(module, function, line) of each ``<...>.decompose(...)[1]``: a
    distance read off the basis side."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "attr", None) == "decompose" \
                and isinstance(node.slice, ast.Constant) and node.slice.value == 1:
            found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_distances_are_read_off_the_distance_kernel():
    assert _decompose_residuals(SRC / "numkernel.py")  # the scan sees the kernel's own
    assert [ref for path in sorted(SRC.glob("*.py")) if path.name != "numkernel.py"
            for ref in _decompose_residuals(path)] == []


def test_the_residual_scan_sees_a_decompose_residual(tmp_path):
    path = tmp_path / "certify.py"
    path.write_text(
        "def certify(space, U, X):\n"
        "    return space.decompose(U @ X)[1].max()\n"
        "def coefficients(space, X):\n"
        "    c, resid = space.decompose(X)\n"
        "    return space.decompose(X)[0], c\n")
    assert [ref[1:] for ref in _decompose_residuals(path)] == [("certify", 2)]


def test_tensor_modules_factor_no_gram():
    # no Cholesky of a Gram, and no Gram routine under the coordinate step's
    # old name: the name is bound only to _factor_coordinates
    assert [ref for module in NO_GRAM for name in ("zpstrf", "cho_factor", "cholesky")
            for ref in _references(SRC / module, name)] == []
    for module in NO_GRAM:
        tree = ast.parse((SRC / module).read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        assert "_gram_coordinates" not in imported
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_gram_coordinates"]
        bound = [ast.unparse(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_gram_coordinates" for t in node.targets)]
        assert bound in ([], ["_factor_coordinates"])


def _imported_from(path: Path, module: str) -> set:
    """The names a module imports from the package's ``module``."""
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module in (module, f"modfactor.{module}") for alias in node.names}


def test_hilbmod_imports_no_frame_helper():
    names = _imported_from(SRC / "hilbmod.py", "cstar")
    assert "_held_closure_bound" in names  # the scan sees hilbmod's cstar imports
    assert names & FRAME_HELPERS == set()


def test_constructions_measure_no_module_invariants():
    def refs(path):
        return _references(path, "module_from_parts", ("hilbmod", "modfactor"))

    assert refs(SRC / "harness.py")  # the scan sees the parser's import
    assert [ref for name in BY_CONSTRUCTION for ref in refs(SRC / name)] == []


def test_the_module_scan_sees_an_import_and_a_call(tmp_path):
    path = tmp_path / "construction.py"
    path.write_text(
        "from .hilbmod import _trimmed_module, module_from_parts\n"
        "from modfactor import hilbmod\n"
        "def built(B, S):\n"
        "    return hilbmod.module_from_parts(B, S)\n"
        "def trimmed(B, S, tol):\n"
        "    return _trimmed_module(B, S, tol)\n")
    found = _references(path, "module_from_parts", ("hilbmod", "modfactor"))
    assert [ref[1:] for ref in found] == [(None, 1), ("built", 4)]
