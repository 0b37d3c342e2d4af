"""The tolerance policy: every accept/reject threshold is named once, in the
block of float constants at the head of ``numkernel``, and its two kinds of
tier behave as documented.

These tests never import the policy's names: they pin the values they rely
on as literals, so that a change to the policy cannot loosen them unseen.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import modfactor
from modfactor.cstar import build_algebra
from modfactor.errors import ModfactorError, PreconditionError
from modfactor.factorizations import factor_qons
from modfactor.hilbmod import (
    Homomorphism,
    build_module,
    dual_qons_family,
    finite_rank_algebra,
    verify_unit_vector,
)

SRC = Path(modfactor.__file__).resolve().parent
# numerical constants that are not thresholds: (module, function, value)
NUMERICAL = {
    ("numkernel.py", "_fro_settles", 1e-10),  # roundoff margin between two norms
    ("numkernel.py", "wedderburn_frame", 1e-30),  # keeps a zero family's bound positive
}


def _policy_lines(tree: ast.Module) -> range:
    """Lines of numkernel's policy block: the run of top-level float
    constants that starts with DEFAULT_TOL."""
    body = tree.body
    start = next(i for i, node in enumerate(body) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "DEFAULT_TOL" for t in node.targets))
    end = start
    while end < len(body) and isinstance(body[end], ast.Assign) \
            and isinstance(body[end].value, ast.Constant) \
            and isinstance(body[end].value.value, float):
        end += 1
    return range(body[start].lineno, body[end - 1].end_lineno + 1)


def _mentions_tol(node: ast.AST) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "tol" in name.lower()


def _thresholds_outside_policy(path: Path) -> list:
    """(line, source) of each float literal below 1e-5 and each
    ``<number> * tol`` product of a module outside the policy block, less
    the named numerical constants."""
    tree = ast.parse(path.read_text())
    allowed = _policy_lines(tree) if path.name == "numkernel.py" else range(0)
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                and 0.0 < abs(node.value) < 1e-5 \
                and (path.name, function, node.value) not in NUMERICAL \
                and node.lineno not in allowed:
            found.append((node.lineno, ast.unparse(node)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and node.lineno not in allowed:
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if isinstance(a, ast.Constant) and isinstance(a.value, (int, float)) \
                        and _mentions_tol(b):
                    found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_threshold_is_named_in_the_policy(path):
    assert _thresholds_outside_policy(path) == []


def test_the_guard_sees_a_literal_and_a_scaled_tol(tmp_path):
    mod = tmp_path / "hilbmod.py"
    mod.write_text("def f(x, tol):\n    return x > 1e-7 or x > 100.0 * tol or x > tol * 10\n")
    assert [line for line, _ in _thresholds_outside_policy(mod)] == [2, 2, 2]


@pytest.fixture(scope="module")
def unital_module():
    """C (+) M2 in M3 as a module over itself: the identity is a unit vector."""
    B = build_algebra([(1, 1), (2, 1)])
    return build_module(B, list(B.basis))


class TestRelativeTier:
    """A unit vector is checked at 1000 tol: ||<xi, xi> - 1|| = 1e-7 passes at
    tol = 1e-9 (bound 1e-6) and fails at tol = 1e-11 (bound 1e-8)."""

    def test_unit_vector_bound_scales_with_tol(self, unital_module):
        xi = np.sqrt(1.0 + 1e-7) * np.eye(3)
        assert verify_unit_vector(unital_module, xi, 1e-9)
        assert not verify_unit_vector(unital_module, xi, 1e-11)
        for tol in (1e-9, 1e-11):
            assert verify_unit_vector(unital_module, np.eye(3), tol)


class TestAbsoluteTier:
    """factor_qons' family precondition is 1e-7 whatever tol: a family off
    by 5e-7 is refused even at tol = 1e-6, where every relative tier would
    allow it, and one off by 5e-8 passes it even at tol = 1e-11."""

    @staticmethod
    def _family(golden_module, off: float) -> list:
        fam = dual_qons_family(golden_module)
        return [np.sqrt(1.0 + off) * fam[0]] + fam[1:]

    @staticmethod
    def _factor(golden_module, family, tol):
        K = finite_rank_algebra(golden_module)
        theta = Homomorphism(K, golden_module.dim_H, K.basis.copy())
        return factor_qons(golden_module, golden_module, theta, family, tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
    def test_a_family_off_by_5e_7_is_refused_at_every_tol(self, golden_module, tol):
        with pytest.raises(PreconditionError, match="quasi-orthonormal conditions"):
            self._factor(golden_module, self._family(golden_module, 5e-7), tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
    def test_a_family_off_by_5e_8_passes_at_every_tol(self, golden_module, tol):
        family = self._family(golden_module, 5e-8)
        try:
            res = self._factor(golden_module, family, tol)
        except ModfactorError as err:  # a relative tier downstream may refuse
            assert "quasi-orthonormal conditions" not in str(err)
            assert tol == 1e-11
        else:
            assert res.report["theta_residual"] <= 1e-8
