"""Finite-dimensional computational framework for factoring unital
homomorphisms between adjointable-operator algebras of Hilbert modules
through a correspondence, with cross-verified constructions."""

from .numkernel import (
    DEFAULT_TOL,
    OperatorSpace,
    hs_orthonormalize,
    solve_intertwiners,
    psd_sqrt_pinv,
    subspace_equal,
)
from .cstar import (
    FiniteCStarAlgebra,
    build_algebra,
    commutant,
    center,
    block_decomposition,
    star_isomorphic,
)
from .hilbmod import (
    Correspondence,
    HilbertModule,
    Homomorphism,
    QuasiONS,
    adjointable_algebra,
    build_module,
    commutant_bimodule,
    commutant_lifting,
    dual_module,
    dual_qons_family,
    finite_rank_algebra,
    fullification,
    inner_product,
    is_full,
    module_from_representation,
    quasi_orthonormal_system,
    verify_unit_vector,
)
from .tensorcalc import (
    ModuleUnitary,
    TensorProduct,
    flip_unitary,
    interior_tensor,
    unit_identities,
)
from .factorizations import (
    FactorizationResult,
    compare,
    factor_commutant,
    factor_dual,
    factor_qons,
    factor_unit_vector,
    hilbert_space_compression,
    hilbert_space_intertwiners,
    induced_homomorphism,
    is_morita_equivalence,
)
from .prodsys import (
    ProductSystem,
    composition_contravariance,
    discrete_product_system,
    verify_associativity,
)
from .harness import (
    GenSpec,
    Instance,
    VerificationReport,
    generate_random_instance,
    golden_instance,
    parse_instance,
    run_verification,
    save_instance,
)

__version__ = "0.1.0"
