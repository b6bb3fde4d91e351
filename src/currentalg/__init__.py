"""Exact-arithmetic toolkit for current Lie algebras.

Structure-constant algebras over Q and Q(i); current algebras g (x) A;
Chevalley cohomology in every degree and Harrison H^2; rigidity certificates;
Pierce decompositions; deformation checks.  Everything is exact: no
floating point, no tolerances.
"""

from .algebra import (
    ASSOC_COMM,
    LIE,
    Algebra,
    AlgebraError,
    IdentityError,
    IdentityReport,
    change_basis,
    check_identities,
    complexify,
    direct_sum,
    is_derivation,
    require_identities,
)
from .catalog import (
    AS_PRINTED,
    ROTATION,
    Fingerprint,
    UnknownAlgebraError,
    abelian,
    catalog_names,
    fingerprint,
    heisenberg,
    m1,
    make,
    null_algebra,
    permutation_matrix,
    r2,
    real_rigid,
    sl2,
    t_oplus_a,
    toplus_current_permutation,
    torus_generators,
)
from .cohomology import (
    BulletProduct,
    ChevalleyCochain,
    CohomologyDims,
    DecomposableDelta,
    H1CurrentFormula,
    SymmetricCochain,
    bracket_cochain,
    chevalley_delta,
    chevalley_delta_matrix,
    chevalley_dims,
    derivation_space,
    derivations,
    h1_current_formula,
    harrison_h2,
    hochschild_delta1,
    hochschild_delta2,
    inner_derivations,
    multiplication_cochain,
)
from .current import (
    PQResidual,
    current_algebra,
    flat_index,
    is_tensor_derivation,
    jacobi_pq_residuals,
    unflat_index,
)
from .linalg import (
    Matrix,
    OperatorReport,
    SingularMatrixError,
    Subspace,
    inverse,
    kernel_basis,
    min_poly,
    operator_analysis,
    rank,
    solve,
)
from .rigidity import (
    INCONCLUSIVE,
    RIGID_BY_H2_ZERO,
    DeformationReport,
    LpqCertificate,
    RigidityCertificate,
    TruncatedDeformation,
    infinitesimal_check,
    rigid_in_Lpq,
    rigidity_certificate,
    truncated_deformation_check,
)
from .scalars import FIELDS, Q, QI, GaussianRational, ScalarError
from .structure import (
    PierceDecomposition,
    PierceSplit,
    SeriesReport,
    all_nilpotent_space,
    center,
    find_idempotents,
    find_unit,
    is_characteristically_nilpotent,
    is_idempotent,
    is_nilalgebra,
    orthogonal_decomposition,
    pierce,
    series,
    some_nonzero_idempotent,
    subspace_product,
)

__version__ = "0.1.0"
