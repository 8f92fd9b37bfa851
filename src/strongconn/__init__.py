"""Exact construction and verification of strong connection forms for
entwined coalgebra extensions at finite dimension.

The layers, bottom up: exact scalars over Q or a number field
(`scalars`), linear maps between labeled tensor spaces with
deterministic echelon solvers (`linmaps`), structure-constant algebras
and coalgebras (`structures`), entwined extensions (`extensions`), the
cointegral-driven strong connection machinery (`connection`), quantum
homogeneous spaces (`homogeneous`), a library of desk-scale instances
(`instances`), and a JSON pipeline front end (`fileformat`, `pipeline`,
`cli`).
"""

from .scalars import Field, Scalar, parse_scalar
from .linmaps import (
    Infeasible,
    LinMap,
    Solution,
    SpaceLabel,
    Subspace,
    basis_vector,
    flip_map,
    kernel_basis,
    map_kron,
    rref_solve,
    vector,
)
from .report import Check, VerificationReport, check_conditions
from .structures import (
    HopfAlgebra,
    StructureAlgebra,
    StructureCoalgebra,
    check_grouplike,
    validate_algebra,
    validate_coalgebra,
    validate_hopf,
)
from .extensions import (
    Coaction,
    Entwining,
    EntwinedExtension,
    coinvariants,
    galois_check,
    hopf_entwining,
    induced_left_coaction,
    key_identity_check,
    lifted_canonical,
    ll_laws,
    make_extension,
    rr_laws,
)
from .connection import (
    BruteForceSolutions,
    Cointegral,
    ConnectionForm,
    Integral,
    SectionMap,
    alpha_map,
    brute_force_connections,
    build_connection,
    cointegral_to_integral,
    colinearity_reduction,
    gamma_map,
    integral_to_cointegral,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_integral,
    solve_section,
    splitting,
    verify_connection,
)
from .homogeneous import (
    HomogeneousDatum,
    bicolinear_section_iota,
    extension_from_homogeneous,
    induced_coactions,
    quotient_coalgebra,
)
from .instances import (
    build_graded_extension,
    build_group_self_extension,
    build_homogeneous_z4_z2,
    build_trivial,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
    truncated_polynomial_algebra,
    trivial_coalgebra,
)
from .fileformat import InstanceFile, parse_instance, write_instance
from .pipeline import PipelineReport, emit_report, run_pipeline

__version__ = "0.1.0"
