"""Exact verification toolkit for twisted Rota-Baxter operators on Lie algebras.

Everything runs over the rationals with exact arithmetic: Chevalley-Eilenberg
cohomology, the twisted Rota-Baxter check and its Maurer-Cartan
characterization, the operator's cohomology and deformations, NS-Lie
algebras, and twisted generalized complex structures.
"""

from .exactlin import Matrix, scalar, scalar_str
from .multilin import Bilinear, Cochain, ext_basis
from .liealg import (
    LieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    ce_cohomology_dims,
    ce_differential,
    coadjoint_rep,
    deformed_bracket,
    derivation_check,
    is_two_cocycle,
    lie_algebra,
    nijenhuis_check,
    nilpotency_index,
    trivial_rep,
    validate_lie,
    validate_rep,
)
from .operators import (
    TrbSetup,
    check_trb,
    gauge_transform,
    graph_subalgebra_check,
    induced_bracket,
    induced_rep,
    nijenhuis_trb_setup,
    r_matrix_check,
    reynolds_check,
    reynolds_from_derivation,
    setup_from_invertible_cochain,
    shift_by_coboundary,
    trb_setup,
    twisted_semidirect,
    witt_report,
)
from .linfty import (
    bracket2,
    bracket3,
    cohomology_of_t_dims,
    compare_dt_ce,
    d_t,
    linfty_jacobi_defect,
    mc_defect,
    mc_defect_shifted,
    twisted_bracket2,
)
from .nslie import (
    AssocNs,
    NsLie,
    adjacent_lie,
    assoc_ns_check,
    ns_check,
    ns_from_assoc,
    ns_from_nijenhuis,
    ns_from_trb,
    trb_from_ns,
)
from .deform import (
    FormalDeformation,
    deformation_equation_defects,
    equivalence_check,
    formal_deformation,
    infinitesimal_is_cocycle,
    linear_deformation_check,
    nijenhuis_element_check,
    rigidity_probe,
)
from .tgcs import (
    GcsComponents,
    LieGcsTriple,
    complex_structure_check,
    embed_complex,
    gcs_from_invertible_rb,
    lie_tgcs_check,
    opposite,
    tgcs_check_components,
    tgcs_check_direct,
)

__version__ = "0.1.0"
