"""phmor: structure-preserving interpolatory model reduction of linear
port-Hamiltonian differential-algebraic systems."""

from .linalg import (
    LinAlgContractError,
    SingularMatrixError,
    gen_eig,
    nullspace_basis,
    solve_complex,
)
from .systems import (
    GenericLTISystem,
    Index1Partition,
    Index2Partition,
    PartitionError,
    PHDAESystem,
    ValidationReport,
    as_generic,
    congruence,
    hamiltonian,
    partition_index1,
    partition_index2,
    partition_mixed,
    symmetric_skew_split,
    validate_structure,
)
from .transfer import (
    DivergentNormError,
    FrequencyGrid,
    PoleResidueForm,
    PolynomialMismatchError,
    PolynomialPart,
    eval_transfer,
    evaluate,
    h2_error,
    hinf_error,
    pole_residue,
    polynomial_part_index1,
    polynomial_part_index2,
    tangential_residuals,
)
from .reducers import (
    InterpolationData,
    ProjectionBasis,
    ReducedModel,
    build_V_generic,
    build_V_saddle,
    reduce_index1_blockdiag,
    reduce_index1_shifted,
    reduce_index2,
    reduce_index2_augmented,
    reduce_mixed,
)
from .regularization import (
    CondensedForm,
    DiagnosisReport,
    condensed_form,
    condensed_report,
    diagnose,
    output_feedback_regularize,
    remove_singular_part,
)
from .irka import (
    IRKAConfig,
    IRKAResult,
    IRKATrace,
    convergence_metric,
    irka_reduce,
    mirror_and_sanitize,
)
from .benchmarks import (
    MassSpringSpec,
    OseenSpec,
    mass_spring_chain,
    mass_spring_chain_b2,
    mass_spring_chain_sparse,
    mixed_chain,
    oseen_grid,
    oseen_grid_sparse,
    random_ph_index1,
)
from .containers import (
    load_phdae,
    load_phdae_sparse,
    load_reduced,
    save_phdae,
    save_reduced,
)
from . import benchmarks, containers

__version__ = "0.1.0"
