"""Positive-weight nested quadrature rules built from sample sets."""

from .basis import (
    BasisSpec,
    MultiIndex,
    basis_matrix,
    dimension_for_degree,
    domain_from_samples,
    evaluate_basis,
    generate_indices,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    GenzFunction,
    draw_genz_params,
    genz_eval,
    genz_eval_many,
    run_convergence,
)
from .linalg import (
    ExtensionFactorization,
    build_vandermonde,
    null_space,
    null_vector,
)
from .nested import (
    ExtensionRequest,
    extend_rule,
    initialize_extension,
    nested_error_estimate,
)
from .removal import (
    Removal,
    RemovalProblem,
    enumerate_removals,
    find_initial_removal,
    neighbor,
)
from .rule import (
    MomentVector,
    QuadratureRule,
    SampleSet,
    add_sample,
    construct_fixed_rule,
    remove_one,
    removal_interval,
    sample_moments,
    select_alpha,
    solve_interpolatory_weights,
)
from .sampling import DistributionSpec, generate, read_samples, write_samples

__version__ = "0.1.0"
