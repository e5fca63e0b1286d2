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
from .removal import Removal, RemovalProblem
from .rule import (
    MomentVector,
    QuadratureRule,
    SampleSet,
    construct_fixed_rule,
    removal_interval,
    sample_moments,
)
from .sampling import DistributionSpec, generate, read_samples, write_samples

__version__ = "0.1.0"
