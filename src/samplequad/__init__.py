"""Positive-weight nested quadrature rules built from sample sets.

The names below are the public API.  Other names live in their modules
and may change.
"""

from .basis import BasisSpec, domain_from_samples
from .bench import ExperimentConfig, ExperimentReport, run_convergence
from .nested import ExtensionRequest, extend_rule, nested_error_estimate
from .rule import (
    MomentVector,
    QuadratureRule,
    SampleSet,
    construct_fixed_rule,
    sample_moments,
)
from .sampling import DistributionSpec, generate, read_samples, write_samples

__version__ = "0.1.0"
