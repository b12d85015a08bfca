"""Sparse linear regression toolkit: Lasso path computation and aggregation
of the supports appearing along it."""

__version__ = "0.1.0"

from .design import DesignMatrix, Support, project
from .errors import DegenerateVarianceError, InvalidInputError
from .weights import log_inv_weight, total_mass, verify_weight_bounds, weight_table
from .solvers import LassoFit, SqrtLassoFit, lasso_cd, sqrt_lasso, sqrt_lasso_universal_lambda
from .path import LassoPath, SupportFamily, compute_path, path_support_family
from .aggregation import (CritResult, PrecomputedFits, QAggResult, SimplexWeights,
                          crit_select, crit_value, precompute, q_aggregate)
from .pipelines import (PipelineReport, aggregate, aggregate_estimators, geometric_grid,
                        path_aggregate, sqrt_lasso_pipeline)
from .simulation import (OracleCheck, SimInstance, TrialConfig, generate_instance, monte_carlo,
                         oracle_bound, run_oracle_trial)
