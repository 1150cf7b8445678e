"""Spatiotemporal SQEIAR epidemic model with adjoint-based optimal
regional-quarantine and treatment controls."""

from .config import ConfigError, ScenarioConfig, load_config, parse_config_text
from .control import (
    ControlPair,
    SweepReport,
    cost_functional,
    cost_gradient,
    directional_derivative,
    fbsm_solve,
    project_controls,
)
from .model import (
    ContractError,
    CostWeights,
    ModelParams,
    QuarantineRegions,
    lambda_term,
    reaction_rhs,
    rho_source,
    state_jacobian,
)
from .pde import (
    Grid,
    IntegrationError,
    Trajectory,
    adjoint_solve,
    forward_solve,
    neumann_laplacian,
    sensitivity_solve,
)
from .runner import RunSummary, ScenarioResult, run_scenario, write_outputs
from .verify import (
    CheckReport,
    RunMetrics,
    extract_metrics,
    gradient_oracle,
    mass_balance_check,
    positivity_check,
    sensitivity_oracle,
)

__version__ = "0.1.0"
