"""Explicit Lyapunov functions for reflection-symmetric parabolic PDEs on
the circle, with the characteristic-flow construction of the Lagrange
function, a separated-boundary-condition counterpart, a method-of-lines
solver and a scenario harness that verifies the decay identities by direct
simulation."""

__version__ = "0.1.0"

from .charflow import (
    CharacteristicEscape,
    CharflowConfig,
    EvolutionResult,
    IntegrationFailure,
    NonlinearityO2,
    compose_check,
    evolve,
    verify_equilibrium_first_integral,
)
from .lagrangian import (
    DOUBLE_INTEGRAL,
    GAUSS_LEGENDRE,
    REDUCED,
    LagrangianEvaluator,
    QuadratureConfig,
    effective_nonlinearity,
)
from .functional import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    FunctionalReport,
    ScalarField,
    dissipation_rate,
    evaluate_V,
    field_report,
    gradient,
)
from .pde import (
    GeneralNonlinearity,
    SolverConfig,
    TrajectoryRecord,
    integrate,
    rhs,
)
from .harness import (
    PlanarField,
    ScenarioConfig,
    embed_planar,
    fourier_project,
    run_scenario,
)
