"""Lower bounds on Haraux and Fenchel-Young functions, with residual
gauges for composite monotone inclusions."""

from .core import DualPair, pairing
from .functions import (
    ScalarLegendre,
    SeparableFunction,
    boltzmann_shannon,
    burg,
    fermi_dirac,
    from_name,
    moreau_envelope,
    quadratic,
)
from .operators import (
    AffineOp,
    DiagonalOp,
    GradientOp,
    Joca16Op,
    SkewPDOp,
    SubdifferentialOp,
    UniformModulus,
    identity,
    monotonicity_probe,
    strong,
)
from .solvers import (
    ResolventProblem,
    bregman_prox,
    lambert_w,
    prox,
    solve_resolvent,
    warped_resolvent,
)
from .bounds import (
    BoundResult,
    bound_bregman,
    bound_carlier_fy,
    bound_carlier_haraux,
    bound_legendre_self,
    bound_modulus,
    bound_pairing,
    exact_fenchel_young,
    fy_bound_dispatch,
)
from .oracle import GraphSample, haraux_lower_approx, sample_graph, verify_bound
from .gauges import (
    InclusionInstance,
    KTInstance,
    fr_gauge_bound,
    kt_gauge_bound,
    linear_quadratic_kt_instance,
    theta_bound,
)

__version__ = "0.1.0"
