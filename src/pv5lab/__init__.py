"""Configurable-precision laboratory for a gap-deformed even Jacobi weight.

The pipeline: weight model -> tanh-sinh quadrature -> Stieltjes recurrence
-> ladder coefficients -> residual verification of the identity chain
(supplementary conditions, coefficient identities, t-derivative identities,
coupled first-order pair, Painleve V form) -> trajectory cross-checks.
"""

from .errors import (
    AlphaOutOfRange,
    DomainError,
    K2OutOfRange,
    LadderIneligible,
    NegativeT,
    NoConvergence,
    NumericalError,
    ParameterError,
    PoleError,
    PoleHit,
    PrecisionExhausted,
    Pv5LabError,
    SingularParams,
    StepUnderflow,
)
from .ladder import (
    A_integral,
    B_integral,
    LadderState,
    compute,
    point_values,
)
from .model import (
    ModelParams,
    dd_quotient,
    support,
    v_prime,
    v_second,
    validate,
    weight,
)
from .ode import (
    Trajectory,
    crosscheck,
    integrate_ivp,
    integrate_pv,
    integrate_riccati,
    pv_initial,
    riccati_initial,
)
from .orthopoly import (
    OrthoState,
    build,
    monic_values,
    orthogonality_residual,
)
from .quadrature import (
    IntegralResult,
    PrecisionContext,
    WeightTable,
    integrate,
    moment,
)
from .verify import (
    IdentityId,
    IdentityReport,
    Tier,
    check,
    check_suite,
    factor_split,
    sample_points,
    summarize,
)

__version__ = "0.1.0"
