"""Configurable-precision laboratory for a gap-deformed even Jacobi weight.

The pipeline: weight model -> tanh-sinh quadrature -> Stieltjes recurrence
-> ladder coefficients -> residual verification of the identity chain
(supplementary conditions, coefficient identities, t-derivative identities,
coupled first-order pair, Painleve V form) -> trajectory cross-checks.

Importing the package loads none of its modules: each public name below,
and each submodule, is imported on first access (PEP 562), so a process
loads only the modules it uses.
"""

import importlib

#: every public name, by the module that defines it
_EXPORTS = {name: module for module, names in {
    "errors": ("AlphaOutOfRange", "DomainError", "K2OutOfRange", "LadderIneligible",
               "NegativeT", "NoConvergence", "NumericalError", "ParameterError", "PoleError",
               "PoleHit", "PrecisionExhausted", "Pv5LabError", "SingularParams",
               "StepUnderflow"),
    "ladder": ("A_integral", "B_integral", "LadderState", "compute", "point_values"),
    "model": ("ModelParams", "dd_quotient", "support", "v_prime", "v_second", "validate",
              "weight"),
    "ode": ("Trajectory", "crosscheck", "integrate_ivp", "integrate_pv", "integrate_riccati",
            "pv_initial", "riccati_initial"),
    "orthopoly": ("OrthoState", "build", "monic_values", "orthogonality_residual"),
    "quadrature": ("IntegralResult", "WeightTable", "integrate", "moment"),
    "report": ("summarize",),
    "verify": ("IdentityId", "IdentityReport", "Tier", "check", "check_suite", "factor_split",
               "sample_points"),
}.items() for name in names}

#: the submodules, each also an attribute of the package
_MODULES = frozenset(("cli", "equations", "errors", "fixedpoint", "ladder", "model", "ode",
                      "orthopoly", "quadrature", "report", "verify"))

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
