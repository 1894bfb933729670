"""The dynamic equations of the derivation chain, coded once.

These are the right-hand sides of the coupled first-order pair in
(R_n, r_n), the two factors of its product equation, the second-order
equation for R_n, the Painleve V form for Phi_n = (R_n + s)/s with
s = 2n + 2 alpha + 1, and the closed expression of beta_n in (R_n, r_n).
``verify`` checks them against quadrature, ``ode`` integrates them and
``cli`` evaluates them along trajectories.

Every formula is type-neutral: it holds no mpf literal and uses only
``+ - * /`` and integer powers, so it runs unchanged on mpf or on the
integrator's fixed-point numbers.  ``params`` may be a ``ModelParams`` or
any object with ``alpha`` and ``k2`` attributes of the caller's number type.

The t-stencil formulas live here too: ``stencil_step``, the step
h = 1e-6 * max(t, 1) of the 5-point stencil {t-h, t-h/2, t, t+h/2, t+h},
``central_differences``, the second-order central first and second
differences at one step, and ``pv_residual``, the Painleve V residual
PV_PHI forms from them.  The stencil checks of ``verify``,
``verify.factor_split``, ``ode.pv_initial`` and the ``ode`` command all
call them, and ``stencil_step`` alone is mpf-only.
"""

from __future__ import annotations

from mpmath import mp


def _nres(lhs, rhs):
    return abs(lhs - rhs) / (1 + max(abs(lhs), abs(rhs)))


def stencil_step(t):
    """h = 1e-6 * max(t, 1)."""
    return mp.mpf("1e-6") * max(t, mp.mpf(1))


def central_differences(lo, mid, hi, h):
    """(first, second) central difference at step h of a value sampled at
    t - h, t, t + h."""
    return (hi - lo) / (2 * h), (hi - 2 * mid + lo) / (h * h)


def s_of(n, params):
    """s = 2n + 2 alpha + 1."""
    return 2 * n + 2 * params.alpha + 1


def phi_of(R, s):
    """Phi_n = (R_n + s)/s."""
    return (R + s) / s


def ric_r_rhs(params, n, t, r, R):
    """Right side of the r-equation of the coupled pair, times 2 k2 t."""
    k2 = params.k2
    s = s_of(n, params)
    return (2 * (k2 * (n + params.alpha + 1) + t) * r
            - 2 * s * (r ** 2 - 2 * t * r) / R
            - r ** 2 - 2 * k2 * n * t)


def ric_bigr_rhs(params, n, t, r, R):
    """Right side of the R-equation of the coupled pair, times 2 k2 t."""
    k2 = params.k2
    s = s_of(n, params)
    return (2 * (k2 * (n + params.alpha + 1) + t) * R
            - 2 * r * (s + R) + k2 * R ** 2 + 2 * s * t)


def factor_pair(params, n, t, R, r, Rp):
    """Both bracketed factors of the product equation, from R_n, r_n and R_n'."""
    k2 = params.k2
    s = s_of(n, params)
    f1 = (2 * t * R + 2 * k2 * (n + params.alpha + 1) * R + k2 * R ** 2
          - 2 * r * (s + R) + 2 * t * s - 2 * k2 * t * Rp)
    f2 = (2 * s * (2 * t - r) * r
          + (2 * t * r + 2 * k2 * n * r + 2 * k2 * params.alpha * r
             - r ** 2 - 2 * k2 * n * t) * R)
    return f1, f2


def ode_rn(params, n, t, R, Rp, Rpp):
    """Left side of the second-order equation for R_n; zero on solutions."""
    k2 = params.k2
    k4 = k2 * k2
    alpha = params.alpha
    s = s_of(n, params)
    return (8 * k4 * t ** 2 * R * (s + R) * Rpp
            - 4 * k4 * t ** 2 * (2 * s + 3 * R) * Rp ** 2
            + 8 * k4 * t * R * (s + R) * Rp
            - k4 * R ** 5 - 2 * k4 * s * R ** 4
            - 4 * (k4 * (n + alpha) * (n + alpha + 1) - t ** 2 - 2 * k2 * alpha * t) * R ** 3
            + 16 * t * s * (t + k2 * alpha) * R ** 2
            + 4 * t * s ** 2 * (5 * t + 2 * k2 * alpha) * R
            + 8 * t ** 2 * s ** 3)


def pv_rhs(params, n, t, phi, phip):
    """Right-hand side of the Painleve V form for Phi_n."""
    s = s_of(n, params)
    k2 = params.k2
    gamma = s ** 2 / 8
    epsilon = -params.alpha / k2
    eta = -1 / (2 * k2 * k2)
    # delta / phi with delta = -1/8
    return ((3 * phi - 1) * phip ** 2 / (2 * phi * (phi - 1))
            - phip / t
            + (phi - 1) ** 2 / t ** 2 * (gamma * phi - 1 / (8 * phi))
            + epsilon * phi / t
            + eta * phi * (phi + 1) / (phi - 1))


def pv_residual(params, n, t, lo, mid, hi, h):
    """Painleve V residual of Phi at t from Phi at t - h, t, t + h, as PV_PHI forms it."""
    d1, d2 = central_differences(lo, mid, hi, h)
    return _nres(d2, pv_rhs(params, n, t, mid, d1))


def beta_expr(params, n, t, R, r):
    """beta_n from the closed expression in (R_n, r_n); needs k2 != 0."""
    k2 = params.k2
    s = s_of(n, params)
    return ((2 * k2 * (n + params.alpha) * r - 2 * k2 * t * n + 2 * t * r - r * r)
            / (k2 * R * (s - 2))
            - s * (r * r - 2 * t * r) / (k2 * R * R * (s - 2)))
