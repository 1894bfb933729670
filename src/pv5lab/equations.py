"""The formulas of the derivation chain, coded once.

These are the coefficient identities the ladder operators give, and the
dynamic equations they close into.  The coefficient identities are the
supplementary conditions and their sums (``c_s1_b`` ... ``tele_sum``), the
product identities (``q1`` ... ``q7``, ``qp3`` ... ``qp6``), the witness
``mutex_witness``, ``zhu232`` and ``beta_closed``.  Each is one function
(c, n, t, o, q) -> (lhs, rhs) of degree n at time t; ``c`` carries ``alpha``
and ``k2``, ``o`` the sequences ``beta`` and ``p_sub``, and ``q`` the
sequences ``R``, ``r``, ``a`` and ``b``, so an ``OrthoState`` and a
``LadderState`` serve, as do namespaces of other number types.  ``verify``
normalizes each pair into the residual of the registry row of the same
name (upper case).

The dynamic equations are the right-hand sides of the coupled first-order
pair in (R_n, r_n), the two factors of its product equation, the
second-order equation for R_n, the Painleve V form for Phi_n = (R_n + s)/s
with s = 2n + 2 alpha + 1, and the closed expression of beta_n in
(R_n, r_n).  ``verify`` checks them against quadrature, ``ode`` integrates
them and ``cli`` evaluates them along trajectories.

Every formula is type-neutral: it holds no mpf literal and uses only
``+ - * /`` and integer powers, so it runs unchanged on mpf, on the
integrator's fixed-point numbers, on ``Fraction`` and on sympy symbols.  A
zero side is the int 0, and a sum over a sequence goes through one helper,
``total``, which is ``mp.fsum`` (one rounding) on mpf and ``sum`` on any
other type.  ``params`` may be a ``ModelParams`` or any object with
``alpha`` and ``k2`` attributes of the caller's number type.

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


def total(terms):
    """The sum of ``terms``: ``mp.fsum``, rounded once, on mpf, and ``sum``
    on any other number type."""
    terms = list(terms)
    return mp.fsum(terms) if terms and isinstance(terms[0], mp.mpf) else sum(terms)


# ----------------------------------------------------------------------
# coefficient identities, each (c, n, t, o, q) -> (lhs, rhs)

def c_s1_b(c, n, t, o, q):
    """b_{n+1} + b_n = a_n - 2 alpha."""
    return q.b[n + 1] + q.b[n], q.a[n] - 2 * c.alpha


def c_s1_r(c, n, t, o, q):
    """r_{n+1} + r_n = k2 R_n + 2t."""
    return q.r[n + 1] + q.r[n], c.k2 * q.R[n] + 2 * t


def c_s2_b(c, n, t, o, q):
    """b_{n+1} - b_n = beta_{n+1} a_{n+1} - beta_n a_{n-1}."""
    return q.b[n + 1] - q.b[n], o.beta[n + 1] * q.a[n + 1] - o.beta[n] * q.a[n - 1]


def c_s2_r(c, n, t, o, q):
    """r_{n+1} - r_n = beta_{n+1} R_{n+1} - beta_n R_{n-1}."""
    return q.r[n + 1] - q.r[n], o.beta[n + 1] * q.R[n + 1] - o.beta[n] * q.R[n - 1]


def c_s2_mix(c, n, t, o, q):
    """r_{n+1} - r_n + (k2 - 1)(b_{n+1} - b_n) - k2 = beta_n (s - 2) - beta_{n+1} (s + 2)."""
    k2 = c.k2
    s = s_of(n, c)
    lhs = q.r[n + 1] - q.r[n] + (k2 - 1) * (q.b[n + 1] - q.b[n]) - k2
    rhs = o.beta[n] * (s - 2) - o.beta[n + 1] * (s + 2)
    return lhs, rhs


def yj3(c, n, t, o, q):
    """b_{n+1} - b_n = beta_n (R_{n-1} + s - 2) - beta_{n+1} (R_{n+1} + s + 2)."""
    s = s_of(n, c)
    rhs = o.beta[n] * (q.R[n - 1] + s - 2) - o.beta[n + 1] * (q.R[n + 1] + s + 2)
    return q.b[n + 1] - q.b[n], rhs


def yj4(c, n, t, o, q):
    """a_n = R_n + 2n + 2 alpha + 1."""
    return q.a[n], q.R[n] + s_of(n, c)


def tele_sum(c, n, t, o, q):
    """r_n + (k2 - 1) b_n - n k2 = 2 p(n) - beta_n s."""
    k2 = c.k2
    return q.r[n] + (k2 - 1) * q.b[n] - n * k2, -o.beta[n] * s_of(n, c) + 2 * o.p_sub[n]


def q1(c, n, t, o, q):
    """b_n^2 + 2 alpha b_n = beta_n a_n a_{n-1}."""
    return q.b[n] ** 2 + 2 * c.alpha * q.b[n], o.beta[n] * q.a[n] * q.a[n - 1]


def q2(c, n, t, o, q):
    """r_n^2 - 2t r_n = k2 beta_n R_n R_{n-1}."""
    return q.r[n] ** 2 - 2 * t * q.r[n], c.k2 * o.beta[n] * q.R[n] * q.R[n - 1]


def q3(c, n, t, o, q):
    """b_n^2 - 2n (b_n + alpha) + sum_{j<n} a_j = 0."""
    return q.b[n] ** 2 - 2 * n * (q.b[n] + c.alpha) + total(q.a[j] for j in range(n)), 0


def q4(c, n, t, o, q):
    """2 b_n (r_n - t) + 2 alpha r_n = beta_n (a_n R_{n-1} + a_{n-1} R_n)."""
    lhs = 2 * q.b[n] * (q.r[n] - t) + 2 * c.alpha * q.r[n]
    return lhs, o.beta[n] * (q.a[n] * q.R[n - 1] + q.a[n - 1] * q.R[n])


def q5(c, n, t, o, q):
    """k2 (b_n - n)^2 - 2t (b_n - n) + 2 r_n (b_n - n) + k2 sum_{j<n} R_j
    = beta_n R_n R_{n-1}."""
    k2 = c.k2
    bn = q.b[n]
    lhs = (k2 * (bn - n) ** 2 - 2 * t * (bn - n) + 2 * q.r[n] * (bn - n)
           + k2 * total(q.R[j] for j in range(n)))
    return lhs, o.beta[n] * q.R[n] * q.R[n - 1]


def q6(c, n, t, o, q):
    """2 k2 (b_n - n)(b_n + alpha) + 2 b_n (r_n - t) + 2 alpha r_n
    = beta_n (a_{n-1} R_n + a_n R_{n-1})."""
    k2 = c.k2
    alpha = c.alpha
    bn = q.b[n]
    lhs = 2 * k2 * (bn - n) * (bn + alpha) + 2 * bn * (q.r[n] - t) + 2 * alpha * q.r[n]
    return lhs, o.beta[n] * (q.a[n - 1] * q.R[n] + q.a[n] * q.R[n - 1])


def q7(c, n, t, o, q):
    """r_n^2 - 2t r_n + 2 k2 (b_n - n)(r_n - t) = 2 k2 beta_n R_n R_{n-1}."""
    k2 = c.k2
    lhs = q.r[n] ** 2 - 2 * t * q.r[n] + 2 * k2 * (q.b[n] - n) * (q.r[n] - t)
    return lhs, 2 * k2 * o.beta[n] * q.R[n] * q.R[n - 1]


def qp3(c, n, t, o, q):
    """b_n^2 + 2 alpha b_n = sum_{j<n} a_j."""
    return q.b[n] ** 2 + 2 * c.alpha * q.b[n], total(q.a[j] for j in range(n))


def qp4(c, n, t, o, q):
    """2 b_n r_n + 2 alpha r_n - 2 alpha t b_n = k2 beta_n (a_n R_{n-1} + a_{n-1} R_n)."""
    alpha = c.alpha
    lhs = 2 * q.b[n] * q.r[n] + 2 * alpha * q.r[n] - 2 * alpha * t * q.b[n]
    return lhs, c.k2 * o.beta[n] * (q.a[n] * q.R[n - 1] + q.a[n - 1] * q.R[n])


def qp5(c, n, t, o, q):
    """k2 (b_n - n)^2 - 2t (b_n - n) - 2 r_n (n + alpha) + 2 alpha t b_n
    + k2 sum_{j<n} R_j = beta_n R_n R_{n-1}."""
    k2 = c.k2
    alpha = c.alpha
    bn = q.b[n]
    lhs = (k2 * (bn - n) ** 2 - 2 * t * (bn - n) - 2 * q.r[n] * (n + alpha)
           + 2 * alpha * t * bn + k2 * total(q.R[j] for j in range(n)))
    return lhs, o.beta[n] * q.R[n] * q.R[n - 1]


def qp6(c, n, t, o, q):
    """2 (b_n + alpha)(b_n - n) = beta_n (a_{n-1} R_n + a_n R_{n-1})."""
    lhs = 2 * (q.b[n] + c.alpha) * (q.b[n] - n)
    return lhs, o.beta[n] * (q.a[n - 1] * q.R[n] + q.a[n] * q.R[n - 1])


def mutex_witness(c, n, t, o, q):
    """(b_n + alpha)(b_n - n) = 0: half the sum of Q3 and QP3, each as
    lhs - rhs, so the two jointly force it to vanish."""
    return (q.b[n] + c.alpha) * (q.b[n] - n), 0


def zhu232(c, n, t, o, q):
    """r_n^2 - 2 k2 (n + alpha) r_n + 2 k2 t n - 2t r_n
    + k2 beta_n (R_n (s - 2) + R_{n-1} (s + 2)) = 0."""
    k2 = c.k2
    alpha = c.alpha
    s = s_of(n, c)
    rn = q.r[n]
    lhs = (rn ** 2 - 2 * k2 * (n + alpha) * rn + 2 * k2 * t * n - 2 * t * rn
           + o.beta[n] * k2 * q.R[n] * (s - 2)
           + o.beta[n] * k2 * q.R[n - 1] * (s + 2))
    return lhs, 0


def beta_closed(c, n, t, o, q):
    """beta_n against its closed expression ``beta_expr`` in (R_n, r_n)."""
    return o.beta[n], beta_expr(c, n, t, q.R[n], q.r[n])
