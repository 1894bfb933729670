"""Registry of every identity in the derivation chain as a residual check.

Tier policy: identities that follow from general ladder-operator theory for
any smooth endpoint-vanishing weight are REQUIRED and must pass at stated
tolerances; every step justified only through a k->0 limit or through
coefficient comparison in an overcomplete rational basis is DIAGNOSTIC -
its residual is recorded, never asserted pointwise.  The only diagnostic
assertions are trends toward the k2 -> 0 limit, and those live in the
acceptance suite.

Residual normalization: |LHS - RHS| / (1 + max(|LHS|, |RHS|)) unless a
check documents its own scale (functional ladder relations use the largest
participating term; the recurrence-route checks are relative to beta).

t-derivatives use the 5-point stencil {t-h, t-h/2, t, t+h/2, t+h} with
h = 1e-6 * max(t, 1): second-order central first/second differences are
formed at both steps h and h/2, and every derivative check reports the
step-halving residual ratio (expected ~4 for clean O(h^2) behavior).
"""

from __future__ import annotations

import dataclasses
import enum
import random
from dataclasses import dataclass

from mpmath import mp

from . import ladder as ladder_mod
from . import orthopoly
from .equations import beta_expr, pv_rhs
from .equations import ric_bigr_rhs as _ric_bigr_rhs
from .equations import ric_r_rhs as _ric_r_rhs
from .equations import s_of as _s_of
from .errors import ParameterError, SingularParams
from .model import ModelParams, gap_edge, v_prime
from .quadrature import PrecisionContext


class Tier(enum.Enum):
    REQUIRED = "required"
    DIAGNOSTIC = "diagnostic"


class IdentityId(enum.Enum):
    # functional ladder relations at sampled z (general theory)
    S1_FUNC = "S1_FUNC"
    S2_FUNC = "S2_FUNC"
    S2P_FUNC = "S2P_FUNC"
    LOWER_FUNC = "LOWER_FUNC"
    RAISE_FUNC = "RAISE_FUNC"
    A_FORM = "A_FORM"
    B_FORM = "B_FORM"
    # recurrence bookkeeping (exact by construction, guards index slips)
    BETA_ROUTES = "BETA_ROUTES"
    TELE_BETA = "TELE_BETA"
    # t-derivative identities (general theory, finite-difference tolerance)
    DLNH = "DLNH"
    DBETA = "DBETA"
    DP = "DP"
    # coefficient identities from the supplementary conditions
    C_S1_B = "C_S1_B"
    C_S1_R = "C_S1_R"
    C_S2_B = "C_S2_B"
    C_S2_R = "C_S2_R"
    C_S2_MIX = "C_S2_MIX"
    YJ3 = "YJ3"
    YJ4 = "YJ4"
    TELE_SUM = "TELE_SUM"
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"
    Q5 = "Q5"
    Q6 = "Q6"
    Q7 = "Q7"
    QP1 = "QP1"
    QP2 = "QP2"
    QP3 = "QP3"
    QP4 = "QP4"
    QP5 = "QP5"
    QP6 = "QP6"
    QP7 = "QP7"
    MUTEX_WITNESS = "MUTEX_WITNESS"
    ZHU232 = "ZHU232"
    BETA_EXPR = "BETA_EXPR"
    # dynamics in t
    RIC_R = "RIC_R"
    RIC_BIGR = "RIC_BIGR"
    FACTOR_PROD = "FACTOR_PROD"
    ODE_RN = "ODE_RN"
    PV_PHI = "PV_PHI"


@dataclass
class IdentityReport:
    """One measured residual (or an explicit skip/error)."""

    id: IdentityId
    tier: Tier
    n: int
    t: object
    z: object = None
    lhs_scale: object = None
    residual: object = None
    passed: object = None  # bool for REQUIRED, None for DIAGNOSTIC
    status: str = "ok"  # ok | skipped | error
    message: str = ""
    halving_ratio: object = None


def _nres(lhs, rhs):
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / (1 + scale), scale


def stencil_step(t):
    """h = 1e-6 * max(t, 1)."""
    return mp.mpf("1e-6") * max(t, mp.mpf(1))


def sample_points(params: ModelParams, count: int = 20, seed: int = 0, margin=0.05):
    """Deterministic z samples in (-0.95, 0.95), kept ``margin`` away from
    every pole of v'; ascending order."""
    rng = random.Random(seed)
    with mp.workprec(params.work_bits):
        margin = mp.mpf(margin)
        rk = gap_edge(params) if params.k2 > 0 else None
        out = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 10000 * count:
                raise ParameterError("could not place z samples away from the poles")
            zv = mp.mpf(rng.uniform(-0.95, 0.95))
            if rk is not None and abs(abs(zv) - rk) < margin:
                continue
            if params.k2 == 0 and params.t > 0 and abs(zv) < margin:
                continue
            out.append(zv)
        return tuple(sorted(out))


# ----------------------------------------------------------------------
# shared state cache

class Evaluator:
    """Builds and caches (ortho, ladder) states and stencil states per t."""

    def __init__(self, params: ModelParams, ctx: PrecisionContext):
        self.params = params
        self.ctx = ctx
        self._states = {}
        self._stencils = {}
        self._aint = {}
        self._bint = {}

    def _at(self, t):
        key = t
        if key not in self._states:
            p = dataclasses.replace(self.params, t=t)
            ortho = orthopoly.build(p, self.ctx)
            lad = ladder_mod.compute(ortho, self.ctx)
            self._states[key] = (ortho, lad)
        return self._states[key]

    def states(self, t):
        with mp.workprec(self.params.work_bits):
            return self._at(mp.mpf(t))

    def stencil(self, t):
        """States at t + o*h/2 for o in (-2, -1, 0, 1, 2)."""
        with mp.workprec(self.params.work_bits):
            t = mp.mpf(t)
            if t not in self._stencils:
                h2 = stencil_step(t) / 2
                self._stencils[t] = {o: self._at(t + o * h2) for o in (-2, -1, 0, 1, 2)}
            return self._stencils[t]

    def a_int(self, t, n, z):
        key = (t, n, z)
        if key not in self._aint:
            ortho, _ = self.states(t)
            self._aint[key] = ladder_mod.A_integral(n, z, ortho, self.ctx)
        return self._aint[key]

    def b_int(self, t, n, z):
        key = (t, n, z)
        if key not in self._bint:
            ortho, _ = self.states(t)
            self._bint[key] = ladder_mod.B_integral(n, z, ortho, self.ctx)
        return self._bint[key]

    # -- derivative helpers -------------------------------------------
    def fd1(self, vals, h):
        """(first derivative at step h, at step h/2)."""
        return ((vals[2] - vals[-2]) / (2 * h), (vals[1] - vals[-1]) / h)

    def fd2(self, vals, h):
        d_h = (vals[2] - 2 * vals[0] + vals[-2]) / (h * h)
        d_h2 = 4 * (vals[1] - 2 * vals[0] + vals[-1]) / (h * h)
        return d_h, d_h2


def _dual_residual(pair_h, pair_h2):
    """Residuals at steps h and h/2 plus their ratio."""
    res_h, scale = _nres(*pair_h)
    res_h2, _ = _nres(*pair_h2)
    ratio = res_h / res_h2 if res_h2 > 0 else None
    return res_h, scale, ratio


# ----------------------------------------------------------------------
# individual check bodies; each returns (residual, lhs_scale[, ratio])

def _chk_s1(ev, n, t, z):
    ortho, _ = ev.states(t)
    lhs = ev.b_int(t, n + 1, z) + ev.b_int(t, n, z)
    rhs = z * ev.a_int(t, n, z) - v_prime(z, ortho.params)
    return _nres(lhs, rhs)


def _chk_s2(ev, n, t, z):
    ortho, _ = ev.states(t)
    lhs = 1 + z * (ev.b_int(t, n + 1, z) - ev.b_int(t, n, z))
    rhs = (ortho.beta[n + 1] * ev.a_int(t, n + 1, z)
           - ortho.beta[n] * ev.a_int(t, n - 1, z))
    return _nres(lhs, rhs)


def _chk_s2p(ev, n, t, z):
    ortho, _ = ev.states(t)
    bn = ev.b_int(t, n, z)
    lhs = bn * bn + v_prime(z, ortho.params) * bn + mp.fsum(
        ev.a_int(t, j, z) for j in range(n))
    rhs = ortho.beta[n] * ev.a_int(t, n, z) * ev.a_int(t, n - 1, z)
    return _nres(lhs, rhs)


def _chk_lower(ev, n, t, z):
    ortho, lad = ev.states(t)
    res = ladder_mod.lowering_residual(n, z, ortho, lad)
    return res, mp.mpf(1)


def _chk_raise(ev, n, t, z):
    ortho, lad = ev.states(t)
    res = ladder_mod.raising_residual(n, z, ortho, lad)
    return res, mp.mpf(1)


def _chk_a_form(ev, n, t, z):
    ortho, lad = ev.states(t)
    ar = ladder_mod.A_rational(n, z, ortho, lad)
    ai = ev.a_int(t, n, z)
    return abs(ar - ai) / (1 + abs(ar)), abs(ar)


def _chk_b_form(ev, n, t, z):
    ortho, lad = ev.states(t)
    br = ladder_mod.B_rational(n, z, ortho, lad)
    bi = ev.b_int(t, n, z)
    return abs(br - bi) / (1 + abs(br)), abs(br)


def _chk_beta_routes(ev, n, t, z):
    ortho, _ = ev.states(t)
    beta_n = ortho.beta[n]
    diff = ortho.p_sub[n] - ortho.p_sub[n + 1]
    return abs(beta_n - diff) / beta_n, beta_n


def _chk_tele_beta(ev, n, t, z):
    ortho, _ = ev.states(t)
    total = mp.fsum(ortho.beta[j] for j in range(n))
    return abs(total + ortho.p_sub[n]) / total if total > 0 else abs(ortho.p_sub[n]), total


def _chk_dlnh(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    lnh = {o: mp.log(st[o][0].h[n]) for o in st}
    d_h, d_h2 = ev.fd1(lnh, h)
    rhs = -st[0][1].R[n]
    return _dual_residual((2 * t * d_h, rhs), (2 * t * d_h2, rhs))


def _chk_dbeta(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    betas = {o: st[o][0].beta[n] for o in st}
    d_h, d_h2 = ev.fd1(betas, h)
    lad = st[0][1]
    rhs = betas[0] * (lad.R[n - 1] - lad.R[n])
    return _dual_residual((2 * t * d_h, rhs), (2 * t * d_h2, rhs))


def _chk_dp(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    ps = {o: st[o][0].p_sub[n] for o in st}
    d_h, d_h2 = ev.fd1(ps, h)
    lad = st[0][1]
    rhs = lad.r[n] - st[0][0].beta[n] * lad.R[n]
    return _dual_residual((2 * t * d_h, rhs), (2 * t * d_h2, rhs))


def _chk_c_s1_b(ev, n, t, z):
    _, lad = ev.states(t)
    return _nres(lad.b[n + 1] + lad.b[n], lad.a[n] - 2 * ev.params.alpha)


def _chk_c_s1_r(ev, n, t, z):
    _, lad = ev.states(t)
    return _nres(lad.r[n + 1] + lad.r[n], ev.params.k2 * lad.R[n] + 2 * t)


def _chk_c_s2_b(ev, n, t, z):
    ortho, lad = ev.states(t)
    return _nres(lad.b[n + 1] - lad.b[n],
                 ortho.beta[n + 1] * lad.a[n + 1] - ortho.beta[n] * lad.a[n - 1])


def _chk_c_s2_r(ev, n, t, z):
    ortho, lad = ev.states(t)
    return _nres(lad.r[n + 1] - lad.r[n],
                 ortho.beta[n + 1] * lad.R[n + 1] - ortho.beta[n] * lad.R[n - 1])


def _chk_c_s2_mix(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    s = _s_of(n, ev.params)
    lhs = lad.r[n + 1] - lad.r[n] + (k2 - 1) * (lad.b[n + 1] - lad.b[n]) - k2
    rhs = ortho.beta[n] * (s - 2) - ortho.beta[n + 1] * (s + 2)
    return _nres(lhs, rhs)


def _chk_yj3(ev, n, t, z):
    ortho, lad = ev.states(t)
    s = _s_of(n, ev.params)
    lhs = lad.b[n + 1] - lad.b[n]
    rhs = (ortho.beta[n] * (lad.R[n - 1] + s - 2)
           - ortho.beta[n + 1] * (lad.R[n + 1] + s + 2))
    return _nres(lhs, rhs)


def _chk_yj4(ev, n, t, z):
    _, lad = ev.states(t)
    return _nres(lad.a[n], lad.R[n] + _s_of(n, ev.params))


def _chk_tele_sum(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    lhs = lad.r[n] + (k2 - 1) * lad.b[n] - n * k2
    rhs = -ortho.beta[n] * _s_of(n, ev.params) + 2 * ortho.p_sub[n]
    return _nres(lhs, rhs)


def _chk_q1(ev, n, t, z):
    ortho, lad = ev.states(t)
    return _nres(lad.b[n] ** 2 + 2 * ev.params.alpha * lad.b[n],
                 ortho.beta[n] * lad.a[n] * lad.a[n - 1])


def _chk_q2(ev, n, t, z):
    ortho, lad = ev.states(t)
    return _nres(lad.r[n] ** 2 - 2 * t * lad.r[n],
                 ev.params.k2 * ortho.beta[n] * lad.R[n] * lad.R[n - 1])


def _chk_q3(ev, n, t, z):
    _, lad = ev.states(t)
    lhs = (lad.b[n] ** 2 - 2 * n * (lad.b[n] + ev.params.alpha)
           + mp.fsum(lad.a[j] for j in range(n)))
    return _nres(lhs, mp.mpf(0))


def _chk_q4(ev, n, t, z):
    ortho, lad = ev.states(t)
    lhs = 2 * lad.b[n] * (lad.r[n] - t) + 2 * ev.params.alpha * lad.r[n]
    rhs = ortho.beta[n] * (lad.a[n] * lad.R[n - 1] + lad.a[n - 1] * lad.R[n])
    return _nres(lhs, rhs)


def _chk_q5(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    bn = lad.b[n]
    lhs = (k2 * (bn - n) ** 2 - 2 * t * (bn - n) + 2 * lad.r[n] * (bn - n)
           + k2 * mp.fsum(lad.R[j] for j in range(n)))
    rhs = ortho.beta[n] * lad.R[n] * lad.R[n - 1]
    return _nres(lhs, rhs)


def _chk_q6(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    alpha = ev.params.alpha
    bn = lad.b[n]
    lhs = (2 * k2 * (bn - n) * (bn + alpha)
           + 2 * bn * (lad.r[n] - t) + 2 * alpha * lad.r[n])
    rhs = ortho.beta[n] * (lad.a[n - 1] * lad.R[n] + lad.a[n] * lad.R[n - 1])
    return _nres(lhs, rhs)


def _chk_q7(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    lhs = (lad.r[n] ** 2 - 2 * t * lad.r[n]
           + 2 * k2 * (lad.b[n] - n) * (lad.r[n] - t))
    rhs = 2 * k2 * ortho.beta[n] * lad.R[n] * lad.R[n - 1]
    return _nres(lhs, rhs)


def _chk_qp3(ev, n, t, z):
    _, lad = ev.states(t)
    lhs = lad.b[n] ** 2 + 2 * ev.params.alpha * lad.b[n]
    return _nres(lhs, mp.fsum(lad.a[j] for j in range(n)))


def _chk_qp4(ev, n, t, z):
    ortho, lad = ev.states(t)
    alpha = ev.params.alpha
    lhs = 2 * lad.b[n] * lad.r[n] + 2 * alpha * lad.r[n] - 2 * alpha * t * lad.b[n]
    rhs = ev.params.k2 * ortho.beta[n] * (
        lad.a[n] * lad.R[n - 1] + lad.a[n - 1] * lad.R[n])
    return _nres(lhs, rhs)


def _chk_qp5(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    alpha = ev.params.alpha
    bn = lad.b[n]
    lhs = (k2 * (bn - n) ** 2 - 2 * t * (bn - n) - 2 * lad.r[n] * (n + alpha)
           + 2 * alpha * t * bn + k2 * mp.fsum(lad.R[j] for j in range(n)))
    rhs = ortho.beta[n] * lad.R[n] * lad.R[n - 1]
    return _nres(lhs, rhs)


def _chk_qp6(ev, n, t, z):
    ortho, lad = ev.states(t)
    alpha = ev.params.alpha
    lhs = 2 * (lad.b[n] + alpha) * (lad.b[n] - n)
    rhs = ortho.beta[n] * (lad.a[n - 1] * lad.R[n] + lad.a[n] * lad.R[n - 1])
    return _nres(lhs, rhs)


def _chk_mutex(ev, n, t, z):
    # Q3 and QP3 jointly force this product to vanish; measured, not asserted
    _, lad = ev.states(t)
    val = (lad.b[n] + ev.params.alpha) * (lad.b[n] - n)
    return _nres(val, mp.mpf(0))


def _chk_zhu232(ev, n, t, z):
    ortho, lad = ev.states(t)
    k2 = ev.params.k2
    alpha = ev.params.alpha
    s = _s_of(n, ev.params)
    rn = lad.r[n]
    lhs = (rn ** 2 - 2 * k2 * (n + alpha) * rn + 2 * k2 * t * n - 2 * t * rn
           + ortho.beta[n] * k2 * lad.R[n] * (s - 2)
           + ortho.beta[n] * k2 * lad.R[n - 1] * (s + 2))
    return _nres(lhs, mp.mpf(0))


def _chk_beta_expr(ev, n, t, z):
    ortho, lad = ev.states(t)
    return _nres(ortho.beta[n], beta_expr(ev.params, n, t, lad.R[n], lad.r[n]))


def _chk_ric_r(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    rvals = {o: st[o][1].r[n] for o in st}
    d_h, d_h2 = ev.fd1(rvals, h)
    lad = st[0][1]
    rhs = _ric_r_rhs(ev.params, n, t, lad.r[n], lad.R[n])
    k2t2 = 2 * ev.params.k2 * t
    return _dual_residual((k2t2 * d_h, rhs), (k2t2 * d_h2, rhs))


def _chk_ric_bigr(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    Rvals = {o: st[o][1].R[n] for o in st}
    d_h, d_h2 = ev.fd1(Rvals, h)
    lad = st[0][1]
    rhs = _ric_bigr_rhs(ev.params, n, t, lad.r[n], lad.R[n])
    k2t2 = 2 * ev.params.k2 * t
    return _dual_residual((k2t2 * d_h, rhs), (k2t2 * d_h2, rhs))


def _factor_values(ev, n, t):
    """Both bracketed factors of the product equation, at step h."""
    st = ev.stencil(t)
    h = stencil_step(t)
    Rvals = {o: st[o][1].R[n] for o in st}
    d_h, _ = ev.fd1(Rvals, h)
    lad = st[0][1]
    params = ev.params
    k2 = params.k2
    s = _s_of(n, params)
    R = lad.R[n]
    r = lad.r[n]
    f1 = (2 * t * R + 2 * k2 * (n + params.alpha + 1) * R + k2 * R ** 2
          - 2 * r * (s + R) + 2 * t * s - 2 * k2 * t * d_h)
    f2 = (2 * s * (2 * t - r) * r
          + (2 * t * r + 2 * k2 * n * r + 2 * k2 * params.alpha * r
             - r ** 2 - 2 * k2 * n * t) * R)
    return f1, f2


def _chk_factor_prod(ev, n, t, z):
    f1, f2 = _factor_values(ev, n, t)
    return _nres(f1 * f2, mp.mpf(0))


def _ode_rn_value(params, n, t, R, Rp, Rpp):
    k2 = params.k2
    k4 = k2 * k2
    alpha = params.alpha
    s = _s_of(n, params)
    return (8 * k4 * t ** 2 * R * (s + R) * Rpp
            - 4 * k4 * t ** 2 * (2 * s + 3 * R) * Rp ** 2
            + 8 * k4 * t * R * (s + R) * Rp
            - k4 * R ** 5 - 2 * k4 * s * R ** 4
            - 4 * (k4 * (n + alpha) * (n + alpha + 1) - t ** 2 - 2 * k2 * alpha * t) * R ** 3
            + 16 * t * s * (t + k2 * alpha) * R ** 2
            + 4 * t * s ** 2 * (5 * t + 2 * k2 * alpha) * R
            + 8 * t ** 2 * s ** 3)


def _chk_ode_rn(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    Rvals = {o: st[o][1].R[n] for o in st}
    d1_h, d1_h2 = ev.fd1(Rvals, h)
    d2_h, d2_h2 = ev.fd2(Rvals, h)
    R = Rvals[0]
    v_h = _ode_rn_value(ev.params, n, t, R, d1_h, d2_h)
    v_h2 = _ode_rn_value(ev.params, n, t, R, d1_h2, d2_h2)
    return _dual_residual((v_h, mp.mpf(0)), (v_h2, mp.mpf(0)))


def _chk_pv_phi(ev, n, t, z):
    st = ev.stencil(t)
    h = stencil_step(t)
    s = _s_of(n, ev.params)
    phis = {o: (st[o][1].R[n] + s) / s for o in st}
    d1_h, d1_h2 = ev.fd1(phis, h)
    d2_h, d2_h2 = ev.fd2(phis, h)
    rhs_h = pv_rhs(ev.params, n, t, phis[0], d1_h)
    rhs_h2 = pv_rhs(ev.params, n, t, phis[0], d1_h2)
    return _dual_residual((d2_h, rhs_h), (d2_h2, rhs_h2))


# ----------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class CheckDef:
    tier: Tier
    fn: object
    needs_z: bool = False
    stencil: bool = False
    min_n: int = 0
    shift: int = 0  # largest index above n referenced (n+1 -> 1)
    needs_k2: bool = False
    required_tol: float = None
    ratio_band: tuple = None


_BAND = (3.0, 5.0)

REGISTRY = {
    IdentityId.S1_FUNC: CheckDef(Tier.REQUIRED, _chk_s1, needs_z=True, shift=1,
                                 required_tol=1e-15),
    IdentityId.S2_FUNC: CheckDef(Tier.REQUIRED, _chk_s2, needs_z=True, min_n=1,
                                 shift=1, required_tol=1e-15),
    IdentityId.S2P_FUNC: CheckDef(Tier.REQUIRED, _chk_s2p, needs_z=True, min_n=1,
                                  required_tol=1e-15),
    IdentityId.LOWER_FUNC: CheckDef(Tier.REQUIRED, _chk_lower, needs_z=True,
                                    min_n=1, required_tol=1e-20),
    IdentityId.RAISE_FUNC: CheckDef(Tier.REQUIRED, _chk_raise, needs_z=True,
                                    min_n=1, required_tol=1e-20),
    IdentityId.A_FORM: CheckDef(Tier.REQUIRED, _chk_a_form, needs_z=True,
                                required_tol=1e-20),
    IdentityId.B_FORM: CheckDef(Tier.REQUIRED, _chk_b_form, needs_z=True,
                                min_n=1, required_tol=1e-20),
    IdentityId.BETA_ROUTES: CheckDef(Tier.REQUIRED, _chk_beta_routes, min_n=1,
                                     required_tol=None),  # 10 * rel_tol at run time
    IdentityId.TELE_BETA: CheckDef(Tier.REQUIRED, _chk_tele_beta, min_n=1,
                                   required_tol=None),
    IdentityId.DLNH: CheckDef(Tier.REQUIRED, _chk_dlnh, stencil=True,
                              required_tol=1e-10, ratio_band=_BAND),
    IdentityId.DBETA: CheckDef(Tier.REQUIRED, _chk_dbeta, stencil=True, min_n=1,
                               required_tol=1e-10, ratio_band=_BAND),
    # p(n) is identically 0 below n = 2, so the t-derivative statement
    # carries content only from n = 2 on
    IdentityId.DP: CheckDef(Tier.REQUIRED, _chk_dp, stencil=True, min_n=2,
                            required_tol=1e-10, ratio_band=_BAND),
    IdentityId.C_S1_B: CheckDef(Tier.DIAGNOSTIC, _chk_c_s1_b, shift=1),
    IdentityId.C_S1_R: CheckDef(Tier.DIAGNOSTIC, _chk_c_s1_r, shift=1),
    IdentityId.C_S2_B: CheckDef(Tier.DIAGNOSTIC, _chk_c_s2_b, min_n=1, shift=1),
    IdentityId.C_S2_R: CheckDef(Tier.DIAGNOSTIC, _chk_c_s2_r, min_n=1, shift=1),
    IdentityId.C_S2_MIX: CheckDef(Tier.DIAGNOSTIC, _chk_c_s2_mix, min_n=1, shift=1),
    IdentityId.YJ3: CheckDef(Tier.DIAGNOSTIC, _chk_yj3, min_n=1, shift=1),
    IdentityId.YJ4: CheckDef(Tier.DIAGNOSTIC, _chk_yj4),
    IdentityId.TELE_SUM: CheckDef(Tier.DIAGNOSTIC, _chk_tele_sum, min_n=1),
    IdentityId.Q1: CheckDef(Tier.DIAGNOSTIC, _chk_q1, min_n=1),
    IdentityId.Q2: CheckDef(Tier.DIAGNOSTIC, _chk_q2, min_n=1, needs_k2=True),
    IdentityId.Q3: CheckDef(Tier.DIAGNOSTIC, _chk_q3, min_n=1),
    IdentityId.Q4: CheckDef(Tier.DIAGNOSTIC, _chk_q4, min_n=1),
    IdentityId.Q5: CheckDef(Tier.DIAGNOSTIC, _chk_q5, min_n=1),
    IdentityId.Q6: CheckDef(Tier.DIAGNOSTIC, _chk_q6, min_n=1),
    IdentityId.Q7: CheckDef(Tier.DIAGNOSTIC, _chk_q7, min_n=1),
    IdentityId.QP1: CheckDef(Tier.DIAGNOSTIC, _chk_q1, min_n=1),
    IdentityId.QP2: CheckDef(Tier.DIAGNOSTIC, _chk_q2, min_n=1, needs_k2=True),
    IdentityId.QP3: CheckDef(Tier.DIAGNOSTIC, _chk_qp3, min_n=1),
    IdentityId.QP4: CheckDef(Tier.DIAGNOSTIC, _chk_qp4, min_n=1),
    IdentityId.QP5: CheckDef(Tier.DIAGNOSTIC, _chk_qp5, min_n=1),
    IdentityId.QP6: CheckDef(Tier.DIAGNOSTIC, _chk_qp6, min_n=1),
    IdentityId.QP7: CheckDef(Tier.DIAGNOSTIC, _chk_q7, min_n=1),
    IdentityId.MUTEX_WITNESS: CheckDef(Tier.DIAGNOSTIC, _chk_mutex, min_n=1),
    IdentityId.ZHU232: CheckDef(Tier.DIAGNOSTIC, _chk_zhu232, min_n=1),
    IdentityId.BETA_EXPR: CheckDef(Tier.DIAGNOSTIC, _chk_beta_expr, min_n=1,
                                   needs_k2=True),
    IdentityId.RIC_R: CheckDef(Tier.DIAGNOSTIC, _chk_ric_r, min_n=1, stencil=True,
                               needs_k2=True),
    IdentityId.RIC_BIGR: CheckDef(Tier.DIAGNOSTIC, _chk_ric_bigr, min_n=1,
                                  stencil=True, needs_k2=True),
    IdentityId.FACTOR_PROD: CheckDef(Tier.DIAGNOSTIC, _chk_factor_prod, min_n=1,
                                     stencil=True, needs_k2=True),
    IdentityId.ODE_RN: CheckDef(Tier.DIAGNOSTIC, _chk_ode_rn, min_n=1,
                                stencil=True, needs_k2=True),
    IdentityId.PV_PHI: CheckDef(Tier.DIAGNOSTIC, _chk_pv_phi, min_n=1,
                                stencil=True, needs_k2=True),
}

#: ids that cannot run at k2 = 0 (carry 1/k2 factors or degenerate bases)
REQUIRES_NONZERO_K2 = tuple(i for i, d in REGISTRY.items() if d.needs_k2)


def _required_tol(identity: IdentityId, ctx: PrecisionContext):
    d = REGISTRY[identity]
    if d.required_tol is not None:
        return mp.mpf(d.required_tol)
    return 10 * mp.mpf(ctx.rel_tol)  # the recurrence bookkeeping checks


def _run_one(ev: Evaluator, identity: IdentityId, n: int, t, z):
    d = REGISTRY[identity]
    params = ev.params
    out = d.fn(ev, n, t, z)
    ratio = None
    if len(out) == 3:
        residual, scale, ratio = out
    else:
        residual, scale = out
    passed = None
    if d.tier is Tier.REQUIRED:
        tol = _required_tol(identity, ev.ctx)
        passed = bool(residual <= tol)
        if d.ratio_band is not None and ratio is not None:
            passed = passed and (d.ratio_band[0] <= ratio <= d.ratio_band[1])
    return IdentityReport(
        id=identity, tier=d.tier, n=n, t=t, z=z,
        lhs_scale=scale, residual=residual, passed=passed,
        halving_ratio=ratio)


def check(identity: IdentityId, params: ModelParams, ctx: PrecisionContext,
          n: int, t, z=None) -> IdentityReport:
    """Evaluate one identity at (n, t[, z]).

    Raises IndexError when n is outside the identity's index range,
    SingularParams for the 1/k2 family at k2 = 0, ParameterError for a
    missing/meaningless z or an unusable t.
    """
    d = REGISTRY[identity]
    with mp.workprec(params.work_bits):
        t = mp.mpf(t)
        if d.needs_k2 and params.k2 == 0:
            raise SingularParams(f"{identity.value} carries 1/k2 factors; k2 must be nonzero")
        if not d.min_n <= n <= params.n_max - d.shift:
            raise IndexError(
                f"{identity.value} needs {d.min_n} <= n <= n_max-{d.shift}, got n={n}")
        if d.needs_z and z is None:
            raise ParameterError(f"{identity.value} needs a z sample")
        if not d.needs_z:
            z = None
        if z is not None:
            z = mp.mpf(z)
        if d.stencil and t <= 2 * stencil_step(t):
            raise ParameterError(f"{identity.value} needs t large enough for the t-stencil")
        if t < 0:
            raise ParameterError("t must be >= 0")
        ev = Evaluator(params, ctx)
        return _run_one(ev, identity, n, t, z)


def check_suite(params: ModelParams, ctx: PrecisionContext, n_set, t_grid,
                z_samples=None, suite: str = "all", seed: int = 0,
                z_count: int = 20):
    """Cartesian product of applicable checks; deterministic (id, n, t, z) order.

    Per-check numerical errors are collected as rows with status='error',
    never fatal.  With a single-point t_grid the t-derivative checks are
    reported as SKIPPED (stencil policy); everything else runs.
    """
    if suite not in ("required", "diagnostic", "all"):
        raise ParameterError(f"suite must be required|diagnostic|all, got {suite!r}")
    with mp.workprec(params.work_bits):
        t_grid = tuple(mp.mpf(t) for t in t_grid)
        if z_samples is None:
            z_samples = sample_points(params, z_count, seed)
        else:
            z_samples = tuple(mp.mpf(z) for z in z_samples)
        n_set = tuple(sorted(set(int(n) for n in n_set)))
        allow_stencil = len(t_grid) >= 2
        ev = Evaluator(params, ctx)
        reports = []
        for identity, d in REGISTRY.items():
            if suite == "required" and d.tier is not Tier.REQUIRED:
                continue
            if suite == "diagnostic" and d.tier is not Tier.DIAGNOSTIC:
                continue
            ns = [n for n in n_set if d.min_n <= n <= params.n_max - d.shift]
            zs = z_samples if d.needs_z else (None,)
            for n in ns:
                for t in t_grid:
                    for z in zs:
                        if d.needs_k2 and params.k2 == 0:
                            reports.append(IdentityReport(
                                id=identity, tier=d.tier, n=n, t=t, z=z,
                                status="skipped",
                                message="requires k2 != 0"))
                            continue
                        if d.stencil and not allow_stencil:
                            reports.append(IdentityReport(
                                id=identity, tier=d.tier, n=n, t=t, z=z,
                                status="skipped",
                                message="t-stencil infeasible on a single-point t grid"))
                            continue
                        if d.stencil and t <= 2 * stencil_step(t):
                            reports.append(IdentityReport(
                                id=identity, tier=d.tier, n=n, t=t, z=z,
                                status="skipped", message="t too small for the t-stencil"))
                            continue
                        try:
                            reports.append(_run_one(ev, identity, n, t, z))
                        except Exception as exc:  # collected, not fatal
                            reports.append(IdentityReport(
                                id=identity, tier=d.tier, n=n, t=t, z=z,
                                status="error", message=f"{type(exc).__name__}: {exc}"))
        return reports


def factor_split(params: ModelParams, ctx: PrecisionContext, n: int, t):
    """Both bracketed factors of the product equation at (n, t).

    The derivation keeps the first (Riccati) factor as the vanishing one;
    the measured magnitudes are returned so callers can record which factor
    is actually small.
    """
    if params.k2 == 0:
        raise SingularParams("factor_split carries 1/k2 factors; k2 must be nonzero")
    if n < 1:
        raise IndexError("factor_split needs n >= 1")
    with mp.workprec(params.work_bits):
        t = mp.mpf(t)
        if t <= 0:
            raise ParameterError("factor_split needs t > 0")
        ev = Evaluator(params, ctx)
        return _factor_values(ev, n, t)


def summarize(reports, ctx: PrecisionContext):
    """Aggregate a report list into the summary block used by the emitters."""
    required = [r for r in reports if r.tier is Tier.REQUIRED]
    required_ok = [r for r in required if r.status == "ok"]
    max_required = max((r.residual for r in required_ok), default=mp.mpf(0))
    # skipped-by-configuration rows do not fail the suite; errors do
    required_pass = all(r.passed for r in required_ok) and not any(
        r.status == "error" for r in required)
    diag = {}
    for r in reports:
        if r.status != "ok":
            continue
        name = r.id.value
        cur = diag.get(name)
        if cur is None or r.residual > cur:
            diag[name] = r.residual
    ratios = {}
    for r in reports:
        if r.halving_ratio is not None and r.status == "ok":
            ratios.setdefault(r.id.value, []).append(r.halving_ratio)
    return {
        "required_pass": required_pass,
        "max_required_residual": max_required,
        "diagnostics": {
            "max_residual_by_id": diag,
            "halving_ratio_range": {
                k: (min(v), max(v)) for k, v in ratios.items()
            },
            "skipped": sum(1 for r in reports if r.status == "skipped"),
            "errors": sum(1 for r in reports if r.status == "error"),
        },
    }
