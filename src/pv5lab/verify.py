"""Registry of every identity in the derivation chain as a residual check.

Tier policy: identities that follow from general ladder-operator theory for
any smooth endpoint-vanishing weight are REQUIRED and must pass at stated
tolerances; every step justified only through a k->0 limit or through
coefficient comparison in an overcomplete rational basis is DIAGNOSTIC -
its residual is recorded, never asserted pointwise.  The only diagnostic
assertions are trends toward the k2 -> 0 limit, and those live in the
acceptance suite.

Body contract: an ``Evaluator`` holds the states and z sweeps of one t.
``_run_one`` reads the (ortho, ladder) states at ev.t once and calls the
check's body as fn(ev, ortho, lad, n, t, z).  A coefficient identity's
body is ``_pair`` of its formula in ``equations``, which gives (lhs, rhs)
from the states; a z-sampled body reads everything else from
``ev.sweep(z)``, which holds the point values and the A/B integrals of that
z, each taken once, and a t-stencil body reads ``ev.stencil()``.  A state
build or sweep that failed is kept by the
Evaluator and raised by every read, so it is attempted once per t and each
row that reads it is an ERROR row.  ``check_suite`` makes one Evaluator per
grid t, releases it once that t's rows are written, and merges the rows
into (id, n, t, z) order.  Its independent
units, the t points of a grid or the cells (None, then each z sample) at
one t, are dealt out over the usable CPUs by the one rule of
``_fork_map``: of k processes, process i takes the units i, i + k, ...,
each share but the first in a forked worker, and the results are merged
in unit order.  No integral depends on the integrals taken on its table
before it, so the rows are those of a one-process run.
A body returns its residual, normalized |LHS - RHS| / (1 + max(|LHS|,
|RHS|)) unless it documents its own scale (functional ladder relations use
the largest participating term; the recurrence-route checks are relative
to beta).
A t-stencil body instead returns its (LHS, RHS) pairs, at step h and at
step h/2 (FACTOR_PROD at step h only); ``_run_one`` alone normalizes them,
takes the step-halving ratio res(h)/res(h/2) (expected ~4 for clean
O(h^2) behavior, none when res(h/2) = 0) and applies the pass rule: a
REQUIRED row passes when its residual is within tolerance and, for a
t-stencil row with a ratio, the ratio lies in [3, 5].

t-derivatives use the 5-point stencil {t-h, t-h/2, t, t+h/2, t+h} with
h = ``equations.stencil_step(t)``, differenced by
``equations.central_differences`` at step h and at step h/2.  The step-h/2
values are those of a 4X/h^2 formula bit for bit, since 2 (h/2) = h and
(h/2)^2 = h^2/4 are exact.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import random
import sys
from dataclasses import dataclass

from mpmath import mp

from . import equations as eq
from . import ladder as ladder_mod
from .equations import (_nres, central_differences, factor_pair, ode_rn, phi_of, pv_rhs,
                        stencil_step)
from .equations import ric_bigr_rhs as _ric_bigr_rhs
from .equations import ric_r_rhs as _ric_r_rhs
from .equations import s_of as _s_of
from .errors import NegativeT, NumericalError, ParameterError, PoleError, SingularParams
from .model import ModelParams, gap_edge


class Tier(enum.Enum):
    REQUIRED = "required"
    DIAGNOSTIC = "diagnostic"


@dataclass
class IdentityReport:
    """One measured residual (or an explicit skip/error)."""

    id: IdentityId
    tier: Tier
    n: int
    t: object
    z: object = None
    residual: object = None
    passed: object = None  # bool for REQUIRED, None for DIAGNOSTIC
    status: str = "ok"  # ok | skipped | error
    message: str = ""
    halving_ratio: object = None


def sample_points(params: ModelParams, count: int = 20, seed: int = 0):
    """Deterministic z samples in (-0.95, 0.95), kept 0.05 away from every
    pole of v'; ascending order."""
    rng = random.Random(seed)
    with mp.workprec(params.work_bits):
        margin = mp.mpf(0.05)
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
# the states and sweeps of one t

#: the numerical failures a check row records (status='error'); any other
#: exception propagates
_ROW_ERRORS = (NumericalError, PoleError)


def _attempt(fn, *args):
    """fn(*args), or the numerical failure it raised, kept for the rows that
    read it."""
    try:
        return fn(*args)
    except _ROW_ERRORS as exc:
        return exc


def _read(value):
    if isinstance(value, Exception):
        # a fresh traceback per read, so reads do not stack frames on the kept failure
        raise value.with_traceback(None)
    return value


@dataclass(eq=False)
class ZSweep:
    """Everything the z-sampled bodies read at one (t, z): the rational-route
    ``ladder.PointValues`` and the A/B integrals of degrees 0..top, each
    taken once.  A degree whose integral raised
    keeps its exception, and only a read of that degree raises it."""

    point: object
    A: tuple
    B: tuple

    def a_int(self, n):
        return _read(self.A[n])

    def b_int(self, n):
        return _read(self.B[n])


class Evaluator:
    """The states and z sweeps of one time t.  ``states(o)`` gives the
    (ortho, ladder) states at t + o*h/2 from ``ladder.state_at``, and the
    z-sampled bodies read one ``ZSweep`` per z, whose integrals run to
    degree ``top`` = min(n_max, max(n_set) + 1), the highest a row at a
    degree of ``n_set`` reads (n_max when no ``n_set`` is given).  Each is
    made on first read; a build or sweep that failed keeps its failure, and
    every read raises it."""

    def __init__(self, params: ModelParams, t, n_set=()):
        self.params = params
        with mp.workprec(params.work_bits):
            self.t = mp.mpf(t)
        self.top = min(params.n_max, max(n_set, default=params.n_max) + 1)
        self._states = {}
        self._sweeps = {}

    def states(self, o=0):
        if o not in self._states:
            with mp.workprec(self.params.work_bits):
                t = self.t + o * (stencil_step(self.t) / 2)
            self._states[o] = _attempt(ladder_mod.state_at, self.params, t)
        return _read(self._states[o])

    def stencil(self):
        """States at t + o*h/2 for o in (-2, -1, 0, 1, 2)."""
        return {o: self.states(o) for o in (-2, -1, 0, 1, 2)}

    def sweep(self, z):
        """The ``ZSweep`` at z."""
        if z not in self._sweeps:
            self._sweeps[z] = _attempt(self._sweep, z)
        return _read(self._sweeps[z])

    def _sweep(self, z):
        ortho, lad = self.states()
        point = ladder_mod.point_values(z, ortho, lad)
        degrees = range(self.top + 1)
        a = tuple(_attempt(ladder_mod.A_integral, n, z, ortho) for n in degrees)
        b = tuple(_attempt(ladder_mod.B_integral, n, z, ortho) for n in degrees)
        ortho.table.release_dd(z)  # no later integral reads dd at z
        return ZSweep(point, a, b)


def _differences(ev, get):
    """[(value, first difference, second difference)] of get(ortho, lad) at
    ev.t over the stencil, at step h and at step h/2."""
    vals = {o: get(*st) for o, st in ev.stencil().items()}
    h = stencil_step(ev.t)
    return [(vals[0], *central_differences(vals[-o], vals[0], vals[o], step))
            for o, step in ((2, h), (1, h / 2))]


# ----------------------------------------------------------------------
# individual check bodies, called as fn(ev, ortho, lad, n, t, z) with the
# states at t; a body returns its residual, a t-stencil body its (lhs, rhs)
# pairs at step h and h/2 (_run_one forms the residuals); the coefficient
# identities' bodies are _pair of their formulas in equations

def _chk_s1(ev, ortho, lad, n, t, z):
    sw = ev.sweep(z)
    lhs = sw.b_int(n + 1) + sw.b_int(n)
    rhs = z * sw.a_int(n) - sw.point.vp
    return _nres(lhs, rhs)


def _chk_s2(ev, ortho, lad, n, t, z):
    sw = ev.sweep(z)
    lhs = 1 + z * (sw.b_int(n + 1) - sw.b_int(n))
    rhs = ortho.beta[n + 1] * sw.a_int(n + 1) - ortho.beta[n] * sw.a_int(n - 1)
    return _nres(lhs, rhs)


def _chk_s2p(ev, ortho, lad, n, t, z):
    sw = ev.sweep(z)
    bn = sw.b_int(n)
    lhs = bn * bn + sw.point.vp * bn + mp.fsum(sw.a_int(j) for j in range(n))
    rhs = ortho.beta[n] * sw.a_int(n) * sw.a_int(n - 1)
    return _nres(lhs, rhs)


def _chk_lower(ev, ortho, lad, n, t, z):
    # |P_n' + B_n P_n - beta_n A_n P_{n-1}| over the largest term
    pt = ev.sweep(z).point
    t1 = pt.dP[n]
    t2 = pt.B[n] * pt.P[n]
    t3 = ortho.beta[n] * pt.A[n] * pt.P[n - 1]
    scale = 1 + max(abs(t1), abs(t2), abs(t3))
    return abs(t1 + t2 - t3) / scale


def _chk_raise(ev, ortho, lad, n, t, z):
    # |P_{n-1}' - (B_n + v') P_{n-1} + A_{n-1} P_n| over the largest term
    pt = ev.sweep(z).point
    t1 = pt.dP[n - 1]
    t2 = (pt.B[n] + pt.vp) * pt.P[n - 1]
    t3 = pt.A[n - 1] * pt.P[n]
    scale = 1 + max(abs(t1), abs(t2), abs(t3))
    return abs(t1 - t2 + t3) / scale


def _chk_a_form(ev, ortho, lad, n, t, z):
    sw = ev.sweep(z)
    ar = sw.point.A[n]
    return abs(ar - sw.a_int(n)) / (1 + abs(ar))


def _chk_b_form(ev, ortho, lad, n, t, z):
    sw = ev.sweep(z)
    br = sw.point.B[n]
    return abs(br - sw.b_int(n)) / (1 + abs(br))


def _chk_beta_routes(ev, ortho, lad, n, t, z):
    beta_n = ortho.beta[n]
    return abs(beta_n - (ortho.p_sub[n] - ortho.p_sub[n + 1])) / beta_n


def _chk_tele_beta(ev, ortho, lad, n, t, z):
    total = mp.fsum(ortho.beta[j] for j in range(n))
    return abs(total + ortho.p_sub[n]) / total if total > 0 else abs(ortho.p_sub[n])


def _chk_dlnh(ev, ortho, lad, n, t, z):
    return [(2 * t * d1, -lad.R[n])
            for _, d1, _ in _differences(ev, lambda o, _: mp.log(o.h[n]))]


def _chk_dbeta(ev, ortho, lad, n, t, z):
    rhs = ortho.beta[n] * (lad.R[n - 1] - lad.R[n])
    return [(2 * t * d1, rhs) for _, d1, _ in _differences(ev, lambda o, _: o.beta[n])]


def _chk_dp(ev, ortho, lad, n, t, z):
    rhs = lad.r[n] - ortho.beta[n] * lad.R[n]
    return [(2 * t * d1, rhs) for _, d1, _ in _differences(ev, lambda o, _: o.p_sub[n])]


def _pair(identity):
    """The body of a coefficient identity of ``equations``: its (lhs, rhs)
    on the states at t, normalized."""
    def body(ev, ortho, lad, n, t, z):
        return _nres(*identity(ev.params, n, t, ortho, lad))
    return body


def _chk_ric_r(ev, ortho, lad, n, t, z):
    rhs = _ric_r_rhs(ev.params, n, t, lad.r[n], lad.R[n])
    k2t2 = 2 * ev.params.k2 * t
    return [(k2t2 * d1, rhs) for _, d1, _ in _differences(ev, lambda _, lad: lad.r[n])]


def _chk_ric_bigr(ev, ortho, lad, n, t, z):
    rhs = _ric_bigr_rhs(ev.params, n, t, lad.r[n], lad.R[n])
    k2t2 = 2 * ev.params.k2 * t
    return [(k2t2 * d1, rhs) for _, d1, _ in _differences(ev, lambda _, lad: lad.R[n])]


def _factor_values(ev, lad, n):
    """Both bracketed factors of the product equation at ev.t, at step h."""
    (R, d1, _), _ = _differences(ev, lambda _, lad: lad.R[n])
    return factor_pair(ev.params, n, ev.t, R, lad.r[n], d1)


def _chk_factor_prod(ev, ortho, lad, n, t, z):
    f1, f2 = _factor_values(ev, lad, n)
    return [(f1 * f2, mp.mpf(0))]


def _chk_ode_rn(ev, ortho, lad, n, t, z):
    return [(ode_rn(ev.params, n, t, R, d1, d2), mp.mpf(0))
            for R, d1, d2 in _differences(ev, lambda _, lad: lad.R[n])]


def _chk_pv_phi(ev, ortho, lad, n, t, z):
    s = _s_of(n, ev.params)
    return [(d2, pv_rhs(ev.params, n, t, phi, d1))
            for phi, d1, d2 in _differences(ev, lambda _, lad: phi_of(lad.R[n], s))]


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


#: the step-halving ratio band of the REQUIRED t-stencil checks
_BAND = (3.0, 5.0)

#: every identity of the chain, in report order; ``IdentityId`` is built
#: from these names
_CHECKS = {
    # functional ladder relations at sampled z (general theory)
    "S1_FUNC": CheckDef(Tier.REQUIRED, _chk_s1, needs_z=True, shift=1, required_tol=1e-15),
    "S2_FUNC": CheckDef(Tier.REQUIRED, _chk_s2, needs_z=True, min_n=1, shift=1,
                        required_tol=1e-15),
    "S2P_FUNC": CheckDef(Tier.REQUIRED, _chk_s2p, needs_z=True, min_n=1, required_tol=1e-15),
    "LOWER_FUNC": CheckDef(Tier.REQUIRED, _chk_lower, needs_z=True, min_n=1,
                           required_tol=1e-20),
    "RAISE_FUNC": CheckDef(Tier.REQUIRED, _chk_raise, needs_z=True, min_n=1,
                           required_tol=1e-20),
    "A_FORM": CheckDef(Tier.REQUIRED, _chk_a_form, needs_z=True, required_tol=1e-20),
    "B_FORM": CheckDef(Tier.REQUIRED, _chk_b_form, needs_z=True, min_n=1, required_tol=1e-20),
    # recurrence bookkeeping (exact by construction, guards index slips);
    # tolerance 10 * rel_tol at run time
    "BETA_ROUTES": CheckDef(Tier.REQUIRED, _chk_beta_routes, min_n=1),
    "TELE_BETA": CheckDef(Tier.REQUIRED, _chk_tele_beta, min_n=1),
    # t-derivative identities (general theory, finite-difference tolerance)
    "DLNH": CheckDef(Tier.REQUIRED, _chk_dlnh, stencil=True, required_tol=1e-10),
    "DBETA": CheckDef(Tier.REQUIRED, _chk_dbeta, stencil=True, min_n=1, required_tol=1e-10),
    # p(n) is identically 0 below n = 2, so the t-derivative statement
    # carries content only from n = 2 on
    "DP": CheckDef(Tier.REQUIRED, _chk_dp, stencil=True, min_n=2, required_tol=1e-10),
    # coefficient identities from the supplementary conditions
    "C_S1_B": CheckDef(Tier.DIAGNOSTIC, _pair(eq.c_s1_b), shift=1),
    "C_S1_R": CheckDef(Tier.DIAGNOSTIC, _pair(eq.c_s1_r), shift=1),
    "C_S2_B": CheckDef(Tier.DIAGNOSTIC, _pair(eq.c_s2_b), min_n=1, shift=1),
    "C_S2_R": CheckDef(Tier.DIAGNOSTIC, _pair(eq.c_s2_r), min_n=1, shift=1),
    "C_S2_MIX": CheckDef(Tier.DIAGNOSTIC, _pair(eq.c_s2_mix), min_n=1, shift=1),
    "YJ3": CheckDef(Tier.DIAGNOSTIC, _pair(eq.yj3), min_n=1, shift=1),
    "YJ4": CheckDef(Tier.DIAGNOSTIC, _pair(eq.yj4)),
    "TELE_SUM": CheckDef(Tier.DIAGNOSTIC, _pair(eq.tele_sum), min_n=1),
    "Q1": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q1), min_n=1),
    "Q2": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q2), min_n=1, needs_k2=True),
    "Q3": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q3), min_n=1),
    "Q4": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q4), min_n=1),
    "Q5": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q5), min_n=1),
    "Q6": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q6), min_n=1),
    "Q7": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q7), min_n=1),
    "QP1": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q1), min_n=1),
    "QP2": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q2), min_n=1, needs_k2=True),
    "QP3": CheckDef(Tier.DIAGNOSTIC, _pair(eq.qp3), min_n=1),
    "QP4": CheckDef(Tier.DIAGNOSTIC, _pair(eq.qp4), min_n=1),
    "QP5": CheckDef(Tier.DIAGNOSTIC, _pair(eq.qp5), min_n=1),
    "QP6": CheckDef(Tier.DIAGNOSTIC, _pair(eq.qp6), min_n=1),
    "QP7": CheckDef(Tier.DIAGNOSTIC, _pair(eq.q7), min_n=1),
    "MUTEX_WITNESS": CheckDef(Tier.DIAGNOSTIC, _pair(eq.mutex_witness), min_n=1),
    "ZHU232": CheckDef(Tier.DIAGNOSTIC, _pair(eq.zhu232), min_n=1),
    "BETA_EXPR": CheckDef(Tier.DIAGNOSTIC, _pair(eq.beta_closed), min_n=1, needs_k2=True),
    # dynamics in t
    "RIC_R": CheckDef(Tier.DIAGNOSTIC, _chk_ric_r, min_n=1, stencil=True, needs_k2=True),
    "RIC_BIGR": CheckDef(Tier.DIAGNOSTIC, _chk_ric_bigr, min_n=1, stencil=True, needs_k2=True),
    "FACTOR_PROD": CheckDef(Tier.DIAGNOSTIC, _chk_factor_prod, min_n=1, stencil=True,
                            needs_k2=True),
    "ODE_RN": CheckDef(Tier.DIAGNOSTIC, _chk_ode_rn, min_n=1, stencil=True, needs_k2=True),
    "PV_PHI": CheckDef(Tier.DIAGNOSTIC, _chk_pv_phi, min_n=1, stencil=True, needs_k2=True),
}

#: one member per registry row, value = name
IdentityId = enum.Enum("IdentityId", [(name, name) for name in _CHECKS], module=__name__)

REGISTRY = {IdentityId(name): d for name, d in _CHECKS.items()}

#: ids that cannot run at k2 = 0 (carry 1/k2 factors or degenerate bases)
REQUIRES_NONZERO_K2 = tuple(i for i, d in REGISTRY.items() if d.needs_k2)


def _required_tol(identity: IdentityId, params: ModelParams):
    d = REGISTRY[identity]
    if d.required_tol is not None:
        return mp.mpf(d.required_tol)
    return 10 * mp.mpf(params.rel_tol)  # the recurrence bookkeeping checks


def _run_one(ev: Evaluator, identity: IdentityId, n: int, z):
    """The row of ``identity`` at (n, ev.t, z): its body gets the states at
    ev.t, and the residuals, the halving ratio and the pass rule are formed
    here."""
    d = REGISTRY[identity]
    out = d.fn(ev, *ev.states(), n, ev.t, z)
    ratio = None
    if d.stencil:
        residual, *halved = (_nres(lhs, rhs) for lhs, rhs in out)
        if halved and halved[0] > 0:
            ratio = residual / halved[0]
    else:
        residual = out
    passed = None
    if d.tier is Tier.REQUIRED:
        passed = bool(residual <= _required_tol(identity, ev.params))
        if d.stencil and ratio is not None:
            passed = passed and _BAND[0] <= ratio <= _BAND[1]
    return IdentityReport(id=identity, tier=d.tier, n=n, t=ev.t, z=z,
                          residual=residual, passed=passed, halving_ratio=ratio)


def suite_ids(suite: str):
    """The identities of ``suite`` ('required', 'diagnostic' or 'all'), in
    registry order."""
    if suite not in ("required", "diagnostic", "all"):
        raise ParameterError(f"suite must be required|diagnostic|all, got {suite!r}")
    return tuple(i for i, d in REGISTRY.items() if suite in ("all", d.tier.value))


def _times(params: ModelParams, t_grid):
    """The t values at the current precision; one negative t (NegativeT), or
    one where the ladder integrals do not exist (LadderIneligible), refuses
    the whole call."""
    t_grid = tuple(mp.mpf(t) for t in t_grid)
    if any(t < 0 for t in t_grid):
        raise NegativeT("t must be >= 0")
    for t in t_grid:
        ladder_mod.require_eligible(dataclasses.replace(params, t=t))
    return t_grid


def _refusal(identity: IdentityId, params: ModelParams, n: int, t, z=None,
             single_t: bool = False):
    """The error that keeps ``identity`` from running at (n, t, z), or None.

    IndexError: n outside the identity's degrees; SingularParams: a 1/k2
    identity at k2 = 0; ParameterError: a missing z sample, or a t-stencil
    identity on a one-point suite grid (``single_t``) or at t <= 2h, where
    its stencil {t - h, ..., t + h} would come within h of t = 0.
    """
    d = REGISTRY[identity]
    name = identity.value
    if not d.min_n <= n <= params.n_max - d.shift:
        return IndexError(f"{name} needs {d.min_n} <= n <= n_max-{d.shift}, got n={n}")
    if d.needs_k2 and params.k2 == 0:
        return SingularParams(f"{name} carries 1/k2 factors; k2 must be nonzero")
    if d.needs_z and z is None:
        return ParameterError(f"{name} needs a z sample")
    if d.stencil and single_t:
        return ParameterError("t-stencil infeasible on a single-point t grid")
    if d.stencil and t <= 2 * stencil_step(t):
        return ParameterError(f"{name} needs t large enough for the t-stencil")
    return None


def _admitted(identity: IdentityId, params: ModelParams, n: int, t, z=None):
    """t at the current precision once ``identity`` may run at (n, t, z);
    raises NegativeT, LadderIneligible or the ``_refusal`` error otherwise."""
    (t,) = _times(params, (t,))
    refusal = _refusal(identity, params, n, t, z)
    if refusal is not None:
        raise refusal
    return t


def check(identity: IdentityId, params: ModelParams, n: int, t, z=None) -> IdentityReport:
    """Evaluate one identity at (n, t[, z]) with a fresh ``Evaluator``.

    Raises NegativeT for t < 0, LadderIneligible where the ladder
    integrals do not exist (alpha = 0, or t = 0 with k2 >= 0), and
    otherwise the error of ``_refusal``:
    IndexError when n is outside the identity's index range,
    SingularParams for the 1/k2 family at k2 = 0, ParameterError for a
    missing z or a t-stencil identity at t <= 2h.
    """
    d = REGISTRY[identity]
    with mp.workprec(params.work_bits):
        z = mp.mpf(z) if d.needs_z and z is not None else None
        t = _admitted(identity, params, n, t, z)
        return _run_one(Evaluator(params, t, (n,)), identity, n, z)


def _rows(params: ModelParams, keys, ev, cells, single_t: bool):
    """The rows at ev.t, in (identity, n) order of ``keys``, then cell order:
    a z-sampled identity's row at each z of ``cells``, any other identity's
    one row at a cell None."""
    rows = []
    for identity, n in keys:
        d = REGISTRY[identity]
        for z in [z for z in cells if (z is None) != d.needs_z]:
            refusal = _refusal(identity, params, n, ev.t, z, single_t)
            if isinstance(refusal, IndexError):
                continue
            if refusal is not None:
                rows.append(IdentityReport(
                    id=identity, tier=d.tier, n=n, t=ev.t, z=z,
                    status="skipped", message=str(refusal)))
                continue
            try:
                rows.append(_run_one(ev, identity, n, z))
            except _ROW_ERRORS as exc:  # collected, not fatal
                rows.append(IdentityReport(
                    id=identity, tier=d.tier, n=n, t=ev.t, z=z,
                    status="error", message=f"{type(exc).__name__}: {exc}"))
    return rows


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(units):
    """How many processes share ``units``: one per usable CPU and at most one
    per unit, or one where this process cannot fork safely (no ``os.fork``,
    or other threads)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(_cpu_count(), len(units)))


def _work(fn, share, fd):
    """The body of a forked worker: write the pickled (True, [fn(u) for u in
    share]), or (False, the exception fn raised), to the pipe end ``fd``,
    then end the process with its status, running no exit handler and
    flushing no output inherited from the parent."""
    import pickle

    status = 1
    try:
        try:
            payload = (True, [fn(u) for u in share])
        except Exception as exc:  # handed to the parent, which raises it
            payload = (False, exc)
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _fork_map(fn, units):
    """[fn(u) for u in units], shared out over ``_workers(units)`` processes.

    Of k processes, process i takes the units i, i + k, i + 2k, ...: the
    first share runs in this process, every other in a forked worker whose
    results come back pickled over a pipe, so it sees this process's memory
    as it was at the fork.  A share whose pipe or fork fails (OSError) runs
    in this process too, after the first.  The results are returned in unit
    order.

    An exception a worker raised is raised here; a worker that ends without
    a result raises ChildProcessError.  No partial list is returned, and
    every worker is reaped on every path: one still running when the call
    fails (this process's own share raised, say) is killed first.
    """
    count = _workers(units)
    if count == 1:
        return [fn(u) for u in units]
    import pickle  # kept off the import path of the commands that never fork
    import signal

    shares = [units[i::count] for i in range(count)]
    results = [None] * count
    here = [0]  # the shares this process runs
    pending = {}  # pid -> (its share, the read end of its pipe), until the worker is reaped
    try:
        for i in range(1, count):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:  # no worker for this share: it runs here
                for fd in fds:
                    os.close(fd)
                here.append(i)
                continue
            if pid == 0:
                os.close(fds[0])
                _work(fn, shares[i], fds[1])  # never returns
            os.close(fds[1])
            pending[pid] = (i, os.fdopen(fds[0], "rb"))
        for i in here:
            results[i] = [fn(u) for u in shares[i]]
        for pid, (i, pipe) in list(pending.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[pid]
            pipe.close()
            if code != 0 or not data:
                raise ChildProcessError(
                    f"verify worker {pid} ended without a result (exit code {code})")
            ok, results[i] = pickle.loads(data)
            if not ok:
                raise results[i]
        return [results[j % count][j // count] for j in range(len(units))]
    finally:
        for pid, (_, pipe) in pending.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def check_suite(params: ModelParams, n_set, t_grid, z_samples=None, suite: str = "all"):
    """Cartesian product of the suite's checks; deterministic (id, n, t, z) order.

    A t grid that reaches t < 0 raises NegativeT, one with a point where
    the ladder integrals do not exist (alpha = 0, or t = 0 with k2 >= 0)
    raises LadderIneligible, before any check runs.
    Each (identity, n, t, z) is admitted by the rule ``check`` applies
    (``_refusal``): a degree outside the identity's range writes no row,
    and any other refusal writes a SKIPPED row carrying its message.  On a
    single-point t_grid that covers every t-derivative check.  z-sampled
    identities run at each of ``z_samples`` (default ``sample_points``),
    so an empty list leaves them out.  Per-check numerical errors
    (``NumericalError``, ``PoleError``) are collected as rows with
    status='error', never fatal; any other exception propagates, from a
    worker too.

    The work is dealt out over the usable CPUs by ``_fork_map``: the points
    of a grid of several t, each building its own states, so that the
    costlier small t do not all fall to one worker; or, at one t, its cells
    (None for the rows without z, then each z sample if an identity of the
    suite reads z; so a suite with none forks no worker), with the states at t
    built once, before the fork, so that every worker reads them.  Every
    integral starts at its state's build level
    (``WeightTable.raw_integral``), so a unit's rows do not depend on what
    the units before it added to the table.  Each unit returns its rows in
    (id, n) order, and a stable sort on the (id, n) rank merges them in unit
    order, so the rows are those of a one-process run, in (id, n, t, z)
    order.
    """
    ids = suite_ids(suite)
    with mp.workprec(params.work_bits):
        t_grid = _times(params, t_grid)
        if z_samples is None:
            z_samples = sample_points(params)
        else:
            z_samples = tuple(mp.mpf(z) for z in z_samples)
        n_set = tuple(sorted(set(int(n) for n in n_set)))
        keys = [(identity, n) for identity in ids for n in n_set]
        cells = (None, *z_samples) if any(REGISTRY[i].needs_z for i in ids) else (None,)
        if len(t_grid) > 1:
            unit_rows = _fork_map(  # each Evaluator released once its t's rows are written
                lambda t: _rows(params, keys, Evaluator(params, t, n_set), cells, False), t_grid)
        else:
            ev = Evaluator(params, t_grid[0], n_set)
            if _workers(cells) > 1:
                _attempt(ev.states)  # built before the fork; kept by ev when it fails
            unit_rows = _fork_map(lambda cell: _rows(params, keys, ev, (cell,), True), cells)
        rank = {key: i for i, key in enumerate(keys)}  # a stable sort keeps unit order
        return sorted((row for rows in unit_rows for row in rows), key=lambda r: rank[r.id, r.n])


def factor_split(params: ModelParams, n: int, t):
    """Both bracketed factors of the product equation at (n, t).

    The derivation keeps the first (Riccati) factor as the vanishing one;
    the measured magnitudes are returned so callers can record which factor
    is actually small.  Admitted, and refused, exactly as
    ``check(FACTOR_PROD, ...)`` is.
    """
    with mp.workprec(params.work_bits):
        t = _admitted(IdentityId.FACTOR_PROD, params, n, t)
        ev = Evaluator(params, t)
        return _factor_values(ev, ev.states()[1], n)
