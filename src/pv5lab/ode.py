"""Initial value problems in t: the coupled first-order pair and the
second-order Painleve V form, integrated at configurable precision.

The integrator is an explicit Cash-Karp 5(4) embedded pair with PI-free
proportional step control, dense output by cubic Hermite interpolation on
accepted steps, and deterministic arithmetic: identical inputs produce
bit-identical trajectories at fixed precision.

Initial data is always seeded from quadrature (there are no free constants
anywhere in the pipeline); singular approaches halt with ``PoleHit`` rather
than being regularized.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass, field

from mpmath import mp

from . import ladder as ladder_mod
from . import orthopoly
from .errors import ParameterError, PoleHit, SingularParams, StepUnderflow
from .model import ModelParams
from .quadrature import PrecisionContext
from .verify import _ric_bigr_rhs, _ric_r_rhs, _s_of, pv_rhs, stencil_step

# Cash-Karp 5(4) tableau (numerator, denominator pairs kept exact)
_CK_C = [(0, 1), (1, 5), (3, 10), (3, 5), (1, 1), (7, 8)]
_CK_A = [
    [],
    [(1, 5)],
    [(3, 40), (9, 40)],
    [(3, 10), (-9, 10), (6, 5)],
    [(-11, 54), (5, 2), (-70, 27), (35, 27)],
    [(1631, 55296), (175, 512), (575, 13824), (44275, 110592), (253, 4096)],
]
_CK_B5 = [(37, 378), (0, 1), (250, 621), (125, 594), (0, 1), (512, 1771)]
_CK_B4 = [(2825, 27648), (0, 1), (18575, 48384), (13525, 55296), (277, 14336), (1, 4)]


def _frac(pair):
    return mp.mpf(pair[0]) / pair[1]


@dataclass
class Trajectory:
    """Accepted-step skeleton with dense cubic-Hermite output.

    ``t_points`` ascends regardless of integration direction; ``values``
    and ``derivs`` are the state vectors and right-hand sides at those
    points.  ``meta`` records n, params and integrator statistics.
    """

    t_points: tuple
    values: tuple
    derivs: tuple = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for i in range(1, len(self.t_points)):
            if not self.t_points[i] > self.t_points[i - 1]:
                raise ParameterError("trajectory t_points must be strictly increasing")

    @property
    def t0(self):
        return self.t_points[0]

    @property
    def t1(self):
        return self.t_points[-1]

    def sample(self, t):
        """Dense output at interior t via cubic Hermite on the enclosing step."""
        t = mp.mpf(t)
        if not self.t_points[0] <= t <= self.t_points[-1]:
            raise ParameterError(f"t={t} outside trajectory span")
        idx = bisect.bisect_right(self.t_points, t) - 1
        if idx == len(self.t_points) - 1:
            return self.values[-1]
        ta, tb = self.t_points[idx], self.t_points[idx + 1]
        ya, yb = self.values[idx], self.values[idx + 1]
        fa, fb = self.derivs[idx], self.derivs[idx + 1]
        dt = tb - ta
        s = (t - ta) / dt
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return tuple(
            h00 * ya[i] + h10 * dt * fa[i] + h01 * yb[i] + h11 * dt * fb[i]
            for i in range(len(ya))
        )


def integrate_ivp(f, t0, t1, y0, tol, bits=256, guard=None, max_steps=200000):
    """Adaptive Cash-Karp 5(4) integration of y' = f(t, y).

    ``guard(t, y)`` may raise ``PoleHit`` to stop near singular values.
    Returns a ``Trajectory``; backward runs (t1 < t0) are stored ascending.
    Statistics: steps, rejected, min_step.
    """
    with mp.workprec(bits + 64):
        t0 = mp.mpf(t0)
        t1 = mp.mpf(t1)
        y = tuple(mp.mpf(v) for v in y0)
        tol = mp.mpf(tol)
        if tol <= 0:
            raise ParameterError("tol must be positive")
        span = t1 - t0
        ts = [t0]
        ys = [y]
        fs = [tuple(f(t0, y))]
        if span == 0:
            return Trajectory((t0,), (y,), (fs[0],),
                              meta={"steps": 0, "rejected": 0, "min_step": mp.mpf(0),
                                    "tol": tol})
        direction = 1 if span > 0 else -1
        a = [[_frac(p) for p in row] for row in _CK_A]
        b5 = [_frac(p) for p in _CK_B5]
        b4 = [_frac(p) for p in _CK_B4]
        c = [_frac(p) for p in _CK_C]
        h = span / 64
        h_floor = abs(span) * mp.mpf(2) ** (-(bits // 2))
        t = t0
        steps = rejected = 0
        min_step = abs(span)
        fcur = fs[0]
        while (t1 - t) * direction > 0:
            if abs(h) > abs(t1 - t):
                h = t1 - t
            if abs(h) < h_floor:
                raise StepUnderflow(
                    f"step {mp.nstr(abs(h), 6)} below floor {mp.nstr(h_floor, 6)} at t={mp.nstr(t, 8)}")
            k = [fcur]
            for i in range(1, 6):
                yi = tuple(
                    y[j] + h * mp.fsum(a[i][m] * k[m][j] for m in range(i))
                    for j in range(len(y))
                )
                k.append(tuple(f(t + c[i] * h, yi)))
            y5 = tuple(
                y[j] + h * mp.fsum(b5[m] * k[m][j] for m in range(6))
                for j in range(len(y))
            )
            err = [
                h * mp.fsum((b5[m] - b4[m]) * k[m][j] for m in range(6))
                for j in range(len(y))
            ]
            err_norm = max(
                abs(err[j]) / (tol * (1 + max(abs(y[j]), abs(y5[j]))))
                for j in range(len(y))
            )
            if err_norm <= 1:
                t = t + h
                y = y5
                if guard is not None:
                    guard(t, y)
                fcur = tuple(f(t, y))
                ts.append(t)
                ys.append(y)
                fs.append(fcur)
                steps += 1
                min_step = min(min_step, abs(h))
            else:
                rejected += 1
            factor = mp.mpf("0.9") * err_norm ** mp.mpf(-0.2) if err_norm > 0 else 5
            h = h * min(mp.mpf(5), max(mp.mpf("0.2"), factor))
            if steps + rejected > max_steps:
                raise StepUnderflow(f"step budget {max_steps} exhausted")
        if direction < 0:
            ts, ys, fs = ts[::-1], ys[::-1], fs[::-1]
        meta = {"steps": steps, "rejected": rejected, "min_step": min_step, "tol": tol}
        return Trajectory(tuple(ts), tuple(ys), tuple(fs), meta=meta)


def _require_dynamic(params: ModelParams, n: int, t0):
    if params.k2 == 0:
        raise SingularParams("the coupled pair and the Painleve V form need k2 != 0")
    if n < 1:
        raise IndexError("dynamics are tracked for n >= 1")
    if not t0 > 0:
        raise ParameterError("t0 must be positive")


def riccati_rhs(params: ModelParams, n: int):
    """Right-hand side of the coupled pair for state (R, r)."""
    k2 = params.k2

    def f(t, y):
        R, r = y
        den = 2 * k2 * t
        return (
            _ric_bigr_rhs(params, n, t, r, R) / den,
            _ric_r_rhs(params, n, t, r, R) / den,
        )

    return f


def integrate_riccati(params: ModelParams, n: int, t0, t1, init, tol) -> Trajectory:
    """Integrate the coupled pair from quadrature-style initial data (R, r)."""
    _require_dynamic(params, n, mp.mpf(t0))
    with mp.workprec(params.work_bits):
        R0 = mp.mpf(init[0])
        r0 = mp.mpf(init[1])
        if not all(mp.isfinite(v) for v in (R0, r0)):
            raise ParameterError("initial data must be finite")
        pole_scale = mp.mpf("1e-8") * (1 + abs(R0))

        def guard(t, y):
            if abs(y[0]) < pole_scale:
                raise PoleHit(f"R_n reached {mp.nstr(y[0], 6)} at t={mp.nstr(t, 8)}")

        traj = integrate_ivp(riccati_rhs(params, n), t0, t1, (R0, r0), tol,
                             bits=params.precision_bits, guard=guard)
        traj.meta.update({"n": n, "params": params, "kind": "riccati"})
        return traj


def pv_ode_rhs(params: ModelParams, n: int):
    """State (Phi, Phi'); singularities at Phi in {0, 1} are the caller's guard."""

    def f(t, y):
        phi, phip = y
        return (phip, pv_rhs(params, n, t, phi, phip))

    return f


def integrate_pv(params: ModelParams, n: int, t0, t1, init, tol) -> Trajectory:
    """Integrate the Painleve V form from initial data (Phi, Phi')."""
    _require_dynamic(params, n, mp.mpf(t0))
    with mp.workprec(params.work_bits):
        phi0 = mp.mpf(init[0])
        phip0 = mp.mpf(init[1])
        guard_dist = mp.mpf("1e-8")
        if abs(phi0) <= guard_dist or abs(phi0 - 1) <= guard_dist:
            raise PoleHit("initial Phi within the guard distance of {0, 1}")

        def guard(t, y):
            if abs(y[0]) <= guard_dist or abs(y[0] - 1) <= guard_dist:
                raise PoleHit(f"Phi reached {mp.nstr(y[0], 8)} at t={mp.nstr(t, 8)}")

        traj = integrate_ivp(pv_ode_rhs(params, n), t0, t1, (phi0, phip0), tol,
                             bits=params.precision_bits, guard=guard)
        traj.meta.update({"n": n, "params": params, "kind": "pv"})
        return traj


def riccati_initial(params: ModelParams, n: int, t0, ctx: PrecisionContext):
    """(R_n, r_n) at t0 from quadrature."""
    with mp.workprec(params.work_bits):
        p = dataclasses.replace(params, t=mp.mpf(t0))
        lad = ladder_mod.compute(orthopoly.build(p, ctx), ctx)
        return lad.R[n], lad.r[n]


def pv_initial(params: ModelParams, n: int, t0, ctx: PrecisionContext):
    """(Phi_n, Phi_n') at t0: quadrature value plus a stencil derivative."""
    with mp.workprec(params.work_bits):
        t0 = mp.mpf(t0)
        s = _s_of(n, params)
        h = stencil_step(t0)

        def phi_at(tv):
            p = dataclasses.replace(params, t=tv)
            lad = ladder_mod.compute(orthopoly.build(p, ctx), ctx)
            return (lad.R[n] + s) / s

        phi0 = phi_at(t0)
        phip = (phi_at(t0 + h) - phi_at(t0 - h)) / (2 * h)
        return phi0, phip


def crosscheck(trajectory: Trajectory, params: ModelParams, ctx: PrecisionContext,
               sample_ts):
    """Max normalized deviation between dense output and fresh quadrature.

    For a coupled-pair trajectory both components are compared; for a
    Painleve trajectory only Phi (the derivative has no direct quadrature
    analogue and is seeded by finite differences).
    """
    n = trajectory.meta["n"]
    kind = trajectory.meta.get("kind", "riccati")
    worst = mp.mpf(0)
    with mp.workprec(params.work_bits):
        for ts in sample_ts:
            ts = mp.mpf(ts)
            dense = trajectory.sample(ts)
            p = dataclasses.replace(params, t=ts)
            lad = ladder_mod.compute(orthopoly.build(p, ctx), ctx)
            if kind == "riccati":
                targets = (lad.R[n], lad.r[n])
                got = dense
            else:
                s = _s_of(n, params)
                targets = ((lad.R[n] + s) / s,)
                got = dense[:1]
            for g, q in zip(got, targets):
                worst = max(worst, abs(g - q) / (1 + abs(q)))
        return worst
