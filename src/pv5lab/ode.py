"""Initial value problems in t: the coupled first-order pair and the
second-order Painleve V form, integrated at configurable precision.

The integrator is an explicit Cash-Karp 5(4) embedded pair with PI-free
proportional step control, dense output by cubic Hermite interpolation on
accepted steps, and deterministic arithmetic: identical inputs produce
bit-identical trajectories at fixed precision.

The step runs on fixed-point integers at scale 2^-(bits + 128): the
``bits + 64`` working precision plus the 64 guard bits of the weight
table's fixed-point arrays.  The state, the stages and the embedded error
estimate are ints, the tableau is integer rows over one common denominator,
and the accept test is an exact integer comparison; only the step factor
0.9 * err_norm^-0.2 is taken in mpf, once per step.  The right-hand side is
called with the integrator's ``fixed_type(bits)`` numbers.  The equations
(``equations.py``) are coded once and run on these numbers as they run on
mpf; a generic ``f`` that mixes them with mpf or ``mp.*`` functions gets
correct mpf results, only slower.  Each accepted step is stored once, as mpf.

Initial data is always seeded from quadrature (there are no free constants
anywhere in the pipeline); singular approaches halt with ``PoleHit`` rather
than being regularized.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from . import ladder as ladder_mod
from . import orthopoly
from .equations import pv_rhs, ric_bigr_rhs, ric_r_rhs, s_of
from .errors import ParameterError, PoleHit, SingularParams, StepUnderflow
from .model import GUARD_BITS, ModelParams
from .quadrature import FIXED_GUARD_BITS, PrecisionContext
from .verify import stencil_step

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

# the tableau as integer rows over one common denominator _D
_D = math.lcm(*(q for _, q in _CK_C + sum(_CK_A, []) + _CK_B5 + _CK_B4))


def _over_d(pairs):
    return tuple(p * (_D // q) for p, q in pairs)


_C = _over_d(_CK_C)
_A = [_over_d(row) for row in _CK_A]
_B5 = _over_d(_CK_B5)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _over_d(_CK_B4)))  # b5 - b4


@functools.lru_cache(maxsize=64)
def fixed_type(bits):
    """The integrator's number type for ``bits``: one int at scale 2^-FRAC.

    ``FRAC = bits + 128``.  ``+ - * /`` and integer powers, against the
    same type or ints, stay in fixed point; products and quotients are
    floored, so each of them is off by less than 2^-FRAC.  Any other
    operand (an mpf, a float, a fixed type of other scale) turns the value
    into an exact mpf first, and ``_mpf_`` lets mpf arithmetic and the
    ``mp.*`` functions accept it, so mixed code gets correct mpf results.
    """
    frac = bits + GUARD_BITS + FIXED_GUARD_BITS
    one = 1 << frac

    class Fixed:
        __slots__ = ("v",)
        FRAC = frac

        def __init__(self, v):
            self.v = v

        @property
        def _mpf_(self):
            return from_man_exp(self.v, -frac)

        def _as_mpf(self):
            return mp.make_mpf(self._mpf_)

        def __repr__(self):
            return f"fixed_type({bits})({mp.nstr(self._as_mpf(), 20)})"

        def __add__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v + b.v)
            if type(b) is int:
                return Fixed(a.v + (b << frac))
            return a._as_mpf() + b

        __radd__ = __add__

        def __sub__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v - b.v)
            if type(b) is int:
                return Fixed(a.v - (b << frac))
            return a._as_mpf() - b

        def __rsub__(a, b):
            if type(b) is int:
                return Fixed((b << frac) - a.v)
            return b - a._as_mpf()

        def __mul__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v * b.v >> frac)
            if type(b) is int:
                return Fixed(a.v * b)
            return a._as_mpf() * b

        __rmul__ = __mul__

        def __truediv__(a, b):
            if type(b) is Fixed:
                return Fixed((a.v << frac) // b.v)
            if type(b) is int:
                return Fixed(a.v // b)
            return a._as_mpf() / b

        def __rtruediv__(a, b):
            if type(b) is int:
                return Fixed((b << 2 * frac) // a.v)
            return b / a._as_mpf()

        def __pow__(a, n):
            if type(n) is not int:
                return a._as_mpf() ** n
            if n == 2:
                return Fixed(a.v * a.v >> frac)
            if n < 0:
                return 1 / a ** -n
            out, base = one, a.v
            while n:
                if n & 1:  # one * base >> frac is base
                    out = base if out == one else out * base >> frac
                n >>= 1
                if n:
                    base = base * base >> frac
            return Fixed(out)

        def __neg__(a):
            return Fixed(-a.v)

        def __abs__(a):
            return Fixed(abs(a.v))

        def __bool__(a):
            return a.v != 0

        def _sign_of_diff(a, b):
            if type(b) is Fixed:
                d = a.v - b.v
            elif type(b) is int:
                d = a.v - (b << frac)
            else:
                return mp.sign(a._as_mpf() - b)
            return (d > 0) - (d < 0)

        def __eq__(a, b):
            return a._sign_of_diff(b) == 0

        def __lt__(a, b):
            return a._sign_of_diff(b) < 0

        def __le__(a, b):
            return a._sign_of_diff(b) <= 0

        def __gt__(a, b):
            return a._sign_of_diff(b) > 0

        def __ge__(a, b):
            return a._sign_of_diff(b) >= 0

        __hash__ = None

    Fixed.__qualname__ = Fixed.__name__ = f"Fixed{frac}"
    return Fixed


def _mantissa(x, cls):
    """x as an int at the scale of the fixed type ``cls``, floored."""
    if type(x) is cls:
        return x.v
    if type(x) is int:
        return x << cls.FRAC
    raw = getattr(x, "_mpf_", None) or mp.mpf(x)._mpf_
    sign, man, exp, _ = raw
    if not man and exp:
        raise PoleHit(f"integration met the non-finite value {mp.make_mpf(raw)}")
    if sign:
        man = -man
    exp += cls.FRAC
    return man << exp if exp >= 0 else man >> -exp


def _scaled(v, x):
    """floor(v * x) for an int v and a positive mpf x."""
    _, man, exp, _ = x._mpf_
    return v * man << exp if exp >= 0 else v * man >> -exp


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

    ``f`` is called with t and y as ``fixed_type(bits)`` numbers and may
    return those, ints or anything mpf accepts.  ``guard(t, y)`` sees each
    accepted point as mpf and may raise ``PoleHit`` to stop near singular
    values.  Returns a ``Trajectory``; backward runs (t1 < t0) are stored
    ascending.  Statistics: steps, rejected, min_step.
    """
    with mp.workprec(bits + 64):
        t0 = mp.mpf(t0)
        t1 = mp.mpf(t1)
        y0 = tuple(mp.mpf(v) for v in y0)
        tol = mp.mpf(tol)
        if tol <= 0:
            raise ParameterError("tol must be positive")
        Fixed = fixed_type(bits)
        frac = Fixed.FRAC
        prec = mp.prec

        def rhs(t, y):
            return [_mantissa(v, Fixed) for v in f(Fixed(t), tuple(map(Fixed, y)))]

        def to_mpf(v):
            return mp.make_mpf(from_man_exp(v, -frac, prec, round_nearest))

        t = _mantissa(t0, Fixed)
        end = _mantissa(t1, Fixed)
        y = [_mantissa(v, Fixed) for v in y0]
        fcur = rhs(t, y)
        ts = [t0]
        ys = [y0]
        fs = [tuple(map(to_mpf, fcur))]
        span = end - t
        if span == 0:
            return Trajectory((t0,), (y0,), (fs[0],),
                              meta={"steps": 0, "rejected": 0, "min_step": mp.mpf(0),
                                    "tol": tol})
        direction = 1 if span > 0 else -1
        # |err_j| <= tol (1 + max(|y_j|, |y5_j|)), with err_j an int at scale
        # 2^-2frac / _D and tol = tol_man 2^tol_exp, cleared of denominators
        _, tol_man, tol_exp, _ = tol._mpf_
        tol_shift = tol_exp + frac
        err_up, bound_up = max(0, -tol_shift), max(0, tol_shift)
        bound_mul = _D * tol_man
        unit = _D << frac
        one = 1 << frac
        nine_tenths, exponent = mp.mpf("0.9"), mp.mpf(-0.2)
        shrink, grow = mp.mpf("0.2"), mp.mpf(5)
        h = span // 64
        h_floor = abs(span) >> (bits // 2)
        steps = rejected = 0
        min_step = abs(span)
        while (end - t) * direction > 0:
            if abs(h) > abs(end - t):
                h = end - t
            if abs(h) < h_floor:
                raise StepUnderflow(
                    f"step {mp.nstr(to_mpf(abs(h)), 6)} below floor "
                    f"{mp.nstr(to_mpf(h_floor), 6)} at t={mp.nstr(to_mpf(t), 8)}")
            k = [fcur]
            for i in range(1, 6):
                yi = [yj + h * sum(map(mul, _A[i], col)) // unit
                      for yj, col in zip(y, zip(*k))]
                k.append(rhs(t + _C[i] * h // _D, yi))
            cols = list(zip(*k))
            y5 = [yj + h * sum(map(mul, _B5, col)) // unit for yj, col in zip(y, cols)]
            errs = [abs(h * sum(map(mul, _E, col))) << err_up for col in cols]
            bounds = [bound_mul * (one + max(abs(a), abs(b))) << bound_up
                      for a, b in zip(y, y5)]
            err_norm = max(mp.mpf(e) / b for e, b in zip(errs, bounds))
            if all(map(int.__le__, errs, bounds)):
                t += h
                y = y5
                t_mpf = to_mpf(t)
                y_mpf = tuple(map(to_mpf, y))
                if guard is not None:
                    guard(t_mpf, y_mpf)
                fcur = rhs(t, y)
                ts.append(t_mpf)
                ys.append(y_mpf)
                fs.append(tuple(map(to_mpf, fcur)))
                steps += 1
                min_step = min(min_step, abs(h))
            else:
                rejected += 1
            factor = nine_tenths * err_norm ** exponent if err_norm > 0 else grow
            h = _scaled(h, min(grow, max(shrink, factor)))
            if steps + rejected > max_steps:
                raise StepUnderflow(f"step budget {max_steps} exhausted")
        if direction < 0:
            ts, ys, fs = ts[::-1], ys[::-1], fs[::-1]
        meta = {"steps": steps, "rejected": rejected, "min_step": to_mpf(min_step),
                "tol": tol}
        return Trajectory(tuple(ts), tuple(ys), tuple(fs), meta=meta)


def _require_dynamic(params: ModelParams, n: int, t0):
    if params.k2 == 0:
        raise SingularParams("the coupled pair and the Painleve V form need k2 != 0")
    if n < 1:
        raise IndexError("dynamics are tracked for n >= 1")
    if not t0 > 0:
        raise ParameterError("t0 must be positive")


class _Constants(NamedTuple):
    """The constants the equations read from ``ModelParams``."""

    alpha: object
    k2: object


def _fixed_constants(params: ModelParams):
    """The integrator's number type for params, and params' constants in it."""
    Fixed = fixed_type(params.precision_bits)
    return Fixed, _Constants(*(Fixed(_mantissa(v, Fixed)) for v in (params.alpha, params.k2)))


def riccati_rhs(params: ModelParams, n: int):
    """Right-hand side of the coupled pair for state (R, r).

    On the integrator's numbers it reads alpha and k2 converted to them
    once, here; on any other numbers it reads the mpf ``params``.
    """
    Fixed, fixed = _fixed_constants(params)

    def f(t, y):
        c = fixed if type(t) is Fixed else params
        R, r = y
        den = 2 * c.k2 * t
        return (
            ric_bigr_rhs(c, n, t, r, R) / den,
            ric_r_rhs(c, n, t, r, R) / den,
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
    """State (Phi, Phi'); singularities at Phi in {0, 1} are the caller's guard.

    Constants as in ``riccati_rhs``.
    """
    Fixed, fixed = _fixed_constants(params)

    def f(t, y):
        phi, phip = y
        return (phip, pv_rhs(fixed if type(t) is Fixed else params, n, t, phi, phip))

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
        s = s_of(n, params)
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
                s = s_of(n, params)
                targets = ((lad.R[n] + s) / s,)
                got = dense[:1]
            for g, q in zip(got, targets):
                worst = max(worst, abs(g - q) / (1 + abs(q)))
        return worst
