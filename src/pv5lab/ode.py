"""Initial value problems in t: the coupled first-order pair and the
second-order Painleve V form, integrated at configurable precision.

The integrator is an explicit Cash-Karp 5(4) embedded pair with PI-free
proportional step control, dense output by cubic Hermite interpolation on
accepted steps, and deterministic arithmetic: identical inputs produce
bit-identical trajectories at fixed precision.

The step runs on fixed-point integers at scale 2^-(bits + 128): the
``bits + 64`` working precision plus the 64 guard bits of the weight
table's fixed-point arrays.  The state, the stages and the embedded error
estimate are ints, and the tableau is integer rows over one common
denominator.  One step is one generated straight-line function on ints
(``_step_maker``): the five further stages, the fifth-order update, the
embedded errors and their bounds, with every tableau fraction written out
as a literal.  The step control is exact integer arithmetic too: the accept
test compares ints, the worst component is picked by cross-multiplication,
and the step factor 0.9 (bound/err)^(1/5) is a floor integer fifth root at
``_FACTOR_BITS`` fraction bits (``_next_step``), so the step loop runs no
mpf, float or libm operation and its step sizes are the same on every host.

The right-hand side is recorded once per integration (``fixedpoint.record``)
into a straight-line function on ints, which the generated step calls
through a closure that counts each call (``meta["rhs_evals"]``).  The
equations (``equations.py``) are coded once, type-neutrally, and record as
they are.  A right-hand side that branches on values or calls ``mp.*``
functions cannot be recorded; it is called with the integrator's
``fixed_type(bits)`` numbers instead, which give the same bits on what a
recording takes and correct mpf results on the rest, only slower.  The
accepted steps are kept as ints; a ``Trajectory`` turns them into mpf when
they are read.

Initial data is always seeded from quadrature (there are no free constants
anywhere in the pipeline); singular approaches halt with ``PoleHit`` rather
than being regularized.  Each system declares its singular values once, as
(value, radius) pairs for its first component: R_n = 0 for the coupled
pair, Phi_n in {0, 1} for the Painleve V form.  ``integrate_ivp`` floors
them onto its scale and compares ints at the initial point and at each
accepted point; a right-hand side that divides by zero at a stage is a
``PoleHit`` too.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from . import ladder as ladder_mod
from .equations import (central_differences, phi_of, pv_rhs, ric_bigr_rhs, ric_r_rhs, s_of,
                        stencil_step)
from .errors import ParameterError, PoleHit, SingularParams, StepUnderflow
from .fixedpoint import fixed_type, record
from .model import GUARD_BITS, ModelParams

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


def _to_mpf(v, frac, prec):
    """The int v at scale 2^-frac as an mpf rounded to prec bits."""
    return mp.make_mpf(from_man_exp(v, -frac, prec, round_nearest))


#: fraction bits of the step factor
_FACTOR_BITS = 64


def _iroot5(x):
    """floor(x^(1/5)) for an int x >= 0, by integer Newton started above the root.

    From any r > x^(1/5) the step (4r + x // r^4) // 5 falls strictly and,
    by the AM-GM inequality, not below floor(x^(1/5)); at r = floor(x^(1/5))
    it does not fall, which ends the loop.
    """
    if not x:
        return 0
    r = 1 << -(-x.bit_length() // 5)  # r^5 >= 2^bit_length > x
    while True:
        s = (4 * r + x // r ** 4) // 5
        if s >= r:
            return r
        r = s


def _worst(errs, bounds):
    """The pair (err, bound) of largest ratio err / bound, bounds positive."""
    e, b = errs[0], bounds[0]
    for ej, bj in zip(errs, bounds):
        if ej * b > e * bj:
            e, b = ej, bj
    return e, b


def _next_step(h, e, b):
    """floor(h * factor), factor = 0.9 (b / e)^(1/5) clamped to [1/5, 5]; 5 for e = 0.

    The factor inside the clamps is floor(2^P factor) / 2^P, P = ``_FACTOR_BITS``,
    from the exact rational 0.9^5 b / e.  A negative h floors as a positive
    one does, toward minus infinity.
    """
    num, den = 59049 * b, 100000 * e  # factor^5 = num / den, 0.9^5 = 59049 / 100000
    if num >= 5 ** 5 * den:
        return h * 5
    if 5 ** 5 * num <= den:
        return h // 5
    return h * _iroot5((num << 5 * _FACTOR_BITS) // den) >> _FACTOR_BITS


def _terms(coeffs, names):
    """The source of sum(c * name) over the nonzero coefficients c."""
    terms = [name if c == 1 else f"{c} * {name}" for c, name in zip(coeffs, names) if c]
    return " + ".join(terms).replace("+ -", "- ")


def _lowest(row, names):
    """(source of sum(c' * name), d): the tableau row over _D as c' / d in
    lowest terms, the same fractions, so every floor of them is the same int."""
    g = math.gcd(_D, *row)
    return _terms([c // g for c in row], names), _D // g


@functools.lru_cache(maxsize=16)
def _step_maker(dim, frac):
    """One Cash-Karp step on ``dim`` components at scale 2^-frac, as one
    straight-line function generated from the integer tableau.

    ``_step_maker(dim, frac)(rhs, err_up, bound_mul, bound_up)`` returns
    ``step(t, h, y, k1)``.  From the first stage ``k1 = rhs(t, y)`` it
    forms the stages ``k_i = rhs(t + c_i h, y + h (a_i . k))``, i = 2..6,
    and returns ``(y5, errs, bounds)``: ``y5 = y + h (b5 . k)``,
    ``errs_j = |h (e . k)_j| << err_up`` and ``bounds_j = bound_mul
    (1 + max(|y_j|, |y5_j|)) << bound_up``, with e the tableau row over _D.
    Each fraction is floored onto the scale from its lowest terms c' / d
    as ``h (c' . k) // d >> frac``, which is floor(h (c . k) / (_D 2^frac)):
    the integer sums are exact in any order, so these are the ints of the
    tableau rows applied term by term.  The source holds only int
    literals, names and ``abs``/``max``.
    """
    def floored(row, col):
        source, d = _lowest(row, col)
        return f"(h * ({source}) // {d} >> {frac})"

    ys = [f"y{j}" for j in range(dim)]
    ks = [[f"k{i}_{j}" for j in range(dim)] for i in range(1, 7)]
    cols = [[k[j] for k in ks] for j in range(dim)]
    lines = ["def make_step(rhs, err_up, bound_mul, bound_up):",
             "    def step(t, h, y, k1):",
             f"        [{', '.join(ys)}] = y",
             f"        [{', '.join(ks[0])}] = k1"]
    for i in range(1, 6):
        source, d = _lowest([_C[i]], ["h"])
        offset = source if d == 1 else f"{source} // {d}"
        stage = ", ".join(f"{y} + {floored(_A[i], col)}" for y, col in zip(ys, cols))
        lines.append(f"        [{', '.join(ks[i])}] = rhs(t + {offset}, [{stage}])")
    y5 = [f"y5_{j}" for j in range(dim)]
    lines += [f"        {v} = {y} + {floored(_B5, col)}" for v, y, col in zip(y5, ys, cols)]
    errs = ", ".join(f"abs(h * ({_terms(_E, col)})) << err_up" for col in cols)
    bounds = ", ".join(f"bound_mul * ({hex(1 << frac)} + max(abs({y}), abs({v}))) << bound_up"
                       for y, v in zip(ys, y5))
    lines += [f"        return [{', '.join(y5)}], [{errs}], [{bounds}]",
              "    return step"]
    namespace = {"__builtins__": {}, "abs": abs, "max": max}
    exec(compile("\n".join(lines), f"<Cash-Karp step, {dim} components>", "exec"), namespace)
    return namespace["make_step"]


class Trajectory:
    """Accepted steps, kept as the integrator's ints, with dense cubic-Hermite output.

    ``ts``, ``ys`` and ``fs`` are the accepted points, the state vectors
    and the right-hand sides there, ints at scale 2^-``frac`` with ``ts``
    strictly ascending regardless of integration direction.  They turn into
    mpf, rounded to ``prec`` bits, only when read: ``t_points``, ``values``
    and ``derivs`` convert every point on first read, ``sample`` only the
    points its bisection visits and the step that encloses its t.
    ``start = (index, t, y)`` is the initial point as given, in mpf; it
    reads back as given, not as its ints.
    ``meta`` records the integrator statistics and, for the two systems,
    n, params and kind ("riccati" or "pv").
    """

    def __init__(self, ts, ys, fs, frac, prec, start, meta):
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ParameterError("trajectory t_points must be strictly increasing")
        self.ts, self.ys, self.fs = ts, ys, fs
        self.frac, self.prec = frac, prec
        self._start = start
        self.meta = meta

    def _mpf(self, v):
        return _to_mpf(v, self.frac, self.prec)

    def _t(self, i):
        index, t, _ = self._start
        return t if i == index else self._mpf(self.ts[i])

    def _y(self, i):
        index, _, y = self._start
        return y if i == index else tuple(map(self._mpf, self.ys[i]))

    def _f(self, i):
        return tuple(map(self._mpf, self.fs[i]))

    @functools.cached_property
    def t_points(self):
        return tuple(map(self._t, range(len(self.ts))))

    @functools.cached_property
    def values(self):
        return tuple(map(self._y, range(len(self.ts))))

    @functools.cached_property
    def derivs(self):
        return tuple(map(self._f, range(len(self.ts))))

    @property
    def t0(self):
        return self._t(0)

    @property
    def t1(self):
        return self._t(len(self.ts) - 1)

    def sample(self, t):
        """Dense output at interior t via cubic Hermite on the enclosing step."""
        t = mp.mpf(t)
        last = len(self.ts) - 1
        if not self.t0 <= t <= self.t1:
            raise ParameterError(f"t={t} outside trajectory span")
        idx = bisect.bisect_right(range(last + 1), t, key=self._t) - 1
        if idx == last:
            return self._y(last)
        ta, tb = self._t(idx), self._t(idx + 1)
        ya, yb = self._y(idx), self._y(idx + 1)
        fa, fb = self._f(idx), self._f(idx + 1)
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


#: accepted plus rejected steps after which an integration gives up
MAX_STEPS = 200000


def integrate_ivp(f, t0, t1, y0, tol, bits=256, poles=()):
    """Adaptive Cash-Karp 5(4) integration of y' = f(t, y).

    A step is accepted when each component's embedded error estimate is at
    most tol (1 + max(|y_j|, |y5_j|)), y5 the fifth-order solution; the
    next step, after an accepted or a rejected one, is h times
    0.9 (bound/err)^(1/5) for the worst component, clamped to [1/5, 5].
    This step control is exact integer arithmetic (``_next_step``), so
    identical inputs give bit-identical trajectories on every host.
    ``ParameterError`` is raised, before any right-hand side is evaluated,
    unless ``bits`` is an int >= 64, ``tol`` is finite and positive, and
    t0, t1 and y0 are finite.

    Each step is one call of a function generated from the tableau
    (``_step_maker``); the loop keeps the clamp to t1, the floor check,
    the accept test, the pole test and the next step.  ``f`` is first
    called once on recording numbers (``fixedpoint.record``) and, if that
    succeeds, the step runs the recorded program on ints.  Otherwise ``f``
    is called at every stage with t and y as ``fixed_type(bits)`` numbers
    and may return those, ints or anything mpf accepts.  Both paths run
    the same step and give the same bits.

    ``poles`` are the singular values of the first component, as
    (value, radius) pairs; each is floored onto the scale once, and
    ``PoleHit`` is raised at the initial point, before any right-hand side
    is evaluated, or at the first accepted point where
    |y_0 - value| <= radius on the ints.  A right-hand side that divides
    by zero raises ``PoleHit`` naming the stage's t.  A step that floors to
    zero units of the scale, or a nonzero t1 - t0 that does, raises
    ``StepUnderflow``, as do ``MAX_STEPS`` steps.  Returns a
    ``Trajectory``; backward runs (t1 < t0) are stored ascending.
    Statistics: steps, rejected, rhs_evals (right-hand sides evaluated,
    counted at each call, the recording call not counted) and rhs_path
    ("recorded" or "generic").
    """
    if not isinstance(bits, int) or bits < 64:
        raise ParameterError(f"bits must be an integer >= 64, got {bits!r}")
    with mp.workprec(bits + GUARD_BITS):
        t0 = mp.mpf(t0)
        t1 = mp.mpf(t1)
        y0 = tuple(mp.mpf(v) for v in y0)
        tol = mp.mpf(tol)
        if not (mp.isfinite(tol) and tol > 0):
            raise ParameterError(f"tol must be finite and positive, got {tol}")
        if not all(map(mp.isfinite, (t0, t1, *y0))):
            raise ParameterError("t0, t1 and the initial data must be finite")
        Fixed = fixed_type(bits)
        frac = Fixed.FRAC
        prec = mp.prec
        t = _mantissa(t0, Fixed)
        end = _mantissa(t1, Fixed)
        y = [_mantissa(v, Fixed) for v in y0]
        span = end - t

        def show(v, digits=8):
            return mp.nstr(_to_mpf(v, frac, prec), digits)

        if span == 0 and t1 != t0:
            raise StepUnderflow(
                f"t1 - t0 = {mp.nstr(t1 - t0, 6)} is below one unit of the "
                f"scale 2^-{frac}")
        poles = [(_mantissa(v, Fixed), _mantissa(r, Fixed)) for v, r in poles]

        def check_poles(t, first):
            for value, radius in poles:
                if abs(first - value) <= radius:
                    raise PoleHit(f"y_0 = {show(first)} within {show(radius, 6)} of the "
                                  f"singular value {show(value)} at t={show(t)}")

        check_poles(t, y[0])
        program = record(f, Fixed, len(y0))
        path = "generic" if program is None else "recorded"
        if program is None:
            def program(t, y):
                return [_mantissa(v, Fixed) for v in f(Fixed(t), tuple(map(Fixed, y)))]

        def rhs(t, y):
            nonlocal evals
            evals += 1
            try:
                return program(t, y)
            except ZeroDivisionError:
                raise PoleHit(f"the right-hand side divides by zero at t={show(t)}") from None

        evals = 0
        fcur = rhs(t, y)
        ts, ys, fs = [t], [y], [fcur]
        # |err_j| <= tol (1 + max(|y_j|, |y5_j|)), with err_j an int at scale
        # 2^-2frac / _D and tol = tol_man 2^tol_exp, cleared of denominators
        _, tol_man, tol_exp, _ = tol._mpf_
        tol_shift = tol_exp + frac
        step = _step_maker(len(y), frac)(
            rhs, max(0, -tol_shift), _D * tol_man, max(0, tol_shift))
        h = span // 64
        h_floor = max(abs(span) >> (bits // 2), 1)
        steps = rejected = 0
        direction = 1 if span > 0 else -1
        while (end - t) * direction > 0:
            if abs(h) > abs(end - t):
                h = end - t
            if abs(h) < h_floor:
                raise StepUnderflow(f"step {show(abs(h), 6)} below floor "
                                    f"{show(h_floor, 6)} at t={show(t)}")
            y5, errs, bounds = step(t, h, y, fcur)
            e, b = _worst(errs, bounds)
            if e <= b:
                t += h
                y = y5
                check_poles(t, y[0])
                fcur = rhs(t, y)
                ts.append(t)
                ys.append(y)
                fs.append(fcur)
                steps += 1
            else:
                rejected += 1
            h = _next_step(h, e, b)
            if steps + rejected > MAX_STEPS:
                raise StepUnderflow(f"step budget {MAX_STEPS} exhausted")
        start = (0, t0, y0)
        if direction < 0:
            ts, ys, fs = ts[::-1], ys[::-1], fs[::-1]
            start = (len(ts) - 1, t0, y0)
        meta = {"steps": steps, "rejected": rejected, "rhs_evals": evals, "rhs_path": path}
        return Trajectory(ts, ys, fs, frac, prec, start, meta=meta)


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
    """params' constants as the integrator's numbers for params."""
    Fixed = fixed_type(params.precision_bits)
    return _Constants(*(Fixed(_mantissa(v, Fixed)) for v in (params.alpha, params.k2)))


def riccati_rhs(params: ModelParams, n: int):
    """Right-hand side of the coupled pair for state (R, r).

    On mpf it reads the mpf ``params``; on any other numbers (the
    integrator's, or its recording numbers) it reads alpha and k2 converted
    to the integrator's numbers once, here, so constant subexpressions fold
    in fixed point either way.
    """
    fixed = _fixed_constants(params)

    def f(t, y):
        c = params if isinstance(t, mp.mpf) else fixed
        R, r = y
        den = 2 * c.k2 * t
        return (
            ric_bigr_rhs(c, n, t, r, R) / den,
            ric_r_rhs(c, n, t, r, R) / den,
        )

    return f


#: the radius around each singular value, read at the working precision;
#: the coupled pair scales it by 1 + |R_n(t0)|
_RADIUS = "1e-8"


def integrate_riccati(params: ModelParams, n: int, t0, t1, init, tol) -> Trajectory:
    """Integrate the coupled pair from quadrature-style initial data (R, r).

    The pair divides by R_n: singular at R_n = 0, within 1e-8 (1 + |R_n(t0)|).
    """
    return _integrate("riccati", riccati_rhs,
                      lambda R0: ((0, mp.mpf(_RADIUS) * (1 + abs(R0))),),
                      params, n, t0, t1, init, tol)


def pv_ode_rhs(params: ModelParams, n: int):
    """State (Phi, Phi'); ``integrate_pv`` declares its singular values.

    Constants as in ``riccati_rhs``.
    """
    fixed = _fixed_constants(params)

    def f(t, y):
        phi, phip = y
        return (phip, pv_rhs(params if isinstance(t, mp.mpf) else fixed, n, t, phi, phip))

    return f


def integrate_pv(params: ModelParams, n: int, t0, t1, init, tol) -> Trajectory:
    """Integrate the Painleve V form from initial data (Phi, Phi').

    Singular at Phi_n in {0, 1}, within 1e-8.
    """
    return _integrate("pv", pv_ode_rhs, lambda phi0: ((0, _RADIUS), (1, _RADIUS)),
                      params, n, t0, t1, init, tol)


def _integrate(kind, rhs_of, poles_of, params: ModelParams, n: int, t0, t1, init, tol):
    """The body of both systems: ``rhs_of(params, n)`` integrated from init
    with the singular values ``poles_of(y_0(t0))``; ``integrate_ivp``
    refuses init unless it is finite."""
    _require_dynamic(params, n, mp.mpf(t0))
    with mp.workprec(params.work_bits):
        y0 = tuple(map(mp.mpf, init))
        traj = integrate_ivp(rhs_of(params, n), t0, t1, y0, tol,
                             bits=params.precision_bits, poles=poles_of(y0[0]))
    traj.meta.update({"n": n, "params": params, "kind": kind})
    return traj


def _require_seed(params: ModelParams, n: int, t0):
    """Refuse, before any quadrature, the initial data that the integrators
    would refuse after it: n outside 1..n_max, k2 = 0 or t0 <= 0."""
    if not 1 <= n <= params.n_max:
        raise ParameterError(f"degree n = {n} outside 1..n_max = 1..{params.n_max}")
    _require_dynamic(params, n, mp.mpf(t0))


def riccati_initial(params: ModelParams, n: int, t0):
    """(R_n, r_n) at t0 from quadrature, for n in 1..n_max; refused where
    ``integrate_riccati`` would refuse them."""
    _require_seed(params, n, t0)
    _, lad = ladder_mod.state_at(params, t0)
    return lad.R[n], lad.r[n]


def pv_initial(params: ModelParams, n: int, t0):
    """(Phi_n, Phi_n') at t0, n in 1..n_max: quadrature value plus a stencil
    derivative; refused where ``integrate_pv`` would refuse them."""
    _require_seed(params, n, t0)
    with mp.workprec(params.work_bits):
        t0 = mp.mpf(t0)
        s = s_of(n, params)
        h = stencil_step(t0)
        lo, phi0, hi = (phi_of(ladder_mod.state_at(params, tv)[1].R[n], s)
                        for tv in (t0 - h, t0, t0 + h))
        return phi0, central_differences(lo, phi0, hi, h)[0]


def crosscheck(trajectory: Trajectory, sample_ts):
    """Max normalized deviation between dense output and fresh quadrature.

    n, params and the system come from ``trajectory.meta``.  For a
    coupled-pair trajectory both components are compared; for a Painleve
    trajectory only Phi (the derivative has no direct quadrature analogue
    and is seeded by finite differences).
    """
    n, params, kind = (trajectory.meta[k] for k in ("n", "params", "kind"))
    worst = mp.mpf(0)
    with mp.workprec(params.work_bits):
        for ts in sample_ts:
            ts = mp.mpf(ts)
            dense = trajectory.sample(ts)
            _, lad = ladder_mod.state_at(params, ts)
            if kind == "riccati":
                targets = (lad.R[n], lad.r[n])
                got = dense
            else:
                s = s_of(n, params)
                targets = (phi_of(lad.R[n], s),)
                got = dense[:1]
            for g, q in zip(got, targets):
                worst = max(worst, abs(g - q) / (1 + abs(q)))
        return worst
