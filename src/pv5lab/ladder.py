"""Ladder coefficients A_n(z), B_n(z) and the four auxiliary sequences.

The lowering/raising pair

    P_n'(z)     = -B_n(z) P_n(z) + beta_n A_n(z) P_{n-1}(z)
    P_{n-1}'(z) = [B_n(z) + v'(z)] P_{n-1}(z) - A_{n-1}(z) P_n(z)

holds for any smooth weight vanishing at the support endpoints, with

    A_n(z) = (1/h_n)     * integral dd(z,y) P_n(y)^2      w(y) dy
    B_n(z) = (1/h_{n-1}) * integral dd(z,y) P_n(y) P_{n-1}(y) w(y) dy

over the support, dd being the divided difference of v'.  For this weight
both collapse to three-pole rational forms whose coefficients are the four
sequences computed here:

    R_n = (2t/h_n)      integral P_n^2        w / (y^2-k2)
    a_n = (2alpha/h_n)  integral P_n^2        w / (1-y^2)
    r_n = (2t/h_{n-1})  integral y P_n P_{n-1} w / (y^2-k2)
    b_n = (2alpha/h_{n-1}) integral y P_n P_{n-1} w / (1-y^2)

    A_n(z) = a_n/(1-z^2) + (a_n-2n-2alpha-1)/(z^2-k2) + k2 R_n/(z^2-k2)^2
    B_n(z) = z b_n/(1-z^2) + z (b_n-n)/(z^2-k2) + z r_n/(z^2-k2)^2

``A_integral``/``B_integral`` evaluate the defining integrals directly, so
rational and integral routes can be compared as an end-to-end validation.
r_0 = b_0 = 0 (their integrands contain P_{-1}).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from mpmath import mp

from .errors import LadderIneligible, NoConvergence, PoleError
from .model import gap_edge, pole_guard, v_prime
from .orthopoly import OrthoState, eval_monic, eval_monic_derivative
from .quadrature import PrecisionContext


@dataclass(eq=False)
class LadderState:
    """Arrays R, r, a, b for 0 <= n <= n_max at fixed (params, t)."""

    ortho: OrthoState
    R: tuple
    r: tuple
    a: tuple
    b: tuple

    @property
    def params(self):
        return self.ortho.params


def _quad(table, factors, scale):
    res = table.raw_integral(factors, scale=scale)
    if not res.converged:
        raise NoConvergence(
            "ladder integral did not converge "
            f"(estimate {mp.nstr(res.error, 6)})",
            value=res.value, error=res.error)
    return res.value


@functools.lru_cache(maxsize=8)
def _compute_cached(state: OrthoState, ctx: PrecisionContext) -> LadderState:
    params = state.params
    if not params.ladder_eligible:
        raise LadderIneligible("ladder quantities need alpha > 0")
    if params.t == 0 and params.k2 >= 0:
        raise LadderIneligible(
            "at t = 0 the 1/(y^2-k2) integrals require k2 < 0")
    table = state.table
    n_max = params.n_max
    with mp.workprec(ctx.work_bits):
        two_t = 2 * params.t
        two_alpha = 2 * params.alpha
        R, r, a, b = [], [], [], []
        for n in range(n_max + 1):
            scale = state.h[n]
            if params.t == 0:
                R.append(mp.mpf(0))
            else:
                val = _quad(table, [lambda: table.sq(n), lambda: table.inv("zk2")], scale)
                R.append(two_t * val / state.h[n])
            a.append(two_alpha * _quad(
                table, [lambda: table.sq(n), lambda: table.inv("om2")], scale)
                / state.h[n])
            if n == 0:
                r.append(mp.mpf(0))
                b.append(mp.mpf(0))
                continue
            scale = state.h[n - 1]
            if params.t == 0:
                r.append(mp.mpf(0))
            else:
                val = _quad(table, [lambda: table.adj(n), lambda: table.y,
                                    lambda: table.inv("zk2")], scale)
                r.append(two_t * val / state.h[n - 1])
            val = _quad(table, [lambda: table.adj(n), lambda: table.y,
                                lambda: table.inv("om2")], scale)
            b.append(two_alpha * val / state.h[n - 1])
        return LadderState(ortho=state, R=tuple(R), r=tuple(r), a=tuple(a), b=tuple(b))


def compute(state: OrthoState, ctx: PrecisionContext) -> LadderState:
    """All four ladder sequences by quadrature; cached per (state, ctx)."""
    return _compute_cached(state, ctx)


def _rational_pieces(n, z, params):
    """(1-z^2, z^2-k2) at z with the pole guard of v'."""
    g = pole_guard(params)
    if abs(1 - z) < g or abs(1 + z) < g:
        raise PoleError(f"z={z} within the guard radius of +-1")
    om2 = (1 - z) * (1 + z)
    if params.k2 > 0:
        rk = gap_edge(params)
        if abs(abs(z) - rk) < g * (1 + rk):
            raise PoleError(f"z={z} within the guard radius of +-sqrt(k2)")
        zk2 = (abs(z) - rk) * (abs(z) + rk) + (rk * rk - params.k2)
    else:
        zk2 = z * z - params.k2
    return om2, zk2


def A_rational(n: int, z, ortho: OrthoState, lad: LadderState):
    """Three-pole rational form of A_n(z)."""
    params = ortho.params
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        om2, zk2 = _rational_pieces(n, z, params)
        s = 2 * n + 2 * params.alpha + 1
        return (lad.a[n] / om2
                + (lad.a[n] - s) / zk2
                + params.k2 * lad.R[n] / (zk2 * zk2))


def B_rational(n: int, z, ortho: OrthoState, lad: LadderState):
    """Three-pole rational form of B_n(z); identically 0 at n = 0."""
    params = ortho.params
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        om2, zk2 = _rational_pieces(n, z, params)
        return (z * lad.b[n] / om2
                + z * (lad.b[n] - n) / zk2
                + z * lad.r[n] / (zk2 * zk2))


def A_integral(n: int, z, ortho: OrthoState, ctx: PrecisionContext):
    """A_n(z) from its defining integral (any real z off the poles of v')."""
    params = ortho.params
    table = ortho.table
    with mp.workprec(ctx.work_bits):
        z = mp.mpf(z)
        vpz = v_prime(z, params)
        val = _quad(table, [lambda: table.sq(n), lambda: table.dd(z, vpz)],
                    scale=ortho.h[n])
        return val / ortho.h[n]


def B_integral(n: int, z, ortho: OrthoState, ctx: PrecisionContext):
    """B_n(z) from its defining integral; B_0 = 0 (P_{-1} convention)."""
    params = ortho.params
    table = ortho.table
    with mp.workprec(ctx.work_bits):
        if n == 0:
            return mp.mpf(0)
        z = mp.mpf(z)
        vpz = v_prime(z, params)
        val = _quad(table, [lambda: table.adj(n), lambda: table.dd(z, vpz)],
                    scale=ortho.h[n - 1])
        return val / ortho.h[n - 1]


def lowering_residual(n: int, z, ortho: OrthoState, lad: LadderState):
    """|P_n' + B_n P_n - beta_n A_n P_{n-1}| over the largest term, rational route."""
    params = ortho.params
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        t1 = eval_monic_derivative(ortho, n, z)
        t2 = B_rational(n, z, ortho, lad) * eval_monic(ortho, n, z)
        t3 = ortho.beta[n] * A_rational(n, z, ortho, lad) * eval_monic(ortho, n - 1, z)
        scale = 1 + max(abs(t1), abs(t2), abs(t3))
        return abs(t1 + t2 - t3) / scale


def raising_residual(n: int, z, ortho: OrthoState, lad: LadderState):
    """|P_{n-1}' - (B_n + v') P_{n-1} + A_{n-1} P_n| over the largest term."""
    params = ortho.params
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        t1 = eval_monic_derivative(ortho, n - 1, z)
        t2 = (B_rational(n, z, ortho, lad) + v_prime(z, params)) * eval_monic(ortho, n - 1, z)
        t3 = A_rational(n - 1, z, ortho, lad) * eval_monic(ortho, n, z)
        scale = 1 + max(abs(t1), abs(t2), abs(t3))
        return abs(t1 - t2 + t3) / scale
