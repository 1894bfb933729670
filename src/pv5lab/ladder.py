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

    A_n(z) = a_n/(1-z^2) + (a_n-s)/(z^2-k2) + k2 R_n/(z^2-k2)^2
    B_n(z) = z b_n/(1-z^2) + z (b_n-n)/(z^2-k2) + z r_n/(z^2-k2)^2

with s = 2n + 2alpha + 1 (``equations.s_of``).  The rational forms take
1-z^2, z^2-k2 and the pole guard from ``model``, so they raise PoleError
exactly where v'(z) does.  ``A_integral``/``B_integral`` evaluate the
defining integrals directly, so rational and integral routes can be
compared as an end-to-end validation.  The weight table stores the nodes
y >= 0 only, so they integrate P_n^2 against the even part in y of dd(z, y)
and P_n P_{n-1} against its odd part (``WeightTable.dd``).  r_0 = b_0 = 0
(their integrands contain P_{-1}), and R_n = r_n = 0 at t = 0.  Every
other sequence value, and every A_n(z) and B_n(z) but B_0 = 0, is one
``WeightTable.raw_integral`` divided by a norm; that routine refines the
shared table and raises NoConvergence at its level cap, so no value here
comes from an unconverged integral.

``point_values`` is the one entry to the rational route at a z: one pole
test, one recurrence pass for P_n(z) and P_n'(z), and each rational form
once, for every degree.  The lowering and raising residuals are methods of
its ``PointValues``.

``state_at`` is the one way to the states at a time t, and refuses
ladder-ineligible parameters before any quadrature; the caches of
``orthopoly.build`` and ``compute`` share the states between its callers.
Every function handed a built state works at the precision of its weight
table, whose ``ModelParams`` also fix each integral's tolerance and level
cap.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from mpmath import mp

from . import orthopoly
from .equations import s_of
from .errors import LadderIneligible
from .model import ModelParams, _pole_basis, _v_prime_from, v_prime
from .orthopoly import OrthoState, monic_values


@dataclass(eq=False)
class LadderState:
    """Arrays R, r, a, b for 0 <= n <= n_max at fixed (params, t)."""

    ortho: OrthoState
    R: tuple
    r: tuple
    a: tuple
    b: tuple


def require_eligible(params: ModelParams):
    """Raise LadderIneligible unless ``params.ladder_eligible``."""
    if not params.ladder_eligible:
        raise LadderIneligible(
            f"ladder quantities need alpha > 0, and k2 < 0 at t = 0; got {params!r}")


@functools.lru_cache(maxsize=8)
def _compute_cached(state: OrthoState) -> LadderState:
    params = state.params
    require_eligible(params)
    table = state.table
    n_max = params.n_max
    with mp.workprec(table.work_bits):
        zero = mp.mpf(0)
        two_t = 2 * params.t
        two_alpha = 2 * params.alpha

        def seq(coef, factors, h):
            return coef * table.raw_integral(factors, scale=h).value / h

        R, r, a, b = [], [], [], []
        for n in range(n_max + 1):
            h = state.h[n]
            R.append(zero if params.t == 0 else seq(two_t, [table.sq(n), table.inv_zk2], h))
            a.append(seq(two_alpha, [table.sq(n), table.inv_om2], h))
            if n == 0:
                r.append(zero)
                b.append(zero)
                continue
            h = state.h[n - 1]
            r.append(zero if params.t == 0
                     else seq(two_t, [table.adj(n), table.y, table.inv_zk2], h))
            b.append(seq(two_alpha, [table.adj(n), table.y, table.inv_om2], h))
        return LadderState(ortho=state, R=tuple(R), r=tuple(r), a=tuple(a), b=tuple(b))


def compute(state: OrthoState) -> LadderState:
    """All four ladder sequences by quadrature; cached per state."""
    return _compute_cached(state)


def state_at(params: ModelParams, t):
    """(OrthoState, LadderState) of ``params`` at t, read at the working
    precision; raises LadderIneligible before any quadrature where the
    ladder integrals do not exist."""
    with mp.workprec(params.work_bits):
        params = dataclasses.replace(params, t=mp.mpf(t))
        require_eligible(params)
        ortho = orthopoly.build(params)
    return ortho, compute(ortho)


def _a_form(n, z, om2, zk2, params, lad):
    return (lad.a[n] / om2
            + (lad.a[n] - s_of(n, params)) / zk2
            + params.k2 * lad.R[n] / (zk2 * zk2))


def _b_form(n, z, om2, zk2, params, lad):
    return (z * lad.b[n] / om2
            + z * (lad.b[n] - n) / zk2
            + z * lad.r[n] / (zk2 * zk2))


def A_integral(n: int, z, ortho: OrthoState, vp=None):
    """A_n(z) from its defining integral (any real z off the poles of v').

    ``vp`` is v'(z) where the caller already holds it (``PointValues.vp``);
    otherwise it is computed here, with its pole test."""
    table = ortho.table
    with mp.workprec(table.work_bits):
        z = mp.mpf(z)
        vpz = v_prime(z, ortho.params) if vp is None else vp
        even, _ = table.dd(z, vpz)
        h = ortho.h[n]
        return table.raw_integral([table.sq(n), even], scale=h).value / h


def B_integral(n: int, z, ortho: OrthoState, vp=None):
    """B_n(z) from its defining integral; B_0 = 0 (P_{-1} convention).
    ``vp`` as in ``A_integral``."""
    table = ortho.table
    with mp.workprec(table.work_bits):
        if n == 0:
            return mp.mpf(0)
        z = mp.mpf(z)
        vpz = v_prime(z, ortho.params) if vp is None else vp
        _, odd = table.dd(z, vpz)
        h = ortho.h[n - 1]
        return table.raw_integral([table.adj(n), odd], scale=h).value / h


@dataclass(eq=False)
class PointValues:
    """The rational-route values at one z, for 0 <= n <= n_max: v'(z),
    P_n(z), P_n'(z) and the rational forms A_n(z), B_n(z)."""

    ortho: OrthoState
    vp: object
    P: tuple
    dP: tuple
    A: tuple
    B: tuple

    def lowering_residual(self, n: int):
        """|P_n' + B_n P_n - beta_n A_n P_{n-1}| over the largest term."""
        _ladder_degree(self.ortho, n)
        with mp.workprec(self.ortho.params.work_bits):
            t1 = self.dP[n]
            t2 = self.B[n] * self.P[n]
            t3 = self.ortho.beta[n] * self.A[n] * self.P[n - 1]
            scale = 1 + max(abs(t1), abs(t2), abs(t3))
            return abs(t1 + t2 - t3) / scale

    def raising_residual(self, n: int):
        """|P_{n-1}' - (B_n + v') P_{n-1} + A_{n-1} P_n| over the largest term."""
        _ladder_degree(self.ortho, n)
        with mp.workprec(self.ortho.params.work_bits):
            t1 = self.dP[n - 1]
            t2 = (self.B[n] + self.vp) * self.P[n - 1]
            t3 = self.A[n - 1] * self.P[n]
            scale = 1 + max(abs(t1), abs(t2), abs(t3))
            return abs(t1 - t2 + t3) / scale


def _ladder_degree(ortho: OrthoState, n: int):
    # the relations pair P_n with P_{n-1}
    if not 1 <= n <= ortho.n_max:
        raise IndexError(f"degree {n} outside [1, {ortho.n_max}]")


def point_values(z, ortho: OrthoState, lad: LadderState) -> PointValues:
    """``PointValues`` at z: one pole test, one recurrence pass, and each
    rational form once per degree; raises PoleError where v'(z) does."""
    params = ortho.params
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        om2, zk2 = _pole_basis(z, params)
        P, dP = monic_values(ortho, z)
        degrees = range(params.n_max + 1)
        return PointValues(
            ortho=ortho, vp=_v_prime_from(z, om2, zk2, params), P=P, dP=dP,
            A=tuple(_a_form(n, z, om2, zk2, params, lad) for n in degrees),
            B=tuple(_b_form(n, z, om2, zk2, params, lad) for n in degrees))
