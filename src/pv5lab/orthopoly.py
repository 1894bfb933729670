"""Monic orthogonal polynomials for the deformed weight.

The even weight gives the three-term recurrence

    z P_n(z) = P_{n+1}(z) + beta_n P_{n-1}(z),      beta_0 P_{-1} := 0,

with no z P_n cross term.  ``build`` runs the Stieltjes procedure: the
squared norms h_n = <P_n, P_n> come from quadrature, beta_n = h_n/h_{n-1},
and the sub-leading coefficients p(n) (coefficient of z^{n-2} in P_n)
follow the exact recursion p(n+1) = p(n) - beta_n with p(0) = p(1) = 0.
The refinement level is raised until the whole h-array is stable to the
run's relative tolerance (``ModelParams.rel_tol``) between consecutive
doublings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp

from .errors import NoConvergence, ParameterError, PrecisionExhausted
from .model import MIN_LEVEL, ModelParams
from .quadrature import WeightTable


@dataclass(eq=False)
class OrthoState:
    """Frozen output of ``build``; shared, never mutated.

    h[n] and beta[n] cover 0..n_max (beta[0] = 0 by convention); p_sub[n]
    covers 0..n_max+1.
    """

    params: ModelParams
    h: tuple
    beta: tuple
    p_sub: tuple
    table: WeightTable = field(repr=False)

    @property
    def n_max(self) -> int:
        return self.params.n_max

    @property
    def level(self) -> int:
        """The build level, where every integral on the table starts."""
        return self.table.start_level


def _stieltjes_pass(table: WeightTable, level: int, n_max: int):
    """One full recurrence sweep using nodes up to ``level``.

    The rows P_n(y) stay in the table's integer form; every norm is one
    ``table.trapezoid`` kernel sum over the stored nodes y >= 0, the
    integrand P_n^2 w being even.  Returns (h, beta).
    """
    prev, cur = None, table.unit_rows(level)
    h = []
    beta = [mp.mpf(0)]
    for n in range(n_max + 1):
        hn = table.trapezoid([table.cw, cur, cur], level)
        if not mp.isfinite(hn) or hn <= 0:
            raise PrecisionExhausted(
                f"norm h_{n} = {hn} at level {level}; no significant digits left")
        h.append(hn)
        if n >= 1:
            beta.append(h[n] / h[n - 1])
        if n < n_max:
            prev, cur = cur, table.recur_rows(cur, prev, beta[n])
    return h, beta


def build(params: ModelParams) -> OrthoState:
    """Stieltjes procedure for (h_n, beta_n, p(n)) up to params.n_max.

    A pass that loses a norm below the level cap is not yet stable: the
    next level runs afresh.  Each call builds a new state; states are
    immutable and safe to share (``ladder.state_at`` keeps the recent ones).
    """
    with mp.workprec(params.work_bits):
        table = WeightTable(params)
        rel = mp.mpf(params.rel_tol)
        prev_h = None
        h = beta = None
        worst = None
        for level in range(MIN_LEVEL, params.max_level + 1):
            table.ensure_levels(level)
            try:
                h, beta = _stieltjes_pass(table, level, params.n_max)
            except PrecisionExhausted:
                if level == params.max_level:
                    raise
                prev_h = None
                continue
            if prev_h is not None:
                worst = max(abs(a - b) / a for a, b in zip(h, prev_h))
                if worst <= rel:
                    break
            prev_h = h
        else:
            change = ("no two consecutive complete passes to compare" if worst is None
                      else f"worst relative change {mp.nstr(worst, 6)}")
            raise NoConvergence(
                f"recurrence build not stable at level {params.max_level} ({change})",
                value=None, error=worst)
        p_sub = [mp.mpf(0), mp.mpf(0)]
        for n in range(1, params.n_max + 1):
            p_sub.append(p_sub[n] - beta[n])
        table.freeze(beta)
        return OrthoState(
            params=params,
            h=tuple(h),
            beta=tuple(beta),
            p_sub=tuple(p_sub),
            table=table,
        )


def monic_values(state: OrthoState, z):
    """(P_0..P_n_max(z), P_0'..P_n_max'(z)) from one pass of the forward
    recurrence and its derivative; leading coefficient exactly 1."""
    with mp.workprec(state.params.work_bits):
        z = mp.mpf(z)
        pm1, p = mp.mpf(0), mp.mpf(1)
        dm1, d = mp.mpf(0), mp.mpf(0)
        values, derivs = [p], [d]
        for j in range(state.n_max):
            dm1, d = d, p + z * d - state.beta[j] * dm1
            pm1, p = p, z * p - state.beta[j] * pm1
            values.append(p)
            derivs.append(d)
        return tuple(values), tuple(derivs)


def orthogonality_residual(state: OrthoState, m: int, n: int):
    """|<P_m, P_n>| / sqrt(h_m h_n) for m != n.

    Odd m+n is an odd integrand and short-circuits to exact 0.  The inner
    product is one ``WeightTable.raw_integral``, so an integral that does
    not converge by the level cap raises NoConvergence.
    """
    if m == n:
        raise ParameterError("orthogonality residual needs m != n")
    if not (0 <= m <= state.n_max and 0 <= n <= state.n_max):
        raise IndexError(f"degrees ({m}, {n}) outside [0, {state.n_max}]")
    if (m + n) % 2 == 1:
        return mp.mpf(0)
    table = state.table
    with mp.workprec(table.work_bits):
        norm = mp.sqrt(state.h[m] * state.h[n])
        res = table.raw_integral([table.cw, table.rows(m), table.rows(n)], scale=norm)
        return abs(res.value) / norm
