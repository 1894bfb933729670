"""The two eliminations of README "Findings", checked on sympy symbols.

``equations.py`` is type-neutral, so its formulas run unchanged on sympy
expressions.  With R, R', R'' as symbols:

* solving the R-equation of the coupled pair for r (it is linear in r) and
  putting r and its derivative along the flow into the r-equation gives
  the second-order equation ``ode_rn``, up to the factor -1;
* Phi = (R + s)/s turns ``pv_rhs`` into the same equation.

sympy is a test dependency: a missing sympy fails this module.
"""

from types import SimpleNamespace

import sympy as sp

from pv5lab import equations as eq

n, alpha, k2, t, R, Rp, Rpp, r = sp.symbols("n alpha k2 t R Rp Rpp r")
PARAMS = SimpleNamespace(alpha=alpha, k2=k2)


def _divide_by_ode_rn(expr):
    """(quotient, remainder) of the numerator of expr divided by ode_rn, as
    polynomials in (R'', R')."""
    num, _ = sp.fraction(sp.together(expr))
    ode = eq.ode_rn(PARAMS, n, t, R, Rp, Rpp)
    return sp.div(sp.expand(num), sp.expand(ode), Rpp, Rp)


def test_coupled_pair_eliminates_to_ode_rn():
    bigr = eq.ric_bigr_rhs(PARAMS, n, t, r, R)
    assert sp.degree(bigr, r) == 1
    (r_of_R,) = sp.solve(sp.Eq(bigr, 2 * k2 * t * Rp), r)
    rp = sp.diff(r_of_R, t) + sp.diff(r_of_R, R) * Rp + sp.diff(r_of_R, Rp) * Rpp
    quotient, remainder = _divide_by_ode_rn(
        2 * k2 * t * rp - eq.ric_r_rhs(PARAMS, n, t, r_of_R, R))
    assert remainder == 0
    assert quotient == -1


def test_pv_phi_is_ode_rn():
    s = eq.s_of(n, PARAMS)
    phi = eq.phi_of(R, s)
    quotient, remainder = _divide_by_ode_rn(Rpp / s - eq.pv_rhs(PARAMS, n, t, phi, Rp / s))
    assert remainder == 0
    assert quotient == 1
