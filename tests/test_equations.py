"""The formulas of ``equations.py`` on exact number types.

``equations.py`` is type-neutral, so its formulas run unchanged on sympy
expressions and on ``Fraction``.  The coefficient identities give exact
(lhs, rhs) pairs on both, and relations between them hold identically.
The two eliminations of README "Findings" are checked with R, R', R'' as
symbols:

* solving the R-equation of the coupled pair for r (it is linear in r) and
  putting r and its derivative along the flow into the r-equation gives
  the second-order equation ``ode_rn``, up to the factor -1;
* Phi = (R + s)/s turns ``pv_rhs`` into the same equation.

sympy is a test dependency: a missing sympy fails this module.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy as sp

from pv5lab import equations as eq

n, alpha, k2, t, R, Rp, Rpp, r = sp.symbols("n alpha k2 t R Rp Rpp r")
PARAMS = SimpleNamespace(alpha=alpha, k2=k2)

#: every coefficient identity, each (c, n, t, o, q) -> (lhs, rhs)
IDENTITIES = (eq.c_s1_b, eq.c_s1_r, eq.c_s2_b, eq.c_s2_r, eq.c_s2_mix, eq.yj3, eq.yj4,
              eq.tele_sum, eq.q1, eq.q2, eq.q3, eq.q4, eq.q5, eq.q6, eq.q7, eq.qp3, eq.qp4,
              eq.qp5, eq.qp6, eq.mutex_witness, eq.zhu232, eq.beta_closed)

#: the degree the identities are taken at, and the length of each sequence
DEGREE, LENGTH = 3, 5


def _symbolic_states():
    """(o, q) with each sequence entry its own symbol."""
    def seq(name):
        return sp.symbols(f"{name}0:{LENGTH}")
    return (SimpleNamespace(beta=seq("beta"), p_sub=seq("p")),
            SimpleNamespace(R=seq("R"), r=seq("r"), a=seq("a"), b=seq("b")))


def _difference(identity, o, q):
    lhs, rhs = identity(PARAMS, DEGREE, t, o, q)
    return lhs - rhs


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda f: f.__name__)
def test_identity_is_exact_on_fractions(identity):
    """Fraction sequences give Fraction or int sides, never a float or an mpf."""
    def seq(first):
        return [Fraction(first + 3 * j, 7 + j) for j in range(LENGTH)]
    c = SimpleNamespace(alpha=Fraction(3, 2), k2=Fraction(-1, 3))
    o = SimpleNamespace(beta=seq(1), p_sub=seq(-2))
    q = SimpleNamespace(R=seq(2), r=seq(5), a=seq(4), b=seq(-1))
    for side in identity(c, DEGREE, Fraction(1, 2), o, q):
        assert type(side) in (Fraction, int), type(side)


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda f: f.__name__)
def test_identity_is_symbolic_on_sympy_symbols(identity):
    """Symbol sequences give sympy sides (or a zero side, the int 0) whose
    difference is a nonconstant expression."""
    o, q = _symbolic_states()
    lhs, rhs = identity(PARAMS, DEGREE, t, o, q)
    for side in (lhs, rhs):
        assert isinstance(side, sp.Basic) or (type(side) is int and side == 0), side
    assert sp.expand(lhs - rhs).free_symbols


def test_q3_and_qp3_sum_to_twice_the_mutex_witness():
    """(Q3) + (QP3) = 2 (MUTEX_WITNESS), each as lhs - rhs, identically."""
    o, q = _symbolic_states()
    both = _difference(eq.q3, o, q) + _difference(eq.qp3, o, q)
    assert sp.expand(both - 2 * _difference(eq.mutex_witness, o, q)) == 0


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
