"""Stieltjes recurrence: classical oracle, orthogonality, bookkeeping."""

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import NoConvergence, ParameterError


def classical_beta(n, alpha):
    """Monic recurrence coefficient for the pure (1-z^2)^alpha weight."""
    n = mp.mpf(n)
    alpha = mp.mpf(alpha)
    return n * (n + 2 * alpha) / ((2 * n + 2 * alpha + 1) * (2 * n + 2 * alpha - 1))


@pytest.mark.parametrize("alpha", ["0.5", "1", "2"])
def test_classical_limit_oracle(alpha):
    p = pv5lab.validate(alpha, -1, 0, 192, 6, rel_tol=1e-30)
    st = pv5lab.build(p)
    for n in range(1, 7):
        assert abs(st.beta[n] - classical_beta(n, alpha)) < mp.mpf("1e-30")


def test_legendre_betas():
    # alpha = 0: beta_1 = 1/3, beta_2 = 4/15
    st = pv5lab.build(pv5lab.validate(0, -1, 0, 192, 4, rel_tol=1e-30))
    assert abs(st.beta[1] - mp.mpf(1) / 3) < mp.mpf("1e-30")
    assert abs(st.beta[2] - mp.mpf(4) / 15) < mp.mpf("1e-30")


def test_h0_equals_mu0_cross_route(gap_state, gap_params):
    mu0 = pv5lab.moment(0, gap_params)
    assert abs(gap_state.h[0] - mu0) < mp.mpf("1e-28") * mu0


def test_h_positive_and_beta_convention(gap_state):
    assert all(h > 0 for h in gap_state.h)
    assert gap_state.beta[0] == 0
    for n in range(1, gap_state.n_max + 1):
        assert gap_state.beta[n] > 0


def test_eval_monic_basics(gap_state, jacobi_state):
    assert pv5lab.monic_values(gap_state, "0.37")[0][0] == 1
    # P_2 = z^2 - beta_1 at the classical point: P_2(0.5) = 1/4 - 1/5
    got = pv5lab.monic_values(jacobi_state, "0.5")[0][2]
    assert abs(got - mp.mpf("0.05")) < mp.mpf("1e-30")


@pytest.mark.parametrize("n", [1, 2, 5])
def test_eval_monic_parity(n, gap_state):
    for z in ("0.3", "0.77"):
        left = pv5lab.monic_values(gap_state, "-" + z)[0][n]
        right = pv5lab.monic_values(gap_state, z)[0][n]
        assert left == (right if n % 2 == 0 else -right)


def test_eval_monic_derivative_basics(jacobi_state):
    assert pv5lab.monic_values(jacobi_state, "0.9")[1][1] == 1
    got = pv5lab.monic_values(jacobi_state, "0.7")[1][2]
    assert abs(got - mp.mpf("1.4")) < mp.mpf("1e-30")


def test_eval_monic_derivative_matches_finite_difference(gap_state):
    h = mp.mpf("1e-12")
    for n in (3, 6):
        for z in (mp.mpf("0.41"), mp.mpf("-0.88")):
            fd = (pv5lab.monic_values(gap_state, z + h)[0][n]
                  - pv5lab.monic_values(gap_state, z - h)[0][n]) / (2 * h)
            exact = pv5lab.monic_values(gap_state, z)[1][n]
            assert abs(fd - exact) < mp.mpf("1e-20") * (1 + abs(exact))


def test_orthogonality_odd_pair_short_circuits(gap_state):
    assert pv5lab.orthogonality_residual(gap_state, 0, 1) == 0


def test_orthogonality_residuals_small(gap_state):
    assert pv5lab.orthogonality_residual(gap_state, 0, 2) < mp.mpf("1e-28")
    assert pv5lab.orthogonality_residual(gap_state, 3, 5) < mp.mpf("1e-25")


def test_orthogonality_rejects_equal_degrees(gap_state):
    with pytest.raises(ParameterError):
        pv5lab.orthogonality_residual(gap_state, 2, 2)


def test_beta_two_routes_and_telescoping(gap_state):
    tol = 10 * mp.mpf(gap_state.params.rel_tol)
    for n in range(1, gap_state.n_max + 1):
        two_route = abs(gap_state.beta[n]
                        - (gap_state.p_sub[n] - gap_state.p_sub[n + 1]))
        assert two_route <= tol * gap_state.beta[n]
        total = mp.fsum(gap_state.beta[j] for j in range(n))
        assert abs(total + gap_state.p_sub[n]) <= tol * max(total, mp.mpf(1))


def test_p_sub_matches_direct_coefficient_extraction(gap_state):
    """Expand P_n coefficient vectors from the recurrence and read off p(n)."""
    coeffs = {0: [mp.mpf(1)], 1: [mp.mpf(0), mp.mpf(1)]}
    for n in range(1, 4):
        prev, cur = coeffs[n - 1], coeffs[n]
        nxt = [mp.mpf(0)] + cur  # z * P_n
        for i, c in enumerate(prev):
            nxt[i] -= gap_state.beta[n] * c
        coeffs[n + 1] = nxt
    for n in range(2, 5):
        p_direct = coeffs[n][n - 2]
        assert abs(p_direct - gap_state.p_sub[n]) < mp.mpf("1e-40")


def test_build_no_convergence_at_low_cap():
    p = pv5lab.validate(1, 0.25, 0.5, 256, 4, max_level=4)
    with pytest.raises(NoConvergence):
        pv5lab.build(p)


def test_build_is_cached(gap_params):
    a = pv5lab.build(gap_params)
    b = pv5lab.build(gap_params)
    assert a is b
