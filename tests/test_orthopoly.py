"""Stieltjes recurrence: classical oracle, orthogonality, bookkeeping."""

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import NoConvergence, ParameterError, PrecisionExhausted


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


def test_build_refines_past_a_level_that_loses_a_norm():
    """Float inputs whose level-3 pass loses h_94: the build goes on to a
    finer level and agrees with the same inputs at twice the bits."""
    st = pv5lab.build(pv5lab.validate(1, 0.09, 0.1, 128, 96, rel_tol=1e-30))
    ref = pv5lab.build(pv5lab.validate(1, 0.09, 0.1, 256, 96, rel_tol=1e-30))
    assert st.level > 3
    with mp.workprec(ref.params.work_bits):
        for got, want in [(st.h, ref.h), (st.beta[1:], ref.beta[1:])]:
            assert max(abs(a - b) / b for a, b in zip(got, want)) < mp.mpf("1e-30")


def test_build_without_two_complete_passes_says_so():
    # level 3 loses a norm and level 4, the cap, is the only complete pass
    p = pv5lab.validate(1, -0.5, 0.1, 256, 90, max_level=4)
    with pytest.raises(NoConvergence, match="no two consecutive complete passes"):
        pv5lab.build(p)


def test_build_loses_a_norm_at_the_cap():
    p = pv5lab.validate(1, -0.5, 0.1, 128, 100, rel_tol=1e-30, max_level=4)
    with pytest.raises(PrecisionExhausted,
                       match=r"^norm h_\d+ = 0\.0 at level 4; no significant digits left$"):
        pv5lab.build(p)


# beta_1..beta_n_max of the benchmark's two seed states (certify and
# trajectory), to 100 digits: one ulp at 320 working bits is about 5e-97 of
# the value, so a move of the last bit shows.  BETA_ROUTES compares beta with
# a difference of p_sub, so its residual, and with it certify's
# required_margin_digits, is set by these bits.
_WORKLOAD_BETA = {
    ("0.25", 8): [
        "0.6582810765327070450749710995855990901358376670442263954849105541391109873132338132329343498330387315",
        "0.03073616996570413879100877708470629803687306477056729919015646871540277726973504165260835689767338051",
        "0.6411942544695503583963487472220288061107746039832200993281355477801830905680383210403249931153629405",
        "0.03856151001967489950011223419520374193356532270078279546669525109585756362182858761245146364607636303",
        "0.6279961372932163562766882028230984805060962525895039964195765198161308311233409644542910673721176424",
        "0.04266043191555142963670694034179856238946168635063757876744023293632015405270028259024209934458081577",
        "0.6190676402905161491695296052009456295817166237799587690626683436245383048901282974657304208644696562",
        "0.04528820085789306181994768572932088211384625362047708463934853381691951990062456530830900460460893665",
    ],
    ("0.04", 2): [
        "0.5236399507929480403247079362266543897435374664190568239380567683313729897940726360060344298825664922",
        "0.0679237492028882512947135420928663556145183052114550640138690600732236335677639077809370413299413765",
    ],
}


@pytest.mark.parametrize("k2,n_max", list(_WORKLOAD_BETA))
def test_workload_seed_betas_are_pinned(k2, n_max):
    state = pv5lab.build(pv5lab.validate(1, k2, "0.5", 256, n_max, rel_tol=1e-40,
                                         max_level=12))
    assert [mp.nstr(b, 100) for b in state.beta[1:]] == _WORKLOAD_BETA[(k2, n_max)]
