"""Weight model: validation, support, weight values, log-derivative."""

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import (
    AlphaOutOfRange,
    DomainError,
    K2OutOfRange,
    NegativeT,
    ParameterError,
    PoleError,
)

# frozen from an independent high-precision evaluation of
# 0.36 * exp(-50/39) and the exact rationals -1240/1521, (v'(4/5)-v'(3/5))/(1/5)
WEIGHT_08 = mp.mpf("0.099888318751056210580083984245827235583121617211722")
VPRIME_08 = -mp.mpf(1240) / 1521
DD_08_06 = mp.mpf("234.48261868279350796833314315831798349280866763384")


def test_validate_accepts_reference_point():
    p = pv5lab.validate(1, 0.25, 0.5, 256, 12)
    assert p.ladder_eligible and p.has_gap
    assert p.precision_bits == 256 and p.n_max == 12


def test_validate_rejects_k2_at_least_one():
    with pytest.raises(K2OutOfRange):
        pv5lab.validate(1, 1.5, 0.5, 256, 12)
    with pytest.raises(K2OutOfRange):
        pv5lab.validate(1, 1.0, 0.5, 256, 12)


def test_validate_alpha_zero_is_moment_only():
    p = pv5lab.validate(0, 0.25, 0.5, 256, 12)
    assert not p.ladder_eligible


def test_validate_rejects_negative_alpha_and_t():
    with pytest.raises(AlphaOutOfRange):
        pv5lab.validate(-0.5, 0.25, 0.5, 256, 12)
    with pytest.raises(NegativeT):
        pv5lab.validate(1, 0.25, -0.1, 256, 12)


def test_validate_rejects_bad_meta():
    with pytest.raises(ParameterError):
        pv5lab.validate(1, 0.25, 0.5, 32, 12)
    with pytest.raises(ParameterError):
        pv5lab.validate(1, 0.25, 0.5, 256, 0)
    with pytest.raises(ParameterError, match="n_max must be an integer >= 1, got True"):
        pv5lab.validate(1, 0.25, 0.5, 128, True)


@pytest.mark.parametrize("run, message", [
    ({"max_level": 5.5}, r"max_level must be in \[4, 16\], got 5.5"),
    ({"rel_tol": True}, "rel_tol must be a real number below 1, got True"),
    ({"rel_tol": "1e-20"}, "rel_tol must be a real number below 1, got '1e-20'"),
    ({"rel_tol": float("inf")}, "rel_tol must be a real number below 1, got inf"),
    ({"rel_tol": 1.0}, "rel_tol must be a real number below 1, got 1.0"),
], ids=["max_level-float", "rel_tol-bool", "rel_tol-str", "rel_tol-inf",
        "rel_tol-one"])
def test_validate_refuses_run_values_it_cannot_honour(run, message):
    # max_level 5.5 used to pass and fail later in range(); rel_tol True and
    # inf were taken as 1.0 and inf, which no integral can meet
    values = {"rel_tol": 1e-20, "max_level": 5, **run}
    with pytest.raises(ParameterError, match=message):
        pv5lab.validate(1, 0.25, 0.5, 128, 2, **values)


def test_support_two_intervals_with_gap():
    p = pv5lab.validate(1, 0.25, 0.5, 192, 4)
    sup = pv5lab.support(p)
    assert len(sup) == 2
    (a1, b1), (a2, b2) = sup
    assert a1 == -1 and b2 == 1
    assert abs(b1 + mp.mpf("0.5")) < mp.mpf("1e-50")
    assert abs(a2 - mp.mpf("0.5")) < mp.mpf("1e-50")
    assert b1 < a2


def test_support_single_interval_cases():
    for alpha, k2, t in [(1, -0.5, 0.5), (1, 0.25, 0)]:
        sup = pv5lab.support(pv5lab.validate(alpha, k2, t, 192, 4))
        assert len(sup) == 1
        (a, b), = sup
        assert a == -1 and b == 1


def test_weight_plain_jacobi_value():
    p = pv5lab.validate(1, -1, 0, 192, 4)
    assert abs(pv5lab.weight("0.6", p) - mp.mpf("0.64")) < mp.mpf("1e-50")


def test_weight_zero_inside_gap_and_at_edge():
    p = pv5lab.validate(1, 0.25, 0.5, 192, 4)
    assert pv5lab.weight("0.3", p) == 0
    assert pv5lab.weight("0.5", p) == 0
    assert pv5lab.weight("-0.5", p) == 0


def test_weight_frozen_value_outside_gap():
    p = pv5lab.validate(1, 0.25, 0.5, 256, 4)
    got = pv5lab.weight("0.8", p)
    assert abs(got - WEIGHT_08) < mp.mpf("1e-45")


def test_weight_domain_error():
    p = pv5lab.validate(1, 0.25, 0.5, 192, 4)
    with pytest.raises(DomainError):
        pv5lab.weight("1.01", p)


def test_weight_t_zero_ignores_k2():
    # the same pure Jacobi factor regardless of k2 at t = 0
    p1 = pv5lab.validate(1, 0.25, 0, 192, 4)
    p2 = pv5lab.validate(1, -1, 0, 192, 4)
    for z in ("0.0", "0.3", "0.9"):
        assert pv5lab.weight(z, p1) == pv5lab.weight(z, p2)


@pytest.mark.parametrize("z", ["0.05", "0.55", "0.8", "0.99"])
def test_weight_even_and_positive(z, gap_params):
    wp = pv5lab.weight(z, gap_params)
    wm = pv5lab.weight("-" + z, gap_params)
    assert wp == wm
    inside_gap = abs(mp.mpf(z)) <= mp.mpf("0.5")
    assert (wp == 0) if inside_gap else (wp > 0)


def test_v_prime_odd_and_zero_at_origin(gap_params):
    assert pv5lab.v_prime(0, gap_params) == 0
    a = pv5lab.v_prime("0.77", gap_params)
    b = pv5lab.v_prime("-0.77", gap_params)
    assert a == -b


def test_v_prime_classical_value():
    p = pv5lab.validate(1, -1, 0, 192, 4)
    got = pv5lab.v_prime("0.5", p)
    assert abs(got - mp.mpf(4) / 3) < mp.mpf("1e-50")


def test_v_prime_frozen_value():
    p = pv5lab.validate(1, 0.25, 0.5, 256, 4)
    assert abs(pv5lab.v_prime("0.8", p) - VPRIME_08) < mp.mpf("1e-60")


def test_v_prime_poles():
    p = pv5lab.validate(1, 0.25, 0.5, 192, 4)
    for z in ("1", "-1", "0.5", "-0.5"):
        with pytest.raises(PoleError):
            pv5lab.v_prime(z, p)


def test_v_prime_matches_log_derivative_of_weight(gap_params):
    # -(d/dz) ln w by central difference, O(h^2)
    h = mp.mpf("1e-12")
    with mp.workprec(gap_params.work_bits):
        for z in (mp.mpf("0.7"), mp.mpf("0.92"), mp.mpf("-0.63")):
            fd = -(mp.log(pv5lab.weight(z + h, gap_params))
                   - mp.log(pv5lab.weight(z - h, gap_params))) / (2 * h)
            assert abs(fd - pv5lab.v_prime(z, gap_params)) < mp.mpf("1e-20")


def test_v_second_matches_difference_of_v_prime(gap_params):
    h = mp.mpf("1e-12")
    with mp.workprec(gap_params.work_bits):
        for z in (mp.mpf("0.66"), mp.mpf("0.85")):
            fd = (pv5lab.v_prime(z + h, gap_params)
                  - pv5lab.v_prime(z - h, gap_params)) / (2 * h)
            assert abs(fd - pv5lab.v_second(z, gap_params)) < mp.mpf("1e-18") * abs(fd)


def test_dd_quotient_classical():
    p = pv5lab.validate(1, -1, 0, 192, 4)
    got = pv5lab.dd_quotient("0.5", "-0.5", p)
    assert abs(got - mp.mpf(8) / 3) < mp.mpf("1e-50")


def test_dd_quotient_frozen_and_stable():
    p = pv5lab.validate(1, 0.25, 0.5, 256, 4)
    with mp.workprec(p.work_bits):
        base = pv5lab.dd_quotient(mp.mpf(4) / 5, mp.mpf(3) / 5, p)
        assert abs(base - DD_08_06) < mp.mpf("1e-40")
        # nudging y by 1e-20 moves the quotient only at second order
        for eps in (mp.mpf("1e-20"), -mp.mpf("1e-20")):
            moved = pv5lab.dd_quotient(mp.mpf(4) / 5, mp.mpf(3) / 5 + eps, p)
            assert abs(moved - base) < mp.mpf("1e-15")


def test_dd_quotient_coincident_limit(gap_params):
    z = mp.mpf("0.81")
    assert pv5lab.dd_quotient(z, z, gap_params) == pv5lab.v_second(z, gap_params)
