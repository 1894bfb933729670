"""Tanh-sinh integration: values, error estimates, convergence flags, and
the integer dot-product kernel behind the weight tables."""

import random

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import ParameterError
from pv5lab.quadrature import (IntArray, WeightTable, _dot, _fixed, _pack,
                               integration_intervals)


def test_context_validation():
    with pytest.raises(ParameterError):
        pv5lab.PrecisionContext(bits=32)
    with pytest.raises(ParameterError):
        pv5lab.PrecisionContext(bits=256, max_level=40)
    with pytest.raises(ParameterError):
        pv5lab.PrecisionContext(bits=64, rel_tol=1e-40)  # below 2^(-bits+16)
    with pytest.raises(ParameterError):
        pv5lab.PrecisionContext(bits=256, rel_tol=0.0)


def test_constant_over_full_interval(ctx_fast):
    sup = pv5lab.support(pv5lab.validate(0, -1, 0, 192, 4))
    res = pv5lab.integrate(lambda z: mp.mpf(1), sup, ctx_fast)
    assert res.converged
    assert abs(res.value - 2) < mp.mpf("1e-30")


def test_odd_integrand_cancels(gap_params, ctx_fast):
    sup = pv5lab.support(gap_params)
    res = pv5lab.integrate(lambda z: z * pv5lab.weight(z, gap_params), sup, ctx_fast)
    assert res.converged
    assert abs(res.value) < mp.mpf("1e-40")


def test_weight_mass_cross_rule(gap_params, ctx_fast):
    """Tanh-sinh against mpmath's Gauss-Legendre rule (independent code path)."""
    sup = pv5lab.support(gap_params)
    res = pv5lab.integrate(lambda z: pv5lab.weight(z, gap_params), sup, ctx_fast)
    assert res.converged and res.value > 0
    # 160 bits carry the oracle well past the 1e-30 bounds (its estimate is
    # near 1e-56); at the 256 working bits it took a third of Tier-1
    with mp.workprec(160):
        parts = [mp.quad(lambda z: pv5lab.weight(z, gap_params), [a, b],
                         method="gauss-legendre", error=True)
                 for a, b in sup]
        oracle = mp.fsum(value for value, _ in parts)
        oracle_error = mp.fsum(error for _, error in parts)
    assert oracle_error <= mp.mpf("1e-40") * oracle
    assert abs(res.value - oracle) < mp.mpf("1e-30") * oracle
    # the weight table's integer-kernel route to the same mass
    table = WeightTable(gap_params, ctx_fast)
    table.ensure_levels(4)
    mass = table.raw_integral([lambda: table.cw])
    assert mass.converged
    assert abs(mass.value - oracle) < mp.mpf("1e-30") * oracle


def test_moment_trivial_values(ctx_fast):
    p0 = pv5lab.validate(0, -1, 0, 192, 4)
    assert abs(pv5lab.moment(0, p0, ctx_fast) - 2) < mp.mpf("1e-30")
    assert abs(pv5lab.moment(2, p0, ctx_fast) - mp.mpf(2) / 3) < mp.mpf("1e-30")
    p1 = pv5lab.validate(1, -1, 0, 192, 4)
    assert abs(pv5lab.moment(0, p1, ctx_fast) - mp.mpf(4) / 3) < mp.mpf("1e-30")


def test_odd_moment_is_exact_zero(gap_params, ctx_fast):
    assert pv5lab.moment(3, gap_params, ctx_fast) == 0
    assert pv5lab.moment(1, gap_params, ctx_fast) == 0


def test_moment_rejects_bad_order(gap_params, ctx_fast):
    with pytest.raises(ParameterError):
        pv5lab.moment(-1, gap_params, ctx_fast)


def test_even_symmetry_of_two_interval_integral(gap_params, ctx_fast):
    """Integral over both intervals equals twice the right interval for even f."""
    f = lambda z: pv5lab.weight(z, gap_params) / (1 + z * z)
    sup = pv5lab.support(gap_params)
    full = pv5lab.integrate(f, sup, ctx_fast)
    right = pv5lab.integrate(f, [sup.intervals[1]], ctx_fast)
    assert full.converged and right.converged
    assert abs(full.value - 2 * right.value) <= mp.mpf(10) * (full.error + 2 * right.error)


def test_interval_additivity(ctx_fast):
    p = pv5lab.validate(1, -0.5, 0.5, 192, 4)
    f = lambda z: pv5lab.weight(z, p)
    whole = pv5lab.integrate(f, [(mp.mpf(-1), mp.mpf(1))], ctx_fast)
    split = pv5lab.integrate(f, [(mp.mpf(-1), mp.mpf("0.3")),
                                 (mp.mpf("0.3"), mp.mpf(1))], ctx_fast)
    assert abs(whole.value - split.value) <= mp.mpf(10) * (whole.error + split.error)


def test_error_estimate_honesty(ctx_fast):
    # closed form: integral of z^2 (1-z^2) over [-1,1] = 4/15
    p = pv5lab.validate(1, -1, 0, 192, 4)
    res = pv5lab.integrate(lambda z: z * z * pv5lab.weight(z, p),
                           pv5lab.support(p), ctx_fast)
    true_err = abs(res.value - mp.mpf(4) / 15)
    assert true_err <= 10 * res.error


def test_no_convergence_flag():
    ctx = pv5lab.PrecisionContext(bits=64, rel_tol=1e-12, max_level=4)
    res = pv5lab.integrate(lambda z: mp.sqrt(abs(z - mp.mpf("0.337"))),
                           [(mp.mpf(-1), mp.mpf(1))], ctx)
    assert not res.converged
    assert res.error > mp.mpf("1e-12")


def test_integration_intervals_split_at_zero_for_k2_zero():
    p = pv5lab.validate(1, 0, 0.5, 192, 4)
    ivs = integration_intervals(p)
    assert len(ivs) == 2
    assert ivs[0][1] == 0 and ivs[1][0] == 0
    # reported support stays a single interval
    assert len(pv5lab.support(p)) == 1


def test_zero_length_interval(ctx_fast):
    res = pv5lab.integrate(lambda z: mp.mpf(1),
                           [(mp.mpf("0.3"), mp.mpf("0.3"))], ctx_fast)
    assert res.converged and res.value == 0


# ----------------------------------------------------------------------
# the integer kernel against mp.fdot at raised precision


def _mpf_values(arr):
    """Exact mpf values of an IntArray (call at a precision that holds them)."""
    exps = arr.exp if isinstance(arr.exp, list) else [arr.exp] * len(arr.man)
    return [mp.ldexp(mp.mpf(m), e) for m, e in zip(arr.man, exps)]


def _adversarial_arrays(bits, nfactors, seed):
    """nfactors arrays of 24 elements: the first floating with mixed signs,
    exact zeros and an exp(-1e30)-sized element; the others alternate
    floating and fixed point (values in [-1, 1]).  The products come in
    near-cancelling +- pairs, so the sum is far below the sum of |terms|."""
    rng = random.Random(seed)
    frac = bits + 64
    with mp.workprec(bits):
        half = [mp.mpf(rng.uniform(0.5, 2)) * mp.mpf(2) ** rng.randint(-60, 60)
                for _ in range(10)]
        lead = half + [-v * (1 + mp.mpf(2) ** -(bits // 2)) for v in half]
        lead += [mp.mpf(0), mp.exp(-mp.mpf(10) ** 30), mp.mpf(0),
                 -mp.mpf(3) / 7 * mp.mpf(2) ** -bits]
        arrays = [_pack(lead, bits)]
        for k in range(1, nfactors):
            vals = [mp.mpf(rng.uniform(0.25, 1)) for _ in range(10)]
            if k % 2 == 0:
                vals = [v * mp.mpf(2) ** rng.randint(-30, 30) for v in vals]
            vals = vals + vals + [mp.mpf(rng.uniform(-1, 1)) for _ in range(3)] + [mp.mpf(0)]
            if k % 2:
                arrays.append(IntArray([_fixed(v, frac) for v in vals], -frac))
            else:
                arrays.append(_pack(vals, bits))
    return arrays


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("nfactors", [2, 3, 4])
def test_dot_kernel_matches_fdot_within_its_bound(bits, nfactors):
    arrays = _adversarial_arrays(bits, nfactors, seed=bits + nfactors)
    total, emax, count = _dot(arrays)
    # products of up to four (bits + 66)-bit mantissas are exact at this precision
    with mp.workprec(4 * (bits + 80)):
        cols = [_mpf_values(a) for a in arrays]
        prods = cols[0]
        for col in cols[1:-1]:
            prods = [p * c for p, c in zip(prods, col)]
        oracle = mp.fdot(prods, cols[-1])
        terms = [p * c for p, c in zip(prods, cols[-1])]
        abs_sum = mp.fsum(abs(t) for t in terms)
        slack = mp.mpf(2) ** (-4 * bits) * abs_sum
        low = mp.ldexp(total, emax)
        bound = mp.ldexp(count, emax)
        # the exact sum lies in [low, low + bound)
        assert low - slack <= oracle <= low + bound + slack
        # heavy cancellation: the sum is far below the sum of |terms| ...
        assert abs(oracle) < mp.mpf(2) ** (-bits // 4) * abs_sum
        # ... and the bound is still far below the absolute floor of the tables
        assert bound < mp.mpf(2) ** (-(bits - 8)) * abs_sum


def test_dot_kernel_fixed_point_and_zero_cases():
    frac = 192
    with mp.workprec(128):
        ys = IntArray([_fixed(mp.mpf(v), frac) for v in ("0.5", "-0.25", "0")], -frac)
        zeros = _pack([mp.mpf(0)] * 3, 128)
    # fixed point only: one common exponent, summed exactly
    assert _dot([ys, ys]) == ((1 << 382) + (1 << 380), -2 * frac, 0)
    # every product zero: no exponent, nothing truncated
    assert _dot([zeros, ys]) == (0, None, 0)


def test_raw_integral_error_covers_kernel_bound(gap_params, ctx_fast):
    table = WeightTable(gap_params, ctx_fast)
    table.ensure_levels(5)
    factors = [table.cw, table.y, table.y, table.inv("zk2")]
    res = table.raw_integral(factors)
    assert res.converged
    value, bound = table._series(factors)[-1]
    assert value == res.value and bound > 0
    assert res.error >= bound
    with mp.workprec(gap_params.work_bits):
        floor = mp.mpf(2) ** (-(table.work_bits - 8)) * table._abs_mass_total()
    assert res.error >= floor + bound
    # the same integral by the generic mpf engine
    ref = pv5lab.integrate(
        lambda z: z * z * pv5lab.weight(z, gap_params)
        / ((z - mp.sqrt(gap_params.k2)) * (z + mp.sqrt(gap_params.k2))),
        pv5lab.support(gap_params), ctx_fast)
    assert abs(res.value - ref.value) <= 10 * (res.error + ref.error)


def test_table_divided_differences_match_model(gap_params, ctx_fast):
    """The integer divided differences against model.dd_quotient in mpf."""
    table = WeightTable(gap_params, ctx_fast)
    table.ensure_levels(3)
    z = mp.mpf("0.7")
    with mp.workprec(gap_params.work_bits):
        arrs = table.dd(z, pv5lab.v_prime(z, gap_params))
    rk = mp.sqrt(gap_params.k2)
    checked = 0
    with mp.workprec(2 * table.frac_bits):
        for lv in range(table.nlevels):
            for y, dd in zip(_mpf_values(table.y[lv]),
                             _mpf_values(arrs[lv])):
                if abs(abs(y) - rk) < mp.mpf("1e-6") or 1 - abs(y) < mp.mpf("1e-6"):
                    continue
                ref = pv5lab.dd_quotient(z, y, gap_params)
                assert abs(dd - ref) <= mp.mpf(2) ** (-(ctx_fast.work_bits - 40)) * (1 + abs(ref))
                checked += 1
    assert checked > 20


@pytest.mark.parametrize("t", ["0", "0.5"])
def test_table_zk2_is_y2_minus_k2(t, ctx_fast):
    """The stored y^2 - k2 at k2 > 0, on one interval [-1, 1] (t = 0) and
    on the two intervals of an open gap (t > 0)."""
    params = pv5lab.validate(1, 0.25, t, 192, 4)
    table = WeightTable(params, ctx_fast)
    table.ensure_levels(4)
    checked = 0
    with mp.workprec(2 * table.frac_bits):
        for lv in range(table.nlevels):
            for y, zk2 in zip(_mpf_values(table.y[lv]), _mpf_values(table.zk2[lv])):
                ref = y * y - params.k2
                assert abs(zk2 - ref) <= mp.mpf(2) ** (-(ctx_fast.work_bits - 8)), (
                    f"zk2 = {mp.nstr(zk2, 12)} at y = {mp.nstr(y, 12)}, "
                    f"y^2 - k2 = {mp.nstr(ref, 12)}")
                checked += 1
    assert checked > 50
