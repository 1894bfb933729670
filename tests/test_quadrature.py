"""Tanh-sinh integration: values, error estimates, convergence flags, and
the integer dot-product kernel behind the weight tables."""

import functools
import itertools
import random

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import NoConvergence, ParameterError
from pv5lab.model import _gap, _v_prime_from, _z2_minus_k2
from pv5lab.quadrature import (IntArray, WeightTable, _dot, _fixed, _level_terms,
                               _pack, _ts_block, integration_intervals)


def test_context_validation():
    with pytest.raises(ParameterError, match="precision_bits"):
        pv5lab.validate(1, 0.25, 0.5, precision_bits=32)
    with pytest.raises(ParameterError, match="max_level"):
        pv5lab.validate(1, 0.25, 0.5, precision_bits=256, max_level=40)
    with pytest.raises(ParameterError, match="below the floor"):
        pv5lab.validate(1, 0.25, 0.5, precision_bits=64, rel_tol=1e-40)
    with pytest.raises(ParameterError, match="rel_tol must be positive"):
        pv5lab.validate(1, 0.25, 0.5, precision_bits=256, rel_tol=0.0)


def test_constant_over_full_interval():
    p = pv5lab.validate(0, -1, 0, 192, 4, rel_tol=1e-30)
    sup = pv5lab.support(p)
    res = pv5lab.integrate(lambda z: mp.mpf(1), sup, p)
    assert res.converged
    assert abs(res.value - 2) < mp.mpf("1e-30")


def test_odd_integrand_cancels(gap_params):
    sup = pv5lab.support(gap_params)
    res = pv5lab.integrate(lambda z: z * pv5lab.weight(z, gap_params), sup, gap_params)
    assert res.converged
    assert abs(res.value) < mp.mpf("1e-40")


def test_weight_mass_cross_rule(gap_params):
    """Tanh-sinh against mpmath's Gauss-Legendre rule (independent code path)."""
    sup = pv5lab.support(gap_params)
    res = pv5lab.integrate(lambda z: pv5lab.weight(z, gap_params), sup, gap_params)
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
    table = WeightTable(gap_params)
    table.ensure_levels(4)
    mass = table.raw_integral([table.cw])
    assert mass.converged
    assert abs(mass.value - oracle) < mp.mpf("1e-30") * oracle


def test_moment_trivial_values():
    p0 = pv5lab.validate(0, -1, 0, 192, 4, rel_tol=1e-30)
    assert abs(pv5lab.moment(0, p0) - 2) < mp.mpf("1e-30")
    assert abs(pv5lab.moment(2, p0) - mp.mpf(2) / 3) < mp.mpf("1e-30")
    p1 = pv5lab.validate(1, -1, 0, 192, 4, rel_tol=1e-30)
    assert abs(pv5lab.moment(0, p1) - mp.mpf(4) / 3) < mp.mpf("1e-30")


def test_odd_moment_is_exact_zero(gap_params):
    assert pv5lab.moment(3, gap_params) == 0
    assert pv5lab.moment(1, gap_params) == 0


def test_moment_rejects_bad_order(gap_params):
    with pytest.raises(ParameterError):
        pv5lab.moment(-1, gap_params)


def test_even_symmetry_of_two_interval_integral(gap_params):
    """Integral over both intervals equals twice the right interval for even f."""
    f = lambda z: pv5lab.weight(z, gap_params) / (1 + z * z)
    sup = pv5lab.support(gap_params)
    full = pv5lab.integrate(f, sup, gap_params)
    right = pv5lab.integrate(f, [sup[1]], gap_params)
    assert full.converged and right.converged
    assert abs(full.value - 2 * right.value) <= mp.mpf(10) * (full.error + 2 * right.error)


def test_interval_additivity():
    p = pv5lab.validate(1, -0.5, 0.5, 192, 4, rel_tol=1e-30)
    f = lambda z: pv5lab.weight(z, p)
    whole = pv5lab.integrate(f, [(mp.mpf(-1), mp.mpf(1))], p)
    split = pv5lab.integrate(f, [(mp.mpf(-1), mp.mpf("0.3")),
                                 (mp.mpf("0.3"), mp.mpf(1))], p)
    assert abs(whole.value - split.value) <= mp.mpf(10) * (whole.error + split.error)


def test_error_estimate_honesty():
    # closed form: integral of z^2 (1-z^2) over [-1,1] = 4/15
    p = pv5lab.validate(1, -1, 0, 192, 4, rel_tol=1e-30)
    res = pv5lab.integrate(lambda z: z * z * pv5lab.weight(z, p),
                           pv5lab.support(p), p)
    true_err = abs(res.value - mp.mpf(4) / 15)
    assert true_err <= 10 * res.error


def test_no_convergence_flag():
    p = pv5lab.validate(0, -1, 0, 64, 4, rel_tol=1e-12, max_level=4)
    res = pv5lab.integrate(lambda z: mp.sqrt(abs(z - mp.mpf("0.337"))),
                           [(mp.mpf(-1), mp.mpf(1))], p)
    assert not res.converged
    assert res.error > mp.mpf("1e-12")


def test_integration_intervals_split_at_zero_for_k2_zero():
    p = pv5lab.validate(1, 0, 0.5, 192, 4)
    ivs = integration_intervals(p)
    assert len(ivs) == 2
    assert ivs[0][1] == 0 and ivs[1][0] == 0
    # reported support stays a single interval
    assert len(pv5lab.support(p)) == 1


def test_zero_length_interval():
    res = pv5lab.integrate(lambda z: mp.mpf(1), [(mp.mpf("0.3"), mp.mpf("0.3"))],
                           pv5lab.validate(0, -1, 0, 192, 4, rel_tol=1e-30))
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


def test_raw_integral_error_covers_kernel_bound(gap_params):
    table = WeightTable(gap_params)
    table.ensure_levels(5)
    factors = [table.cw, table.y, table.y, table.inv_zk2]
    res = table.raw_integral(factors)
    assert res.converged
    value, bound = table._value(_level_terms(factors, res.levels), res.levels)
    assert value == res.value and bound > 0
    assert res.error >= bound
    with mp.workprec(gap_params.work_bits):
        floor = mp.mpf(2) ** (-(table.work_bits - 8)) * table._abs_mass_total(res.levels)
    assert res.error >= floor + bound
    # the same integral by the generic mpf engine
    ref = pv5lab.integrate(
        lambda z: z * z * pv5lab.weight(z, gap_params)
        / ((z - mp.sqrt(gap_params.k2)) * (z + mp.sqrt(gap_params.k2))),
        pv5lab.support(gap_params), gap_params)
    assert abs(res.value - ref.value) <= 10 * (res.error + ref.error)


def test_raw_integral_raises_at_the_level_cap():
    table = WeightTable(pv5lab.validate(1, 0.25, 0.5, 256, 4, max_level=4))
    table.ensure_levels(4)
    with pytest.raises(NoConvergence) as exc:
        table.raw_integral([table.cw])
    # the last value and estimate ride along: the mass, with levels 3 and 4
    # still about 1e-10 apart
    assert exc.value.value == table.trapezoid([table.cw], 4)
    assert mp.mpf("1e-40") * exc.value.value < exc.value.error < mp.mpf("1e-8")
    assert table.nlevels == 5


def test_raw_integral_refines_to_the_same_bits(gap_params):
    """An integral that adds levels inside ``raw_integral`` reads the same
    value and error as on a table filled to that level beforehand."""
    def integral(filled):
        table = WeightTable(gap_params)
        table.ensure_levels(filled)
        factors = [table.cw, table.y, table.y, table.inv_zk2]
        res = table.raw_integral(factors)
        assert res.value == table.trapezoid(factors, res.levels)
        return res

    refined = integral(4)
    assert refined.levels > 5  # the table gained levels inside raw_integral
    assert integral(refined.levels) == refined


def test_table_divided_differences_match_model(gap_params):
    """The integer mirror parts (dd(z, y) +- dd(z, -y)) / 2 of the divided
    differences against model.dd_quotient in mpf."""
    table = WeightTable(gap_params)
    table.ensure_levels(3)
    z = mp.mpf("0.7")
    with mp.workprec(gap_params.work_bits):
        pair = table.dd(z)
    rk = mp.sqrt(gap_params.k2)
    checked = 0
    with mp.workprec(2 * table.frac_bits):
        for sign, arrs in zip((1, -1), pair):
            for lv in range(table.nlevels):
                for y, dd in zip(_mpf_values(table.y[lv]),
                                 _mpf_values(arrs[lv])):
                    if abs(abs(y) - rk) < mp.mpf("1e-6") or 1 - abs(y) < mp.mpf("1e-6"):
                        continue
                    ref = (pv5lab.dd_quotient(z, y, gap_params)
                           + sign * pv5lab.dd_quotient(z, -y, gap_params)) / 2
                    assert abs(dd - ref) <= mp.mpf(2) ** (-(gap_params.work_bits - 40)) * (1 + abs(ref))
                    checked += 1
    assert checked > 20


@pytest.mark.parametrize("t", ["0", "0.5"])
def test_table_zk2_is_y2_minus_k2(t):
    """The stored 1/(y^2 - k2) at k2 > 0, relative to the exact value, on
    one interval [-1, 1] (t = 0) and on the two intervals of an open gap
    (t > 0)."""
    params = pv5lab.validate(1, 0.25, t, 192, 4, rel_tol=1e-30)
    table = WeightTable(params)
    table.ensure_levels(4)
    checked = 0
    with mp.workprec(2 * table.frac_bits):
        for lv in range(table.nlevels):
            for y, inv in zip(_mpf_values(table.y[lv]), _mpf_values(table.inv_zk2[lv])):
                ref = 1 / (y * y - params.k2)
                assert abs(inv - ref) <= mp.mpf(2) ** (-(params.work_bits - 8)) * abs(ref), (
                    f"1/zk2 = {mp.nstr(inv, 12)} at y = {mp.nstr(y, 12)}, "
                    f"1/(y^2 - k2) = {mp.nstr(ref, 12)}")
                checked += 1
    assert checked > 50


def test_table_builds_where_zk2_vanishes_at_a_node():
    """At k2 = 0, t = 0 the centre node y = 0 of [-1, 1] has y^2 - k2 = 0.
    The table still builds, with that one reciprocal stored as 0: the
    recurrence does not read it, and no ladder integral exists there."""
    params = pv5lab.validate(1, 0, 0, 128, 2, rel_tol=1e-20)
    state = pv5lab.build(params)
    zeros = [(lv, i) for lv, block in enumerate(state.table.inv_zk2)
             for i, m in enumerate(block.man) if m == 0]
    assert zeros == [(0, 0)] and state.table.y[0].man[0] == 0
    assert state.beta[1] > 0
    with pytest.raises(pv5lab.LadderIneligible):
        pv5lab.compute(state)


def test_frozen_table_grows_every_derived_array_in_step(gap_params, gap_state):
    """A table frozen at level L and extended to L+1 holds, level by level,
    the same derived arrays as a table filled to L+1 before it was frozen."""
    z = mp.mpf("0.7")

    def derived(table):
        return {"sq": table.sq(3), "adj": table.adj(3), "inv_zk2": table.inv_zk2,
                "inv_om2": table.inv_om2, "dd_even": table.dd(z)[0],
                "dd_odd": table.dd(z)[1], "vp": table._cached(WeightTable._v_primes),
                "rows": [[table.row(n, lv) for n in range(gap_params.n_max + 1)]
                         for lv in range(table.nlevels)]}

    grown = WeightTable(gap_params)
    grown.ensure_levels(4)
    grown.freeze(gap_state.beta)
    before = derived(grown)
    grown.ensure_levels(5)
    fresh = WeightTable(gap_params)
    fresh.ensure_levels(5)
    fresh.freeze(gap_state.beta)
    after, ref = derived(grown), derived(fresh)
    assert grown.nlevels == fresh.nlevels == 6
    for key, arrs in ref.items():
        assert len(after[key]) == 6, key
        # the lists handed out before the growth are the live, grown ones
        if key != "rows":
            assert before[key] is after[key], key
        for lv in range(6):
            assert after[key][lv] == arrs[lv], (key, lv)


def test_seed_state_forms_no_v_prime(monkeypatch):
    """v'(y) at the nodes is read only by ``dd``: a ladder state on the
    trajectory workload's shape (k2 0.04, t 0.5, n_max 2) holds no v' array
    until its first ``dd``, and then one per level.  v' is made from the
    stored arrays, so ``_nodes`` runs only in the fill: not in ``dd``, and
    once for a level added after it."""
    from pv5lab import ladder

    ladder._states.cache_clear()  # a fresh table
    params = pv5lab.validate(1, "0.04", "0.5", 256, 2, rel_tol=1e-40, max_level=12)
    table = ladder.state_at(params, "0.5")[0].table
    assert WeightTable._v_primes not in {make for make, _ in table._derived}
    calls = []
    nodes = WeightTable._nodes

    def counted(self, level):
        calls.append(level)
        return nodes(self, level)

    monkeypatch.setattr(WeightTable, "_nodes", counted)
    table.dd("0.7")
    assert calls == []
    vp = table._derived[(WeightTable._v_primes, ())]
    assert [len(a.man) for a in vp] == [len(a.man) for a in table.y]
    table.ensure_levels(table.nlevels)
    assert calls == [table.nlevels - 1] and len(vp) == table.nlevels


@pytest.mark.parametrize("alpha,k2,t", [
    (1, "0.25", "0.5"),   # the gap (-1, -rk) u (rk, 1)
    (1, "0", "0.5"),      # split at the pole of v' at 0
    (1, "-0.5", "0.5"),   # [-1, 1] with its centre node, where v'(0) = 0
    (1, "0.25", "0"),     # t = 0
    (0, "0.25", "0.5"),   # alpha = 0
    ("0.37", "0.09", "1e-3"),  # small t on an open gap: nodes crowd the edge rk
])
def test_table_v_prime_matches_the_mpf_formula(alpha, k2, t):
    """v'(y) made from the stored y and reciprocals, at every kept node,
    against ``_v_prime_from`` on the fill's geometry (``_nodes``) at twice
    the fixed-point precision: within 2^-(work_bits-8) of the larger of its
    two terms, and exactly 0 at the centre node."""
    params = pv5lab.validate(alpha, k2, t, 128, 3, rel_tol=1e-20)
    table = WeightTable(params)
    table.ensure_levels(5)
    vp = table._cached(WeightTable._v_primes)
    with mp.workprec(2 * table.frac_bits):
        a2, t2 = 2 * params.alpha, 2 * params.t
        for lv in range(table.nlevels):
            kept = len(table.y[lv].man)
            geometry = list(itertools.islice(table._nodes(lv), kept))
            assert len(geometry) == len(vp[lv].man) == kept
            for (_, y, om2, zk2, _), m, e in zip(geometry, *vp[lv]):
                ref = _v_prime_from(y, om2, zk2, params)
                big = max(abs(a2 * y / om2), abs(t2 * y / zk2 ** 2))
                assert abs(mp.ldexp(m, e) - ref) <= mp.ldexp(big, 8 - table.work_bits), (lv, y)
    if table.intervals[-1][0] < 0:  # the centre node y = 0
        assert table.y[0].man[0] == 0 and vp[0].man[0] == 0


@pytest.mark.parametrize("alpha,k2,t", [
    (1, "0.25", "0.5"),   # the gap (-1, -rk) u (rk, 1)
    (1, "0.25", "1e-3"),  # a thin edge layer
    (1, "0.25", "50"),    # most of the edge side cut
    (1, "0", "0.5"),      # split at the pole of v' at 0
    (1, "-0.5", "0.5"),   # [-1, 1] with its centre node
    (1, "-0.5", "0"),     # t = 0
    (0, "0.25", "0"),     # t = 0, alpha = 0: the recurrence alone
])
def test_half_table_matches_full_support_route(alpha, k2, t):
    """Every table integral over the stored half y >= 0 against the generic
    engine over the full support, within the sum of both reported errors:
    the mass, h_n, the ladder integrals of R_n, a_n, r_n, b_n, and those of
    A_n(z), B_n(z) at two z."""
    params = pv5lab.validate(alpha, k2, t, 128, 3, rel_tol=1e-20)
    state = pv5lab.build(params)
    table = state.table
    sup = integration_intervals(params)
    ladder = params.ladder_eligible
    with mp.workprec(params.work_bits):
        gap = _gap(params)

        # the integrands share their nodes: evaluate each factor once per node
        @functools.cache
        def basis(y):
            return (1 - y) * (1 + y), _z2_minus_k2(y, params.k2, gap)

        @functools.cache
        def P(n, y):
            return pv5lab.monic_values(state, y)[0][n]

        @functools.cache
        def w(y):
            return pv5lab.weight(y, params)

        checks = {"mass": ([table.cw], lambda y: 1)}
        for n in range(params.n_max + 1):
            checks[f"h{n}"] = ([table.sq(n)], lambda y, n=n: P(n, y) ** 2)
            if not ladder:
                continue
            checks[f"a{n}"] = ([table.sq(n), table.inv_om2],
                               lambda y, n=n: P(n, y) ** 2 / basis(y)[0])
            if params.t > 0:
                checks[f"R{n}"] = ([table.sq(n), table.inv_zk2],
                                   lambda y, n=n: P(n, y) ** 2 / basis(y)[1])
            if n == 0:
                continue
            checks[f"b{n}"] = ([table.adj(n), table.y, table.inv_om2],
                               lambda y, n=n: y * P(n, y) * P(n - 1, y) / basis(y)[0])
            if params.t > 0:
                checks[f"r{n}"] = ([table.adj(n), table.y, table.inv_zk2],
                                   lambda y, n=n: y * P(n, y) * P(n - 1, y) / basis(y)[1])
        for z in (mp.mpf("0.3"), mp.mpf("-0.7")) if ladder else ():
            vpz = pv5lab.v_prime(z, params)
            even, odd = table.dd(z)

            def dd(y, z=z, vpz=vpz):
                return (vpz - _v_prime_from(y, *basis(y), params)) / (z - y)

            for n in range(params.n_max + 1):
                checks[f"A{n}({z})"] = ([table.sq(n), even],
                                        lambda y, n=n, dd=dd: dd(y) * P(n, y) ** 2)
                if n:
                    checks[f"B{n}({z})"] = ([table.adj(n), odd],
                                            lambda y, n=n, dd=dd: dd(y) * P(n, y) * P(n - 1, y))
        for name, (factors, f) in checks.items():
            half = table.raw_integral(factors, scale=state.h[0])
            full = pv5lab.integrate(lambda y: f(y) * w(y), sup, params)
            assert half.converged and full.converged, name
            assert abs(half.value - full.value) <= half.error + full.error, (
                name, mp.nstr(half.value, 20), mp.nstr(full.value, 20),
                mp.nstr(half.error, 3), mp.nstr(full.error, 3))
    # the stored half: y >= 0, and on [-1, 1] the centre node once, at level 0
    assert all(m >= 0 for block in table.y for m in block.man)
    zeros = [lv for lv, block in enumerate(table.y) for m in block.man if m == 0]
    assert zeros == ([0] if len(sup) == 1 else [])


# ----------------------------------------------------------------------
# the edge cut: the rule stops where the weight underflows at the gap edge


def _half_rule_count(table, top):
    """Nodes of the uncut half rule on levels 0..top: the x >= 0 half of
    [-1, 1], or the whole rule of the interval (a, 1)."""
    total = sum(len(_ts_block(table.work_bits, lv)) for lv in range(top + 1))
    if table.intervals[-1][0] < 0:
        return total  # the x >= 0 half, centre included
    return 2 * total - 1  # both sides, the centre once


# h_0..h_3 and beta_1..beta_3 of the uncut rule, 100 digits at 320 bits
_UNCUT = {
    ("0.95", "50"): (
        ["1.261483870008302732881417764783858026801744327336885384364808628930180106880608058893943109139651287e-443",
         "1.261358469415077871417225287502990717128077914747601586446141334422490292680059665365538059724396373e-443",
         "6.195905230111633214353882849933733318260760431392141362996736504362835391831054249097583171110406007e-452",
         "6.194680646730317233408063353989719465680310101562522087777134990378582250838728226335646241657287831e-452"],
        ["0.999900592789011217311345288401123955745900914806705223090955935540847194812264245459706298112776207",
         "0.00000000491208913274655605687439054140418047436437467603135898601813950449776093854441670113262507293642637",
         "0.9998023560180739050276242870751297703816301416287455299265928451576268012531020411538720489047666186"]),
    ("0.25", "0.5"): (
        ["0.05140715588960843957637680981314693126153557850620464387136278295836421937447495439199107928212867233",
         "0.03384035792049613493268001960265071412917211660197273442377374593654096702749029141564628486944559509",
         "0.001040122992744631469129869357726233927660035670308724337536097477419690465518129388784830324696217908",
         "0.0006669208868895315113731751659838898449428990447860549048872422733794009588100677720444884334526501282"],
        ["0.6582810765327070450749710995855990901358376670442263954849105541391109873132338132329343498330387315",
         "0.03073616996570413879100877708470629803687306477056729919015646871540277726973504165260835689767338051",
         "0.6411942544695503583963487472220288061107746039832200993281355477801830905680383210403249931153629405"]),
}


@pytest.mark.parametrize("k2,t", list(_UNCUT))
def test_edge_cut_keeps_the_uncut_values(k2, t):
    """h and beta equal the uncut rule's at the working precision.  At k2
    0.95, t 50, h_0 is about 1.3e-443, so a cut at an absolute weight would
    empty the table; the cut is relative to the interval's centre."""
    params = pv5lab.validate(1, k2, t, 256, 3)
    state = pv5lab.build(params)
    assert state.table.cut_nodes > 0
    with mp.workprec(params.work_bits):
        h = [mp.nstr(+v, 100) for v in state.h]
        beta = [mp.nstr(v, 100) for v in state.beta[1:]]
    assert (h, beta) == _UNCUT[(k2, t)]


@pytest.mark.parametrize("k2,t", [("-0.5", "0.5"), ("0.25", "0")])
def test_edge_cut_drops_nothing_without_an_edge(k2, t):
    """k2 < 0 and t = 0 integrate over [-1, 1], with no vanishing edge."""
    table = WeightTable(pv5lab.validate(1, k2, t, 192, 4, rel_tol=1e-30))
    table.ensure_levels(6)
    assert table.cut_nodes == 0 and table.cut_bound == 0
    assert table.node_count() == _half_rule_count(table, 6)


@pytest.mark.parametrize("k2,t", [("0.25", "1e-3"), ("0.25", "0.5"), ("0.25", "50"),
                                  ("0", "0.5")])
def test_edge_cut_stays_below_the_floor(k2, t):
    """Every level keeps nodes, the stored and dropped nodes make up the
    uncut rule, and the dropped terms together, at their recorded bound
    relative to the centre node's coefficient (a term of sum cw), lie below
    the absolute floor 2^-(work_bits-8) sum cw of ``raw_integral``."""
    table = WeightTable(pv5lab.validate(1, k2, t, 192, 4, rel_tol=1e-30))
    table.ensure_levels(7)
    assert all(block.man for block in table.y)
    assert table.cut_nodes > 0
    assert table.node_count() + table.cut_nodes == _half_rule_count(table, 7)
    assert 0 < table.cut_bound < mp.mpf(2) ** (-2 * table.work_bits)
    assert table.cut_nodes * table.cut_bound < mp.mpf(2) ** (-(table.work_bits - 8))


def _ts_block_two_calls(work_bits, level, prec):
    """``_ts_block``'s nodes for ``work_bits`` from mp.sinh(u), mp.cosh(u) and
    mp.cosh(v), formed at ``prec`` bits."""
    nodes = []
    with mp.workprec(prec):
        h = mp.mpf(2) ** (-level)
        edge = mp.mpf(2) ** (-(work_bits - 32))
        half_pi = mp.pi / 2
        j, step = (0, 1) if level == 0 else (1, 2)
        while True:
            u = j * h
            v = half_pi * mp.sinh(u)
            e2v = mp.exp(2 * v)
            one_minus_x = 2 / (e2v + 1)
            if one_minus_x < edge:
                break
            nodes.append(((e2v - 1) / (e2v + 1), one_minus_x, 2 / (1 + 1 / e2v),
                          half_pi * mp.cosh(u) / mp.cosh(v) ** 2))
            j += step
    return tuple(nodes)


@pytest.mark.parametrize("work_bits", [128, 192, 320, 576])
def test_ts_block_matches_the_closed_forms_at_twice_the_bits(work_bits):
    """The one-exp node update against the closed forms at 2 work_bits + 64
    bits: the same nodes on every level, and x, 1-x, 1+x and W each within
    2^-(work_bits+6) relative error (the centre node x = 0 exactly)."""
    bound = mp.mpf(2) ** (-(work_bits + 6))
    for level in range(9):
        block = _ts_block.__wrapped__(work_bits, level)
        ref = _ts_block_two_calls(work_bits, level, 2 * work_bits + 64)
        assert len(block) == len(ref), level
        with mp.workprec(2 * work_bits + 64):
            for node, exact in zip(block, ref):
                for value, want in zip(node, exact):
                    if want == 0:
                        assert value == 0, level
                    else:
                        assert abs(value / want - 1) <= bound, (level, value, want)
