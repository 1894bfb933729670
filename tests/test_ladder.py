"""Ladder sequences and the two routes to A_n(z), B_n(z)."""

import gc
import weakref

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import LadderIneligible, PoleError
from pv5lab.ladder import state_at
from pv5lab.model import gap_edge
from pv5lab.quadrature import WeightTable
from pv5lab.verify import IdentityId, sample_points


def test_hand_integral_oracles_at_t_zero(jacobi_ladder):
    # a_0 = (2/h_0) * 2 = 3 with h_0 = 4/3;  a_1 = (2/h_1) * (2/3) = 5 with h_1 = 4/15
    assert abs(jacobi_ladder.a[0] - 3) < mp.mpf("1e-28")
    assert abs(jacobi_ladder.a[1] - 5) < mp.mpf("1e-28")


def test_R_and_r_vanish_at_t_zero(jacobi_ladder):
    assert all(v == 0 for v in jacobi_ladder.R)
    assert all(v == 0 for v in jacobi_ladder.r)


def test_positivity_invariants(gap_ladder):
    assert all(v > 0 for v in gap_ladder.R)
    assert all(v > 0 for v in gap_ladder.a)


def test_ladder_ineligible_cases():
    p = pv5lab.validate(0, 0.25, 0.5, 192, 4, rel_tol=1e-30)  # alpha = 0
    with pytest.raises(LadderIneligible):
        pv5lab.compute(pv5lab.build(p))
    p = pv5lab.validate(1, 0.25, 0, 192, 4, rel_tol=1e-30)  # t = 0 with k2 > 0
    with pytest.raises(LadderIneligible):
        pv5lab.compute(pv5lab.build(p))


def test_a_rational_classical_point(jacobi_state, jacobi_ladder):
    got = pv5lab.point_values(0, jacobi_state, jacobi_ladder).A[0]
    assert abs(got - 3) < mp.mpf("1e-28")


def test_a_integral_classical_point(jacobi_state):
    got = pv5lab.A_integral(0, 0, jacobi_state)
    assert abs(got - 3) < mp.mpf("1e-28")


def test_a_rational_even_b_rational_odd(gap_state, gap_ladder):
    for z in ("0.8", "0.13"):
        plus = pv5lab.point_values(z, gap_state, gap_ladder)
        minus = pv5lab.point_values("-" + z, gap_state, gap_ladder)
        assert plus.A[3] == minus.A[3]
        assert plus.B[3] == -minus.B[3]
    assert pv5lab.point_values(0, gap_state, gap_ladder).B[3] == 0


def test_b_integral_vanishes_at_degree_zero(gap_state):
    assert pv5lab.B_integral(0, "0.8", gap_state) == 0
    assert pv5lab.B_integral(0, "1.5", gap_state) == 0


def test_a_integral_even_in_z(gap_state):
    za = pv5lab.A_integral(2, "0.66", gap_state)
    zb = pv5lab.A_integral(2, "-0.66", gap_state)
    assert abs(za - zb) < mp.mpf("1e-30") * (1 + abs(za))


@pytest.mark.parametrize("n", [0, 2, 5])
def test_rational_equals_integral_A(n, gap_state, gap_ladder):
    for z in sample_points(gap_state.params, count=5, seed=7):
        ar = pv5lab.point_values(z, gap_state, gap_ladder).A[n]
        ai = pv5lab.A_integral(n, z, gap_state)
        assert abs(ar - ai) / (1 + abs(ar)) < mp.mpf("1e-25")


@pytest.mark.parametrize("n", [1, 4, 6])
def test_rational_equals_integral_B(n, gap_state, gap_ladder):
    for z in sample_points(gap_state.params, count=5, seed=8):
        br = pv5lab.point_values(z, gap_state, gap_ladder).B[n]
        bi = pv5lab.B_integral(n, z, gap_state)
        assert abs(br - bi) / (1 + abs(br)) < mp.mpf("1e-25")


def test_routes_agree_outside_unit_interval(gap_state, gap_ladder):
    z = mp.mpf("1.5")
    br = pv5lab.point_values(z, gap_state, gap_ladder).B[2]
    bi = pv5lab.B_integral(2, z, gap_state)
    assert abs(br - bi) / (1 + abs(br)) < mp.mpf("1e-25")


def test_large_z_sum_rule_with_decay_trend(gap_state, gap_ladder):
    """z^2 A_n(z) -> -(2n + 2 alpha + 1) with an O(1/z^2) approach."""
    alpha = gap_state.params.alpha
    for n in (1, 4):
        s = 2 * n + 2 * alpha + 1
        errs = []
        for z in (mp.mpf(10), mp.mpf(100), mp.mpf(1000)):
            a = pv5lab.point_values(z, gap_state, gap_ladder).A[n]
            errs.append(abs(z * z * a + s))
        assert errs[1] < errs[0] / 20
        assert errs[2] < errs[1] / 20


@pytest.mark.parametrize("n", [1, 3, 6])
def test_lowering_and_raising_relations(n, gap_params):
    """The LOWER_FUNC and RAISE_FUNC rows, whose checks form the residuals
    from ``point_values``, at five sampled z."""
    zs = sample_points(gap_params, count=5, seed=9)
    rows = [r for r in pv5lab.check_suite(gap_params, [n], [gap_params.t], z_samples=zs,
                                          suite="required")
            if r.id in (IdentityId.LOWER_FUNC, IdentityId.RAISE_FUNC)]
    assert len(rows) == 10
    assert all(r.status == "ok" and r.residual < mp.mpf("1e-25") for r in rows)


def test_ladder_sequences_do_not_depend_on_earlier_levels(gap_params):
    """``compute`` gives the same four sequences, bit for bit, on a fresh
    state and on one whose table holds an extra level: every integral
    starts at the state's build level."""
    state = pv5lab.build(gap_params)
    state.table.ensure_levels(state.table.nlevels)
    assert state.table.nlevels == state.level + 2
    extended = pv5lab.compute(state)
    fresh = pv5lab.compute(pv5lab.build(gap_params))
    for name in ("R", "r", "a", "b"):
        assert getattr(fresh, name) == getattr(extended, name), name


def test_ab_integrals_do_not_depend_on_earlier_reads(gap_params):
    """A_n(z) and B_n(z) at a second z read the same bits on a fresh state
    and on one whose table an earlier z's read, and then one more level,
    extended."""
    fresh = pv5lab.build(gap_params)
    extended = pv5lab.build(gap_params)
    for n in range(gap_params.n_max + 1):  # an earlier read at another z
        pv5lab.A_integral(n, "0.8", extended)
        pv5lab.B_integral(n, "0.8", extended)
    extended.table.ensure_levels(extended.table.nlevels)
    for n in range(gap_params.n_max + 1):
        assert pv5lab.A_integral(n, "-0.3", fresh) == pv5lab.A_integral(n, "-0.3", extended), n
        assert pv5lab.B_integral(n, "-0.3", fresh) == pv5lab.B_integral(n, "-0.3", extended), n


def test_state_at_keeps_one_stencil_of_states(monkeypatch):
    """state_at is the one state cache: after nine distinct t, at most five
    weight tables (one t-stencil of states) are alive."""
    alive = weakref.WeakSet()
    init = WeightTable.__init__

    def recording(table, *args, **kwargs):
        init(table, *args, **kwargs)
        alive.add(table)

    monkeypatch.setattr(WeightTable, "__init__", recording)
    params = pv5lab.validate(1, "0.25", "0.5", 128, 2, rel_tol=1e-18)
    for k in range(1, 10):
        state_at(params, mp.mpf(k) / 10)
    gc.collect()
    assert 0 < len(alive) <= 5


@pytest.fixture(scope="module")
def k2_zero_ladder():
    params = pv5lab.validate(1, 0, 0.5, 128, 2, rel_tol=1e-25)
    state = pv5lab.build(params)
    return state, pv5lab.compute(state)


@pytest.mark.parametrize("case", ["gap", "k2_zero", "t_zero"])
def test_pole_guard_is_shared(case, request):
    """v', v'', A_n and B_n raise PoleError at the same points: +-1 always,
    +-sqrt(k2) when the gap is open, 0 when k2 = 0 and t > 0."""
    if case == "gap":
        state = request.getfixturevalue("gap_state")
        lad = request.getfixturevalue("gap_ladder")
    elif case == "k2_zero":
        state, lad = request.getfixturevalue("k2_zero_ladder")
    else:
        state = request.getfixturevalue("jacobi_state")
        lad = request.getfixturevalue("jacobi_ladder")
    params = state.params
    poles = [mp.mpf(1), mp.mpf(-1)]
    if params.has_gap:
        rk = gap_edge(params)
        poles += [rk, -rk]
    elif params.k2 == 0 and params.t > 0:
        poles.append(mp.mpf(0))
    points = poles + [mp.mpf(z) for z in ("0", "0.3", "-0.7", "0.6")]
    funcs = {
        "v_prime": lambda z: pv5lab.v_prime(z, params),
        "v_second": lambda z: pv5lab.v_second(z, params),
        "A_1": lambda z: pv5lab.point_values(z, state, lad).A[1],
        "B_1": lambda z: pv5lab.point_values(z, state, lad).B[1],
    }
    for name, fn in funcs.items():
        for z in points:
            if z in poles:
                with pytest.raises(PoleError):
                    fn(z)
            else:
                assert mp.isfinite(fn(z)), f"{name} at z={z}"
