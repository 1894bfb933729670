"""Adaptive integrator: order behavior, round trips, singularity policy."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import pv5lab
from pv5lab.errors import ParameterError, PoleHit, SingularParams, StepUnderflow
from pv5lab.fixedpoint import record
from pv5lab.ode import fixed_type


def harmonic(t, y):
    return (y[1], -y[0])


@pytest.fixture(scope="module")
def oparams():
    return pv5lab.validate(1, 0.04, 0.5, 192, 4, rel_tol=1e-30)


@pytest.fixture(scope="module")
def ricc_init(oparams):
    return pv5lab.riccati_initial(oparams, 2, "0.5")


def test_zero_length_interval():
    traj = pv5lab.integrate_ivp(harmonic, 1, 1, (1, 0), 1e-12, bits=192)
    assert traj.t_points == (mp.mpf(1),)
    assert traj.values[0] == (mp.mpf(1), mp.mpf(0))


def test_cosine_endpoint_across_tolerances():
    errs = []
    for tol in (1e-10, 1e-12, 1e-14):
        traj = pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), tol, bits=192)
        errs.append(abs(traj.values[-1][0] - mp.cos(1)))
        assert errs[-1] < 50 * mp.mpf(tol)
    # endpoint error tracks the local tolerance roughly linearly
    slope = (mp.log(errs[2]) - mp.log(errs[0])) / (mp.log(mp.mpf(1e-14)) - mp.log(mp.mpf(1e-10)))
    assert mp.mpf("0.7") < slope < mp.mpf("1.3")


def test_determinism_bit_identical():
    a = pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), 1e-12, bits=192)
    b = pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), 1e-12, bits=192)
    assert a.t_points == b.t_points
    assert a.values == b.values


def test_trajectory_invariants_and_dense_output():
    traj = pv5lab.integrate_ivp(harmonic, 0, 2, (1, 0), 1e-12, bits=192)
    assert all(b > a for a, b in zip(traj.t_points, traj.t_points[1:]))
    for ts in ("0.5", "1.3"):
        got = traj.sample(ts)[0]
        assert abs(got - mp.cos(mp.mpf(ts))) < mp.mpf("1e-9")
    with pytest.raises(ParameterError):
        traj.sample("2.5")


def test_riccati_roundtrip_within_ten_tol(oparams, ricc_init):
    tol = mp.mpf(1e-12)
    fwd = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.52", ricc_init, tol)
    back = pv5lab.integrate_riccati(oparams, 2, "0.52", "0.5", fwd.values[-1], tol)
    dev = max(abs(a - b) for a, b in zip(back.values[0], ricc_init))
    assert dev < 10 * tol


def test_riccati_tol_monotonicity(oparams, ricc_init):
    # halving the tolerance cannot make the endpoint worse by contract
    devs = {}
    ref = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.52", ricc_init, 1e-20)
    target = ref.values[-1][0]
    for tol in (1e-8, 1e-12):
        traj = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.52", ricc_init, tol)
        devs[tol] = abs(traj.values[-1][0] - target)
    assert devs[1e-12] <= devs[1e-8]


def test_riccati_long_span_hits_singularity(oparams, ricc_init):
    with pytest.raises((StepUnderflow, PoleHit)):
        pv5lab.integrate_riccati(oparams, 2, "0.5", "1.0", ricc_init, 1e-12)


def test_riccati_guards(oparams):
    with pytest.raises(SingularParams):
        pv5lab.integrate_riccati(pv5lab.validate(1, 0, 0.5, 192, 4), 2,
                                 "0.5", "0.6", (1, 1), 1e-10)
    with pytest.raises(IndexError):
        pv5lab.integrate_riccati(oparams, 0, "0.5", "0.6", (1, 1), 1e-10)
    with pytest.raises(ParameterError):
        pv5lab.integrate_riccati(oparams, 2, 0, "0.6", (1, 1), 1e-10)


def test_crosscheck_at_seed_point_is_zero(oparams, ricc_init):
    traj = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.51", ricc_init, 1e-12)
    dev = pv5lab.crosscheck(traj, ["0.5"])
    assert dev < mp.mpf("1e-25")


def test_crosscheck_records_model_deviation(oparams, ricc_init):
    # the published pair does not track the quadrature functions; the
    # deviation is recorded, not asserted small
    traj = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.51", ricc_init, 1e-12)
    dev = pv5lab.crosscheck(traj, ["0.505", "0.51"])
    assert mp.isfinite(dev)


def test_pv_initial_and_pole_hit(oparams):
    phi0, phip0 = pv5lab.pv_initial(oparams, 2, "0.5")
    assert phi0 > 1
    with pytest.raises(PoleHit):
        pv5lab.integrate_pv(oparams, 2, "0.5", "1.0", (phi0, phip0), 1e-12)


def test_pv_initial_guard_distance(oparams):
    with pytest.raises(PoleHit):
        pv5lab.integrate_pv(oparams, 2, "0.5", "0.6", (mp.mpf("1.0000000001"), 0), 1e-10)


def test_pv_short_span_crosscheck(oparams):
    init = pv5lab.pv_initial(oparams, 2, "0.5")
    traj = pv5lab.integrate_pv(oparams, 2, "0.5", "0.51", init, 1e-12)
    dev = pv5lab.crosscheck(traj, ["0.51"])
    assert mp.isfinite(dev)


# ----------------------------------------------------------------------
# declared singular values and division by zero

def _no_right_hand_side(params, n):
    def f(t, y):
        raise AssertionError("a right-hand side was evaluated")
    return f


def test_riccati_from_zero_r_stops_before_any_right_hand_side(oparams, monkeypatch):
    # the pair divides by R_n; R_n(t0) = 0 used to raise ZeroDivisionError
    with pytest.raises(PoleHit, match="singular value 0.0 at t=0.5"):
        pv5lab.integrate_riccati(oparams, 2, "0.5", "0.52", (0, 1), 1e-12)
    monkeypatch.setattr(pv5lab.ode, "riccati_rhs", _no_right_hand_side)
    with pytest.raises(PoleHit):
        pv5lab.integrate_riccati(oparams, 2, "0.5", "0.52", (0, 1), 1e-12)


@pytest.mark.parametrize("system, rhs, first", [
    ("integrate_riccati", "riccati_rhs", "5e-9"),
    ("integrate_riccati", "riccati_rhs", "-1e-8"),
    ("integrate_pv", "pv_ode_rhs", "-5e-9"),
    ("integrate_pv", "pv_ode_rhs", "1.000000005"),
])
def test_initial_point_inside_a_declared_radius_raises(system, rhs, first, oparams,
                                                       monkeypatch):
    monkeypatch.setattr(pv5lab.ode, rhs, _no_right_hand_side)
    with pytest.raises(PoleHit, match="at t=0.5"):
        getattr(pv5lab, system)(oparams, 2, "0.5", "0.6", (mp.mpf(first), 0), 1e-10)


@pytest.mark.parametrize("first", ["nan", "inf", "-inf"])
def test_pv_refuses_non_finite_initial_data(first, oparams):
    # the non-finite Phi used to reach the integrator and come back as PoleHit
    with pytest.raises(ParameterError, match="initial data must be finite"):
        pv5lab.integrate_pv(oparams, 2, "0.5", "0.6", (mp.mpf(first), 0), 1e-10)
    with pytest.raises(ParameterError, match="initial data must be finite"):
        pv5lab.integrate_pv(oparams, 2, "0.5", "0.6", (2, mp.mpf(first)), 1e-10)


def test_poles_are_tested_on_ints_at_each_accepted_point():
    # y' = -1 from y = 1 meets the band |y - 0| <= 1/4 first at t >= 3/4
    with pytest.raises(PoleHit, match="singular value 0.0 at t=") as hit:
        pv5lab.integrate_ivp(lambda t, y: (-1,), 0, 2, (1,), 1e-12, bits=192,
                             poles=((0, "0.25"),))
    t = mp.mpf(str(hit.value).rsplit("t=", 1)[1])
    assert mp.mpf("0.75") <= t < 1
    # the band is closed: the initial point on its edge raises
    with pytest.raises(PoleHit, match="at t=0"):
        pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), 1e-12, bits=192, poles=((0, 1),))
    # values never met leave every int where it was
    free = pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), 1e-12, bits=192)
    guarded = pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), 1e-12, bits=192,
                                   poles=((0, "0.5"), (2, "0.5")))
    assert (guarded.ts, guarded.ys, guarded.fs) == (free.ts, free.ys, free.fs)


def test_division_by_zero_in_a_recorded_right_hand_side_is_a_pole_hit():
    def f(t, y):
        return (1 / (y[0] - 1),)

    assert record(f, fixed_type(192), 1) is not None
    with pytest.raises(PoleHit, match="divides by zero at t=0"):
        pv5lab.integrate_ivp(f, 0, 1, (1,), 1e-12, bits=192)


def test_division_by_zero_in_a_generic_right_hand_side_is_a_pole_hit():
    def f(t, y):
        return (mp.mpf(1) / (y[0] - 1),)

    assert record(f, fixed_type(192), 1) is None
    with pytest.raises(PoleHit, match="divides by zero at t=0"):
        pv5lab.integrate_ivp(f, 0, 1, (1,), 1e-12, bits=192)


# ----------------------------------------------------------------------
# the integrator's fixed-point numbers

def _exact(x):
    """The exact value of a fixed-point number, as an mpf."""
    return mp.make_mpf(x._mpf_)


def _fixed_samples(Fixed, seed):
    # mixed signs, magnitudes 2^-60 .. 2^60, plus one unit of the scale
    rng = random.Random(seed)
    out = [Fixed(1), Fixed(-3)]
    for e in range(-60, 61, 15):
        for sign in (1, -1):
            out.append(Fixed(sign * rng.getrandbits(Fixed.FRAC + e)))
    return out


def test_fixed_type_matches_mpf_at_raised_precision():
    Fixed = fixed_type(192)
    assert Fixed.FRAC == 192 + 128 and fixed_type(192) is Fixed
    xs = _fixed_samples(Fixed, 11)
    with mp.workprec(6 * Fixed.FRAC):
        ulp = mp.mpf(2) ** -Fixed.FRAC
        for a in xs:
            ea = _exact(a)
            assert _exact(-a) == -ea and _exact(abs(a)) == abs(ea)
            assert bool(a) and a == a and not a < a and (a > 0) == (ea > 0)
            for b in xs:
                eb = _exact(b)
                assert _exact(a + b) == ea + eb
                assert _exact(a - b) == ea - eb
                assert (a < b) == (ea < eb) and (a >= b) == (ea >= eb)
                # products and quotients are floored onto the scale
                assert 0 <= ea * eb - _exact(a * b) < ulp
                assert 0 <= ea / eb - _exact(a / b) < ulp
            for m in (3, -7, 1 << 70):
                assert _exact(a + m) == ea + m and _exact(m - a) == m - ea
                assert _exact(a * m) == ea * m and _exact(m * a) == ea * m
                assert 0 <= ea / m - _exact(a / m) < ulp
                assert 0 <= m / ea - _exact(m / a) < ulp
                assert (a <= m) == (ea <= m)
    assert not Fixed(0) and Fixed(0) == 0 and Fixed(5 << Fixed.FRAC) == 5


def test_fixed_type_integer_powers():
    Fixed = fixed_type(256)
    with mp.workprec(6 * Fixed.FRAC):
        rel = mp.mpf(2) ** -(Fixed.FRAC - 32)
        for a in _fixed_samples(Fixed, 5)[2:]:
            ea = _exact(a)
            if not mp.mpf(2) ** -4 <= abs(ea) <= 16:
                continue
            assert _exact(a ** 0) == 1 and _exact(a ** 1) == ea
            for n in (2, 3, 5, -1, -2):
                assert abs(_exact(a ** n) - ea ** n) <= rel * (1 + abs(ea ** n))


def test_fixed_type_mixes_into_mpf():
    Fixed = fixed_type(192)
    a = Fixed(-(5 << Fixed.FRAC) // 7)
    with mp.workprec(256):
        ea = _exact(a)
        m = mp.mpf("0.3")
        for got, want in ((a + m, ea + m), (m + a, m + ea), (a - m, ea - m),
                          (m - a, m - ea), (a * m, ea * m), (m * a, m * ea),
                          (a / m, ea / m), (m / a, m / ea), (a * 0.5, ea * 0.5),
                          (abs(a) ** m, abs(ea) ** m), (mp.exp(a), mp.exp(ea)),
                          (mp.mpf(a), ea), (a * Fixed(1) * fixed_type(64)(3), None)):
            assert isinstance(got, mp.mpf)
            if want is not None:
                assert abs(got - want) <= mp.mpf(2) ** -250 * abs(want)
        assert (a < m) and (m > a) and not (a == m)


def test_rhs_on_fixed_numbers_match_mpf(oparams):
    Fixed = fixed_type(oparams.precision_bits)
    cases = ((pv5lab.ode.riccati_rhs(oparams, 2), ("0.5", "2.9", "-0.0163")),
             (pv5lab.ode.pv_ode_rhs(oparams, 2), ("0.5", "1.41", "35.5")))
    for f, raw in cases:
        with mp.workprec(6 * Fixed.FRAC):
            fixed = [Fixed(int(mp.mpf(v) * 2 ** Fixed.FRAC)) for v in raw]
            t, y = fixed[0], tuple(fixed[1:])
            want = f(_exact(t), tuple(map(_exact, y)))
            got = f(t, y)
            assert all(type(g) is Fixed for g in got)
            for g, w in zip(got, want):
                assert abs(_exact(g) - w) <= mp.mpf(2) ** -(Fixed.FRAC - 16) * (1 + abs(w))


def test_generic_closure_with_mp_functions_reaches_exact_solution():
    half = mp.mpf("0.5")

    def f(t, y):
        # y' = y exp(-t) / 2, solved by y = exp((1 - exp(-t)) / 2)
        return (half * mp.exp(-t) * y[0],)

    tol = mp.mpf(1e-20)
    traj = pv5lab.integrate_ivp(f, 0, 1, (1,), tol, bits=192)
    assert all(isinstance(v[0], mp.mpf) for v in traj.values)
    with mp.workprec(256):
        exact = mp.exp((1 - mp.exp(-1)) / 2)
        assert abs(traj.values[-1][0] - exact) < 50 * tol
        assert abs(traj.sample("0.5")[0] - mp.exp((1 - mp.exp("-0.5")) / 2)) < mp.mpf("1e-9")
    with pytest.raises(PoleHit):
        pv5lab.integrate_ivp(lambda t, y: (y[0] * mp.inf,), 0, 1, (1,), tol, bits=192)


# ----------------------------------------------------------------------
# recorded right-hand sides: the straight-line program against fixed_type

def _outcome(fn, *args):
    """fn's ints, or the type of the exception it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _generic(f, Fixed):
    """f on the integrator's numbers, read back as its ints."""
    return lambda t, y: [pv5lab.ode._mantissa(v, Fixed) for v in f(Fixed(t), tuple(map(Fixed, y)))]


def _program_lines(program):
    """The recorded lines of a program: its source is the def, the unpacking
    of y, one line per recorded operation, and the return."""
    return max(line for *_, line in program.__code__.co_lines() if line) - 3


def test_recorded_ops_match_fixed_type_bit_for_bit():
    Fixed = fixed_type(192)
    xs = _fixed_samples(Fixed, 23)
    c = Fixed(-(5 << Fixed.FRAC) // 7)
    ops = [lambda t, y: (y[0] + y[1], y[0] - y[1], y[0] * y[1], y[0] / y[1], t)]
    for k in (c, 3, -7, 1 << 70):
        ops.append(lambda t, y, k=k: (y[0] + k, k + y[0], y[0] - k, k - y[0]))
        ops.append(lambda t, y, k=k: (y[0] * k, k * y[0], y[0] / k, k / y[0]))
    ops.append(lambda t, y: tuple(y[0] ** n for n in (0, 1, 2, 3, -1, -2)))
    ops.append(lambda t, y: (-y[0], abs(y[0]), abs(-y[1]), y[1] * t, c * 2))
    for f in ops:
        program = record(f, Fixed, 2)
        assert program is not None
        generic = _generic(f, Fixed)
        for a in xs:
            for b in xs:
                want = _outcome(generic, b.v, [a.v, b.v])
                assert _outcome(program, b.v, [a.v, b.v]) == want


def test_recorder_emits_each_distinct_line_once():
    Fixed = fixed_type(192)
    xs = _fixed_samples(Fixed, 29)

    def repeats(t, y):
        s = t + y[0]
        return ((t + y[0]) * (t + y[0]) * y[1], s * s * y[1] - y[1] * y[1], y[1] * y[1])

    program = record(repeats, Fixed, 2)
    # t + y0, its square, that times y1, y1 * y1, and the difference
    assert _program_lines(program) == 5
    generic = _generic(repeats, Fixed)
    for a in xs:
        for b in xs:
            assert _outcome(program, b.v, [a.v, b.v]) == _outcome(generic, b.v, [a.v, b.v])
    # the coupled pair at the trajectory benchmark's parameters: t + C, 2 (t + C)
    # and y1 * y1 each appear in both equations
    params = pv5lab.validate("1", "0.04", "0.5", 256, 2)
    assert _program_lines(record(pv5lab.ode.riccati_rhs(params, 2), fixed_type(256), 2)) == 26


def test_recorded_equations_match_fixed_type_on_random_states(oparams):
    Fixed = fixed_type(oparams.precision_bits)
    one = 1 << Fixed.FRAC
    rng = random.Random(7)
    cases = ((pv5lab.ode.riccati_rhs(oparams, 2), ((1, 5), (-1, 1))),
             (pv5lab.ode.pv_ode_rhs(oparams, 2), ((1, 3), (-50, 50))))
    for f, ranges in cases:
        program = record(f, Fixed, 2)
        generic = _generic(f, Fixed)
        for _ in range(50):
            t = rng.randrange(one // 4, one)
            y = [rng.randrange(lo * one, hi * one) for lo, hi in ranges]
            assert program(t, y) == generic(t, y)


def test_recorded_and_generic_riccati_trajectories_are_identical(oparams, ricc_init,
                                                                 monkeypatch):
    recorded = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.505", ricc_init, 1e-12)
    riccati_rhs = pv5lab.ode.riccati_rhs

    def branching_rhs(params, n):
        f = riccati_rhs(params, n)
        # comparing t stops the recording, so the integrator calls f itself
        return lambda t, y: f(t, y) if t > 0 else None

    monkeypatch.setattr(pv5lab.ode, "riccati_rhs", branching_rhs)
    generic = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.505", ricc_init, 1e-12)
    assert recorded.meta["rhs_path"] == "recorded"
    assert generic.meta["rhs_path"] == "generic"
    assert recorded.meta["steps"] > 10
    assert recorded.t_points == generic.t_points
    assert recorded.values == generic.values
    assert recorded.derivs == generic.derivs
    # the ints too: reading back as mpf rounds their low bits away
    assert (recorded.ts, recorded.ys, recorded.fs) == (generic.ts, generic.ys, generic.fs)


def test_unrecordable_right_hand_sides_run_generic():
    Fixed = fixed_type(192)
    half = mp.mpf("0.5")

    def swallows(t, y):
        try:
            return (mp.exp(-t) * y[0],)
        except Exception:
            return (y[0],)

    for f in (lambda t, y: (half * mp.exp(-t) * y[0],),  # an mp function
              lambda t, y: (y[0] * half,),  # an mpf operand
              lambda t, y: (y[0] if y[0] > 0 else -y[0],),  # a branch
              lambda t, y: (y[0] ** half,),
              swallows):  # the refusal is kept even when f catches it
        assert record(f, Fixed, 1) is None
    traj = pv5lab.integrate_ivp(lambda t, y: (half * mp.exp(-t) * y[0],), 0, 1, (1,),
                                1e-20, bits=192)
    assert traj.meta["rhs_path"] == "generic"
    assert traj.meta["rhs_evals"] == 1 + 6 * traj.meta["steps"] + 5 * traj.meta["rejected"]


def test_meta_counts_rhs_evaluations(oparams, ricc_init):
    harm = pv5lab.integrate_ivp(harmonic, 0, 2, (1, 0), 1e-12, bits=192)
    ric = pv5lab.integrate_riccati(oparams, 2, "0.52", "0.5", ricc_init, 1e-14)
    for traj in (harm, ric):
        meta = traj.meta
        assert meta["rhs_path"] == "recorded"
        assert meta["rhs_evals"] == 1 + 6 * meta["steps"] + 5 * meta["rejected"]
    assert ric.meta["rejected"] > 0


def test_trajectory_reads_back_start_and_accepted_points():
    with mp.workprec(192 + 64):  # the integrator's working precision
        tiny = mp.mpf("1e-30")  # its low bits lie below the scale 2^-320
    for t0, t1 in ((0, 1), (1, 0)):
        traj = pv5lab.integrate_ivp(harmonic, t0, t1, (tiny, 1), 1e-12, bits=192)
        start = 0 if t0 < t1 else -1
        assert traj.t_points[start] == t0 and traj.values[start] == (tiny, 1)
        for k in (0, 1, len(traj.t_points) // 2, -1):
            assert traj.sample(traj.t_points[k]) == traj.values[k]
        assert traj.t0 == traj.t_points[0] and traj.t1 == traj.t_points[-1]
        assert len(traj.derivs) == len(traj.values) == len(traj.t_points)


def test_step_flooring_to_zero_raises_step_underflow():
    # a span of 32 units of the scale 2^-320: the first step, span // 64, is 0
    with pytest.raises(StepUnderflow, match="below floor"):
        pv5lab.integrate_ivp(harmonic, 0, mp.mpf(2) ** -315, (1, 0), 1e-12, bits=192)


def test_interval_below_one_unit_raises_step_underflow():
    # t1 - t0 = 2^-330 floors to no unit of the scale 2^-320
    with pytest.raises(StepUnderflow, match="below one unit"):
        pv5lab.integrate_ivp(harmonic, 0, mp.mpf(2) ** -330, (1, 0), 1e-12, bits=192)


def test_state_at_shares_one_state(oparams):
    from pv5lab.ladder import state_at
    from pv5lab.verify import Evaluator

    ortho, lad = state_at(oparams, "0.5")
    with mp.workprec(oparams.work_bits):
        again = state_at(oparams, mp.mpf("0.5"))
    assert again[0] is ortho and again[1] is lad
    assert Evaluator(oparams, "0.5").states()[1] is lad
    R, r = pv5lab.riccati_initial(oparams, 2, "0.5")
    assert R is lad.R[2] and r is lad.r[2]
    traj = pv5lab.integrate_riccati(oparams, 2, "0.5", "0.51", (R, r), 1e-12)
    assert pv5lab.crosscheck(traj, ["0.5"]) == 0


def test_integer_fifth_root_is_the_exact_floor():
    from pv5lab.ode import _iroot5

    rng = random.Random(5)
    xs = [0, 1, 2, 31, 32, 33, 242, 243, 244]
    for r in (2, 3, 10, 2 ** 64 - 1, 2 ** 64, 3 ** 41, rng.getrandbits(80)):
        xs += [r ** 5 - 1, r ** 5, r ** 5 + 1]
    xs += [rng.getrandbits(rng.randint(300, 400)) for _ in range(200)]
    for x in xs:
        r = _iroot5(x)
        assert r ** 5 <= x < (r + 1) ** 5, x


def test_worst_component_is_the_largest_exact_ratio():
    from pv5lab.ode import _worst

    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 4)
        errs = [rng.getrandbits(rng.randint(0, 700)) for _ in range(dim)]
        bounds = [rng.getrandbits(rng.randint(1, 700)) | 1 for _ in range(dim)]
        e, b = _worst(errs, bounds)
        assert (e, b) in zip(errs, bounds)
        assert Fraction(e, b) == max(map(Fraction, errs, bounds))


def test_next_step_clamps_and_floors_exactly():
    from pv5lab.ode import _FACTOR_BITS, _iroot5, _next_step

    scale = 2 ** _FACTOR_BITS
    rng = random.Random(11)
    for h in (1, 7, rng.getrandbits(300), 3 ** 200):
        for sign in (1, -1):
            hs = sign * h
            # err = 0, and any factor at or beyond a clamp
            assert _next_step(hs, 0, 5) == hs * 5
            assert _next_step(hs, 59049, 5 ** 5 * 100000) == hs * 5
            assert _next_step(hs, 1, 10 ** 9) == hs * 5
            assert _next_step(hs, 5 ** 5 * 59049, 100000) == hs // 5
            assert _next_step(hs, 10 ** 9, 1) == hs // 5
            # inside the clamps: floor(h F / 2^P), F = floor(2^P factor)
            for _ in range(20):
                e = rng.getrandbits(rng.randint(500, 700)) + 1
                b = e * rng.randint(1, 1000) // rng.randint(1, 1000) + 1
                q = Fraction(59049 * b, 100000 * e)
                if not Fraction(1, 5 ** 5) < q < 5 ** 5:
                    continue
                f = _iroot5(q.numerator * scale ** 5 // q.denominator)
                assert f ** 5 <= q * scale ** 5 < (f + 1) ** 5
                # a negative h floors as a positive one does: toward -inf
                assert _next_step(hs, e, b) == math.floor(Fraction(hs * f, scale))


def test_generated_step_is_the_tableau_rows_term_by_term():
    from pv5lab.ode import _A, _B5, _C, _D, _E, _step_maker

    frac = fixed_type(192).FRAC
    unit, one = _D << frac, 1 << frac

    def rhs(t, y):  # any int map will do; this one mixes t and every component
        return [(t * y[-1] >> frac) - 3 * y[0]] + [a - b for a, b in zip(y, y[1:])]

    def reference(t, h, y, k1, err_up, bound_mul, bound_up):
        k = [k1]
        for i in range(1, 6):
            stage = [yj + h * sum(a * kj for a, kj in zip(_A[i], col)) // unit
                     for yj, col in zip(y, zip(*k))]
            k.append(rhs(t + _C[i] * h // _D, stage))
        cols = list(zip(*k))
        y5 = [yj + h * sum(b * kj for b, kj in zip(_B5, col)) // unit
              for yj, col in zip(y, cols)]
        errs = [abs(h * sum(e * kj for e, kj in zip(_E, col))) << err_up for col in cols]
        bounds = [bound_mul * (one + max(abs(a), abs(b))) << bound_up for a, b in zip(y, y5)]
        return y5, errs, bounds

    rng = random.Random(17)
    for dim in (1, 2, 3):
        for _ in range(40):
            t = rng.randrange(-one, one)
            h = rng.randrange(-one, one) >> rng.randrange(frac)
            y = [rng.randrange(-4 * one, 4 * one) for _ in range(dim)]
            scales = (rng.randrange(60), rng.randrange(1, 1 << 60), rng.randrange(60))
            got = _step_maker(dim, frac)(rhs, *scales)(t, h, y, rhs(t, y))
            assert got == reference(t, h, y, rhs(t, y), *scales)


def test_integrate_ivp_refuses_non_finite_or_non_positive_tolerance():
    for tol in ("nan", "inf", "-inf", 0, "-1e-12"):
        with pytest.raises(ParameterError, match="tol must be finite and positive"):
            pv5lab.integrate_ivp(harmonic, 0, 1, (1, 0), tol, bits=192)


@pytest.mark.parametrize("t0, t1, y0, bits", [
    ("nan", 1, (1, 0), 192),
    (0, "inf", (1, 0), 192),
    (0, 1, ("nan", 0), 192),
    (0, 1, (1, "-inf"), 192),
    (0, 1, (1, 0), -300),
    (0, 1, (1, 0), 100.5),
    (0, 1, (1, 0), 0),
    (0, 1, (1, 0), True),
])
def test_integrate_ivp_refuses_bad_direct_input(t0, t1, y0, bits):
    # each is refused as a bad input before any right-hand side runs
    f = _no_right_hand_side(None, None)
    with pytest.raises(ParameterError, match="must be finite|bits must be an integer >= 64"):
        pv5lab.integrate_ivp(f, mp.mpf(t0), mp.mpf(t1), tuple(map(mp.mpf, y0)), 1e-12,
                             bits=bits)


def test_initial_data_refuses_degrees_outside_n_max(oparams, monkeypatch):
    # a degree above n_max used to fill a table and fail on a tuple index;
    # n = -1 silently returned the degree-n_max pair
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the degree check")

    monkeypatch.setattr(pv5lab.ladder, "state_at", no_quadrature)
    for initial in (pv5lab.riccati_initial, pv5lab.pv_initial):
        for n in (-1, 0, oparams.n_max + 1):
            with pytest.raises(ParameterError, match=r"1\.\.n_max = 1\.\.4"):
                initial(oparams, n, "0.5")


def _int_digest(traj):
    """SHA-256 of a trajectory's ints (ts, ys, fs), and its step counts."""
    ints = (tuple(traj.ts), tuple(map(tuple, traj.ys)), tuple(map(tuple, traj.fs)))
    counts = tuple(traj.meta[k] for k in ("steps", "rejected", "rhs_evals"))
    return hashlib.sha256(repr(ints).encode()).hexdigest(), counts


def test_integrator_ints_are_pinned():
    # the trajectory benchmark's integration (``ode --k2 0.04 --n 2 --n-max 2
    # --t0 0.5 --t1 0.54 --ode-tol 1e-18 --bits 256``) and a backward run:
    # a change to the step's arithmetic must leave every int where it is
    params = pv5lab.validate("1", "0.04", mp.mpf("0.5"), precision_bits=256, n_max=2)
    init = pv5lab.riccati_initial(params, 2, "0.5")
    traj = pv5lab.integrate_riccati(params, 2, "0.5", "0.54", init, 1e-18)
    assert _int_digest(traj) == (
        "e128e2368d6fa20673c44ecb625a610f85b10a56e9dfa4643dc9eb800a7b846e",
        (2585, 3, 15526))
    back = pv5lab.integrate_ivp(harmonic, 2, 0, ("0.3", 1), 1e-16, bits=192)
    assert _int_digest(back) == (
        "41bd1a86c785cb43600499bdc48bf507d987e0c60e9e86b38f8638e243622a0c",
        (617, 2, 3713))
