"""Identity registry: required checks, diagnostics, suite mechanics."""

import dataclasses
import os
import threading

import pytest
from mpmath import mp

import pv5lab
from pv5lab import ladder, verify
from pv5lab.errors import LadderIneligible, NoConvergence, ParameterError, SingularParams
from pv5lab.quadrature import WeightTable
from pv5lab.verify import (REGISTRY, Evaluator, IdentityId, Tier, _attempt, _read, _run_one,
                           sample_points)

I = IdentityId

#: the identities that are exact consequences of orthogonality for this
#: weight (partial fractions in a nondegenerate pole basis)
EXACT_DIAGNOSTICS = (I.C_S1_B, I.C_S1_R, I.C_S2_B, I.C_S2_R, I.C_S2_MIX,
                     I.TELE_SUM, I.Q1, I.Q2, I.QP1, I.QP2)


#: the identities in registry (and report) order
IDENTITY_NAMES = (
    "S1_FUNC", "S2_FUNC", "S2P_FUNC", "LOWER_FUNC", "RAISE_FUNC", "A_FORM", "B_FORM",
    "BETA_ROUTES", "TELE_BETA", "DLNH", "DBETA", "DP",
    "C_S1_B", "C_S1_R", "C_S2_B", "C_S2_R", "C_S2_MIX", "YJ3", "YJ4", "TELE_SUM",
    "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "QP1", "QP2", "QP3", "QP4", "QP5", "QP6", "QP7",
    "MUTEX_WITNESS", "ZHU232", "BETA_EXPR",
    "RIC_R", "RIC_BIGR", "FACTOR_PROD", "ODE_RN", "PV_PHI",
)


def test_identity_ids_are_the_registry_rows():
    assert [i.value for i in REGISTRY] == list(IDENTITY_NAMES)
    assert [i.value for i in IdentityId] == list(IDENTITY_NAMES)
    for name in IDENTITY_NAMES:
        assert IdentityId(name) is IdentityId[name] is getattr(pv5lab.IdentityId, name)
        assert IdentityId[name].name == name
    assert IdentityId.__module__ == "pv5lab.verify"
    assert pv5lab.verify.REQUIRES_NONZERO_K2 == tuple(
        IdentityId[n] for n in ("Q2", "QP2", "BETA_EXPR", "RIC_R", "RIC_BIGR",
                                "FACTOR_PROD", "ODE_RN", "PV_PHI"))
    assert [i.value for i in pv5lab.verify.suite_ids("required")] == list(IDENTITY_NAMES[:12])


@pytest.fixture(scope="module")
def vp():
    return pv5lab.validate(1, 0.25, 0.5, 192, 5, rel_tol=1e-30)


def test_required_functional_checks_pass(vp):
    for ident in (I.S1_FUNC, I.S2_FUNC, I.S2P_FUNC):
        rep = pv5lab.check(ident, vp, 2, "0.5", z="0.8")
        assert rep.passed and rep.residual < mp.mpf("1e-15")
    # reference point comfortably beats the acceptance threshold
    rep = pv5lab.check(I.S1_FUNC, vp, 3, "0.5", z="0.8")
    assert rep.residual < mp.mpf("1e-20")


def test_required_form_checks_pass(vp):
    for ident in (I.A_FORM, I.B_FORM, I.LOWER_FUNC, I.RAISE_FUNC):
        rep = pv5lab.check(ident, vp, 3, "0.5", z="-0.71")
        assert rep.passed and rep.residual < mp.mpf("1e-20")


def test_required_bookkeeping_checks_pass(vp):
    for ident in (I.BETA_ROUTES, I.TELE_BETA):
        rep = pv5lab.check(ident, vp, 4, "0.5")
        assert rep.passed


def test_derivative_checks_second_order(vp):
    for ident in (I.DLNH, I.DBETA, I.DP):
        rep = pv5lab.check(ident, vp, 2, "0.5")
        assert rep.passed
        assert rep.residual < mp.mpf("1e-10")
        assert 3 <= rep.halving_ratio <= 5


def test_exact_diagnostics_at_quadrature_floor(vp):
    for ident in EXACT_DIAGNOSTICS:
        rep = pv5lab.check(ident, vp, 2, "0.5")
        assert rep.passed is None  # diagnostics are never asserted
        assert rep.residual < mp.mpf("1e-25"), ident


def test_yj4_residual_finite_and_order_k2(vp):
    rep = pv5lab.check(I.YJ4, vp, 1, "0.5")
    assert mp.isfinite(rep.residual)
    assert mp.mpf("1e-4") < rep.residual < mp.mpf(1)  # O(k2) defect at k2=0.25


def test_yj4_exact_at_t_zero():
    p = pv5lab.validate(1, -1, 0, 192, 4, rel_tol=1e-30)
    rep = pv5lab.check(I.YJ4, p, 1, 0)
    assert rep.residual < mp.mpf("1e-25")


def test_index_error_where_previous_degree_needed(vp):
    with pytest.raises(IndexError):
        pv5lab.check(I.C_S2_B, vp, 0, "0.5")
    with pytest.raises(IndexError):
        pv5lab.check(I.S1_FUNC, vp, vp.n_max, "0.5", z="0.8")  # needs n+1


def test_singular_params_for_k2_zero():
    p = pv5lab.validate(1, 0, 0.5, 192, 4, rel_tol=1e-30)
    for ident in (I.PV_PHI, I.BETA_EXPR, I.Q2, I.RIC_R):
        with pytest.raises(SingularParams):
            pv5lab.check(ident, p, 1, "0.5")


def test_z_required_for_functional_checks(vp):
    with pytest.raises(ParameterError):
        pv5lab.check(I.S1_FUNC, vp, 2, "0.5")


def test_mutex_witness_is_order_one(vp):
    # the two groupings jointly force (b_n+alpha)(b_n-n) = 0; measurably false
    rep = pv5lab.check(I.MUTEX_WITNESS, vp, 2, "0.5")
    assert rep.residual > mp.mpf("0.1")


def test_factor_split_values_and_product(vp):
    f1, f2 = pv5lab.factor_split(vp, 2, "0.5")
    assert mp.isfinite(f1) and mp.isfinite(f2)
    rep = pv5lab.check(I.FACTOR_PROD, vp, 2, "0.5")
    # the product residual must be the normalized product of the same factors
    prod = f1 * f2
    assert abs(rep.residual - abs(prod) / (1 + abs(prod))) < mp.mpf("1e-12")


def test_factor_split_guards(vp):
    with pytest.raises(SingularParams):
        pv5lab.factor_split(pv5lab.validate(1, 0, 0.5, 192, 4, rel_tol=1e-30), 2, "0.5")
    with pytest.raises(IndexError):
        pv5lab.factor_split(vp, 0, "0.5")
    with pytest.raises(ParameterError):
        pv5lab.factor_split(vp, 2, 0)


def test_sample_points_deterministic_and_margined(vp):
    a = sample_points(vp, count=20, seed=3)
    b = sample_points(vp, count=20, seed=3)
    assert a == b
    assert len(a) == 20
    rk = mp.sqrt(mp.mpf("0.25"))
    for z in a:
        assert abs(z) < mp.mpf("0.95")
        assert abs(abs(z) - rk) >= mp.mpf("0.05")
    assert sample_points(vp, count=20, seed=4) != a


def test_suite_empty_n_set(vp):
    assert pv5lab.check_suite(vp, [], ["0.5"]) == []


def test_suite_single_t_skips_stencil_checks(vp):
    reports = pv5lab.check_suite(vp, [2], ["0.5"], z_samples=["0.8"],
                                 suite="all")
    by_id = {}
    for r in reports:
        by_id.setdefault(r.id, []).append(r)
    for ident in (I.DLNH, I.DBETA, I.DP, I.RIC_R, I.RIC_BIGR, I.ODE_RN, I.PV_PHI):
        assert all(r.status == "skipped" for r in by_id[ident])
    for ident in (I.S1_FUNC, I.YJ4, I.Q1):
        assert all(r.status == "ok" for r in by_id[ident])


def test_suite_two_t_runs_stencil_checks(vp):
    reports = pv5lab.check_suite(vp, [1], ["0.4", "0.6"],
                                 z_samples=["0.8"], suite="required")
    stencil_rows = [r for r in reports if r.id is I.DLNH]
    assert len(stencil_rows) == 2
    assert all(r.status == "ok" and r.passed for r in stencil_rows)
    # every required row must pass at BOTH grid points, in particular the
    # functional checks at the t that differs from the base params
    for r in reports:
        assert r.status == "ok" and r.passed, (r.id, str(r.t), r.message)


def test_suite_ordering_is_deterministic(vp):
    kw = dict(z_samples=["-0.2", "0.8"], suite="all")
    order = {ident: i for i, ident in enumerate(REGISTRY)}
    for grid in (["0.5"], ["0.4", "0.6"]):
        r1 = pv5lab.check_suite(vp, [1, 2], grid, **kw)
        r2 = pv5lab.check_suite(vp, [2, 1], grid, **kw)
        key = [(r.id.value, r.n, str(r.t), str(r.z)) for r in r1]
        assert key == [(r.id.value, r.n, str(r.t), str(r.z)) for r in r2]
        # registry order, then n, then t, then z (the samples are ascending)
        ids = [r.id for r in r1]
        assert ids == sorted(ids, key=lambda i: order[i])
        rank = [(order[r.id], r.n, r.t, 0 if r.z is None else r.z) for r in r1]
        assert rank == sorted(rank), grid


def _recorder(path):
    """Append one line per call to ``path``, from this process and from any
    worker forked from it: (pid, *values)."""
    def record(*values):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(" ".join(str(v) for v in (os.getpid(), *values)) + "\n")
    return record


def _recorded(path):
    """The lines ``_recorder`` wrote, split into words."""
    if not path.exists():
        return []
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()]


def test_suite_walks_the_grid_one_t_at_a_time(monkeypatch, tmp_path):
    """check_suite builds the states of one grid t before those of the next,
    in this process and in each worker: the grid point nearest each
    state_at call never goes back within one process, and the processes
    together cover the grid."""
    params = pv5lab.validate(1, "0.25", "0.5", 128, 2, rel_tol=1e-18)
    grid = [mp.mpf(t) for t in ("0.4", "0.5", "0.6")]
    path = tmp_path / "state_at.txt"
    record = _recorder(path)
    real = ladder.state_at

    def recording(params, t):
        record(min(range(len(grid)), key=lambda i: abs(grid[i] - t)))
        return real(params, t)

    monkeypatch.setattr(ladder, "state_at", recording)
    reports = pv5lab.check_suite(params, [1], grid, z_samples=["0.8"], suite="all")
    assert all(r.status == "ok" for r in reports)
    by_pid = {}
    for pid, index in _recorded(path):
        by_pid.setdefault(pid, []).append(int(index))
    for nearest in by_pid.values():
        assert nearest == sorted(nearest)
    assert set().union(*by_pid.values()) == {0, 1, 2}


def test_a_failed_state_build_is_attempted_once_per_t(monkeypatch, tmp_path):
    """A state build that does not converge is kept for its t: one weight
    table is built, and every row that reads the state is an ERROR row
    carrying the build's message."""
    params = pv5lab.validate(1, "0.25", "0.5", 128, 3, rel_tol=1e-18, max_level=4)
    with pytest.raises(NoConvergence) as failure:
        ladder.state_at(params, "0.5")
    path = tmp_path / "tables.txt"
    record = _recorder(path)  # counts the tables of every worker too
    init = WeightTable.__init__

    def recording(table, *args, **kwargs):
        init(table, *args, **kwargs)
        record()

    monkeypatch.setattr(WeightTable, "__init__", recording)
    kw = dict(z_samples=["0.8", "-0.7"], suite="all")
    reports = pv5lab.check_suite(params, [1, 2], ["0.5"], **kw)
    assert len(_recorded(path)) == 1
    message = f"NoConvergence: {failure.value}"
    assert all(r.message == message for r in reports if r.status != "skipped")
    # the same rows, ERROR where a converged build writes a residual
    converged = pv5lab.check_suite(dataclasses.replace(params, max_level=6), [1, 2],
                                   ["0.5"], **kw)
    assert ([(r.id, r.n, r.t, r.z, r.status == "skipped") for r in reports]
            == [(r.id, r.n, r.t, r.z, r.status == "skipped") for r in converged])
    assert any(r.status == "error" for r in reports)


def test_a_kept_failure_does_not_grow_its_traceback():
    """Each read raises the kept failure with a fresh traceback, so the
    frames of earlier reads do not pile up on it."""
    def fail():
        raise NoConvergence("kept")

    def depth(exc):
        tb, count = exc.__traceback__, 0
        while tb is not None:
            tb, count = tb.tb_next, count + 1
        return count

    kept = _attempt(fail)
    depths = []
    for _ in range(2):
        with pytest.raises(NoConvergence, match="kept"):
            _read(kept)
        depths.append(depth(kept))
    assert depths[0] == depths[1]


def test_suite_filters_by_tier(vp):
    req = pv5lab.check_suite(vp, [1], ["0.5"], z_samples=["0.8"],
                             suite="required")
    assert all(r.tier is Tier.REQUIRED for r in req)
    diag = pv5lab.check_suite(vp, [1], ["0.5"], z_samples=["0.8"],
                              suite="diagnostic")
    assert all(r.tier is Tier.DIAGNOSTIC for r in diag)


def test_suite_k2_zero_marks_skipped():
    p = pv5lab.validate(1, 0, 0.5, 192, 3, rel_tol=1e-30)
    reports = pv5lab.check_suite(p, [1], ["0.4", "0.6"], z_samples=["0.8"],
                                 suite="diagnostic")
    rows = {r.id: r for r in reports if r.n == 1 and str(r.t).startswith("0.4")}
    assert rows[I.Q2].status == "skipped"
    assert rows[I.PV_PHI].status == "skipped"
    assert rows[I.Q1].status == "ok"


def test_pair_elimination_consistent_with_second_order_equation(vp):
    """Eliminating r_n from the coupled pair numerically must agree with the
    second-order R_n equation's residual within two orders of magnitude."""
    from pv5lab.verify import Evaluator, _nres, _ric_r_rhs, _s_of, stencil_step

    with mp.workprec(vp.work_bits):
        t = mp.mpf("0.5")
        st = Evaluator(vp, t).stencil()
        h = stencil_step(t)
        k2, alpha = vp.k2, vp.alpha
        for n in (1, 2):
            s = _s_of(n, vp)
            R = {o: st[o][1].R[n] for o in st}
            slopes = {0: (R[2] - R[-2]) / (2 * h), 1: (R[2] - R[0]) / h,
                      -1: (R[0] - R[-2]) / h}

            def r_elim(o, n=n, s=s, R=R, slopes=slopes):
                to = t + o * h / 2
                return (2 * (k2 * (n + alpha + 1) + to) * R[o] + k2 * R[o] ** 2
                        + 2 * s * to - 2 * k2 * to * slopes[o]) / (2 * (s + R[o]))

            r_prime = (r_elim(1) - r_elim(-1)) / h
            elim_res = _nres(2 * k2 * t * r_prime,
                             _ric_r_rhs(vp, n, t, r_elim(0), R[0]))
            ode_res = pv5lab.check(I.ODE_RN, vp, n, t).residual
            ratio = elim_res / ode_res
            assert mp.mpf("0.01") <= ratio <= mp.mpf(100), (n, mp.nstr(ratio, 5))


def test_summarize_required_pass(vp):
    reports = pv5lab.check_suite(vp, [1, 2], ["0.5"], z_samples=["0.8"],
                                 suite="required")
    summary = pv5lab.summarize(reports)
    assert summary["required_pass"] is True
    assert mp.mpf(summary["max_required_residual"]) < mp.mpf("1e-10")


def test_factor_split_refuses_a_stencil_below_t_zero():
    """factor_split is admitted as check(FACTOR_PROD) is: at t <= 2h the
    stencil t - h would reach below 0, so both refuse."""
    params = pv5lab.validate(1, -0.5, 0.5, 128, 2, rel_tol=1e-18)
    for refuse in (lambda: pv5lab.factor_split(params, 2, "5e-7"),
                   lambda: pv5lab.check(I.FACTOR_PROD, params, 2, "5e-7")):
        with pytest.raises(ParameterError, match="t-stencil"):
            refuse()


def test_suite_refuses_a_t_grid_below_zero(vp):
    # one negative point refuses the whole grid before any check runs
    with pytest.raises(ParameterError, match="t must be >= 0"):
        pv5lab.check_suite(vp, [1], ["0.5", "-0.5"], z_samples=["0.8"],
                           suite="required")


def test_suite_refuses_ladder_ineligible_params(monkeypatch):
    """alpha = 0, or a t = 0 with k2 >= 0, has no ladder integrals:
    check_suite and check raise LadderIneligible before any table is built,
    instead of writing an ERROR row per check."""
    def no_table(*args, **kwargs):
        raise AssertionError("a weight table was built")

    monkeypatch.setattr(WeightTable, "__init__", no_table)
    for (alpha, k2), grid, bad_t in (((0, "0.25"), ["0.5"], "0.5"),
                                     ((1, "0.25"), ["0.5", "0"], "0"),
                                     ((1, "0"), ["0", "0.5"], "0")):
        params = pv5lab.validate(alpha, k2, 0.5, 192, 2, rel_tol=1e-30)
        with pytest.raises(LadderIneligible):
            pv5lab.check_suite(params, [1], grid, z_samples=["0.8"],
                               suite="required")
        with pytest.raises(LadderIneligible):
            pv5lab.check(I.Q1, params, 1, bad_t)


class _NoStates:
    """An Evaluator stand-in for stub bodies, which read no state."""

    def __init__(self, params, t):
        self.params = params
        self.t = t

    def states(self):
        return None, None


def _stub_row(monkeypatch, params, identity, out):
    """The row _run_one writes for ``identity`` when its body returns ``out``."""
    stub = dataclasses.replace(REGISTRY[identity], fn=lambda *args: out)
    monkeypatch.setitem(REGISTRY, identity, stub)
    return _run_one(_NoStates(params, mp.mpf("0.5")), identity, 1, None)


def test_run_one_owns_the_pass_rule(monkeypatch, vp):
    """_run_one alone forms the residuals, the halving ratio and the pass
    rule, from the (lhs, rhs) pairs a stencil body returns."""
    tiny = mp.mpf("1e-12")  # residual tiny / (1 + tiny), within DLNH's 1e-10
    clean = _stub_row(monkeypatch, vp, I.DLNH, [(tiny, 0), (tiny / 4, 0)])
    assert clean.passed is True and 3.9 < clean.halving_ratio < 4.1
    assert clean.residual == tiny / (1 + tiny)
    # within tolerance, but a ratio outside [3, 5] fails a REQUIRED stencil row
    for quarter in (tiny / 2, tiny / 8):
        row = _stub_row(monkeypatch, vp, I.DLNH, [(tiny, 0), (quarter, 0)])
        assert row.residual < mp.mpf("1e-10") and row.passed is False
    # a DIAGNOSTIC stencil row keeps passed = None, whatever its ratio
    row = _stub_row(monkeypatch, vp, I.RIC_R, [(tiny, 0), (tiny / 2, 0)])
    assert row.passed is None and 1.9 < row.halving_ratio < 2.1
    # FACTOR_PROD is differenced at step h only: no ratio
    row = _stub_row(monkeypatch, vp, I.FACTOR_PROD, [(tiny, 0)])
    assert row.halving_ratio is None and row.residual == tiny / (1 + tiny)
    # a zero residual at h/2 reports no ratio, and the tolerance alone decides
    row = _stub_row(monkeypatch, vp, I.DLNH, [(tiny, 0), (mp.mpf(1), mp.mpf(1))])
    assert row.halving_ratio is None and row.passed is True
    # a body off the stencil returns its residual, which the row keeps as is;
    # its tolerance (LOWER_FUNC: 1e-20) alone decides
    for residual, passed in ((mp.mpf("1e-25"), True), (tiny, False)):
        row = _stub_row(monkeypatch, vp, I.LOWER_FUNC, residual)
        assert row.residual is residual and row.halving_ratio is None
        assert row.passed is passed


@pytest.mark.parametrize("k2", ["0.25", "-0.5", "0.09"])
def test_sweep_holds_the_public_values_bit_for_bit(k2):
    """A ZSweep reads the same bits as the public routes to each value."""
    params = pv5lab.validate(1, k2, "0.5", 128, 4, rel_tol=1e-18)
    ev = Evaluator(params, "0.5")
    with mp.workprec(params.work_bits):
        for z in (mp.mpf("0.8"), mp.mpf("-0.4")):
            sw = ev.sweep(z)
            ortho, _ = ev.states()
            assert sw.point.vp._mpf_ == pv5lab.v_prime(z, params)._mpf_
            for n in range(params.n_max + 1):
                pairs = [
                    (sw.a_int(n), pv5lab.A_integral(n, z, ortho)),
                    (sw.b_int(n), pv5lab.B_integral(n, z, ortho)),
                ]
                for got, want in pairs:
                    assert got._mpf_ == want._mpf_, (k2, z, n)


def test_integral_failure_errors_only_the_rows_that_read_its_degree(vp, monkeypatch):
    """A NoConvergence of A_2(z) is kept by the sweep: the rows that read
    A_2 at that z are ERROR rows, every other row runs."""
    real = ladder.A_integral
    with mp.workprec(vp.work_bits):
        bad = mp.mpf("0.8")

    def failing(n, z, ortho):
        if n == 2 and z == bad:
            raise NoConvergence("patched failure")
        return real(n, z, ortho)

    monkeypatch.setattr(ladder, "A_integral", failing)
    reports = pv5lab.check_suite(vp, range(vp.n_max + 1), ["0.5"],
                                 z_samples=["0.8", "-0.7"], suite="required")
    reads_a2 = {I.S1_FUNC: {2}, I.S2_FUNC: {1, 3}, I.A_FORM: {2},
                I.S2P_FUNC: set(range(2, vp.n_max + 1))}
    errors = {(r.id, r.n) for r in reports if r.status == "error"}
    assert errors == {(i, n) for i, ns in reads_a2.items() for n in ns}
    assert all(r.z == bad and r.message == "NoConvergence: patched failure"
               for r in reports if r.status == "error")
    assert all(r.status == "ok" for r in reports if r.z is not None and r.z != bad)


@pytest.mark.parametrize("target", ["state_at", "A_integral"])
@pytest.mark.parametrize("error", [ParameterError("patched configuration error"),
                                   TypeError("patched programming error")],
                         ids=["ParameterError", "TypeError"])
def test_suite_raises_what_is_not_a_numerical_error(vp, monkeypatch, error, target):
    """Only NumericalError and PoleError become ERROR rows: any other
    exception from a state build or a z sweep's integral leaves check_suite,
    from a worker too, and no worker is left behind."""
    def failing(*args):
        raise error

    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    monkeypatch.setattr(ladder, target, failing)
    with pytest.raises(type(error), match="patched"):
        pv5lab.check_suite(vp, [1, 2], ["0.5"], z_samples=["0.8", "-0.7"], suite="required")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", ["exit", "TypeError"])
def test_a_failing_worker_fails_the_suite(vp, monkeypatch, failure):
    """A worker that raises at a z this process does not own has its
    exception raised here; one that dies without a result makes check_suite
    raise ChildProcessError.  Neither returns partial rows, and no worker
    is left behind."""
    real = ladder.A_integral
    this_process = os.getpid()
    with mp.workprec(vp.work_bits):
        theirs = mp.mpf("0.8")  # cells (None, 0.8, -0.7) dealt to two: a worker's

    def failing(n, z, ortho):
        if z == theirs:
            assert os.getpid() != this_process, "no worker took the first z"
            if failure == "exit":
                os._exit(3)
            raise TypeError("patched worker error")
        return real(n, z, ortho)

    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    monkeypatch.setattr(ladder, "A_integral", failing)
    expected = (ChildProcessError, "exit code 3") if failure == "exit" else (
        TypeError, "patched worker error")
    with pytest.raises(expected[0], match=expected[1]):
        pv5lab.check_suite(vp, [1, 2], ["0.5"], z_samples=["0.8", "-0.7"], suite="required")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_deals_units_out_and_returns_them_in_order(monkeypatch, cpus):
    """[fn(u) for u in units] in unit order, with more units than CPUs and
    with fewer: of k = min(CPUs, units) processes, process i takes the units
    i, i + k, ..., and process 0 is this one; every worker is reaped."""
    monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
    for units in (tuple(range(7)), (5, 6), (4,), ()):
        out = verify._fork_map(lambda u: (u * u, os.getpid()), units)
        assert [value for value, _ in out] == [u * u for u in units]
        pids = [pid for _, pid in out]
        k = max(1, min(cpus, len(units)))
        assert pids == [pids[j % k] for j in range(len(units))]
        assert len(set(pids)) == min(cpus, len(units))
        assert os.getpid() in pids or not units
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_runs_in_one_process_when_it_cannot_fork(monkeypatch):
    """One process while another thread is alive or without os.fork."""
    monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
    here = [os.getpid()] * 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify._fork_map(lambda u: os.getpid(), tuple(range(4))) == here
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert verify._fork_map(lambda u: os.getpid(), tuple(range(4))) == here


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("call", ["fork", "pipe"])
@pytest.mark.parametrize("failing", ["every", "second"])
def test_a_failed_fork_runs_its_share_here(monkeypatch, call, failing):
    """An OSError from os.fork or os.pipe leaves the rows those of one CPU:
    each share that got no worker runs in this process, its pipe ends are
    closed, and every worker that started is reaped."""
    import errno

    params = pv5lab.validate(1, "0.25", "0.5", 128, 3, rel_tol=1e-18)
    args = (params, [1, 2], ["0.5"])
    kw = {"z_samples": ["0.8", "-0.7", "0.3", "-0.2"], "suite": "all"}
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    expected = _fields(pv5lab.check_suite(*args, **kw))
    real = getattr(os, call)
    calls = []

    def flaky():
        calls.append(call)
        if failing == "every" or len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, call, flaky)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
    before = _open_fds()
    assert _fields(pv5lab.check_suite(*args, **kw)) == expected
    assert len(calls) == 2
    assert _open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fields(reports):
    return [(r.id, r.tier, r.n, r.t, r.z, r.residual, r.passed, r.status, r.message,
             r.halving_ratio) for r in reports]


#: check_suite calls whose rows must not depend on the worker count
_SPLIT_CASES = {
    "z-split": ((1, "0.25", "0.5", 128, 3, "1e-18", 12), [1, 2], ["0.5"],
                ["0.8", "-0.7", "0.3"], "required"),
    "t-split": ((1, "0.25", "0.5", 128, 2, "1e-18", 12), [1, 2], ["0.4", "0.6"],
                ["0.8"], "all"),
    "t-split-dealt": ((1, "0.25", "0.5", 128, 2, "1e-18", 12), [1, 2],
                      ["0.3", "0.4", "0.5", "0.6", "0.7"], ["0.8"], "all"),
    "no-z": ((1, "0.25", "0.5", 128, 3, "1e-18", 12), [1, 2], ["0.5"], [], "all"),
    "k2-zero-skipped": ((1, "0", "0.5", 128, 3, "1e-18", 12), [1, 2], ["0.5"],
                        ["0.8", "-0.7"], "all"),
    "max-level-error": ((1, "0.25", "0.5", 128, 3, "1e-18", 4), [1, 2], ["0.5"],
                        ["0.8", "-0.7"], "all"),
    # verify --alpha 1 --k2 0.25 --t 0.5 --n-max 3 --bits 160 --rel-tol 1e-25
    # --suite required --z-count 4 (seed 0): A_2 at the first z adds a table level
    "bits-160": ((1, "0.25", "0.5", 160, 3, "1e-25", 12), [0, 1, 2, 3], ["0.5"],
                 [-0.18062513884421283, -0.15091399642139447, 0.02142197060035622,
                  0.6544015178975915], "required"),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_rows_do_not_depend_on_the_worker_count(monkeypatch, case):
    """The same rows, field for field, from one CPU, two and three: split by
    z samples at one t, split by t points on a grid of two and of five
    (dealt out point by point), with no z samples, with
    SKIPPED rows (k2 = 0), with ERROR rows (a state build that fails at
    max_level 4), and where a z sweep adds a table level (bits 160)."""
    (alpha, k2, t, bits, n_max, rel_tol, max_level), n_set, grid, zs, suite = \
        _SPLIT_CASES[case]
    params = pv5lab.validate(alpha, k2, t, bits, n_max, rel_tol=float(rel_tol),
                             max_level=max_level)
    rows = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(verify, "_cpu_count", lambda cpus=cpus: cpus)
        rows[cpus] = _fields(pv5lab.check_suite(params, n_set, grid, z_samples=zs,
                                                suite=suite))
    assert rows[1] == rows[2] == rows[3] and rows[1]
    statuses = {row[7] for row in rows[1]}
    if case == "k2-zero-skipped":
        assert "skipped" in statuses
    if case == "max-level-error":
        assert "error" in statuses


@pytest.mark.parametrize("extends", [1, 0], ids=["first-run-extends", "worker-extends"])
def test_rows_stay_in_step_when_a_sweep_adds_a_level(monkeypatch, extends):
    """A sweep that refines the weight table leaves the rows of every later
    z as they were: with the cells (None, z0, z1, z2, z3) dealt out to two
    processes, this one sweeping z1 and z3 and a worker z0 and z2, the rows
    are those of one process whichever of them refines at its first z, and
    so is a later read on the table, which the one-process run extended and
    the split run, when the worker refined, did not."""
    params = pv5lab.validate(1, "0.25", "0.5", 128, 3, rel_tol=1e-18)
    zs = ["0.8", "-0.7", "0.3", "-0.2"]
    real = ladder.A_integral
    with mp.workprec(params.work_bits):
        refining = mp.mpf(zs[extends])

    def refine(n, z, ortho):
        if n == 0 and z == refining:
            ortho.table.ensure_levels(ortho.table.nlevels)  # one more level
        return real(n, z, ortho)

    monkeypatch.setattr(ladder, "A_integral", refine)
    rows, later = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpu_count", lambda cpus=cpus: cpus)
        ladder._states.cache_clear()  # each run starts from a fresh table
        rows[cpus] = _fields(pv5lab.check_suite(params, [1, 2], ["0.5"], z_samples=zs,
                                                suite="required"))
        ortho = ladder.state_at(params, "0.5")[0]
        later[cpus] = (real(2, "0.1", ortho), ladder.B_integral(2, "0.1", ortho))
    ladder._states.cache_clear()
    assert rows[1] == rows[2]
    assert later[1] == later[2]


def test_no_dd_entry_outlives_its_sweep(monkeypatch):
    """check_suite and check leave no divided-difference arrays in the
    (lru-cached) weight table once a z's integrals are taken."""
    tables = []
    init = WeightTable.__init__

    def recording(table, *args, **kwargs):
        init(table, *args, **kwargs)
        tables.append(table)

    def dd_keys(table):
        return [k for k in table._derived if k[0].__name__ in ("_dd_mirror", "_dd_part")]

    monkeypatch.setattr(WeightTable, "__init__", recording)
    # params of this test alone (max_level 11), so the table is built here
    params = pv5lab.validate(1, "0.25", "0.5", 128, 3, rel_tol=1e-18, max_level=11)
    reports = pv5lab.check_suite(params, [1, 2], ["0.5"], z_samples=["0.8", "-0.7"],
                                 suite="required")
    assert all(r.status != "error" for r in reports)
    (table,) = tables
    assert dd_keys(table) == []
    for z in ("0.9", "-0.6", "0.75"):
        assert pv5lab.check(I.A_FORM, params, 2, "0.5", z=z).passed
        assert dd_keys(table) == []
    assert len(tables) == 1
