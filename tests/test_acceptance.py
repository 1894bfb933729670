"""Acceptance criteria, one test (or test group) per criterion.

Each criterion runs at its stated tolerance on its stated configuration;
the conftest summary hook prints one PASS/FAIL line per criterion at the
end of the session.

Two criteria probe the published derivation chain, not the general ladder
theory: criterion 7's Painleve V residual (c7b) and criterion 8's coupled
pair against quadrature (c8c), both along k2 -> 0.  The chain claims that
both shrink in that limit.  Exact facts rule this out: R_n > 0, the
identities C_S1_R and Q2 (which hold at machine precision for every k2),
and the coefficients of the equations as coded.  They force both to grow,
at rates fixed by those coefficients.  c7b and c8c assert that direction
and rate, and each docstring carries the derivation behind its assertion.
"""

import json
import re
import time

import pytest
from mpmath import mp

import pv5lab
from pv5lab import report as report_mod
from pv5lab.cli import run as cli_run
from pv5lab.ode import riccati_rhs
from pv5lab.verify import (REGISTRY, Evaluator, IdentityId, central_differences,
                           stencil_step)

I = IdentityId

def residual_by_id(reports):
    out = {}
    for r in reports:
        if r.status == "ok":
            out.setdefault(r.id, []).append(r)
    return out


# ---------------------------------------------------------------------------
# criterion 1: classical-limit recurrence oracle


def test_c1_classical_limit_oracle():
    start = time.monotonic()
    for alpha in ("0.5", "1", "2"):
        p = pv5lab.validate(alpha, -1, 0, 256, 10)
        st = pv5lab.build(p)
        a = mp.mpf(alpha)
        for n in range(1, 11):
            oracle = n * (n + 2 * a) / ((2 * n + 2 * a + 1) * (2 * n + 2 * a - 1))
            assert abs(st.beta[n] - oracle) < mp.mpf("1e-30"), (alpha, n)
    assert time.monotonic() - start < 30


# ---------------------------------------------------------------------------
# criterion 2: orthogonality across all degree pairs


@pytest.fixture(scope="module")
def c2_state():
    return pv5lab.build(pv5lab.validate(1, 0.25, 0.5, 256, 12))


def test_c2_orthogonality_all_pairs(c2_state):
    start = time.monotonic()
    for m in range(13):
        for n in range(m + 1, 13):
            res = pv5lab.orthogonality_residual(c2_state, m, n)
            assert res <= mp.mpf("1e-25"), (m, n, mp.nstr(res, 5))
    assert time.monotonic() - start < 120


# ---------------------------------------------------------------------------
# criteria 3 and 4 share one suite run per parameter set


@pytest.fixture(scope="module")
def c34_reports():
    out = {}
    for k2 in ("0.25", "-0.5"):
        params = pv5lab.validate(1, k2, 0.5, 256, 9)
        zs = pv5lab.sample_points(params, count=20, seed=0)
        assert len(zs) == 20
        out[k2] = pv5lab.check_suite(
            params, range(9), ["0.5"], z_samples=zs, suite="required")
    return out


def test_c3_ladder_functional_identities(c34_reports):
    for k2, reports in c34_reports.items():
        rows = residual_by_id(reports)
        for ident in (I.S1_FUNC, I.S2_FUNC, I.S2P_FUNC):
            worst = max(r.residual for r in rows[ident])
            assert worst <= mp.mpf("1e-15"), (k2, ident, mp.nstr(worst, 5))
        for ident in (I.LOWER_FUNC, I.RAISE_FUNC):
            worst = max(r.residual for r in rows[ident])
            assert worst <= mp.mpf("1e-20"), (k2, ident, mp.nstr(worst, 5))


def test_c4_rational_form_validation(c34_reports):
    for k2, reports in c34_reports.items():
        rows = residual_by_id(reports)
        for ident in (I.A_FORM, I.B_FORM):
            worst = max(r.residual for r in rows[ident])
            assert worst <= mp.mpf("1e-20"), (k2, ident, mp.nstr(worst, 5))


def test_c4_large_z_sum_rule():
    params = pv5lab.validate(1, 0.25, 0.5, 256, 9)
    ortho = pv5lab.build(params)
    lad = pv5lab.compute(ortho)
    for n in (1, 3, 7):
        s = 2 * n + 2 * params.alpha + 1
        errs = [abs(z * z * pv5lab.point_values(z, ortho, lad).A[n] + s)
                for z in (mp.mpf(10), mp.mpf(100), mp.mpf(1000))]
        # an O(1/z^2) approach: two decades drop each factor-100 step
        assert errs[1] < errs[0] / 20
        assert errs[2] < errs[1] / 20


# ---------------------------------------------------------------------------
# criterion 5: t-derivative identities with step-halving behavior


def test_c5_derivative_identities():
    params = pv5lab.validate(1, 0.25, 0.5, 256, 7)
    reports = pv5lab.check_suite(params, range(7), ["0.3", "0.6"],
                                 z_samples=[], suite="required")
    rows = residual_by_id(reports)
    for ident in (I.DLNH, I.DBETA, I.DP):
        assert rows[ident], f"no {ident} rows"
        for r in rows[ident]:
            assert r.residual <= mp.mpf("1e-10"), (ident, r.n, r.t)
            # a residual at the quadrature floor has no step-halving ratio
            if r.halving_ratio is not None:
                assert 3 <= r.halving_ratio <= 5, (ident, r.n, r.t, r.halving_ratio)
            else:
                assert r.residual < mp.mpf("1e-30")


# ---------------------------------------------------------------------------
# criterion 6: recurrence sum rules on the criterion-2 configuration


def test_c6_sum_rules(c2_state):
    tol = 10 * mp.mpf(c2_state.params.rel_tol)
    for n in range(1, 13):
        two_route = abs(c2_state.beta[n] - (c2_state.p_sub[n] - c2_state.p_sub[n + 1]))
        assert two_route <= tol * c2_state.beta[n], n
        total = mp.fsum(c2_state.beta[j] for j in range(n))
        assert abs(total + c2_state.p_sub[n]) <= tol * max(total, mp.mpf(1)), n


# ---------------------------------------------------------------------------
# criterion 7: k2 -> 0 trend of YJ4 and PV_PHI


K2_SEQUENCE = ("0.09", "0.04", "0.01")  # ordered toward the k2 -> 0 limit


def _stencil_phi(params, n, t):
    """Phi_n and its step-h second difference Phi_n'' at t, as PV_PHI forms
    them; the stencil states are the ones the check just built (cached)."""
    with mp.workprec(params.work_bits):
        t = mp.mpf(t)
        st = Evaluator(params, t).stencil()
        s = 2 * n + 2 * params.alpha + 1
        phis = {o: (st[o][1].R[n] + s) / s for o in st}
        _, phi_pp = central_differences(phis[-2], phis[0], phis[2], stencil_step(t))
        return phis[0], phi_pp


@pytest.fixture(scope="module")
def c7_data(tmp_path_factory):
    start = time.monotonic()
    reports = []
    residuals = {}
    phi_data = {}
    for k2 in K2_SEQUENCE:
        params = pv5lab.validate(1, k2, 0.5, 256, 4)
        for n in (1, 2, 3):
            for ident in (I.YJ4, I.PV_PHI):
                rep = pv5lab.check(ident, params, n, "0.5")
                reports.append(rep)
                residuals[(ident, k2, n)] = rep.residual
            phi_data[(k2, n)] = _stencil_phi(params, n, "0.5")
    elapsed = time.monotonic() - start
    path = tmp_path_factory.mktemp("c7") / "k2_trend_report.json"
    params_block = {"alpha": "1.0", "k2_sequence": list(K2_SEQUENCE),
                    "t": "0.5", "n_set": [1, 2, 3], "bits": params.precision_bits,
                    "rel_tol": repr(params.rel_tol), "max_level": params.max_level,
                    "seed": 0}
    report_mod.emit_report(reports, pv5lab.summarize(reports), path,
                           params_block, params.precision_bits)
    return residuals, elapsed, path, phi_data


def test_c7a_yj4_trend_toward_k2_zero(c7_data):
    residuals, elapsed, path, _ = c7_data
    doc = json.loads(path.read_text())
    assert len(doc["checks"]) == 18  # every residual present in the artifact
    assert elapsed < 600
    for n in (1, 2, 3):
        seq = [residuals[(I.YJ4, k2, n)] for k2 in K2_SEQUENCE]
        assert seq[0] >= seq[1] >= seq[2], (
            f"YJ4 residuals not non-increasing toward k2->0 at n={n}: "
            + ", ".join(mp.nstr(v, 6) for v in seq))


def test_c7b_pv_phi_trend_toward_k2_zero(c7_data):
    """The Painleve V residual of Phi_n rises to 1 as k2 -> 0, at rate k2^2.

    PV_PHI's residual at step h is res = |Phi'' - F| / (1 + max(|Phi''|, |F|))
    with F = pv_rhs(Phi, Phi').  R_n = (2t/h_n) integral P_n^2 w/(y^2-k2) is
    positive, so Phi = (R_n + s)/s > 1 (s = 2n + 2alpha + 1), and then
    Phi(Phi+1)/(Phi-1) >= 3 + 2 sqrt(2).  With eta = -1/(2 k2^2) the eta term
    of F is therefore negative and of size 1/k2^2; the epsilon term
    -alpha Phi/(k2 t) comes next, and the other terms of F are O(1), as is
    Phi''.  So F = -M with

        M = Phi(Phi+1)/(2 k2^2 (Phi-1)) + alpha Phi/(k2 t) + O(1),

    and once M > |Phi''|, 1 - res = (1 - Phi'')/(1 + M).  Expanding,

        1 - res = k2^2 L_n (1 - c_n + O(k2^2)),
        L_n = 2 (1 - Phi'') (Phi - 1) / (Phi (Phi + 1)),
        c_n = 2 alpha k2 (Phi - 1) / (t (Phi + 1)),

    where c_n is the ratio of the epsilon term to the eta term.  Asserted
    for n = 1, 2, 3 along k2 = 0.09, 0.04, 0.01: the residuals rise strictly
    toward 1 and stay below it, and (1 - res)/(k2^2 L_n) lies within 2 c_n
    of 1.  Phi_n and Phi_n'' come from the stencil states of the check.
    """
    residuals, _, _, phi_data = c7_data
    alpha, t = mp.mpf(1), mp.mpf("0.5")
    for n in (1, 2, 3):
        seq = [residuals[(I.PV_PHI, k2, n)] for k2 in K2_SEQUENCE]
        assert seq[0] < seq[1] < seq[2] < 1, (
            f"PV_PHI residuals do not rise toward 1 as k2->0 at n={n}: "
            + ", ".join(mp.nstr(v, 8) for v in seq))
        for k2, res in zip(K2_SEQUENCE, seq):
            k = mp.mpf(k2)
            phi, phi_pp = phi_data[(k2, n)]
            assert phi > 1, (k2, n, mp.nstr(phi, 8))
            lead = 2 * (1 - phi_pp) * (phi - 1) / (phi * (phi + 1))
            rate = (1 - res) / (k * k * lead)
            corr = 2 * alpha * k * (phi - 1) / (t * (phi + 1))
            assert abs(rate - 1) <= 2 * corr, (
                f"(1-res)/(k2^2 L_n) = {mp.nstr(rate, 8)} at k2={k2}, n={n}; "
                f"the k2^2 law allows 1 +- {mp.nstr(2 * corr, 6)}")


# ---------------------------------------------------------------------------
# criterion 8: ODE machinery


def test_c8a_integrator_order_on_harmonic_oscillator():
    errs = []
    tols = (mp.mpf("1e-10"), mp.mpf("1e-12"), mp.mpf("1e-14"))
    for tol in tols:
        traj = pv5lab.integrate_ivp(lambda t, y: (y[1], -y[0]), 0, 1, (1, 0),
                                    tol, bits=256)
        err = abs(traj.values[-1][0] - mp.cos(1))
        errs.append(err)
        assert err < 50 * tol
    slope = (mp.log(errs[2]) - mp.log(errs[0])) / (mp.log(tols[2]) - mp.log(tols[0]))
    assert mp.mpf("0.7") < slope < mp.mpf("1.3"), mp.nstr(slope, 5)


def test_c8b_riccati_roundtrip():
    params = pv5lab.validate(1, 0.04, 0.5, 256, 4)
    init = pv5lab.riccati_initial(params, 2, "0.5")
    tol = mp.mpf("1e-12")
    fwd = pv5lab.integrate_riccati(params, 2, "0.5", "0.52", init, tol)
    back = pv5lab.integrate_riccati(params, 2, "0.52", "0.5", fwd.values[-1], tol)
    dev = max(abs(a - b) for a, b in zip(back.values[0], init))
    assert dev <= 10 * tol, mp.nstr(dev, 5)


def test_c8c_riccati_vs_quadrature_small_k2_trend():
    """The coupled pair's R-velocity misses quadrature by ~1/k2 as k2 -> 0.

    The exact identity C_S1_R, r_{n+1} + r_n = k2 R_n + 2t with r_0 = 0,
    gives r_n = t(1 - (-1)^n) at k2 = 0, in agreement with Q2,
    r_n^2 - 2t r_n = k2 beta_n R_n R_{n-1}, which leaves r_n in {0, 2t}.
    The pair's R-equation, RIC_BIGR over 2 k2 t as ode.riccati_rhs codes it,
    splits as

        R'_pair = (t - r_n)(R_n + s)/(k2 t) + (2(n+alpha+1) R_n + R_n^2)/(2t)

    with s = 2n + 2alpha + 1.  In its leading part |t - r_n| -> t and
    R_n + s > s, since R_n > 0, so the part does not vanish, while the
    quadrature slope R'_quad stays O(1).  Hence

        | k2 |R'_pair - R'_quad| - |t - r_n| (R_n + s)/t |
            <= k2 (|2(n+alpha+1) R_n + R_n^2|/(2t) + |R'_quad|):

    k2 times the velocity defect approaches |t - r_n|(R_n + s)/t with an
    O(k2) gap.  That bound is asserted at t0 = 0.5 for n = 2 and
    k2 = 0.04, 0.01, and the gap must shrink along the sequence.  A velocity
    defect of order 1/k2 moves the trajectory away from quadrature faster
    as k2 drops, so the endpoint deviation at t = 0.51 must be larger at
    k2 = 0.01 than at k2 = 0.04.  R'_quad is the forward difference of
    quadrature R_n over t0 and t0 + h, h being the verify stencil step; its
    O(h) error is far below the O(k2) terms it enters.
    """
    span = ("0.5", "0.51")
    n = 2
    devs, gaps = {}, {}
    for k2 in ("0.04", "0.01"):
        params = pv5lab.validate(1, k2, 0.5, 256, 4)
        init = pv5lab.riccati_initial(params, n, span[0])
        traj = pv5lab.integrate_riccati(params, n, span[0], span[1], init, 1e-12)
        devs[k2] = pv5lab.crosscheck(traj, [span[1]])
        with mp.workprec(params.work_bits):
            t0 = mp.mpf(span[0])
            h = stencil_step(t0)
            R_quad = (pv5lab.riccati_initial(params, n, t0 + h)[0] - init[0]) / h
            R_pair = riccati_rhs(params, n)(t0, init)[0]
        R, r = init
        k = params.k2
        s = 2 * n + 2 * params.alpha + 1
        limit = abs(t0 - r) * (R + s) / t0
        gaps[k2] = abs(k * abs(R_pair - R_quad) - limit)
        bound = k * (abs(2 * (n + params.alpha + 1) * R + R * R) / (2 * t0)
                     + abs(R_quad))
        assert gaps[k2] <= bound, (
            f"k2 |R'_pair - R'_quad| = {mp.nstr(k * abs(R_pair - R_quad), 6)} "
            f"at k2={k2}, limit {mp.nstr(limit, 6)}, O(k2) bound {mp.nstr(bound, 6)}")
    assert gaps["0.01"] < gaps["0.04"], (
        f"gap to the k2->0 limit does not shrink: {mp.nstr(gaps['0.04'], 6)} "
        f"at k2=0.04, {mp.nstr(gaps['0.01'], 6)} at k2=0.01")
    assert devs["0.01"] > devs["0.04"], (
        "deviation at k2=0.01 is "
        f"{mp.nstr(devs['0.01'], 6)} vs {mp.nstr(devs['0.04'], 6)} at k2=0.04")


# ---------------------------------------------------------------------------
# criterion 9: determinism and schema


ROW_KEYS = ["id", "tier", "n", "t", "z", "residual", "pass"]
TOP_KEYS = ["schema", "timestamp", "params", "checks", "summary"]


def test_c9_determinism_and_schema(tmp_path, capsys):
    argv = ["verify", "--alpha", "1", "--k2", "0.25", "--t", "0.5",
            "--n-max", "3", "--bits", "192", "--rel-tol", "1e-28",
            "--suite", "all", "--z-count", "4", "--seed", "5"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_run(argv + ["--out-json", str(p1)]) == 0
    assert cli_run(argv + ["--out-json", str(p2)]) == 0
    capsys.readouterr()
    pat = re.compile(rb'"timestamp": "[^"]*"')
    b1 = pat.sub(b'"timestamp": "X"', p1.read_bytes())
    b2 = pat.sub(b'"timestamp": "X"', p2.read_bytes())
    assert b1 == b2, "reports differ beyond the timestamp"

    doc = json.loads(p1.read_text())
    assert list(doc.keys()) == TOP_KEYS
    assert doc["schema"] == "pv5-jacobi-lab/1"
    assert isinstance(doc["summary"]["required_pass"], bool)
    assert doc["checks"]
    for row in doc["checks"]:
        assert list(row.keys()) == ROW_KEYS
        res = row["residual"]
        assert isinstance(res, str)
        if not res.startswith(("SKIPPED", "ERROR")):
            mp.mpf(res)  # parses as a decimal string


# ---------------------------------------------------------------------------
# criterion 10: every registry identity reports a residual or explicit status


SPEC_LISTED_IDS = (
    [f"Q{i}" for i in range(1, 8)] + [f"QP{i}" for i in range(1, 8)]
    + ["C_S2_B", "C_S2_R", "C_S2_MIX", "ZHU232", "BETA_EXPR",
       "RIC_R", "RIC_BIGR", "FACTOR_PROD", "ODE_RN", "PV_PHI", "YJ3", "YJ4"]
)


def test_c10_diagnostic_completeness():
    params = pv5lab.validate(1, 0.25, 0.5, 192, 4, rel_tol=1e-28)
    zs = pv5lab.sample_points(params, count=3, seed=1)
    reports = pv5lab.check_suite(params, [1, 2], ["0.4", "0.6"],
                                 z_samples=zs, suite="all")
    seen = {}
    for r in reports:
        seen.setdefault(r.id.value, []).append(r)
    for ident in REGISTRY:
        assert ident.value in seen, f"{ident.value} missing from the report"
        rows = seen[ident.value]
        for r in rows:
            if r.status == "ok":
                assert mp.isfinite(r.residual), ident.value
            else:
                assert r.status in ("skipped", "error") and r.message, ident.value
        assert any(r.status == "ok" for r in rows), (
            f"{ident.value} produced no finite residual on a runnable config")
    for name in SPEC_LISTED_IDS:
        assert name in seen
