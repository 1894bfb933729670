"""Shared fixtures and the acceptance-criterion summary printer."""

import re
from collections import defaultdict

import pytest
from mpmath import mp

import pv5lab

# test-side arithmetic (oracle literals, residual comparisons) runs well above
# the highest package working precision used in the suite
mp.prec = 480

# criterion number -> (short label, outcomes)
_CRITERIA = {
    1: "classical-limit recurrence oracle",
    2: "orthogonality residuals",
    3: "ladder functional identities",
    4: "rational-form validation",
    5: "derivative identities",
    6: "sum rules",
    7: "k2->0 trend (YJ4, PV_PHI)",
    8: "ODE machinery",
    9: "determinism & schema",
    10: "diagnostic completeness",
}
_outcomes = defaultdict(list)
_CRIT_RE = re.compile(r"test_c(\d+)[a-z]?_")


@pytest.fixture(scope="session")
def gap_params():
    return pv5lab.validate(1, 0.25, 0.5, 192, 6, rel_tol=1e-30)


@pytest.fixture(scope="session")
def gap_state(gap_params):
    return pv5lab.build(gap_params)


@pytest.fixture(scope="session")
def gap_ladder(gap_state):
    return pv5lab.compute(gap_state)


@pytest.fixture(scope="session")
def jacobi_params():
    # pure (1-z^2) weight: classical control case
    return pv5lab.validate(1, -1, 0, 192, 6, rel_tol=1e-30)


@pytest.fixture(scope="session")
def jacobi_state(jacobi_params):
    return pv5lab.build(jacobi_params)


@pytest.fixture(scope="session")
def jacobi_ladder(jacobi_state):
    return pv5lab.compute(jacobi_state)


def mpf(x):
    return mp.mpf(x)


def pytest_runtest_logreport(report):
    # a failed setup (e.g. a shared fixture that raises) or teardown counts
    # against the criterion too; skips stay unrecorded
    if report.when != "call" and not report.failed:
        return
    m = _CRIT_RE.search(report.nodeid)
    if m:
        _outcomes[int(m.group(1))].append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    ran = {k: v for k, v in _outcomes.items() if k in _CRITERIA}
    if not ran:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        if num not in ran:
            continue
        outcomes = ran[num]
        verdict = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(
            f"[criterion {num:2d}] {verdict}  {_CRITERIA[num]}")
