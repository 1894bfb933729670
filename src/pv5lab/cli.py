"""Command-line front end.

Subcommands: moments, recurrence, ladder, verify, ode, pv-residual.
Exit codes: 0 all requested REQUIRED checks pass (or none requested),
1 a REQUIRED check failed, 2 usage/configuration error, 3 numerical
failure (no convergence, precision exhausted, pole hit, step underflow).

Every subcommand but ``ode`` takes ``--t`` (or, for verify and pv-residual,
a t grid); ``ode`` runs from ``--t0`` to ``--t1``.  Output is
deterministic.  ``verify`` spreads its checks over the usable CPUs, dealing
a t grid out point by point or cutting the z samples at one t into runs,
in forked workers that end before it returns (``verify.check_suite``); its
report is the same on any number of CPUs.  Every other command runs in one
process.

Only ``argparse``, ``sys`` and ``errors`` load with this module, so parsing,
``--help`` and usage errors (exit 2) load neither mpmath nor any numerical
module.  Each ``_cmd_*`` imports the modules it runs at its top, before
any quadrature: ``moments`` loads ``quadrature`` (and ``model``),
``recurrence`` ``orthopoly``, ``ladder`` ``ladder`` (and ``equations``),
``verify`` and ``pv-residual`` ``verify``, and ``ode`` ``ode`` and
``fixedpoint`` but not ``verify``, since the t-stencil formulas it shares
with ``verify`` live in ``equations``; every one of them loads ``report``,
last: with ``report`` loaded before ``verify``, a certify run compiled from
source peaked 0.5 MB higher.  The helpers below import what they use too,
which then costs a lookup.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NumericalError, ParameterError, SingularParams


def _common(parser):
    """The flags every subcommand takes."""
    parser.add_argument("--alpha", required=True, help="exponent of (1-z^2)")
    parser.add_argument("--k2", required=True, help="singularity parameter k^2 (< 1; may be <= 0)")
    parser.add_argument("--n-max", type=int, default=12, dest="n_max")
    parser.add_argument("--bits", type=int, default=256, help="working mantissa bits")
    parser.add_argument("--rel-tol", type=float, default=1e-40, dest="rel_tol")
    parser.add_argument("--max-level", type=int, default=12, dest="max_level")
    parser.add_argument("--out-json", default=None, dest="out_json",
                        help="write the JSON report here")
    parser.add_argument("--out-csv", default=None, dest="out_csv",
                        help="write the CSV table here (default: stdout for table commands)")
    parser.add_argument("--seed", type=int, default=0, help="z-sample seed")


def _grid_opts(parser):
    parser.add_argument("--t", default=None,
                        help="one deformation time instead of the t grid (default: the "
                             "12-point log grid from 0.05 to 1.0)")
    parser.add_argument("--t-start", type=str, default=None)
    parser.add_argument("--t-stop", type=str, default=None)
    parser.add_argument("--t-count", type=int, default=None)
    parser.add_argument("--t-spacing", choices=("linear", "log"), default=None,
                        help="grid spacing (default log)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pv5lab",
        description="Deformed-Jacobi-weight laboratory: recurrence, ladder "
                    "coefficients, and residual verification of the identity chain.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, what in (("moments", "weight moments mu_j for j <= n_max"),
                       ("recurrence", "h_n, beta_n, p(n) by the Stieltjes procedure"),
                       ("ladder", "ladder sequences R_n, r_n, a_n, b_n")):
        p = sub.add_parser(name, help=what)
        _common(p)
        p.add_argument("--t", default=None, help="deformation time (default 0.5)")

    p = sub.add_parser("verify", help="run the identity check suite")
    _common(p)
    _grid_opts(p)
    p.add_argument("--suite", choices=("required", "diagnostic", "all"), default="required")
    p.add_argument("--z-count", type=int, default=20, dest="z_count")
    p.add_argument("--n-set", type=int, nargs="*", default=None,
                   help="degrees to check (default 0..n_max)")

    p = sub.add_parser(
        "ode",
        help="integrate the coupled pair; CSV carries beta_n from the closed "
             "(R, r) expression and the Painleve residual of the dense output")
    _common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--ode-tol", type=float, default=1e-12, dest="ode_tol")
    p.add_argument("--samples", type=int, default=9)

    p = sub.add_parser("pv-residual", help="Painleve V residual of Phi_n over a t grid")
    _common(p)
    _grid_opts(p)
    p.add_argument("--n", type=int, required=True)

    return ap


def _t_grid(args):
    """t or t_grid from flags; log default grid 0.05..1.0 with 12 points.
    A grid flag beside --t is refused.

    Parsed at working precision so a flag like --t 0.4 means 0.4 to the
    full mantissa, not its binary64 rounding.
    """
    from mpmath import mp

    from .model import GUARD_BITS

    grid_flags = (args.t_start, args.t_stop, args.t_count, args.t_spacing)
    if args.t is not None and any(f is not None for f in grid_flags):
        raise ParameterError("give either --t or a --t-start/--t-stop/--t-count/"
                             "--t-spacing grid, not both")
    with mp.workprec(args.bits + GUARD_BITS):
        if args.t is not None:
            return (mp.mpf(args.t),)
        start = mp.mpf(args.t_start) if args.t_start is not None else mp.mpf("0.05")
        stop = mp.mpf(args.t_stop) if args.t_stop is not None else mp.mpf("1.0")
        count = args.t_count if args.t_count is not None else 12
        if count < 1:
            raise ParameterError("t grid count must be >= 1")
        if args.t_spacing != "linear":
            if start <= 0 or stop <= 0:
                raise ParameterError("log spacing requires t start > 0 and t stop > 0")
            if count == 1:
                return (start,)
            ratio = (stop / start) ** (mp.mpf(1) / (count - 1))
            return tuple(start * ratio ** i for i in range(count))
        if count == 1:
            return (start,)
        step = (stop - start) / (count - 1)
        return tuple(start + step * i for i in range(count))


def _single_t(args):
    """--t at working precision, 0.5 when not given."""
    from mpmath import mp

    from .model import GUARD_BITS

    with mp.workprec(args.bits + GUARD_BITS):
        return mp.mpf(args.t) if args.t is not None else mp.mpf("0.5")


def _params(args, t, n_max=None):
    """The run's ``ModelParams`` at t from the flags (``n_max`` overrides
    --n-max)."""
    from .model import validate

    return validate(args.alpha, args.k2, t, precision_bits=args.bits,
                    n_max=args.n_max if n_max is None else n_max,
                    rel_tol=args.rel_tol, max_level=args.max_level)


def _emit_csv(args, header, rows, bits):
    from . import report

    text = report.csv_text(header, rows, bits)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_block(args, params, extra=None):
    from . import report

    block = {
        "alpha": report.numstr(params.alpha, params.precision_bits),
        "k2": report.numstr(params.k2, params.precision_bits),
        "n_max": args.n_max,
        "bits": params.precision_bits,
        "rel_tol": repr(params.rel_tol),
        "max_level": params.max_level,
        "seed": args.seed,
    }
    if extra:
        block.update(extra)
    return block


def _emit_params_report(args, params, extra):
    """With --out-json, a report that carries only the parameters block."""
    from . import report

    if args.out_json:
        block = _params_block(args, params, extra)
        report.emit_report([], report.summarize([]), args.out_json, block,
                           params.precision_bits)


def _cmd_moments(args):
    from .quadrature import moment
    from . import report

    t = _single_t(args)
    if args.n_max < 0:
        raise ParameterError("moments need --n-max >= 0")
    # validate asks n_max >= 1, which no moment reads
    params = _params(args, t, n_max=max(1, args.n_max))
    bits = params.precision_bits
    rows = [(j, moment(j, params)) for j in range(args.n_max + 1)]
    _emit_csv(args, ["j", "mu_j"], rows, bits)
    _emit_params_report(args, params, {"t": report.numstr(t, bits)})
    return 0


def _cmd_recurrence(args):
    from . import orthopoly, report

    t = _single_t(args)
    params = _params(args, t)
    bits = params.precision_bits
    state = orthopoly.build(params)
    rows = [(n, state.h[n], state.beta[n], state.p_sub[n]) for n in range(params.n_max + 1)]
    _emit_csv(args, ["n", "h_n", "beta_n", "p_n"], rows, bits)
    _emit_params_report(args, params, {"t": report.numstr(t, bits)})
    return 0


def _cmd_ladder(args):
    from . import ladder as ladder_mod
    from . import report

    t = _single_t(args)
    params = _params(args, t)
    bits = params.precision_bits
    _, lad = ladder_mod.state_at(params, t)
    rows = [(n, lad.R[n], lad.r[n], lad.a[n], lad.b[n]) for n in range(params.n_max + 1)]
    _emit_csv(args, ["n", "R_n", "r_n", "a_n", "b_n"], rows, bits)
    _emit_params_report(args, params, {"t": report.numstr(t, bits)})
    return 0


def _cmd_verify(args):
    from . import verify
    from . import report

    t_grid = _t_grid(args)
    params = _params(args, t_grid[0])
    bits = params.precision_bits
    if params.k2 == 0 and args.suite in ("diagnostic", "all"):
        names = ", ".join(i.value for i in verify.REQUIRES_NONZERO_K2)
        raise SingularParams(
            f"suite '{args.suite}' includes checks that need k2 != 0: {names}")
    n_set = args.n_set if args.n_set else range(params.n_max + 1)
    outside = sorted({n for n in n_set if not 0 <= n <= params.n_max})
    if outside:
        raise ParameterError(f"--n-set degrees {outside} lie outside 0..n_max={params.n_max}")
    if args.z_count < 1:
        raise ParameterError(f"--z-count must be >= 1, got {args.z_count}")
    z_samples = verify.sample_points(params, args.z_count, args.seed)
    reports = verify.check_suite(params, n_set, t_grid, z_samples=z_samples, suite=args.suite)
    summary = report.summarize(reports)
    extra = {
        "t_grid": [report.numstr(tv, bits) for tv in t_grid],
        "suite": args.suite,
        "z_count": args.z_count,
    }
    block = _params_block(args, params, extra)
    if args.out_json:
        report.emit_report(reports, summary, args.out_json, block, bits)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            report.checks_csv(reports, bits, fh)
    ok = summary["required_pass"]
    written = {r.id for r in reports}
    rowless = [i.value for i in verify.suite_ids(args.suite) if i not in written]
    sys.stderr.write(
        f"verify: {len(reports)} checks, required_pass={ok}, "
        f"max_required_residual={report.numstr(summary['max_required_residual'], 53)}"
        + (f", no row for {' '.join(rowless)}" if rowless else "") + "\n")
    return 0 if ok else 1


def _cmd_ode(args):
    from mpmath import mp

    from . import ode as ode_mod
    from .equations import beta_expr, phi_of, s_of, stencil_step
    from . import report

    if args.samples < 2:
        raise ParameterError(f"--samples must be >= 2, got {args.samples}")
    if not 0 < args.ode_tol < float("inf"):  # false for nan too
        raise ParameterError(f"--ode-tol must be finite and positive, got {args.ode_tol}")
    params = _params(args, mp.mpf(args.t0))
    bits = params.precision_bits
    with mp.workprec(params.work_bits):
        t0 = mp.mpf(args.t0)
        t1 = mp.mpf(args.t1)
        lo, hi = min(t0, t1), max(t0, t1)
        h = stencil_step(hi)
        if hi - lo <= 4 * h:  # the samples keep two stencil steps h from each end
            raise ParameterError(f"|t1 - t0| = {mp.nstr(hi - lo, 6)} must exceed 4h = "
                                 f"{mp.nstr(4 * h, 6)}, h = 1e-6 * max(t, 1) the stencil step")
        init = ode_mod.riccati_initial(params, args.n, t0)
        traj = ode_mod.integrate_riccati(params, args.n, t0, t1, init, args.ode_tol)
        lo_s, hi_s = lo + 2 * h, hi - 2 * h
        count = args.samples
        step = (hi_s - lo_s) / (count - 1)
        rows = []
        s = s_of(args.n, params)
        for i in range(count):
            tv = lo_s + i * step
            R, r = traj.sample(tv)
            beta = beta_expr(params, args.n, tv, R, r)
            phi = phi_of(R, s)
            pv_res = _pv_residual_from_dense(traj, params, args.n, tv, s, phi)
            rows.append((tv, R, r, beta, phi, pv_res))
    _emit_csv(args, report.TRAJECTORY_HEADER, rows, bits)
    extra = {"t0": report.numstr(t0, bits), "t1": report.numstr(t1, bits),
             "n": args.n, "ode_tol": repr(args.ode_tol)}
    _emit_params_report(args, params, extra)
    return 0


def _pv_residual_from_dense(traj, params, n, t, s, phi):
    """``equations.pv_residual`` of the dense Phi(t) = phi, Phi(t -+ h) sampled densely."""
    from .equations import phi_of, pv_residual, stencil_step

    h = stencil_step(t)
    lo, hi = (phi_of(traj.sample(tv)[0], s) for tv in (t - h, t + h))
    return pv_residual(params, n, t, lo, phi, hi, h)


def _cmd_pv_residual(args):
    from mpmath import mp

    from . import ladder as ladder_mod
    from . import verify
    from .equations import phi_of, s_of
    from . import report

    t_grid = _t_grid(args)
    params = _params(args, t_grid[0])
    bits = params.precision_bits
    rows = []
    s = s_of(args.n, params)
    with mp.workprec(params.work_bits):
        for tv in t_grid:
            # check refuses (k2 = 0, t too small for the stencil) before any build
            res = verify.check(verify.IdentityId.PV_PHI, params, args.n, tv).residual
            ortho, lad = ladder_mod.state_at(params, tv)
            phi = phi_of(lad.R[args.n], s)
            rows.append((tv, lad.R[args.n], lad.r[args.n], ortho.beta[args.n], phi, res))
    _emit_csv(args, report.TRAJECTORY_HEADER, rows, bits)
    extra = {"t_grid": [report.numstr(tv, bits) for tv in t_grid], "n": args.n}
    _emit_params_report(args, params, extra)
    return 0


_COMMANDS = {
    "moments": _cmd_moments,
    "recurrence": _cmd_recurrence,
    "ladder": _cmd_ladder,
    "verify": _cmd_verify,
    "ode": _cmd_ode,
    "pv-residual": _cmd_pv_residual,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, IndexError) as exc:
        sys.stderr.write(f"pv5lab: configuration error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"pv5lab: numerical failure: {type(exc).__name__}: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"pv5lab: i/o error: {exc}\n")
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
