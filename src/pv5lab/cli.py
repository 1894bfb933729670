"""Command-line front end.

Subcommands: moments, recurrence, ladder, verify, ode, pv-residual.
Exit codes: 0 all requested REQUIRED checks pass (or none requested),
1 a REQUIRED check failed, 2 usage/configuration error, 3 numerical
failure (no convergence, precision exhausted, pole hit, step underflow).

Every subcommand but ``ode`` takes ``--t`` (or, for verify and pv-residual,
a t grid); ``ode`` runs from ``--t0`` to ``--t1``.  Execution is sequential
and deterministic.
"""

from __future__ import annotations

import argparse
import sys

from mpmath import mp

from . import ladder as ladder_mod
from . import ode as ode_mod
from . import orthopoly, report, verify
from .equations import beta_expr, phi_of, s_of
from .errors import NumericalError, ParameterError, SingularParams
from .model import validate
from .quadrature import PrecisionContext, moment


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
    grid_flags = (args.t_start, args.t_stop, args.t_count, args.t_spacing)
    if args.t is not None and any(f is not None for f in grid_flags):
        raise ParameterError("give either --t or a --t-start/--t-stop/--t-count/"
                             "--t-spacing grid, not both")
    with mp.workprec(args.bits + 64):
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
    with mp.workprec(args.bits + 64):
        return mp.mpf(args.t) if args.t is not None else mp.mpf("0.5")


def _params_ctx(args, t):
    params = validate(args.alpha, args.k2, t, precision_bits=args.bits, n_max=args.n_max)
    ctx = PrecisionContext(bits=args.bits, rel_tol=args.rel_tol, max_level=args.max_level)
    return params, ctx


def _emit_csv(args, header, rows, bits):
    text = report.csv_text(header, rows, bits)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_block(args, params, ctx, extra=None):
    block = {
        "alpha": report.numstr(params.alpha, ctx.bits),
        "k2": report.numstr(params.k2, ctx.bits),
        "n_max": args.n_max,
        "bits": ctx.bits,
        "rel_tol": repr(ctx.rel_tol),
        "max_level": ctx.max_level,
        "seed": args.seed,
    }
    if extra:
        block.update(extra)
    return block


def _emit_params_report(args, params, ctx, extra):
    """With --out-json, a report that carries only the parameters block."""
    if args.out_json:
        block = _params_block(args, params, ctx, extra)
        report.emit_report([], verify.summarize([]), args.out_json, block, ctx.bits)


def _cmd_moments(args):
    t = _single_t(args)
    if args.n_max < 0:
        raise ParameterError("moments need --n-max >= 0")
    # validate asks n_max >= 1, which no moment reads
    params = validate(args.alpha, args.k2, t, precision_bits=args.bits,
                      n_max=max(1, args.n_max))
    ctx = PrecisionContext(bits=args.bits, rel_tol=args.rel_tol, max_level=args.max_level)
    rows = [(j, moment(j, params, ctx)) for j in range(args.n_max + 1)]
    _emit_csv(args, ["j", "mu_j"], rows, ctx.bits)
    _emit_params_report(args, params, ctx, {"t": report.numstr(t, ctx.bits)})
    return 0


def _cmd_recurrence(args):
    t = _single_t(args)
    params, ctx = _params_ctx(args, t)
    state = orthopoly.build(params, ctx)
    rows = [(n, state.h[n], state.beta[n], state.p_sub[n]) for n in range(params.n_max + 1)]
    _emit_csv(args, ["n", "h_n", "beta_n", "p_n"], rows, ctx.bits)
    _emit_params_report(args, params, ctx, {"t": report.numstr(t, ctx.bits)})
    return 0


def _cmd_ladder(args):
    t = _single_t(args)
    params, ctx = _params_ctx(args, t)
    _, lad = ladder_mod.state_at(params, ctx, t)
    rows = [(n, lad.R[n], lad.r[n], lad.a[n], lad.b[n]) for n in range(params.n_max + 1)]
    _emit_csv(args, ["n", "R_n", "r_n", "a_n", "b_n"], rows, ctx.bits)
    _emit_params_report(args, params, ctx, {"t": report.numstr(t, ctx.bits)})
    return 0


def _cmd_verify(args):
    t_grid = _t_grid(args)
    params, ctx = _params_ctx(args, t_grid[0])
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
    reports = verify.check_suite(params, ctx, n_set, t_grid,
                                 z_samples=z_samples, suite=args.suite)
    summary = verify.summarize(reports)
    extra = {
        "t_grid": [report.numstr(tv, ctx.bits) for tv in t_grid],
        "suite": args.suite,
        "z_count": args.z_count,
    }
    block = _params_block(args, params, ctx, extra)
    if args.out_json:
        report.emit_report(reports, summary, args.out_json, block, ctx.bits)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            report.checks_csv(reports, ctx.bits, fh)
    ok = summary["required_pass"]
    written = {r.id for r in reports}
    rowless = [i.value for i in verify.suite_ids(args.suite) if i not in written]
    sys.stderr.write(
        f"verify: {len(reports)} checks, required_pass={ok}, "
        f"max_required_residual={report.numstr(summary['max_required_residual'], 53)}"
        + (f", no row for {' '.join(rowless)}" if rowless else "") + "\n")
    return 0 if ok else 1


def _cmd_ode(args):
    if args.samples < 2:
        raise ParameterError(f"--samples must be >= 2, got {args.samples}")
    if not 0 < args.ode_tol < float("inf"):  # false for nan too
        raise ParameterError(f"--ode-tol must be finite and positive, got {args.ode_tol}")
    params, ctx = _params_ctx(args, mp.mpf(args.t0))
    with mp.workprec(params.work_bits):
        t0 = mp.mpf(args.t0)
        t1 = mp.mpf(args.t1)
        lo, hi = min(t0, t1), max(t0, t1)
        h = verify.stencil_step(hi)
        if hi - lo <= 4 * h:  # the samples keep two stencil steps h from each end
            raise ParameterError(f"|t1 - t0| = {mp.nstr(hi - lo, 6)} must exceed 4h = "
                                 f"{mp.nstr(4 * h, 6)}, h = 1e-6 * max(t, 1) the stencil step")
        init = ode_mod.riccati_initial(params, args.n, t0, ctx)
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
    _emit_csv(args, report.TRAJECTORY_HEADER, rows, ctx.bits)
    extra = {"t0": report.numstr(t0, ctx.bits), "t1": report.numstr(t1, ctx.bits),
             "n": args.n, "ode_tol": repr(args.ode_tol)}
    _emit_params_report(args, params, ctx, extra)
    return 0


def _pv_residual_from_dense(traj, params, n, t, s, phi):
    """``verify.pv_residual`` of the dense Phi(t) = phi, Phi(t -+ h) sampled densely."""
    h = verify.stencil_step(t)
    lo, hi = (phi_of(traj.sample(tv)[0], s) for tv in (t - h, t + h))
    return verify.pv_residual(params, n, t, lo, phi, hi, h)


def _cmd_pv_residual(args):
    t_grid = _t_grid(args)
    params, ctx = _params_ctx(args, t_grid[0])
    rows = []
    s = s_of(args.n, params)
    with mp.workprec(params.work_bits):
        for tv in t_grid:
            # check refuses (k2 = 0, t too small for the stencil) before any build
            res = verify.check(verify.IdentityId.PV_PHI, params, ctx, args.n, tv).residual
            ortho, lad = ladder_mod.state_at(params, ctx, tv)
            phi = phi_of(lad.R[args.n], s)
            rows.append((tv, lad.R[args.n], lad.r[args.n], ortho.beta[args.n], phi, res))
    _emit_csv(args, report.TRAJECTORY_HEADER, rows, ctx.bits)
    extra = {"t_grid": [report.numstr(tv, ctx.bits) for tv in t_grid], "n": args.n}
    _emit_params_report(args, params, ctx, extra)
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
