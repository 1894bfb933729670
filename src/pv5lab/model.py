"""The deformed even Jacobi weight, its support, and its log-derivative.

The weight is

    w(z) = (1 - z^2)^alpha * exp(-t / (z^2 - k2)),    z in [-1, 1],

with alpha >= 0, t >= 0 and k2 < 1.  For k2 > 0 and t > 0 the exponential
factor diverges on (-sqrt(k2), sqrt(k2)); there the weight is defined to be
identically zero.  Approaching +-sqrt(k2) from outside, the factor vanishes
together with all its derivatives, so the weight is continuous on [-1, 1]
and every integration by parts over the support is free of boundary terms.
At t = 0 the exponential factor is dropped entirely and the weight is the
plain (1 - z^2)^alpha on [-1, 1] for any k2.

k2 < 0 is allowed and gives a smooth strictly positive deformation on all
of [-1, 1]; every downstream formula is rational in k2, so this serves as a
regular control case.

v'(z), the guard around its poles and the edge-stable z^2 - k2 are written
once here (``_pole_basis``); ``ladder`` and the weight tables call them.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

from mpmath import mp

from .errors import (
    AlphaOutOfRange,
    DomainError,
    K2OutOfRange,
    NegativeT,
    ParameterError,
    PoleError,
)

#: extra mantissa bits carried by every internal computation
GUARD_BITS = 64

#: coarsest quadrature level at which an integral value is first formed
MIN_LEVEL = 3


@dataclass(frozen=True)
class ModelParams:
    """One run: the weight (alpha, k2, t), the degree cap, and the working
    precision with the quadrature's target relative error and level cap."""

    alpha: object  # mp.mpf
    k2: object  # mp.mpf
    t: object  # mp.mpf
    precision_bits: int
    n_max: int
    rel_tol: float
    max_level: int

    @property
    def work_bits(self) -> int:
        return self.precision_bits + GUARD_BITS

    @property
    def ladder_eligible(self) -> bool:
        """Whether the ladder integrals exist: alpha > 0 (the endpoint
        vanishing of the derivation), and k2 < 0 at t = 0, where no
        exponential factor tames the 1/(y^2-k2) integrands."""
        return self.alpha > 0 and (self.t > 0 or self.k2 < 0)

    @property
    def has_gap(self) -> bool:
        return self.k2 > 0 and self.t > 0

    def __repr__(self):  # keep mpf noise out of test output
        return (
            f"ModelParams(alpha={mp.nstr(self.alpha, 12)}, k2={mp.nstr(self.k2, 12)}, "
            f"t={mp.nstr(self.t, 12)}, bits={self.precision_bits}, n_max={self.n_max}, "
            f"rel_tol={self.rel_tol!r}, max_level={self.max_level})"
        )


def validate(alpha, k2, t, precision_bits=256, n_max=12, rel_tol=1e-40,
             max_level=12) -> ModelParams:
    """Validate raw inputs and return frozen ``ModelParams``.

    alpha = 0 is accepted (moment-only use; the params are flagged
    ladder-ineligible), alpha < 0 is rejected.  n_max is an int >= 1,
    max_level an int in [MIN_LEVEL + 1, 16], and rel_tol a real number
    below 1 and at least 2^(-precision_bits+16); a bool is none of them.
    Nothing is clamped.
    """
    if not isinstance(precision_bits, int) or precision_bits < 64:
        raise ParameterError(f"precision_bits must be an integer >= 64, got {precision_bits!r}")
    if precision_bits > 4096:
        raise ParameterError("precision_bits above 4096 is not supported")
    if type(n_max) is not int or n_max < 1:
        raise ParameterError(f"n_max must be an integer >= 1, got {n_max!r}")
    with mp.workprec(precision_bits + GUARD_BITS):
        alpha = mp.mpf(alpha)
        k2 = mp.mpf(k2)
        t = mp.mpf(t)
        if not mp.isfinite(alpha) or alpha < 0:
            raise AlphaOutOfRange(f"alpha must be finite and >= 0, got {alpha}")
        if not mp.isfinite(k2) or k2 >= 1:
            raise K2OutOfRange(f"k2 must be finite and < 1, got {k2}")
        if not mp.isfinite(t) or t < 0:
            raise NegativeT(f"t must be finite and >= 0, got {t}")
    if type(max_level) is not int or not MIN_LEVEL + 1 <= max_level <= 16:
        raise ParameterError(f"max_level must be in [{MIN_LEVEL + 1}, 16], got {max_level!r}")
    real = isinstance(rel_tol, numbers.Real) and type(rel_tol) is not bool
    if real and not rel_tol > 0:
        raise ParameterError("rel_tol must be positive")
    if not (real and rel_tol < 1):
        raise ParameterError(f"rel_tol must be a real number below 1, got {rel_tol!r}")
    if rel_tol < 2.0 ** (-precision_bits + 16):
        raise ParameterError(
            f"rel_tol={rel_tol} below the floor 2^(-bits+16) for bits={precision_bits}")
    return ModelParams(alpha=alpha, k2=k2, t=t, precision_bits=precision_bits, n_max=n_max,
                       rel_tol=rel_tol, max_level=max_level)


def gap_edge(params: ModelParams):
    """Inner support edge sqrt(k2), rounded up so gap_edge**2 >= k2 exactly.

    The upward nudge (a few ulps at working precision) keeps z^2 - k2
    provably nonnegative on the support, so the exponential factor can
    never blow up through rounding of the cancellation z^2 - k2.
    """
    if params.k2 <= 0:
        raise ParameterError("gap_edge is defined only for k2 > 0")
    return _gap_edge(params.k2, params.work_bits)


@functools.lru_cache(maxsize=64)
def _gap_edge(k2, work_bits: int):
    # depends on k2 and the precision only, so all t of one sweep share it
    with mp.workprec(work_bits):
        rk = mp.sqrt(k2)
        bump = 1 + mp.mpf(2) ** (2 - work_bits)
        while rk * rk < k2:
            rk = rk * bump
        return rk


def support(params: ModelParams) -> tuple:
    """Support of the weight as ordered, disjoint closed intervals (lo, hi):
    ((-1, 1),), or ((-1, -sqrt(k2)), (sqrt(k2), 1)) when a gap is open."""
    with mp.workprec(params.work_bits):
        one = mp.mpf(1)
        if params.has_gap:
            rk = gap_edge(params)
            return ((-one, -rk), (rk, one))
        return ((-one, one),)


def _gap(params: ModelParams):
    """(rk, rk^2 - k2) with rk = gap_edge, at the current precision; None for k2 <= 0."""
    if params.k2 <= 0:
        return None
    rk = _gap_edge(params.k2, params.work_bits)
    return rk, rk * rk - params.k2


def _z2_minus_k2(z, k2, gap, d_in=None):
    """z^2 - k2 without sign-flipping cancellation near the gap edge; ``gap``
    is ``_gap(params)``, ``d_in`` an exact |z| - rk if the caller has one."""
    if gap is None:
        return z * z - k2
    rk, excess = gap
    m = abs(z)
    if d_in is None:
        d_in = m - rk
    # (|z| - rk)(|z| + rk) + (rk^2 - k2); both addends >= 0 outside the gap
    return d_in * (m + rk) + excess


def weight(z, params: ModelParams):
    """w(z); exactly 0 on the closed gap [-sqrt(k2), sqrt(k2)] when open."""
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        if abs(z) > 1:
            raise DomainError(f"weight is defined on [-1, 1], got z={z}")
        one_minus = (1 - z) * (1 + z)
        if params.has_gap:
            if abs(z) <= gap_edge(params):
                return mp.mpf(0)
        value = one_minus ** params.alpha if params.alpha != 0 else mp.mpf(1)
        if params.t > 0:
            den = _z2_minus_k2(z, params.k2, _gap(params))
            if den == 0:
                return mp.mpf(0)  # one-sided limit at the gap edge (k2 = 0, z = 0)
            value = value * mp.exp(-params.t / den)
        return value


def pole_guard(params: ModelParams):
    """Relative exclusion radius 10^-(precision_bits/8) around the poles of v'(z)."""
    return _pole_guard(params.precision_bits, mp.prec)


@functools.lru_cache(maxsize=64)
def _pole_guard(precision_bits: int, prec: int):
    # keyed on the working precision too, which the power is rounded to
    return mp.mpf(10) ** (-(precision_bits / 8.0))


def _pole_basis(z, params: ModelParams):
    """(1 - z^2, z^2 - k2) at z, after testing the guard radius around every
    pole of v': z = +-1 always, z = +-sqrt(k2) when the gap is open, and
    z = 0 when k2 = 0 and t > 0."""
    g = _pole_guard(params.precision_bits, mp.prec)
    if abs(1 - z) < g or abs(1 + z) < g:
        raise PoleError(f"z={z} within the guard radius of +-1")
    gap = _gap(params)
    if params.t > 0:
        if gap is not None:
            rk = gap[0]
            if abs(abs(z) - rk) < g * (1 + rk):
                raise PoleError(f"z={z} within the guard radius of +-sqrt(k2)")
        elif params.k2 == 0 and abs(z) < g:
            raise PoleError("z=0 is a pole of v' when k2 = 0 and t > 0")
    return (1 - z) * (1 + z), _z2_minus_k2(z, params.k2, gap)


def _v_prime_coefficients(params: ModelParams):
    """(2 alpha, 2 t), the coefficients of v'(z) = 2 alpha z/(1-z^2) - 2 t z/(z^2-k2)^2,
    exact at the working precision."""
    with mp.workprec(params.work_bits):
        return 2 * params.alpha, 2 * params.t


def _v_prime_from(z, om2, zk2, params: ModelParams):
    """v'(z) from om2 = 1-z^2 and zk2 = z^2-k2, without a pole guard."""
    value = 2 * params.alpha * z / om2
    if params.t > 0:
        value = value - 2 * params.t * z / (zk2 * zk2)
    return value


def v_prime(z, params: ModelParams):
    """v'(z) for v = -ln w:  2*alpha*z/(1-z^2) - 2*t*z/(z^2-k2)^2."""
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        return _v_prime_from(z, *_pole_basis(z, params), params)


def v_second(z, params: ModelParams):
    """v''(z) = 2*alpha*(1+z^2)/(1-z^2)^2 + 2*t*(3*z^2+k2)/(z^2-k2)^3."""
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        one_minus, den = _pole_basis(z, params)
        value = 2 * params.alpha * (1 + z * z) / (one_minus * one_minus)
        if params.t > 0:
            value = value + 2 * params.t * (3 * z * z + params.k2) / (den * den * den)
        return value


def dd_quotient(z, y, params: ModelParams):
    """(v'(z) - v'(y)) / (z - y), with the removable limit v''(z) at z = y."""
    with mp.workprec(params.work_bits):
        z = mp.mpf(z)
        y = mp.mpf(y)
        if abs(z - y) <= pole_guard(params) * (1 + max(abs(z), abs(y))):
            return v_second(z, params)
        return (v_prime(z, params) - v_prime(y, params)) / (z - y)
