"""Tanh-sinh quadrature at configurable precision, plus cached weight tables.

Two layers:

* ``integrate`` / ``moment`` - a generic double-exponential rule over the
  support intervals, for arbitrary integrands.  Each interval is refined by
  halving the trapezoid step until the last doubling changes the result by
  less than the requested relative tolerance.  It works in mpf throughout
  and serves as the independent route.

* ``WeightTable`` - the shared engine behind the orthogonal-polynomial
  pipeline.  It caches, per refinement level, the mapped nodes together
  with the weight already folded into the quadrature coefficients, the
  stable products 1-y^2 and y^2-k2, the values v'(y), and (once the
  recurrence is frozen) the monic-polynomial rows.  Every array is stored
  once, in integer form (``IntArray``): an int mantissa of ``work_bits``
  bits with its own exponent, or, for the bounded y and P_n(y), one fixed
  point int at scale 2^-(work_bits+64).  Every inner product downstream is
  one call of the kernel ``_dot`` per level: the mantissa products are
  exact, each is floor-shifted to the largest product exponent emax, and
  the shifted products are summed as one Python int, so the loops run in
  C through ``map`` over ``operator`` functions.  The truncation is less
  than N * 2^emax for N nodes; that bound is added to each integral's
  error floor, beside the doubling-based error estimate.

Node positions are generated from the closed forms 1 -+ x = 2/(e^{2v}+1),
2/(1+e^{-2v}) of the tanh map, so distances to interval endpoints are known
to full precision; node generation truncates 32 bits short of the working
precision so a mapped node can never collapse onto an endpoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, floordiv, lshift, mul, rshift, sub
from typing import NamedTuple

from mpmath import mp

from .errors import NoConvergence, ParameterError, PrecisionExhausted
from .model import (GUARD_BITS, ModelParams, Support, gap_edge, pole_guard,
                    support, v_second, weight)

#: coarsest level at which an integral value is first formed
MIN_LEVEL = 3

#: node generation stops this many bits short of the working precision
_EDGE_MARGIN_BITS = 32

#: fraction bits of the fixed-point arrays beyond the working precision
FIXED_GUARD_BITS = 64


@dataclass(frozen=True)
class PrecisionContext:
    """Working mantissa bits, target relative error, and refinement cap."""

    bits: int = 256
    rel_tol: float = 1e-40
    max_level: int = 12

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 64 or self.bits > 4096:
            raise ParameterError(f"bits must be an integer in [64, 4096], got {self.bits!r}")
        if not MIN_LEVEL + 1 <= self.max_level <= 16:
            raise ParameterError(f"max_level must be in [{MIN_LEVEL + 1}, 16], got {self.max_level!r}")
        if not self.rel_tol > 0:
            raise ParameterError("rel_tol must be positive")
        if self.rel_tol < 2.0 ** (-self.bits + 16):
            raise ParameterError(
                f"rel_tol={self.rel_tol} below the floor 2^(-bits+16) for bits={self.bits}"
            )

    @property
    def work_bits(self) -> int:
        return self.bits + GUARD_BITS


@dataclass
class IntegralResult:
    """Value, doubling-based error estimate, convergence flag, top level used."""

    value: object
    error: object
    converged: bool
    levels: int

    def __iter__(self):
        return iter((self.value, self.error, self.converged, self.levels))


DEFAULT_CONTEXT = PrecisionContext()


@functools.lru_cache(maxsize=64)
def _ts_block(work_bits: int, level: int):
    """Positive-u tanh-sinh nodes first appearing at ``level`` (step 2^-level).

    Returns a tuple of (x, 1-x, 1+x, W) with x = tanh((pi/2) sinh u) and
    W = (pi/2) cosh(u) / cosh((pi/2) sinh u)^2; level 0 also contains the
    center node x = 0.  Negative-u nodes are mirror images and are expanded
    by the callers.
    """
    nodes = []
    with mp.workprec(work_bits + 16):
        h = mp.mpf(2) ** (-level)
        edge = mp.mpf(2) ** (-(work_bits - _EDGE_MARGIN_BITS))
        half_pi = mp.pi / 2
        j = 0 if level == 0 else 1
        step = 1 if level == 0 else 2
        while True:
            u = j * h
            v = half_pi * mp.sinh(u)
            e2v = mp.exp(2 * v)
            one_minus_x = 2 / (e2v + 1)
            if one_minus_x < edge:
                break
            one_plus_x = 2 / (1 + 1 / e2v)
            x = (e2v - 1) / (e2v + 1)
            w = half_pi * mp.cosh(u) / mp.cosh(v) ** 2
            nodes.append((x, one_minus_x, one_plus_x, w))
            j += step
    return tuple(nodes)


def integration_intervals(params: ModelParams):
    """Support intervals, with [-1,1] split at 0 when v' has its pole there.

    The split only happens for k2 = 0, t > 0: the weight is C-infinity but
    not analytic at 0, and endpoint clustering restores fast convergence.
    The reported ``support`` is unchanged; this is a quadrature detail.
    """
    sup = support(params)
    with mp.workprec(params.work_bits):
        if params.k2 == 0 and params.t > 0:
            one = mp.mpf(1)
            zero = mp.mpf(0)
            return ((-one, zero), (zero, one))
    return tuple(sup.intervals)


def _interval_series(f, a, b, ctx: PrecisionContext, scale=None):
    """Tanh-sinh level series for one interval; returns IntegralResult."""
    with mp.workprec(ctx.work_bits):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if a == b:
            zero = mp.mpf(0)
            return IntegralResult(zero, zero, True, MIN_LEVEL)
        mid = (a + b) / 2
        half = (b - a) / 2
        block_sums = []
        abs_mass = mp.mpf(0)
        floor_eps = mp.mpf(2) ** (-(ctx.work_bits - 8))
        prev = None
        value = err = mp.mpf(0)
        for level in range(0, ctx.max_level + 1):
            s = mp.mpf(0)
            for x, _omx, _opx, w in _ts_block(ctx.work_bits, level):
                if x == 0:
                    fv = w * f(mid)
                else:
                    fv = w * (f(mid + half * x) + f(mid - half * x))
                s += fv
                abs_mass += abs(fv)
            block_sums.append(s)
            if level < MIN_LEVEL:
                continue
            step = mp.mpf(2) ** (-level)
            value = half * step * mp.fsum(block_sums)
            if prev is not None:
                floor = floor_eps * abs_mass * half * step
                err = max(abs(value - prev), floor)
                target = mp.mpf(ctx.rel_tol) * max(abs(value), mp.mpf(scale or 0))
                if err <= max(target, floor):
                    return IntegralResult(value, err, True, level)
            prev = value
        return IntegralResult(value, err, False, ctx.max_level)


def integrate(f, sup, ctx: PrecisionContext = DEFAULT_CONTEXT, scale=None) -> IntegralResult:
    """Integrate ``f`` over a ``Support`` (or iterable of (lo, hi) pairs).

    Never raises on slow convergence: the result carries ``converged`` and
    the summed per-interval error estimates, and callers decide.
    """
    intervals = sup.intervals if isinstance(sup, Support) else tuple(sup)
    with mp.workprec(ctx.work_bits):
        total = mp.mpf(0)
        err = mp.mpf(0)
        converged = True
        top = MIN_LEVEL
        for a, b in intervals:
            res = _interval_series(f, a, b, ctx, scale=scale)
            total += res.value
            err += res.error
            converged = converged and res.converged
            top = max(top, res.levels)
        return IntegralResult(total, err, converged, top)


def moment(j: int, params: ModelParams, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """mu_j = integral of z^j w(z); odd j returns exact 0 without integration."""
    if not isinstance(j, int) or j < 0:
        raise ParameterError(f"moment order must be an integer >= 0, got {j!r}")
    if j % 2 == 1:
        return mp.mpf(0)
    with mp.workprec(ctx.work_bits):
        if j == 0:
            f = lambda z: weight(z, params)
        else:
            f = lambda z: z ** j * weight(z, params)
        res = integrate(f, integration_intervals(params), ctx)
        if not res.converged:
            raise NoConvergence(
                f"moment {j} did not converge: estimate {mp.nstr(res.error, 6)}",
                value=res.value, error=res.error)
        return res.value


# ----------------------------------------------------------------------
# integer form of the node arrays, and the dot-product kernel


class IntArray(NamedTuple):
    """One level's node values in integer form: value_i = man[i] * 2^exp_i.

    ``exp`` is either a list (floating form: every nonzero mantissa has
    ``work_bits`` bits, give or take one, and its own exponent) or one int
    shared by all elements (fixed-point form, for values bounded by a small
    power of two: the nodes y and the monic rows P_n(y)).  The exponent of a
    zero element carries no meaning.
    """

    man: list
    exp: object


def _normalize(mans, exps, bits):
    """Floating form of exact values man*2^exp: mantissas floored to ``bits`` bits.

    ``(m << bits) >> bitlength(m)`` has ``bits`` bits for every nonzero m
    and never needs a negative shift, so zero passes through unchanged.
    """
    lengths = list(map(int.bit_length, mans))
    man = list(map(rshift, map(lshift, mans, repeat(bits)), lengths))
    exp = list(map(add, exps, map(sub, lengths, repeat(bits))))
    return IntArray(man, exp)


def _pack(values, bits):
    """Floating integer form of a list of finite mpf values (exact for
    values of at most ``bits`` bits)."""
    mans, exps = [], []
    for v in values:
        sign, man, exp, _bc = v._mpf_
        if not man and exp:
            raise PrecisionExhausted(f"non-finite node value {v}")
        mans.append(-man if sign else man)
        exps.append(exp)
    return _normalize(mans, exps, bits)


def _fixed(value, frac_bits):
    """An mpf value * 2^frac_bits truncated toward zero, as an int."""
    sign, man, exp, _bc = value._mpf_
    shift = exp + frac_bits
    out = man << shift if shift >= 0 else man >> -shift
    return -out if sign else out


def _dot(arrays):
    """Sum over the elements of the product of one level's integer arrays.

    The mantissa products are exact.  Each nonzero product is floor-shifted
    to emax, the largest exponent among the products, and the shifted
    products are summed as one int.  Returns (total, emax, count): the exact
    sum lies in [total * 2^emax, (total + count) * 2^emax), count being the
    number of nonzero products.  emax is None when every product is zero;
    count is 0 when all factors are fixed-point (one common exponent, so
    nothing is shifted).
    """
    prods = arrays[0].man
    for a in arrays[1:]:
        prods = map(mul, prods, a.man)
    if len(arrays) > 1:
        prods = list(prods)
    fixed = sum(a.exp for a in arrays if type(a.exp) is int)
    floating = [a.exp for a in arrays if type(a.exp) is not int]
    if not floating:
        return sum(prods), fixed, 0
    exps = floating[0]
    for e in floating[1:]:
        exps = map(add, exps, e)
    if 0 in prods:  # a zero product has no meaningful exponent: drop it
        exps = list(compress(exps, prods))
        prods = list(compress(prods, prods))
        if not prods:
            return 0, None, 0
    elif type(exps) is not list:
        exps = list(exps)
    emax = max(exps)
    total = sum(map(rshift, prods, map(sub, repeat(emax), exps)))
    return total, emax + fixed, len(prods)


def _level_terms(factors, top):
    """``_dot`` of per-level factor arrays on each level 0..top."""
    return [_dot([fac[lv] for fac in factors]) for lv in range(top + 1)]


def _accumulate(terms):
    """Combine per-level ``_dot`` results the same way: floor-shift each
    total to the largest emax and add.  Returns (total, emax, count) with
    the meaning of ``_dot``'s."""
    live = [t for t in terms if t[1] is not None]
    if not live:
        return 0, 0, 0
    emax = max(e for _, e, _ in live)
    total = sum(s >> (emax - e) for s, e, _ in live)
    count = sum(n + (e < emax) for _, e, n in live)
    return total, emax, count


class WeightTable:
    """Cached per-level node data for one (params, ctx) pair.

    Arrays per level block, each an ``IntArray`` (floating integer form
    unless noted):

    ``y``     node positions over all integration intervals (fixed point,
              ``frac_bits`` fraction bits)
    ``cw``    half-width * tanh-sinh weight * w(y); trapezoid step applied
              at summation time
    ``om2``   (1-y)(1+y), built from exact endpoint distances
    ``zk2``   y^2 - k2, built from the gap-edge distance when a gap is open
    ``vp``    v'(y) evaluated from om2/zk2 (no pole guard; the folded weight
              suppresses the near-edge blow-up)

    The node values are computed in mpf at the working precision and stored
    only in integer form.  After ``freeze(beta)`` the monic rows P_n(y)
    (fixed point) and the folded products cw*P_n^2 and cw*P_n*P_{n-1}
    become available per degree.  Every integral is a sum of ``_dot``
    products over these arrays.
    """

    def __init__(self, params: ModelParams, ctx: PrecisionContext):
        self.params = params
        self.ctx = ctx
        self.work_bits = ctx.work_bits
        self.frac_bits = ctx.work_bits + FIXED_GUARD_BITS
        with mp.workprec(ctx.work_bits):
            self.intervals = integration_intervals(params)
        self.y = []
        self.cw = []
        self.om2 = []
        self.zk2 = []
        self.vp = []
        self._mass = []  # per level: _dot of cw, for absolute error floors
        self.nlevels = 0
        self.beta = None
        self._beta_fixed = ()
        self._rows = []  # [level][n] -> fixed-point P_n values
        self._sq = {}
        self._adj = {}
        self._inv = {}  # "om2"/"zk2" -> per-level arrays of reciprocals
        self._dd = {}  # mpf z -> per-level arrays of divided differences
        self._vp_at = {}

    # ------------------------------------------------------------------
    # node generation

    def ensure_levels(self, upto: int):
        while self.nlevels <= upto:
            self._add_level(self.nlevels)

    def _add_level(self, level: int):
        params = self.params
        with mp.workprec(self.work_bits):
            alpha = params.alpha
            t = params.t
            k2 = params.k2
            rk = gap_edge(params) if k2 > 0 else None
            excess = (rk * rk - k2) if rk is not None else None
            ys, cws, om2s, zk2s, vps = [], [], [], [], []
            for a, b in self.intervals:
                mid = (a + b) / 2
                half = (b - a) / 2
                for x, omx, opx, wq in _ts_block(self.work_bits, level):
                    mirror = (1,) if x == 0 else (1, -1)
                    for sgn in mirror:
                        yv = mid + half * x if sgn > 0 else mid - half * x
                        d_lo = half * (opx if sgn > 0 else omx)  # y - a
                        d_hi = half * (omx if sgn > 0 else opx)  # b - y
                        # (1-y)(1+y) from whichever endpoint distances are exact
                        one_m = d_hi if b == 1 else 1 - yv
                        one_p = d_lo if a == -1 else 1 + yv
                        om2 = one_m * one_p
                        if rk is not None:
                            d_in = d_lo if a == rk else d_hi  # |y| - rk
                            zk2 = d_in * (abs(yv) + rk) + excess
                        else:
                            zk2 = yv * yv - k2
                        wv = om2 ** alpha if alpha != 0 else mp.mpf(1)
                        if t > 0:
                            wv = wv * mp.exp(-t / zk2)
                        vpv = 2 * alpha * yv / om2
                        if t > 0:
                            vpv = vpv - 2 * t * yv / (zk2 * zk2)
                        ys.append(yv)
                        cws.append(half * wq * wv)
                        om2s.append(om2)
                        zk2s.append(zk2)
                        vps.append(vpv)
        bits = self.work_bits
        self.y.append(IntArray([_fixed(v, self.frac_bits) for v in ys], -self.frac_bits))
        self.cw.append(_pack(cws, bits))
        self.om2.append(_pack(om2s, bits))
        self.zk2.append(_pack(zk2s, bits))
        self.vp.append(_pack(vps, bits))
        self._mass.append(_dot([self.cw[level]]))
        self.nlevels = level + 1
        # keep every frozen cache aligned with the new block
        if self.beta is not None:
            self._extend_rows(level)
            for n, arrs in self._sq.items():
                arrs.append(self._folded(n, n, level))
            for n, arrs in self._adj.items():
                arrs.append(self._folded(n, n - 1, level))
        for key, arrs in self._inv.items():
            arrs.append(self._reciprocal(key, level))
        for z, arrs in self._dd.items():
            arrs.append(self._dd_block(z, level))

    # ------------------------------------------------------------------
    # monic rows: the three-term recurrence in fixed point

    def unit_rows(self, level: int):
        """Per-level rows of P_0 = 1 over levels 0..level."""
        return [self._unit_row(lv) for lv in range(level + 1)]

    def _unit_row(self, level):
        return IntArray([1 << self.frac_bits] * len(self.y[level].man), -self.frac_bits)

    def recur_rows(self, cur, prev, beta_n):
        """Per-level rows y*P_n - beta_n*P_{n-1} from rows ``cur`` and ``prev``
        (``prev`` None for n = 0, where beta_0 = 0)."""
        b = _fixed(beta_n, self.frac_bits)
        return [self._next_row(lv, c, prev and prev[lv], b) for lv, c in enumerate(cur)]

    def _next_row(self, level, cur, prev, b):
        fb = self.frac_bits
        acc = map(mul, self.y[level].man, cur.man)
        if b:
            acc = map(sub, acc, map(mul, repeat(b), prev.man))
        # round to nearest; exact ties aside, odd symmetry in y is kept
        acc = map(add, acc, repeat(1 << (fb - 1)))
        return IntArray(list(map(rshift, acc, repeat(fb))), -fb)

    def freeze(self, beta):
        """Attach recurrence coefficients; monic rows become available."""
        self.beta = tuple(beta)
        self._beta_fixed = tuple(_fixed(b, self.frac_bits) for b in self.beta)
        self._rows = []
        self._sq = {}
        self._adj = {}
        for level in range(self.nlevels):
            self._extend_rows(level)

    def _extend_rows(self, level: int):
        cur = self._unit_row(level)
        prev = None
        rows = [cur]
        for n in range(len(self.beta) - 1):
            prev, cur = cur, self._next_row(level, cur, prev, self._beta_fixed[n])
            rows.append(cur)
        if len(self._rows) <= level:
            self._rows.extend([None] * (level + 1 - len(self._rows)))
        self._rows[level] = rows

    def row(self, n: int, level: int):
        return self._rows[level][n]

    def _folded(self, n, m, level):
        """cw * P_n * P_m on one level, floored to the working precision."""
        cw = self.cw[level]
        pn = self._rows[level][n].man
        pm = self._rows[level][m].man
        prods = list(map(mul, map(mul, cw.man, pn), pm))
        return _normalize(prods, map(add, cw.exp, repeat(-2 * self.frac_bits)),
                          self.work_bits)

    def sq(self, n: int):
        """Per-level arrays cw * P_n(y)^2."""
        if n not in self._sq:
            self._sq[n] = [self._folded(n, n, lv) for lv in range(self.nlevels)]
        return self._sq[n]

    def adj(self, n: int):
        """Per-level arrays cw * P_n(y) * P_{n-1}(y)."""
        if n not in self._adj:
            self._adj[n] = [self._folded(n, n - 1, lv) for lv in range(self.nlevels)]
        return self._adj[n]

    def _reciprocal(self, key, level):
        src = (self.om2 if key == "om2" else self.zk2)[level]
        # 2^(2b-1) // m has b bits, give or take one, for a b-bit mantissa m
        top = 2 * self.work_bits - 1
        return IntArray(list(map(floordiv, repeat(1 << top), src.man)),
                        list(map(sub, repeat(-top), src.exp)))

    def inv(self, key: str):
        """Per-level reciprocal arrays for 'om2' or 'zk2'."""
        if key not in ("om2", "zk2"):
            raise ParameterError(f"unknown reciprocal key {key!r}")
        if key not in self._inv:
            self._inv[key] = [self._reciprocal(key, lv) for lv in range(self.nlevels)]
        return self._inv[key]

    def _dd_block(self, z, level: int):
        """(v'(z) - v'(y)) / (z - y) on one level, from the integer arrays.

        The difference z - y is exact in fixed point.  v'(z) - v'(y) is
        exact when the two exponents differ by at most ``work_bits``, and
        otherwise floored at ``work_bits`` bits below the larger term.  The
        numerator is floored to ``work_bits + 2`` bits more than the
        denominator has, and the quotient to the working precision.  Nodes
        within the pole-guard radius of z take the removable limit v''(z).
        """
        wb, fb = self.work_bits, self.frac_bits
        with mp.workprec(wb):
            guard = pole_guard(self.params) * (1 + abs(z))
            (vm,), (ve,) = _pack([self._vp_at[z]], wb)
        den = list(map(sub, repeat(_fixed(z, fb)), self.y[level].man))
        reach = _fixed(guard, fb)
        close = [i for i, d in enumerate(den) if -reach <= d <= reach]
        for i in close:
            den[i] = 1
        top = vm << wb
        num, exps = [], []
        for m, e in zip(*self.vp[level]):
            if m and e > ve:
                num.append((top >> (e - ve)) - (m << wb))
                exps.append(e - wb)
            else:
                num.append(top - ((m << wb) >> (ve - e)) if m else top)
                exps.append(ve - wb)
        # scale each numerator to bitlength(den) + work_bits + 2 bits, so that
        # the quotient has work_bits + 1 or + 2 bits
        up = list(map(add, map(int.bit_length, den), repeat(wb + 2)))
        down = list(map(int.bit_length, num))
        quot = map(floordiv, map(rshift, map(lshift, num, up), down), den)
        exps = map(add, map(sub, exps, up), map(add, down, repeat(fb)))
        out = _normalize(list(quot), exps, wb)
        if close:
            with mp.workprec(wb):
                (lm,), (le,) = _pack([v_second(z, self.params)], wb)
            for i in close:
                out.man[i] = lm
                out.exp[i] = le
        return out

    def dd(self, z, vpz):
        """Per-level arrays of (v'(z) - v'(y)) / (z - y) for fixed z."""
        with mp.workprec(self.work_bits):
            z = mp.mpf(z)
        if z not in self._dd:
            self._vp_at[z] = vpz
            self._dd[z] = [self._dd_block(z, lv) for lv in range(self.nlevels)]
        return self._dd[z]

    # ------------------------------------------------------------------
    # integration

    def _value(self, terms, level):
        """(value, bound) at trapezoid step 2^-level from per-level _dot results."""
        total, emax, count = _accumulate(terms)
        return mp.ldexp(total, emax - level), mp.ldexp(count, emax - level)

    def trapezoid(self, factors, level: int):
        """Trapezoid value at step 2^-level of a product of per-level arrays
        over the nodes of levels 0..level, rounded to the working precision."""
        with mp.workprec(self.work_bits):
            return self._value(_level_terms(factors, level), level)[0]

    def _series(self, factors):
        """(value, bound) of the trapezoid sums at levels MIN_LEVEL..top."""
        terms = _level_terms(factors, self.nlevels - 1)
        return [self._value(terms[: lv + 1], lv) for lv in range(MIN_LEVEL, self.nlevels)]

    def raw_integral(self, factors, scale=None, auto_extend=True) -> IntegralResult:
        """Integrate an elementwise product of per-level factor arrays.

        ``factors`` is a sequence of callables level->array or of per-level
        list structures owned by this table (``sq(n)``, ``inv('zk2')``, ...).
        Exactly one factor family must carry the folded cw weight.  The
        reported error is at least the kernel's truncation bound plus the
        absolute floor 2^-(work_bits-8) * sum |cw|.
        """
        with mp.workprec(self.work_bits):
            floor_eps = mp.mpf(2) ** (-(self.work_bits - 8))
            rel = mp.mpf(self.ctx.rel_tol)
            while True:
                mats = [fac() if callable(fac) else fac for fac in factors]
                series = self._series(mats)
                value, bound = series[-1]
                if len(series) >= 2:
                    floor = floor_eps * self._abs_mass_total() + bound
                    err = max(abs(value - series[-2][0]), floor)
                    target = max(rel * max(abs(value), mp.mpf(scale or 0)), floor)
                    if err <= target:
                        return IntegralResult(value, err, True, self.nlevels - 1)
                else:
                    err = abs(value) + bound
                if auto_extend and self.nlevels <= self.ctx.max_level:
                    self.ensure_levels(self.nlevels)
                    continue
                return IntegralResult(value, err, False, self.nlevels - 1)

    def _abs_mass_total(self):
        """sum |cw| * 2^-(top level); cw >= 0, so this is the sum of cw."""
        return self._value(self._mass, self.nlevels - 1)[0]

    def node_count(self):
        return sum(len(block.man) for block in self.y)
