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
  reciprocals of the stable products 1-y^2 and y^2-k2, and (once the
  recurrence is frozen) the monic-polynomial rows; the values v'(y) are
  made on the first divided difference ``dd`` that reads them, from the
  stored y and reciprocals and the coefficients of ``model``.  y^2-k2
  comes from the formula of ``model``, fed with the exact endpoint
  distances of the tanh-sinh map.  The weight is even and the
  node set is symmetric about 0, so a table stores one mirror half, the
  nodes y >= 0, with the mirror weight 2 folded into each coefficient (the
  centre node y = 0 of [-1, 1] keeps weight 1); an even integrand sums to
  the full-support integral over these nodes alone.  Every array is stored
  once, in integer form (``IntArray``): an int mantissa of ``work_bits`` bits with
  its own exponent, or, for the bounded y and P_n(y), one fixed point int
  at scale 2^-(work_bits+64).  Every inner product downstream is one call of the
  kernel ``_dot`` per level: the mantissa products are exact, each is
  floor-shifted to the largest product exponent emax, and the shifted
  products are summed as one Python int, so the loops run in C through
  ``map`` over ``operator`` functions.  The truncation is less than
  N * 2^emax for N nodes; that bound is added to each integral's error
  floor, beside the doubling-based error estimate.  Every integral on a
  frozen table starts at the level its state was built at and adds levels
  only while its own estimate asks for them, whatever levels earlier
  integrals left in the table; so its bits do not depend on what ran on
  the table before it.  Where the weight
  vanishes at the gap edge (t > 0, k2 >= 0), each level's rule stops at the
  first node whose weight factor e^{-t/(y^2-k2)} lies below 2^-2work_bits
  of the interval centre's, with margin for every integrand factor there:
  the dropped terms are below the error floor (``WeightTable``).

Node positions are generated from the closed forms 1 - x = 2/(e^{2v}+1) and
1 + x = 2 - (1 - x) of the tanh map, so distances to interval endpoints are
known to full precision; node generation truncates 32 bits short of the
working precision so a mapped node can never collapse onto an endpoint.
Each node costs one exp, of 2v: e^{+-u} advance along a level by one
product each, carried 24 bits finer than the nodes (``_ts_block``).
"""

from __future__ import annotations

import functools
from itertools import compress, repeat
from operator import add, floordiv, lshift, mul, neg, rshift, sub
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import mpf_add, mpf_exp, mpf_mul, mpf_sub, round_nearest

from .errors import NoConvergence, ParameterError, PrecisionExhausted
from .model import (MIN_LEVEL, ModelParams, _gap, _v_prime_coefficients, _z2_minus_k2,
                    pole_guard, support, v_prime, v_second, weight)

#: node generation stops this many bits short of the working precision
_EDGE_MARGIN_BITS = 32

#: bits the running products of the node generator carry beyond the nodes
_RUN_GUARD_BITS = 24

#: fraction bits of the fixed-point arrays beyond the working precision
FIXED_GUARD_BITS = 64


class IntegralResult(NamedTuple):
    """Value, doubling-based error estimate, convergence flag, top level used."""

    value: object
    error: object
    converged: bool
    levels: int


@functools.lru_cache(maxsize=64)
def _ts_block(work_bits: int, level: int):
    """Positive-u tanh-sinh nodes first appearing at ``level`` (step 2^-level).

    Returns a tuple of (x, 1-x, 1+x, W) with x = tanh(v), v = (pi/2) sinh u
    and W = (pi/2) cosh(u) / cosh(v)^2; level 0 also contains the center
    node x = 0.  Negative-u nodes are mirror images, which the callers
    expand where they need them.

    One exp per node, as in mpmath's ``TanhSinh.calc_nodes``: a = (pi/2) e^u
    and b = (pi/2) e^-u advance from node to node by one product each with
    e^(+-step), so that 2v = a - b and (pi/2) cosh u = (a + b)/2.  With
    r = 1/(e^{2v} + 1), 1 - x = 2r, 1 + x = 2 - 2r, x = (e^{2v} - 1) r and,
    as 1/cosh^2 v = (1 - x)(1 + x), W = (a + b) r (1 + x).  The running
    products carry ``_RUN_GUARD_BITS`` more bits than the nodes: their
    rounding accumulates along the level, and e^{2v} turns the absolute
    error of 2v, which reaches about work_bits ln 2 at the edge, into its
    relative error.
    """
    prec = work_bits + 16
    fine = prec + _RUN_GUARD_BITS
    with mp.workprec(fine):
        h = mp.ldexp(1, -level)
        start = mp.exp(h) if level else mp.mpf(1)  # e^u at the first node
        ratio = mp.exp(h if level == 0 else 2 * h)
        a, b = (mp.pi / 2 * start)._mpf_, (mp.pi / 2 / start)._mpf_
        up, down = ratio._mpf_, (1 / ratio)._mpf_
    nodes = []
    with mp.workprec(prec):
        edge = mp.ldexp(1, -(work_bits - _EDGE_MARGIN_BITS))
        while True:
            e2v = mp.make_mpf(mpf_exp(mpf_sub(a, b, fine, round_nearest), prec, round_nearest))
            r = 1 / (e2v + 1)
            one_minus_x = 2 * r
            if one_minus_x < edge:
                break
            one_plus_x = 2 - one_minus_x
            w = mp.make_mpf(mpf_add(a, b, prec, round_nearest)) * r * one_plus_x
            nodes.append(((e2v - 1) * r, one_minus_x, one_plus_x, w))
            a = mpf_mul(a, up, fine, round_nearest)
            b = mpf_mul(b, down, fine, round_nearest)
    return tuple(nodes)


def integration_intervals(params: ModelParams):
    """Support intervals, with [-1,1] split at 0 when v' has its pole there.

    The split only happens for k2 = 0, t > 0: the weight is C-infinity but
    not analytic at 0, and endpoint clustering restores fast convergence.
    The reported ``support`` is unchanged; this is a quadrature detail.
    """
    if params.k2 == 0 and params.t > 0:
        with mp.workprec(params.work_bits):
            one = mp.mpf(1)
            zero = mp.mpf(0)
            return ((-one, zero), (zero, one))
    return support(params)


def _interval_series(f, a, b, params: ModelParams):
    """Tanh-sinh level series for one interval; returns IntegralResult."""
    with mp.workprec(params.work_bits):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if a == b:
            zero = mp.mpf(0)
            return IntegralResult(zero, zero, True, MIN_LEVEL)
        mid = (a + b) / 2
        half = (b - a) / 2
        block_sums = []
        abs_mass = mp.mpf(0)
        floor_eps = mp.mpf(2) ** (-(params.work_bits - 8))
        prev = None
        value = err = mp.mpf(0)
        for level in range(0, params.max_level + 1):
            s = mp.mpf(0)
            for x, _omx, _opx, w in _ts_block(params.work_bits, level):
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
                if err <= max(mp.mpf(params.rel_tol) * abs(value), floor):
                    return IntegralResult(value, err, True, level)
            prev = value
        return IntegralResult(value, err, False, params.max_level)


def integrate(f, intervals, params: ModelParams) -> IntegralResult:
    """Integrate ``f`` over an iterable of (lo, hi) intervals, such as
    ``model.support``, at the working precision, target relative error and
    level cap of ``params``.

    Never raises on slow convergence: the result carries ``converged`` and
    the summed per-interval error estimates, and callers decide.
    """
    with mp.workprec(params.work_bits):
        total = mp.mpf(0)
        err = mp.mpf(0)
        converged = True
        top = MIN_LEVEL
        for a, b in intervals:
            res = _interval_series(f, a, b, params)
            total += res.value
            err += res.error
            converged = converged and res.converged
            top = max(top, res.levels)
        return IntegralResult(total, err, converged, top)


def moment(j: int, params: ModelParams):
    """mu_j = integral of z^j w(z); odd j returns exact 0 without integration."""
    if not isinstance(j, int) or j < 0:
        raise ParameterError(f"moment order must be an integer >= 0, got {j!r}")
    if j % 2 == 1:
        return mp.mpf(0)
    with mp.workprec(params.work_bits):
        if j == 0:
            f = lambda z: weight(z, params)
        else:
            f = lambda z: z ** j * weight(z, params)
        res = integrate(f, integration_intervals(params), params)
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
    ``work_bits`` bits, give or take one, and its own exponent; the exact
    mirror sums of ``WeightTable.dd`` may have more) or one int shared by
    all elements (fixed-point form, for values bounded by a small power of
    two: the nodes y and the monic rows P_n(y)).  The exponent of a zero
    element carries no meaning.
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


def _reciprocal(arr, bits):
    """Floating integer form of the reciprocals of a floating array of
    ``bits``-bit mantissas: 2^(2 bits - 1) // m has ``bits`` bits, give or
    take one.  A zero element stays 0: y^2 - k2 vanishes at a node only at
    t = 0 with k2 >= 0, where no ladder integral exists to read it."""
    top = 1 << (2 * bits - 1)
    return IntArray([top // m if m else 0 for m in arr.man],
                    list(map(sub, repeat(1 - 2 * bits), arr.exp)))


def _mirror_halves(p, q):
    """Exact (p + q)/2 and (p - q)/2 of two floating integer arrays.

    Each pair of addends is aligned to the smaller exponent of its nonzero
    members, so nothing is floored and no truncation enters the kernel's
    bound; the mantissas grow by the exponent difference.
    """
    plus, minus, exps = [], [], []
    for m, e, n, f in zip(p.man, p.exp, q.man, q.exp):
        if not n:  # a zero element's exponent means nothing
            f = e
        elif not m:
            e = f
        if e > f:
            m <<= e - f
            e = f
        else:
            n <<= f - e
        plus.append(m + n)
        minus.append(m - n)
        exps.append(e - 1)
    return IntArray(plus, exps), IntArray(minus, exps)


@functools.lru_cache(maxsize=64)
def _dd_constants(z, params: ModelParams):
    """The constants of ``WeightTable.dd`` at z, made once per z for all
    levels and only read: the pole-guard radius around z in fixed point,
    and v'(z) packed (``model.v_prime``, so PoleError at a pole)."""
    with mp.workprec(params.work_bits):
        return (_fixed(pole_guard(params) * (1 + abs(z)), params.work_bits + FIXED_GUARD_BITS),
                _pack([v_prime(z, params)], params.work_bits))


class WeightTable:
    """Cached per-level node data for one ``ModelParams``, whose rel_tol and
    max_level fix every integral's tolerance and level cap.

    The table stores one mirror half of the symmetric node set: the nodes
    y >= 0.  On the gap (-1, -rk) u (rk, 1), and on (-1, 0) u (0, 1) for
    k2 = 0, t > 0, that is the right interval; on the single interval
    [-1, 1] it is the x >= 0 half of the tanh-sinh rule.  Every stored node
    carries the mirror weight 2, an exact factor of its coefficient, except
    the centre node y = 0 of [-1, 1] (level 0), which is its own mirror and
    keeps weight 1.  So a sum over the stored nodes is the full-support sum
    of any even integrand: every integral taken here must be even in y.
    The odd integrands vanish by symmetry; the A_n(z)/B_n(z) integrands are
    made even with the mirror parts of ``dd``.

    Arrays per level block, each an ``IntArray`` (floating integer form
    unless noted):

    ``y``     node positions y >= 0 (fixed point, ``frac_bits`` fraction
              bits)
    ``cw``    mirror weight * half-width * tanh-sinh weight * w(y);
              trapezoid step applied at summation time
    ``inv_om2``  1/((1-y)(1+y)), om2 built from exact endpoint distances
    ``inv_zk2``  1/(y^2 - k2), zk2 built from the exact gap-edge distance
                 when a gap is open

    The node values are computed in mpf at the working precision and stored
    only in integer form; om2 and zk2 are packed and kept only as their
    reciprocals, which are what the ladder integrals read.  Every array
    derived from the stored ones lives in one cache keyed by its maker and
    the maker's arguments: the monic rows P_n(y) (fixed point, registered by
    ``freeze(beta)``), the folded products cw*P_n^2 (``sq``) and
    cw*P_n*P_{n-1} (``adj``), the values v'(y) (``_v_primes``, made on the
    first ``dd`` from the stored y, inv_om2 and inv_zk2, so a table that
    takes no ``dd`` never forms v', and only the fill runs ``_nodes``), the
    mirror parts of the divided differences of v' (``dd``, until
    ``release_dd`` drops them), and the mass totals ``raw_integral`` reads
    (``_abs_mass_total``).
    An entry is made on first use over the levels built so far, and
    ``_add_level`` extends every entry in creation order, so the rows grow
    before the products read them.  Every integral is a sum of ``_dot`` products over these arrays.
    ``trapezoid`` gives the sum at one given level; ``raw_integral`` is the
    one routine that decides when an integral stops and when it fails: it
    starts at ``start_level`` (the build level, fixed by ``freeze``) however
    many levels the table holds, forms each level's sum once, compares the
    trapezoid values of the top two levels, adds a level while they
    disagree, and raises NoConvergence at the level cap.

    Edge cut.  When t > 0 and k2 >= 0 the stored interval (a, 1) has the gap
    edge a = rk (or a = 0 for k2 = 0) at its left end, where the weight
    vanishes with all its derivatives; tanh-sinh puts half of each level's
    nodes against it.  ``_add_level`` walks that side of the rule from the
    centre m outward and stops at the first node y with

        t/zk2(y) + 2 ln zk2(y) > t/zk2(m) + Lambda,
        Lambda = (2 work_bits + 2 n_max) ln 2 + 2 + alpha ln(1/om2(m)) + ln K,
        K = g^-3 (1 + 2 alpha + 16 t/rho) / om2(m),

    g the pole guard (``model.pole_guard``), rho = rk on a gap and 1 for
    k2 = 0.  The break is exact: t/u + 2 ln u decreases in u = zk2 for
    u < t/2 and stays below 2 < Lambda for u >= t/2, and zk2 falls along
    the side, so every later node passes the test too.  The dropped nodes
    never reach the weight's exp or v'.  The constant 2 in
    Lambda covers the test's rounding at the working precision.  Each
    dropped node's term is negligible:

    * its coefficient: cw(y)/cw(m) <= om2(m)^-alpha e^-(t/zk2(y) - t/zk2(m)),
      as the tanh-sinh weight peaks at the centre and om2(y) <= 1 (cw(m) is
      stored at level 0), so cw(y) < 2^-2work_bits zk2(y)^2 cw(m) / (4^n_max K);
    * its integrand factor F(y): |P_n|, |y P_n P_{n-1}| <= 2^n, 4^n_max (the
      zeros lie in [-1, 1]); 1/om2(y) < 1/om2(m) as y < m; 1/zk2(y); and
      either mirror part of dd(z, y) at any z the pole guard admits
      (|z -+ 1|, |z -+ rk|, or |z| for k2 = 0, at least g):  by partial
      fractions of v', |dd| <= g^-3 (2 alpha/om2(m) + 16 t/rho) / zk2(y)^2,
      also where dd takes v''(z).  So |F(y)| <= 4^n_max K / zk2(y)^2;

    hence |cw F| < 2^-2work_bits cw(m) at every dropped node.  With fewer
    than 2^(work_bits+8) nodes in all, the dropped terms together lie below
    the floor 2^-(work_bits-8) sum cw that ``raw_integral`` reports.
    ``cut_nodes`` counts the dropped nodes and ``cut_bound`` keeps the
    largest bound, over them, on |cw F| / cw(m) (it is < 2^-2work_bits).
    On k2 < 0 and at t = 0 the stored interval is [-1, 1] and nothing is
    dropped; ``integrate`` and ``moment`` keep the full rule.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.work_bits = params.work_bits
        self.frac_bits = params.work_bits + FIXED_GUARD_BITS
        with mp.workprec(params.work_bits):
            self.intervals = integration_intervals(params)
            # raw_integral's constants: absolute floor per unit mass, rel_tol
            self._floor_eps = mp.ldexp(1, -(params.work_bits - 8))
            self._rel = mp.mpf(params.rel_tol)
        self.y = []
        self.cw = []
        self.inv_om2 = []
        self.inv_zk2 = []
        self._mass = []  # per level: _dot of cw, for absolute error floors
        self.start_level = MIN_LEVEL + 1  # every integral's first top level (freeze)
        # the edge cut (class docstring): nodes dropped, largest term bound
        self.cut_nodes = 0
        self.cut_bound = mp.mpf(0)
        self.nlevels = 0
        self.beta = None
        # (maker, args) -> per-level list of maker(self, *args, level), in
        # creation order; _add_level extends every entry
        self._derived = {}

    # ------------------------------------------------------------------
    # node generation

    def ensure_levels(self, upto: int):
        """Fill the levels up to ``upto``: the nodes y >= 0 only, each with
        its mirror weight folded into ``cw``."""
        while self.nlevels <= upto:
            self._add_level(self.nlevels)

    def _add_level(self, level: int):
        params = self.params
        with mp.workprec(self.work_bits):
            alpha = params.alpha
            t = params.t
            powered = alpha != 0
            damped = t > 0
            one = mp.mpf(1)
            cut = None if self.intervals[-1][0] < 0 else self._edge_cut()
            ys, cws, om2s, zk2s = [], [], [], []
            for left, yv, om2, zk2, c in self._nodes(level):
                wv = om2 ** alpha if powered else one
                if damped:
                    tz = t / zk2
                    # the test only rises towards the edge: drop the rest
                    if left and tz > cut and (
                            over := tz + 2 * mp.log(zk2) - cut) > 0:
                        self.cut_nodes += left
                        self.cut_bound = max(self.cut_bound, mp.ldexp(
                            mp.exp(-over), -2 * self.work_bits))
                        break
                    wv = wv * mp.exp(-tz)
                ys.append(yv)
                cws.append(c * wv)
                om2s.append(om2)
                zk2s.append(zk2)
        bits = self.work_bits
        self.y.append(IntArray([_fixed(v, self.frac_bits) for v in ys], -self.frac_bits))
        self.cw.append(_pack(cws, bits))
        self.inv_om2.append(_reciprocal(_pack(om2s, bits), bits))
        self.inv_zk2.append(_reciprocal(_pack(zk2s, bits), bits))
        self._mass.append(_dot([self.cw[level]]))
        self.nlevels = level + 1
        for (make, args), arrs in self._derived.items():
            arrs.append(make(self, *args, level))

    def _nodes(self, level: int):
        """One level's nodes on the stored interval (a, 1), in stored order:
        the side of the rule away from a, then, unless a = -1, the side into
        the edge a, each from the centre outward; the centre node of level 0
        comes once.  Yields (left, y, om2, zk2, c) at the working precision
        of the caller:

        * ``left`` is 0 on the first side and, on the edge side, the number
          of that side's nodes from this one outward;
        * om2 = (1-y)(1+y) from the exact distances to 1 and, on [-1, 1],
          to -1;
        * zk2 = y^2 - k2, from the exact |y| - rk on a gap;
        * c = mirror weight * half-width * tanh-sinh weight.
        """
        params = self.params
        k2 = params.k2
        gap = _gap(params)
        block = _ts_block(self.work_bits, level)
        a = self.intervals[-1][0]
        mid = (a + 1) / 2
        half = (1 - a) / 2
        mirrored = 2 * half  # exact: the mirror weight 2
        whole = a < 0
        # on [-1, 1] the centre node x = 0 is its own mirror: weight 1
        scale = half if whole and level == 0 else mirrored
        for x, omx, opx, wq in block:
            yv = mid + half * x
            d_lo = half * opx  # y - a, exact
            if whole:
                yield 0, yv, half * omx * d_lo, _z2_minus_k2(yv, k2, gap), scale * wq
            else:  # on a gap, d_lo is the exact |y| - rk
                yield 0, yv, half * omx * (1 + yv), _z2_minus_k2(yv, k2, gap, d_lo), scale * wq
            scale = mirrored
        if whole:
            return
        for i in range(1 if level == 0 else 0, len(block)):  # the centre node once
            x, omx, opx, wq = block[i]
            yv = mid - half * x
            d_lo = half * omx
            yield (len(block) - i, yv, half * opx * (1 + yv),
                   _z2_minus_k2(yv, k2, gap, d_lo), mirrored * wq)

    def _v_primes(self, level: int):
        """v'(y) = 2 alpha y inv_om2 - 2 t y inv_zk2^2 at one level's stored
        nodes, from the stored y and reciprocals, with no pole guard: the
        folded weight suppresses the near-edge blow-up.  The two terms are
        exact mantissa products, subtracted exactly by ``_mirror_halves``
        (aligned to the smaller exponent), and v' is floored once to the
        working precision.  Only ``dd`` reads it."""
        (am, tm), (ae, te) = _pack(_v_prime_coefficients(self.params), self.work_bits)
        y, iom, izk = self.y[level], self.inv_om2[level], self.inv_zk2[level]
        # both terms doubled (exponent + 1): _mirror_halves returns their half difference
        a_term = IntArray(list(map(mul, map(mul, y.man, iom.man), repeat(am))),
                          list(map(add, iom.exp, repeat(ae + y.exp + 1))))
        t_term = IntArray(list(map(mul, map(mul, map(mul, y.man, izk.man), izk.man), repeat(tm))),
                          list(map(add, map(add, izk.exp, izk.exp), repeat(te + y.exp + 1))))
        vp = _mirror_halves(a_term, t_term)[1]
        return _normalize(vp.man, vp.exp, self.work_bits)

    def _edge_cut(self):
        """t/zk2(m) + Lambda, the edge cut's threshold on the stored
        interval, of centre m (class docstring)."""
        params = self.params
        gap = _gap(params)
        mid = (self.intervals[-1][0] + 1) / 2
        om2 = (1 - mid) * (1 + mid)
        rho = gap[0] if params.has_gap else 1
        big_k = (1 + 2 * params.alpha + 16 * params.t / rho) / (pole_guard(params) ** 3 * om2)
        return (params.t / _z2_minus_k2(mid, params.k2, gap)
                + (2 * self.work_bits + 2 * params.n_max) * mp.ln2 + 2
                - params.alpha * mp.log(om2) + mp.log(big_k))

    def _cached(self, make, *args):
        """Per-level arrays make(self, *args, level) over the levels built so
        far, made once and extended with every later level."""
        arrs = self._derived.get((make, args))
        if arrs is None:
            arrs = self._derived[(make, args)] = [make(self, *args, lv)
                                                  for lv in range(self.nlevels)]
        return arrs

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
        """Attach recurrence coefficients; monic rows become available, and
        every later integral starts at the table's current top level (the
        level its state was built at), and at least at MIN_LEVEL + 1.

        The rows hold P_n at the stored nodes y >= 0; P_n(-y) = (-1)^n P_n(y)."""
        self.beta = tuple(beta)
        self.start_level = max(self.nlevels - 1, MIN_LEVEL + 1)
        self._cached(WeightTable._level_rows)

    def _level_rows(self, level: int):
        """Fixed-point rows P_0..P_N on one level, by the frozen recurrence."""
        cur, prev = self._unit_row(level), None
        rows = [cur]
        for b in self.beta[:-1]:
            prev, cur = cur, self._next_row(level, cur, prev, _fixed(b, self.frac_bits))
            rows.append(cur)
        return rows

    def row(self, n: int, level: int):
        return self._cached(WeightTable._level_rows)[level][n]

    def rows(self, n: int):
        """Per-level rows P_n(y), of the parity of n in y."""
        return self._cached(WeightTable.row, n)

    def _folded(self, n, m, level):
        """cw * P_n * P_m on one level, floored to the working precision."""
        cw = self.cw[level]
        rows = self._cached(WeightTable._level_rows)[level]
        prods = list(map(mul, map(mul, cw.man, rows[n].man), rows[m].man))
        return _normalize(prods, map(add, cw.exp, repeat(-2 * self.frac_bits)),
                          self.work_bits)

    def sq(self, n: int):
        """Per-level arrays cw * P_n(y)^2, even in y."""
        return self._cached(WeightTable._folded, n, n)

    def adj(self, n: int):
        """Per-level arrays cw * P_n(y) * P_{n-1}(y), odd in y: integrate them
        against an odd factor (``y``, the odd part of ``dd``)."""
        return self._cached(WeightTable._folded, n, n - 1)

    def _dd_side(self, z, vz, reach, ys, vp):
        """(v'(z) - v'(y)) / (z - y) at the nodes ``ys`` with values ``vp`` = v'(y),
        from v'(z) packed as ``vz`` and the pole-guard radius ``reach`` (fixed point).

        The difference z - y is exact in fixed point.  v'(z) - v'(y) is
        exact when the two exponents differ by at most ``work_bits``, and
        otherwise floored at ``work_bits`` bits below the larger term.  The
        numerator is floored to ``work_bits + 2`` bits more than the
        denominator has, and the quotient to the working precision.  Nodes
        within the pole-guard radius of z take the removable limit v''(z).
        """
        wb, fb = self.work_bits, self.frac_bits
        (vm,), (ve,) = vz
        den = list(map(sub, repeat(_fixed(z, fb)), ys))
        close = [i for i, d in enumerate(den) if -reach <= d <= reach]
        for i in close:
            den[i] = 1
        top = vm << wb
        num, exps = [], []
        for m, e in zip(*vp):
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

    def _dd_mirror(self, z, level: int):
        """(D+, D-) on one level, D+- = (dd(z, y) +- dd(z, -y)) / 2.

        dd(z, -y) is ``_dd_side`` at the mirror nodes -y, where v'(-y) =
        -v'(y) since v' is odd; the two halves are formed exactly.
        """
        reach, vz = _dd_constants(z, self.params)
        y, vp = self.y[level], self._cached(WeightTable._v_primes)[level]
        right = self._dd_side(z, vz, reach, y.man, vp)
        left = self._dd_side(z, vz, reach, list(map(neg, y.man)),
                             IntArray(list(map(neg, vp.man)), vp.exp))
        return _mirror_halves(right, left)

    def _dd_part(self, z, part, level: int):
        return self._cached(WeightTable._dd_mirror, z)[level][part]

    def dd(self, z):
        """(D+, D-): per-level arrays of the even and odd parts in y of the
        divided difference dd(z, y) = (v'(z) - v'(y)) / (z - y), for fixed z.

        Over the full support, the integral of dd(z, y) f(y) w(y) is the
        table sum of D+ f for an even f and of D- f for an odd f: so
        A_n(z) takes ``sq(n)`` with D+ and B_n(z) takes ``adj(n)`` with D-.
        v'(z) comes from ``model.v_prime``, so a z at a pole of v' raises
        PoleError.  Only the pair is cached.
        """
        with mp.workprec(self.work_bits):
            z = mp.mpf(z)
        # each made before its readers: v' before the pair, the pair before its parts
        self._cached(WeightTable._v_primes)
        self._cached(WeightTable._dd_mirror, z)
        return (self._cached(WeightTable._dd_part, z, 0),
                self._cached(WeightTable._dd_part, z, 1))

    def release_dd(self, z):
        """Drop every ``dd`` entry at z from the cache."""
        with mp.workprec(self.work_bits):
            z = mp.mpf(z)
        makers = (WeightTable._dd_mirror, WeightTable._dd_part)
        for key in [k for k in self._derived if k[0] in makers and k[1][0] == z]:
            del self._derived[key]

    # ------------------------------------------------------------------
    # integration

    def _value(self, terms, level):
        """(value, bound) at trapezoid step 2^-level from per-level _dot results."""
        total, emax, count = _accumulate(terms)
        return mp.ldexp(total, emax - level), mp.ldexp(count, emax - level)

    def trapezoid(self, factors, level: int):
        """Trapezoid value at step 2^-level of a product of per-level arrays
        over the nodes of levels 0..level.

        The value is the kernel's exact sum, not rounded: it may carry
        several times ``work_bits`` bits.  The product must be even in y: it
        is the full-support value."""
        with mp.workprec(self.work_bits):
            return self._value(_level_terms(factors, level), level)[0]

    def raw_integral(self, factors, scale=None) -> IntegralResult:
        """Integrate an elementwise product of per-level factor arrays.

        ``factors`` is a sequence of per-level lists owned by this table
        (``y``, ``sq(n)``, ``rows(n)``, ``inv_zk2``, ...), which grow with
        the table.  Exactly one factor family must carry the folded cw
        weight, and the product must be even in y: the sum over the stored
        half y >= 0 is then the full-support integral.  The value is the
        kernel's exact sum at the top level, not rounded to the working
        precision.

        The first top level is ``start_level``, whatever levels the table
        holds: the state's build level once ``freeze`` has run, MIN_LEVEL + 1
        before.  So an integral's bits do not depend on which integrals ran
        on the table before it.  Each level's kernel sum is formed once.  The
        error estimate compares the trapezoid values of the top two levels;
        it is at least the kernel's truncation bound plus the absolute floor
        2^-(work_bits-8) * sum |cw| at the top level, which also covers every
        node the edge cut dropped (class docstring).  While the estimate
        exceeds rel_tol * max(|value|, scale) and the floor, the top level
        rises by one, built if the table does not hold it yet; at
        ``max_level`` this raises NoConvergence with the value and the
        estimate attached.  So a returned result is always converged.
        """
        with mp.workprec(self.work_bits):
            top = self.start_level
            self.ensure_levels(top)
            terms = _level_terms(factors, top)
            while True:
                value, bound = self._value(terms, top)
                floor = self._floor_eps * self._cached(WeightTable._abs_mass_total)[top] + bound
                err = max(abs(value - self._value(terms[:-1], top - 1)[0]), floor)
                if err <= max(self._rel * max(abs(value), mp.mpf(scale or 0)), floor):
                    return IntegralResult(value, err, True, top)
                if top >= self.params.max_level:
                    raise NoConvergence(
                        f"table integral did not converge at level {top} "
                        f"(estimate {mp.nstr(err, 6)})", value=value, error=err)
                top += 1
                self.ensure_levels(top)
                terms.append(_dot([fac[top] for fac in factors]))

    def _abs_mass_total(self, top):
        """sum |cw| * 2^-top over levels 0..top; cw >= 0, so this is the sum of
        cw.  ``raw_integral`` reads it from the cache, made once per level."""
        with mp.workprec(self.work_bits):
            return self._value(self._mass[:top + 1], top)[0]

    def node_count(self):
        return sum(len(block.man) for block in self.y)
