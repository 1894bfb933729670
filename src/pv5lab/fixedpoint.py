"""The integrator's fixed-point numbers, and straight-line programs recorded
from type-neutral right-hand sides.

``fixed_type(bits)`` is the number type the integrator hands a generic
right-hand side: one int at scale 2^-FRAC, ``FRAC = bits + 128``.

``record(f, Fixed, dim)`` calls ``f`` once on recording numbers instead.
Constant operands (``Fixed`` numbers and ints) fold with ``Fixed``'s own
arithmetic before they reach a recording number, so only the operations on
t and the state are recorded, one line each, in the order ``f`` performs
them.  Each distinct line is emitted once: an operation whose text was
already recorded reads that line's variable, which holds the same int since
every variable is assigned once.  The lines are compiled into one Python
function on ints that does exactly the floored integer operations ``Fixed``
would do, without the per-operation dispatch; its source holds nothing but
the operation templates below and int literals.  A recording number has no
value: asked for one (``_mpf_``, a comparison, ``bool``) or met with an
operand of another type, it raises ``NotRecordable``, and ``record``
returns None.
"""

from __future__ import annotations

import functools

from mpmath import mp
from mpmath.libmp import from_man_exp

from .model import GUARD_BITS
from .quadrature import FIXED_GUARD_BITS


@functools.lru_cache(maxsize=64)
def fixed_type(bits):
    """The integrator's number type for ``bits``: one int at scale 2^-FRAC.

    ``FRAC = bits + 128``.  ``+ - * /`` and integer powers, against the
    same type or ints, stay in fixed point; products and quotients are
    floored, so each of them is off by less than 2^-FRAC.  Any other
    operand (an mpf, a float, a fixed type of other scale) turns the value
    into an exact mpf first, and ``_mpf_`` lets mpf arithmetic and the
    ``mp.*`` functions accept it, so mixed code gets correct mpf results.
    A recording number takes over the operation instead (see ``record``).
    """
    frac = bits + GUARD_BITS + FIXED_GUARD_BITS
    one = 1 << frac

    class Fixed:
        __slots__ = ("v",)
        FRAC = frac

        def __init__(self, v):
            self.v = v

        @property
        def _mpf_(self):
            return from_man_exp(self.v, -frac)

        def _as_mpf(self):
            return mp.make_mpf(self._mpf_)

        def __repr__(self):
            return f"fixed_type({bits})({mp.nstr(self._as_mpf(), 20)})"

        def __add__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v + b.v)
            if type(b) is int:
                return Fixed(a.v + (b << frac))
            if type(b) is Recorded:
                return NotImplemented
            return a._as_mpf() + b

        __radd__ = __add__

        def __sub__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v - b.v)
            if type(b) is int:
                return Fixed(a.v - (b << frac))
            if type(b) is Recorded:
                return NotImplemented
            return a._as_mpf() - b

        def __rsub__(a, b):
            if type(b) is int:
                return Fixed((b << frac) - a.v)
            return b - a._as_mpf()

        def __mul__(a, b):
            if type(b) is Fixed:
                return Fixed(a.v * b.v >> frac)
            if type(b) is int:
                return Fixed(a.v * b)
            if type(b) is Recorded:
                return NotImplemented
            return a._as_mpf() * b

        __rmul__ = __mul__

        def __truediv__(a, b):
            if type(b) is Fixed:
                return Fixed((a.v << frac) // b.v)
            if type(b) is int:
                return Fixed(a.v // b)
            if type(b) is Recorded:
                return NotImplemented
            return a._as_mpf() / b

        def __rtruediv__(a, b):
            if type(b) is int:
                return Fixed((b << 2 * frac) // a.v)
            return b / a._as_mpf()

        def __pow__(a, n):
            if type(n) is not int:
                return a._as_mpf() ** n
            if n == 2:
                return Fixed(a.v * a.v >> frac)
            if n < 0:
                return 1 / a ** -n
            out, base = one, a.v
            while n:
                if n & 1:  # one * base >> frac is base
                    out = base if out == one else out * base >> frac
                n >>= 1
                if n:
                    base = base * base >> frac
            return Fixed(out)

        def __neg__(a):
            return Fixed(-a.v)

        def __abs__(a):
            return Fixed(abs(a.v))

        def __bool__(a):
            return a.v != 0

        def _sign_of_diff(a, b):
            if type(b) is Fixed:
                d = a.v - b.v
            elif type(b) is int:
                d = a.v - (b << frac)
            else:
                return mp.sign(a._as_mpf() - b)
            return (d > 0) - (d < 0)

        def __eq__(a, b):
            return a._sign_of_diff(b) == 0

        def __lt__(a, b):
            return a._sign_of_diff(b) < 0

        def __le__(a, b):
            return a._sign_of_diff(b) <= 0

        def __gt__(a, b):
            return a._sign_of_diff(b) > 0

        def __ge__(a, b):
            return a._sign_of_diff(b) >= 0

        __hash__ = None

    Fixed.__qualname__ = Fixed.__name__ = f"Fixed{frac}"
    return Fixed


class NotRecordable(Exception):
    """A recording number was asked for a value or met a foreign operand."""


class _Tape:
    """The recorded lines of one call, and how operands read in them."""

    def __init__(self, Fixed):
        self.Fixed = Fixed
        self.frac = Fixed.FRAC
        self.lines = []
        self.emitted = {}  # expression text -> its variable
        self.refused = False

    def refuse(self, what):
        # the flag outlives the exception: an f that catches it returns a
        # result it would not return on numbers
        self.refused = True
        return NotRecordable(f"a right-hand side on recording numbers asked for {what}")

    def emit(self, expr):
        """The variable of expr: a new line the first time, that line's after.

        Every variable is assigned once, so equal text gives equal ints.
        """
        known = self.emitted.get(expr)
        if known is None:
            known = self.emitted[expr] = Recorded(self, f"v{len(self.lines)}")
            self.lines.append(f"    {known.name} = {expr}")
        return known

    def operand(self, x, int_shift):
        """x in a template: a variable, or a literal; an int m reads m << int_shift."""
        if type(x) is Recorded and x.tape is self:
            return x.name
        if type(x) is self.Fixed:
            return hex(x.v)
        if type(x) is int:
            return hex(x << int_shift)
        raise self.refuse(f"an operation with {type(x).__name__}")


class Recorded:
    """A value of t or the state, known only by the operations that made it.

    Each operation emits one line that does what ``Fixed`` does on the
    ints, and ``Fixed`` hands its operations with a recording number here.
    """

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape = tape
        self.name = name

    def _line(a, template, b, int_shift):
        """One line: the template on a and b; an int b reads b << int_shift."""
        tape = a.tape
        return tape.emit(template.format(a=a.name, b=tape.operand(b, int_shift), f=tape.frac))

    def __add__(a, b):
        return a._line("{a} + {b}", b, a.tape.frac)

    __radd__ = __add__

    def __sub__(a, b):
        return a._line("{a} - {b}", b, a.tape.frac)

    def __rsub__(a, b):
        return a._line("{b} - {a}", b, a.tape.frac)

    def __mul__(a, b):
        return a._line("{a} * {b}" if type(b) is int else "{a} * {b} >> {f}", b, 0)

    __rmul__ = __mul__

    def __truediv__(a, b):
        return a._line("{a} // {b}" if type(b) is int else "({a} << {f}) // {b}", b, 0)

    def __rtruediv__(a, b):
        # Fixed's (b << frac) // a; for an int b, (b << 2 frac) // a
        frac = a.tape.frac
        if type(b) is a.tape.Fixed:
            return a._line("{b} // {a}", b.v, frac)
        return a._line("{b} // {a}", b, 2 * frac)

    def __pow__(a, n):
        if type(n) is not int:
            raise a.tape.refuse("a power that is not an integer")
        if n < 0:
            return 1 / a ** -n
        if n == 0:
            return a.tape.Fixed(1 << a.tape.frac)
        out, base = None, a  # Fixed's square-and-multiply, step for step
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __neg__(a):
        return a.tape.emit(f"-{a.name}")

    def __abs__(a):
        return a.tape.emit(f"abs({a.name})")

    @property
    def _mpf_(self):
        raise self.tape.refuse("an mpf value")

    def __bool__(self):
        raise self.tape.refuse("a truth value")

    def _compare(self, _other):
        raise self.tape.refuse("a comparison")

    __eq__ = __lt__ = __le__ = __gt__ = __ge__ = _compare
    __hash__ = None


def record(f, Fixed, dim):
    """``f(t, y)`` as a function on ints at ``Fixed``'s scale, or None.

    ``f`` is called once, on a recording t and ``dim`` recording state
    components.  The function returned takes t as an int and y as a
    sequence of ``dim`` ints and returns the list of the right-hand side's
    ints, exactly what ``f`` returns on ``Fixed`` numbers: each component a
    ``Fixed`` number or an int.  None means ``f`` cannot be recorded: it
    asked a recording number for a value, or used another number type.
    """
    tape = _Tape(Fixed)
    names = [f"y{i}" for i in range(dim)]
    try:
        out = f(Recorded(tape, "t"), tuple(Recorded(tape, name) for name in names))
        results = [tape.operand(v, tape.frac) for v in out]
    except NotRecordable:
        return None
    if tape.refused:
        return None
    source = "\n".join([
        "def program(t, y):",
        f"    [{', '.join(names)}] = y",
        *tape.lines,
        f"    return [{', '.join(results)}]",
    ])
    namespace = {"__builtins__": {}, "abs": abs}
    exec(compile(source, "<recorded right-hand side>", "exec"), namespace)
    return namespace["program"]
