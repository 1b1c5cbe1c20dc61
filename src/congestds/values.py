"""Exact fixed-point arithmetic on integer units.

All invariant-bearing values are dyadic rationals: multiples of ``2**-iota``
where ``iota`` is the smallest exponent with ``2**-iota <= n**-10`` for the
ambient node count ``n``.  Such a value fits in a single O(log n)-bit message,
so it can be exchanged in one round.  Every value is held as an integer count
of units ``2**-iota``, from the LP repair to the rounded set: a fractional
dominating set of an n-node graph is a tuple of n counts at ``iota(n)``, and
the rounding step rescales it to the width of its host graph.  A
:class:`fractions.Fraction` is built only for a figure that is compared or
reported whole: a branch sum, an expected size, a logarithm bound, a
report's size.  No floating point touches a correctness path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

ONE = Fraction(1)


def iota_for(n: int) -> int:
    """Smallest iota with 2**-iota <= 1/n**10, i.e. ceil(10*log2(n))."""
    if n < 1:
        raise DomainError(f"node count must be positive, got {n}")
    if n == 1:
        return 0
    # exact: smallest i with 2**i >= n**10
    target = n**10
    return (target - 1).bit_length()


def fractionality(x: Iterable[int], one: int) -> Fraction:
    """Minimum nonzero value of *x*, in units of which *one* makes 1;
    1 for the all-zero map (vacuous minimum)."""
    return Fraction(min((u for u in x if u), default=one), one)


def log_star(n: int) -> int:
    """Iterated logarithm: number of log2 applications until the value <= 1.

    That is the least k whose tower 2^2^...^2 of k twos reaches n, counted
    on integers.
    """
    count = 0
    t = 1
    while t < n:
        t = 2**t
        count += 1
    return count


#: fractional bits of the fixed-point arithmetic that proves ``ln_upper``
EXP_BITS = 128


def exp_lower(t: Fraction) -> int:
    """An integer at most e^t * 2**EXP_BITS, for t >= 0.

    t is halved s times to below 1, the Taylor series of e^(t/2^s) is summed
    with every term floored until a term floors to 0, and the sum is squared
    s times, flooring again.  Every step can only lose, so the result is a
    lower bound; its relative error is about 2**(s + 6 - EXP_BITS).
    """
    one = 1 << EXP_BITS
    s = int(t).bit_length()
    y = (t.numerator << EXP_BITS) // (t.denominator << s)
    total = term = one
    i = 1
    while term:
        term = term * y // (i << EXP_BITS)
        total += term
        i += 1
    for _ in range(s):
        total = (total * total) >> EXP_BITS
    return total


def ln_upper(value: int) -> Fraction:
    """An exact rational upper bound on ln(value), tight to ~1e-15.

    The float one ulp above ``math.log(value)`` is checked exactly: a lower
    bound on e^up must reach *value*.  Should the library logarithm err low,
    the bound steps up one ulp at a time until the check passes, so the
    result never rests on libm's accuracy.
    """
    if value < 1:
        raise DomainError(f"ln of non-positive value {value}")
    up = math.nextafter(math.log(value), math.inf)
    while exp_lower(Fraction(up)) < value << EXP_BITS:
        up = math.nextafter(up, math.inf)
    return Fraction(up)
