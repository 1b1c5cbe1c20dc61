"""Exact fixed-point arithmetic and constrained fractional dominating sets.

All invariant-bearing values are dyadic rationals: multiples of ``2**-iota``
where ``iota`` is the smallest exponent with ``2**-iota <= n**-10`` for the
ambient node count ``n``.  Such a value fits in a single O(log n)-bit message,
so it can be exchanged in one round.  A :class:`CFDS`, what one stage hands
the next, holds :class:`fractions.Fraction` values; the rounding step works
on integer counts of units ``2**-iota`` from its scaled input to its output,
and ``validate_cfds`` and the LP repair on integer numerators over a common
denominator.  No floating point touches a correctness path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List

from .errors import DomainError

ZERO = Fraction(0)
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


def quantize_up(value, n: int) -> Fraction:
    """Smallest multiple of 2**-iota(n) that is >= value, for value in [0, 1]."""
    frac = Fraction(value)
    if frac < 0 or frac > 1:
        raise DomainError(f"value {frac} outside [0, 1]")
    iota = iota_for(n)
    return Fraction(-((-frac.numerator << iota) // frac.denominator), 1 << iota)


def fraction_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of *values*: integer numerators over a running common
    denominator, reduced once at the end."""
    num, den = 0, 1
    for val in values:
        if not val.numerator:
            continue
        if val.denominator != den:
            common = math.lcm(den, val.denominator)
            num *= common // den
            den = common
        num += val.numerator * (den // val.denominator)
    return Fraction(num, den)


@dataclass
class CFDS:
    """A constrained fractional dominating set: per-node values and constraints.

    ``x`` maps every node to its fractional value and ``c`` to its constraint,
    both in [0, 1].  The pair is valid on a graph G when every node's
    inclusive-neighborhood x-sum reaches its constraint.
    """

    x: Dict[int, Fraction]
    c: Dict[int, Fraction]

    def __post_init__(self):
        # wrap every entry that is not already a Fraction
        self.x, self.c = [
            {v: val if isinstance(val, Fraction) else Fraction(val)
             for v, val in values.items()}
            for values in (self.x, self.c)
        ]
        if set(self.c) != set(self.x):
            raise DomainError("x and c must be defined on the same node set")
        for label, values in (("x", self.x), ("c", self.c)):
            for v, val in values.items():
                if val.numerator < 0 or val.numerator > val.denominator:
                    raise DomainError(f"{label}({v}) = {val} outside [0, 1]")

    @property
    def size(self) -> Fraction:
        return fraction_sum(self.x.values())

    def is_integral(self) -> bool:
        return all(val in (ZERO, ONE) for val in self.x.values())

    def support(self) -> List[int]:
        return [v for v, val in self.x.items() if val > 0]

    @classmethod
    def fds(cls, x: Dict[int, Fraction]) -> "CFDS":
        """FDS: all constraints equal 1."""
        return cls(x=dict(x), c={v: ONE for v in x})


def validate_cfds(graph, d: CFDS) -> List[int]:
    """Nodes whose inclusive-neighborhood x-sum falls short of their constraint.

    An empty list means the CFDS is valid.  Exact: the sums run on integer
    numerators over the least common denominator of all values.
    """
    if set(d.x) != set(range(graph.n)):
        raise DomainError(
            f"CFDS node set does not match graph nodes 0..{graph.n - 1}"
        )
    den = math.lcm(
        *{val.denominator for vals in (d.x, d.c) for val in vals.values()}
    )
    x = [d.x[v].numerator * (den // d.x[v].denominator) for v in range(graph.n)]
    violated = []
    for v in range(graph.n):
        total = x[v] + sum(x[u] for u in graph.adj[v])
        c = d.c[v]
        if total < c.numerator * (den // c.denominator):
            violated.append(v)
    return violated


def fractionality(d: CFDS) -> Fraction:
    """Minimum nonzero value; 1 for the all-zero map (vacuous minimum)."""
    nonzero = [val for val in d.x.values() if val > 0]
    return min(nonzero) if nonzero else ONE


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
