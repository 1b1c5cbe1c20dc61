"""Randomized one-shot rounding and its exact conditional-expectation oracle.

Phase 1 flips one coin per node: node v is set to 1 with probability x(v),
else to 0, so nodes with x(v) in {0, 1} hold no coin; phase 2 puts every
node whose constraint is still unsatisfied at value 1.  :func:`derandomize`
fixes the coins one at a time, by the method of conditional expectations,
in the order a derandomizer gives; the two derandomizers differ only in
that order and its round cost.  :class:`IndependentCoinLaw` holds every
coin's state, and :func:`conditional_expected_value` computes exact
conditional expectations given its fixes in closed form: one success
covers any constraint c <= 1 on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation, PrecisionError, PreconditionError
from .graph import Graph
from .values import (
    CFDS,
    ONE,
    ZERO,
    as_fractions,
    fraction_sum,
    iota_for,
    ln_upper,
    validate_cfds,
)


@dataclass
class RoundingInstance:
    """One rounding step: host graph plus per-node value and constraint.

    x(v) is also the probability that v's coin succeeds.  The host's node
    count sets the fixed-point width ``iota`` for quantization.
    """

    graph: Graph
    x: Dict[int, Fraction]
    c: Dict[int, Fraction]

    def __post_init__(self):
        self.x = as_fractions(self.x)
        self.c = as_fractions(self.c)
        nodes = set(range(self.graph.n))
        if set(self.x) != nodes or set(self.c) != nodes:
            raise DomainError("x, c must cover exactly the host graph's nodes")
        self.iota = iota_for(max(self.graph.n, 2))
        one = 1 << self.iota
        # every value in integer units of 2**-iota, which every expectation
        # reads, so they are computed once
        x_units: Dict[int, int] = {}
        self.c_units: Dict[int, int] = {}
        for v in range(self.graph.n):
            for label, val, units in (
                ("x", self.x[v], x_units),
                ("c", self.c[v], self.c_units),
            ):
                num, den = val.numerator, val.denominator
                if num < 0 or num > den:
                    raise DomainError(f"{label}({v}) = {val} outside [0, 1]")
                if one % den:
                    raise PrecisionError(
                        f"{label}({v}) = {val} is not transmittable at width "
                        f"{self.iota}"
                    )
                units[v] = num * (one // den)
        # the phase-1 value of a successful coin: 1 for every x > 0
        self.ratio_units = {v: one if xu else 0 for v, xu in x_units.items()}
        # what a node with x in {0, 1} contributes without a coin
        self.det_units = {v: one if xu == one else 0 for v, xu in x_units.items()}

    def participating(self) -> List[int]:
        """Nodes with 0 < x < 1: the ones whose coin matters."""
        det = self.det_units
        return [v for v, r in self.ratio_units.items() if r and not det[v]]


def phase1(inst: RoundingInstance, coins: Dict[int, int]) -> Dict[int, Fraction]:
    """Apply the coin outcomes: X_v = 1 on success, 0 on failure."""
    X: Dict[int, Fraction] = {}
    for v in range(inst.graph.n):
        if inst.det_units[v]:
            X[v] = ONE
        elif not inst.ratio_units[v]:
            X[v] = ZERO
        else:
            if v not in coins:
                raise DomainError(f"participating node {v} has no coin")
            X[v] = ONE if coins[v] else ZERO
    return X


def phase2(inst: RoundingInstance, X: Dict[int, Fraction]) -> CFDS:
    """Raise every node with an unsatisfied constraint to value 1.

    *X* holds phase-1 values, multiples of 2**-iota in [0, 1]; the sums run
    on their integer units.
    """
    one = 1 << inst.iota
    units: Dict[int, int] = {}
    for v, val in X.items():
        if one % val.denominator:
            raise PrecisionError(f"X({v}) = {val} is not a multiple of 2**-{inst.iota}")
        units[v] = val.numerator * (one // val.denominator)
        if not 0 <= units[v] <= one:
            raise DomainError(f"X({v}) = {val} outside [0, 1]")
    adj = inst.graph.adj
    z: Dict[int, Fraction] = {}
    for v in range(inst.graph.n):
        total = units[v] + sum(units[u] for u in adj[v])
        z[v] = ONE if total < inst.c_units[v] else X[v]
    return CFDS._trusted(z, dict(inst.c))


def _check_stage(graph: Graph, xprime: CFDS, F: int) -> None:
    """PreconditionError unless every positive value of x' is at least 1/F
    and *graph* has an edge: what one-shot rounding needs of its input."""
    for v, val in xprime.x.items():
        if val > 0 and val < Fraction(1, F):
            raise PreconditionError(
                f"one-shot: x'({v}) = {val} below the required fractionality 1/{F}"
            )
    if graph.delta_tilde < 2:
        raise PreconditionError("one-shot rounding needs at least one edge")


def scale_values(xprime: CFDS, factor: Fraction, ambient_n: int) -> Dict[int, Fraction]:
    """x(v) = factor * x'(v), set to 1 when it reaches 1 and otherwise
    quantized up at the width of *ambient_n*."""
    one = 1 << iota_for(max(ambient_n, 2))
    x: Dict[int, Fraction] = {}
    for v, val in xprime.x.items():
        num = factor.numerator * val.numerator
        den = factor.denominator * val.denominator
        x[v] = ONE if num >= den else Fraction(-((-num * one) // den), one)
    return x


def one_shot_instance(graph: Graph, xprime: CFDS) -> RoundingInstance:
    """Scale values by ln(max inclusive-neighborhood size)."""
    delta_tilde = graph.delta_tilde
    if delta_tilde < 2:
        raise DomainError(
            f"one-shot rounding needs max inclusive neighborhood >= 2, got {delta_tilde}"
        )
    x = scale_values(xprime, ln_upper(delta_tilde), graph.n)
    return RoundingInstance(graph=graph, x=x, c=dict(xprime.c))


# -- the coin law and its fixes ---------------------------------------------


def coin_threshold(p: Fraction, b: int) -> int:
    """p * 2^b as an integer; PrecisionError if p is not a multiple of 2^-b."""
    scaled = Fraction(p) * (1 << b)
    if scaled.denominator != 1:
        raise PrecisionError(f"probability {p} is not a multiple of 2**-{b}")
    t = int(scaled)
    if not 0 <= t <= (1 << b):
        raise DomainError(f"probability {p} outside [0, 1]")
    return t


class IndependentCoinLaw:
    """Fully independent coins, one per participating node.

    ``heads[v] = (good, width)``: coin v is 1 with probability good/width
    given what is fixed so far.  Before any fix it is p(v), a multiple of
    2**-b (:func:`derandomize` passes p = x); a fixed coin reads (1, 1) or
    (0, 1).  Derandomizers fix coins in place and try a branch by saving a
    node's :meth:`state` and restoring it afterwards.
    """

    def __init__(self, p: Dict[int, Fraction], b: int):
        self.heads = {v: (coin_threshold(val, b), 1 << b) for v, val in p.items()}

    def fix_coin(self, v: int, value: int) -> None:
        """Fix v's coin outright."""
        if self.resolved_coin(v) not in (None, value):
            raise DomainError(f"coin of node {v} already fixed differently")
        self.heads[v] = (int(value), 1)

    def state(self, v: int) -> Tuple[int, int]:
        """v's fixes so far, for :meth:`restore`."""
        return self.heads[v]

    def restore(self, v: int, state: Tuple[int, int]) -> None:
        """Undo every fix of v made since :meth:`state` returned *state*."""
        self.heads[v] = state

    def resolved_coin(self, v: int) -> Optional[int]:
        """The coin of v if the fixes already determine it, else None."""
        good, width = self.heads[v]
        if good == width:
            return 1
        if good == 0:
            return 0
        return None

    def final_coins(self) -> Dict[int, int]:
        """All coins once the fixes determine every one of them."""
        out: Dict[int, int] = {}
        for v in self.heads:
            coin = self.resolved_coin(v)
            if coin is None:
                raise DomainError(f"coin of node {v} is still undetermined")
            out[v] = coin
        return out


# -- exact expectation engine ------------------------------------------------


def conditional_expected_value(
    inst: RoundingInstance, law: IndependentCoinLaw, u: int
) -> Fraction:
    """E[Z_u] where Z_u = 1 if u ends phase 1 uncovered, else X_u.

    A successful coin sets its node to 1, which meets c(u) <= 1 on its own,
    so u is uncovered exactly when the resolved base sum of N[u] falls short
    of c(u) and every live coin of N[u] fails; E[Z_u] has a closed form in
    the live coins' (good, width).
    """
    cap = inst.c_units[u]
    heads = law.heads
    ratio_units = inst.ratio_units
    one = 1 << inst.iota
    base = 0
    # Pr(every live coin fails) = miss / den
    miss = den = 1
    for w in inst.graph.closed_neighbors(u):
        head = heads.get(w)
        if head is None:
            base += inst.det_units[w]
            continue
        good, width = head
        if 0 < good < width:
            miss *= width - good
            den *= width
        elif good:
            base += ratio_units[w]
    # in units of 2**-iota over den: an uncovered u counts 1, a covered one X_u
    uncovered = miss if base < cap else 0
    head = heads.get(u)
    if head is not None and 0 < head[0] < head[1]:
        # a live u is covered whenever its own coin succeeds
        good, width = head
        return Fraction(
            uncovered * one + good * ratio_units[u] * (den // width),
            den * one,
        )
    if head is None:
        xu = inst.det_units[u]
    else:
        xu = ratio_units[u] if head[0] else 0
    return Fraction(uncovered * one + (den - uncovered) * xu, den * one)


def branch_sum(
    inst: RoundingInstance,
    law: IndependentCoinLaw,
    nodes: Sequence[int],
    unit: Fraction,
) -> Fraction:
    """Sum of E[Z_u] over *nodes*, each rounded up to a multiple of *unit*.

    This is the quantity the derandomizers compare between the two branches
    of a coin.  The ceilings are integer floor divisions; one Fraction is
    built for the sum.
    """
    scale, step = unit.denominator, unit.numerator
    total = 0
    for u in nodes:
        alpha = conditional_expected_value(inst, law, u)
        # most alphas are 0 once neighbors are fixed
        if alpha.numerator:
            total -= (-alpha.numerator * scale) // (alpha.denominator * step)
    return Fraction(total * step, scale)


def expected_output_size(inst: RoundingInstance, law: IndependentCoinLaw) -> Fraction:
    """Exact expected phase-2 output size: sum of E[Z_v] over all nodes."""
    return fraction_sum(
        conditional_expected_value(inst, law, v) for v in range(inst.graph.n)
    )


def run_phases(inst: RoundingInstance, law: IndependentCoinLaw) -> CFDS:
    """Phase 1 with fully determined coins, then phase 2."""
    return phase2(inst, phase1(inst, law.final_coins()))


def derandomize(
    inst: RoundingInstance, order: Sequence[int]
) -> Tuple[CFDS, List[Tuple[int, Fraction, Fraction, int]], Fraction]:
    """Fix every coin in *order* by conditional expectations, then round.

    Coins are private and independent, so E = q*E1 + (1-q)*E0 over the
    nodes whose neighborhood holds the coin, and fixing it to the cheaper
    branch cannot raise the expectation.  For each v in *order* the two
    branches are compared by :func:`branch_sum` over N[v] at unit n^-10
    (n = max(host's node count, 2)), and the coin is 1 iff s1 < s0.
    *order* must name every participating coin exactly once; else
    DomainError.

    Each quantized sum overshoots the exact one by less than |N[v]| * n^-10,
    and the cheaper exact branch is at most the current exact sum, so a fix
    raises the exact expectation by less than |N[v]| * n^-10 <= n^-9, and
    all fixes together by less than n^-8.  Once every coin is fixed the
    expectation is the output size, so the output is checked against the
    initial expectation plus 1/n^7, and for validity on the host graph.

    Returns the output, the ``(node, s0, s1, coin)`` decisions in order, and
    the exact initial expectation.
    """
    n = max(inst.graph.n, 2)
    unit = Fraction(1, n**10)
    law = IndependentCoinLaw(
        {v: inst.x[v] for v in inst.participating()}, b=inst.iota
    )
    initial = expected_output_size(inst, law)
    decisions: List[Tuple[int, Fraction, Fraction, int]] = []
    for v in order:
        if v not in law.heads or law.resolved_coin(v) is not None:
            raise DomainError(f"node {v} has no undecided coin to fix")
        affected = inst.graph.closed_neighbors(v)
        saved = law.state(v)
        sums = []
        for branch in (0, 1):
            law.fix_coin(v, branch)
            sums.append(branch_sum(inst, law, affected, unit))
            law.restore(v, saved)
        s0, s1 = sums
        coin = 1 if s1 < s0 else 0
        law.fix_coin(v, coin)
        decisions.append((v, s0, s1, coin))
    result = run_phases(inst, law)
    bad = validate_cfds(inst.graph, result)
    if bad:
        raise InvariantViolation(f"derandomized output violates constraints at {bad}")
    if result.size > initial + Fraction(1, n**7):
        raise InvariantViolation(
            f"output size {result.size} exceeds expectation {initial} + 1/n^7"
        )
    return result, decisions, initial
