"""Randomized one-shot rounding and its exact conditional-expectation oracle.

Every value here is an integer count of units 2**-iota, the O(log n)-bit
fixed-point message of :mod:`values`, from :func:`scale_values` to the
rounded output.  Phase 1 flips one coin per node: node v is set to 1 with
probability x(v), else to 0, so nodes with x(v) in {0, 1} hold no coin;
phase 2 puts every node whose constraint is still unsatisfied at value 1.
Every phase-1 value is 0 or 1 and every constraint is at most 1, so a
constraint c(v) > 0 is unsatisfied exactly when N[v] holds no 1.
:func:`derandomize` fixes the coins one at a time, by the method of
conditional expectations, in the order a derandomizer gives; the two
derandomizers differ only in that order and its round cost.
:class:`IndependentCoinLaw` holds every coin's state, and
:func:`conditional_expected_value` computes exact conditional expectations
given its fixes in closed form, as an integer numerator over a power of
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation, PrecisionError, PreconditionError
from .graph import Graph
from .values import CFDS, ONE, ZERO, iota_for, ln_upper, validate_cfds


@dataclass
class RoundingInstance:
    """One rounding step: host graph plus per-node value and constraint.

    ``x`` and ``c`` are integers in [0, ``one``], counts of units 2**-iota
    at the width of the host's node count; x(v) is also the probability
    that v's coin succeeds.
    """

    graph: Graph
    x: Dict[int, int]
    c: Dict[int, int]

    def __post_init__(self):
        nodes = set(range(self.graph.n))
        if set(self.x) != nodes or set(self.c) != nodes:
            raise DomainError("x, c must cover exactly the host graph's nodes")
        self.iota = iota_for(max(self.graph.n, 2))
        self.one = 1 << self.iota
        for label, values in (("x", self.x), ("c", self.c)):
            for v, val in values.items():
                if not isinstance(val, int):
                    raise PrecisionError(
                        f"{label}({v}) = {val} is not a whole number of units "
                        f"2**-{self.iota}"
                    )
                if not 0 <= val <= self.one:
                    raise DomainError(f"{label}({v}) = {val} outside [0, {self.one}]")

    def participating(self) -> List[int]:
        """Nodes with 0 < x < 1: the ones whose coin matters."""
        x, one = self.x, self.one
        return [v for v in range(self.graph.n) if 0 < x[v] < one]


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


def scale_values(xprime: CFDS, factor: Fraction, ambient_n: int) -> Dict[int, int]:
    """factor * x'(v) in units of 2**-iota at the width of *ambient_n*:
    ``one`` when it reaches 1, and otherwise rounded up to a whole unit."""
    one = 1 << iota_for(max(ambient_n, 2))
    x: Dict[int, int] = {}
    for v, val in xprime.x.items():
        num = factor.numerator * val.numerator
        den = factor.denominator * val.denominator
        x[v] = one if num >= den else -((-num * one) // den)
    return x


def one_shot_instance(graph: Graph, xprime: CFDS) -> RoundingInstance:
    """Scale values by ln(max inclusive-neighborhood size); x' is rounded as
    a fractional dominating set, so every constraint is 1."""
    delta_tilde = graph.delta_tilde
    if delta_tilde < 2:
        raise DomainError(
            f"one-shot rounding needs max inclusive neighborhood >= 2, got {delta_tilde}"
        )
    x = scale_values(xprime, ln_upper(delta_tilde), graph.n)
    one = 1 << iota_for(max(graph.n, 2))
    return RoundingInstance(graph=graph, x=x, c={v: one for v in x})


# -- the coin law and its fixes ---------------------------------------------


class IndependentCoinLaw:
    """Fully independent coins, one per participating node.

    ``heads[v] = (good, width)``: coin v is 1 with probability good/width
    given what is fixed so far.  Before any fix it is p(v) / 2**b for the
    integer threshold p(v) in [0, 2**b] (:func:`derandomize` passes the
    units of x); a fixed coin reads (1, 1) or (0, 1).  Derandomizers fix
    coins in place and try a branch by saving a node's :meth:`state` and
    restoring it afterwards.
    """

    def __init__(self, p: Dict[int, int], b: int):
        self.heads = {v: (t, 1 << b) for v, t in p.items()}

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
) -> Tuple[int, int]:
    """E[Z_u] as ``(numerator, denominator)``, where Z_u = 1 if u ends phase 1
    uncovered, else X_u.

    A successful coin sets its node to 1, which meets c(u) <= 1 on its own,
    so u is uncovered exactly when c(u) > 0, no resolved node of N[u] is 1
    and every live coin of N[u] fails.  The denominator is the product of
    the live coins' widths, a power of two for every law this module builds.
    """
    heads = law.heads
    x = inst.x
    one = inst.one
    covered = not inst.c[u]
    # Pr(every live coin fails) = miss / den
    miss = den = 1
    for w in inst.graph.closed_neighbors(u):
        head = heads.get(w)
        if head is None:
            covered = covered or x[w] == one
            continue
        good, width = head
        if 0 < good < width:
            miss *= width - good
            den *= width
        elif good:
            covered = True
    # an uncovered u counts 1, a covered one X_u
    uncovered = 0 if covered else miss
    head = heads.get(u)
    if head is None:
        xu = x[u] == one
    else:
        good, width = head
        if 0 < good < width:
            # a live u is covered whenever its own coin succeeds
            return uncovered + good * (den // width), den
        xu = good > 0
    return (den if xu else uncovered), den


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
        num, den = conditional_expected_value(inst, law, u)
        # most expectations are 0 once neighbors are fixed
        if num:
            total -= (-num * scale) // (den * step)
    return Fraction(total * step, scale)


def expected_output_size(inst: RoundingInstance, law: IndependentCoinLaw) -> Fraction:
    """Exact expected phase-2 output size: sum of E[Z_v] over all nodes.

    Every denominator is a power of two, so the largest one so far is a
    common denominator; one Fraction is built for the sum.
    """
    total, common = 0, 1
    for v in range(inst.graph.n):
        num, den = conditional_expected_value(inst, law, v)
        if den > common:
            total *= den // common
            common = den
        total += num * (common // den)
    return Fraction(total, common)


def rounded_output(inst: RoundingInstance, law: IndependentCoinLaw) -> CFDS:
    """Phase 1 with every coin of *law* fixed, then phase 2.

    A node's phase-1 value is 1 if its x is 1 or its coin succeeded, else 0;
    phase 2 raises a node to 1 iff c > 0 and N[v] holds no phase-1 1.
    """
    coins = law.final_coins()
    one = inst.one
    ones = {v for v, xv in inst.x.items() if xv == one or coins.get(v)}
    adj = inst.graph.adj
    x: Dict[int, Fraction] = {}
    c: Dict[int, Fraction] = {}
    for v in range(inst.graph.n):
        cv = inst.c[v]
        x[v] = ONE if v in ones or (cv and ones.isdisjoint(adj[v])) else ZERO
        c[v] = Fraction(cv, one)
    return CFDS(x, c)


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
    law = IndependentCoinLaw({v: inst.x[v] for v in inst.participating()}, inst.iota)
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
    result = rounded_output(inst, law)
    bad = validate_cfds(inst.graph, result)
    if bad:
        raise InvariantViolation(f"derandomized output violates constraints at {bad}")
    if result.size > initial + Fraction(1, n**7):
        raise InvariantViolation(
            f"output size {result.size} exceeds expectation {initial} + 1/n^7"
        )
    return result, decisions, initial
