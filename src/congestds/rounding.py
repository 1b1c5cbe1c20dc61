"""Randomized one-shot rounding and its exact conditional-expectation oracle.

Every value here is an integer count of units 2**-iota, the O(log n)-bit
fixed-point message of :mod:`values`: the input x' at the width of its
graph, and from :func:`scale_values` to the rounded output at the width of
the host.  Phase 1 flips one coin per node: node v is set to 1 with
probability x(v), else to 0, so nodes with x(v) in {0, 1} hold no coin;
phase 2 puts every node whose constraint is still unsatisfied at value 1.
Every phase-1 value is 0 or 1 and every constraint is at most 1, so a
constraint c(v) > 0 is unsatisfied exactly when N[v] holds no 1.
:func:`derandomize` fixes the coins one at a time, by the method of
conditional expectations, in the order a derandomizer gives; the two
derandomizers differ only in that order and its round cost.  The coins
fixed so far are a plain dict, node -> 0 or 1; a node absent from it reads
its coin from x.  :func:`conditional_expected_value` computes exact
conditional expectations given those fixes in closed form, as an integer
numerator over a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, InvariantViolation, PrecisionError, PreconditionError
from .graph import Graph
from .values import iota_for, ln_upper


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


def _check_stage(graph: Graph, xprime: Sequence[int], F: int) -> None:
    """What one-shot rounding needs of its input x', one value per node in
    units of 2**-iota(n): DomainError unless x' has a value for each node of
    *graph*; PreconditionError unless every positive value is at least 1/F
    and *graph* has an edge."""
    if len(xprime) != graph.n:
        raise DomainError(f"x' has {len(xprime)} values for {graph.n} nodes")
    one = 1 << iota_for(graph.n)
    for v, val in enumerate(xprime):
        if 0 < val and val * F < one:
            raise PreconditionError(
                f"one-shot: x'({v}) = {Fraction(val, one)} below the required "
                f"fractionality 1/{F}"
            )
    if graph.delta_tilde < 2:
        raise PreconditionError("one-shot rounding needs at least one edge")


def scale_values(
    xprime: Sequence[int], factor: Fraction, ambient_n: int
) -> Dict[int, int]:
    """factor * x'(v), for x' in units of 2**-iota(n) with n = len(x'),
    rescaled to units of 2**-iota at the width of *ambient_n*: ``one`` when
    it reaches 1, and otherwise rounded up to a whole unit."""
    one = 1 << iota_for(max(ambient_n, 2))
    num = factor.numerator
    den = factor.denominator << iota_for(len(xprime))
    return {
        v: one if num * val >= den else -((-num * val * one) // den)
        for v, val in enumerate(xprime)
    }


def one_shot_instance(graph: Graph, xprime: Sequence[int]) -> RoundingInstance:
    """Scale values by ln(max inclusive-neighborhood size); x' is rounded as
    a fractional dominating set, so every constraint is 1."""
    x = scale_values(xprime, ln_upper(graph.delta_tilde), graph.n)
    one = 1 << iota_for(max(graph.n, 2))
    return RoundingInstance(graph=graph, x=x, c={v: one for v in x})


# -- exact expectation engine ------------------------------------------------


def conditional_expected_value(
    inst: RoundingInstance, fixed: Dict[int, int], u: int
) -> Tuple[int, int]:
    """E[Z_u] given the coins in *fixed*, as ``(numerator, denominator)``,
    where Z_u = 1 if u ends phase 1 uncovered, else X_u.

    A node absent from *fixed* holds a live coin iff 0 < x < one; it
    succeeds with probability x/one.  A successful coin sets its node to 1,
    which meets c(u) <= 1 on its own, so u is uncovered exactly when
    c(u) > 0, no resolved node of N[u] is 1 and every live coin of N[u]
    fails.  The denominator is one to the power of N[u]'s live coins.
    """
    x = inst.x
    one = inst.one
    get = fixed.get
    covered = not inst.c[u]
    # Pr(every live coin fails) = miss / den
    miss = den = 1
    for w in inst.graph.closed_neighbors(u):
        coin = get(w)
        if coin is None:
            xw = x[w]
            if xw == one:
                covered = True
            elif xw:
                miss *= one - xw
                den *= one
        elif coin:
            covered = True
    # an uncovered u counts 1, a covered one X_u
    uncovered = 0 if covered else miss
    coin = get(u)
    if coin is None:
        xu = x[u]
        if 0 < xu < one:
            # a live u is covered whenever its own coin succeeds
            return uncovered + xu * (den // one), den
        coin = xu == one
    return (den if coin else uncovered), den


def branch_sum(
    inst: RoundingInstance,
    fixed: Dict[int, int],
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
        num, den = conditional_expected_value(inst, fixed, u)
        # most expectations are 0 once neighbors are fixed
        if num:
            total -= (-num * scale) // (den * step)
    return Fraction(total * step, scale)


def expected_output_size(inst: RoundingInstance, fixed: Dict[int, int]) -> Fraction:
    """Exact expected phase-2 output size: sum of E[Z_v] over all nodes.

    Every denominator is a power of two, so the largest one so far is a
    common denominator; one Fraction is built for the sum.
    """
    total, common = 0, 1
    for v in range(inst.graph.n):
        num, den = conditional_expected_value(inst, fixed, v)
        if den > common:
            total *= den // common
            common = den
        total += num * (common // den)
    return Fraction(total, common)


def rounded_output(inst: RoundingInstance, coins: Dict[int, int]) -> List[int]:
    """Phase 1 with the coin of every participating node given in *coins*,
    then phase 2; the nodes that end at 1, ascending.

    A node's phase-1 value is 1 if its x is 1 or its coin succeeded, else 0;
    phase 2 raises a node to 1 iff c > 0 and N[v] holds no phase-1 1.
    DomainError unless *coins* names exactly the participating nodes.
    """
    wrong = sorted(coins.keys() ^ set(inst.participating()))
    if wrong:
        raise DomainError(
            "coins must be given for exactly the participating nodes; "
            f"not so at {wrong}"
        )
    one = inst.one
    ones = {v for v, xv in inst.x.items() if xv == one or coins.get(v)}
    adj, c = inst.graph.adj, inst.c
    return [
        v for v in range(inst.graph.n)
        if v in ones or (c[v] and ones.isdisjoint(adj[v]))
    ]


def derandomize(
    inst: RoundingInstance, order: Sequence[int]
) -> Tuple[List[int], List[Tuple[int, Fraction, Fraction, int]], Fraction]:
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

    Returns the chosen nodes ascending, the ``(node, s0, s1, coin)``
    decisions in order, and the exact initial expectation.
    """
    n = max(inst.graph.n, 2)
    unit = Fraction(1, n**10)
    x, one = inst.x, inst.one
    coins: Dict[int, int] = {}
    initial = expected_output_size(inst, coins)
    decisions: List[Tuple[int, Fraction, Fraction, int]] = []
    for v in order:
        if v in coins or not 0 < x.get(v, 0) < one:
            raise DomainError(f"node {v} has no undecided coin to fix")
        affected = inst.graph.closed_neighbors(v)
        coins[v] = 0
        s0 = branch_sum(inst, coins, affected, unit)
        coins[v] = 1
        s1 = branch_sum(inst, coins, affected, unit)
        coin = 1 if s1 < s0 else 0
        coins[v] = coin
        decisions.append((v, s0, s1, coin))
    chosen = rounded_output(inst, coins)
    # every output value is 0 or 1 and every c <= one, so c(v) is met
    # exactly when c(v) = 0 or N[v] holds a chosen node
    picked = set(chosen)
    bad = [
        v for v in range(inst.graph.n)
        if inst.c[v] and picked.isdisjoint(inst.graph.closed_neighbors(v))
    ]
    if bad:
        raise InvariantViolation(f"derandomized output violates constraints at {bad}")
    if len(chosen) > initial + Fraction(1, n**7):
        raise InvariantViolation(
            f"output size {len(chosen)} exceeds expectation {initial} + 1/n^7"
        )
    return chosen, decisions, initial
