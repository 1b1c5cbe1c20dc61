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
its coin from x.  :class:`CoinState` holds each node's closed form given
those fixes: the resolved 1s of N[u], and the product and number of its
live coins' failure chances.  :func:`conditional_expected_value` reads one
exact conditional expectation from it in O(1), as an integer numerator over
a power of two; fixing coin v updates only the states in N[v], so deciding
a coin costs O(|N[v]|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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


class CoinState:
    """The closed-form coin state of every node, given the coins in *fixed*.

    A node absent from *fixed* holds a live coin iff 0 < x < one; it
    succeeds with probability x/one.  ``own[v]`` is v's chance of ending
    phase 1 at 1, in units: x for a live coin, else one or 0.  For each
    node u, ``ones[u]`` counts the resolved 1s of N[u], plus one if
    c(u) = 0 (such a u is never uncovered); ``miss[u]`` is the product of
    one - x over the live coins of N[u], and ``k[u]`` their number, so
    Pr(every live coin of N[u] fails) = miss / one**k.  :meth:`fix`
    updates only N[v].
    """

    __slots__ = ("closed", "iota", "one", "own", "ones", "miss", "k")

    def __init__(self, inst: RoundingInstance, fixed: Dict[int, int]):
        x, c, one = inst.x, inst.c, inst.one
        self.closed = inst.graph.closed_neighbors
        self.iota, self.one = inst.iota, one
        nodes = range(inst.graph.n)
        own = self.own = [fixed[v] * one if v in fixed else x[v] for v in nodes]
        self.ones, self.miss, self.k = [], [], []
        for u in nodes:
            ones, miss, k = 0 if c[u] else 1, 1, 0
            for w in self.closed(u):
                p = own[w]
                if p == one:
                    ones += 1
                elif p:
                    miss *= one - p
                    k += 1
            self.ones.append(ones)
            self.miss.append(miss)
            self.k.append(k)

    def expected_size(self) -> Fraction:
        """Exact expected phase-2 output size, the sum of E[Z_u] over all
        nodes: each read is shifted onto the largest denominator,
        2**(iota * (max k + 1)), and one Fraction is built for the sum."""
        top = self.iota * (max(self.k, default=0) + 1)
        total = 0
        for u in range(len(self.k)):
            num, shift = conditional_expected_value(self, u)
            total += num << (top - shift)
        return Fraction(total, 1 << top)

    def fix(self, v: int, coin: int) -> None:
        """Fix live coin v to *coin*, in O(|N[v]|); the division is exact
        because one - x(v) is a factor of every ``miss`` it touches."""
        fail = self.one - self.own[v]
        self.own[v] = coin * self.one
        for u in self.closed(v):
            self.k[u] -= 1
            self.miss[u] //= fail
            self.ones[u] += coin


def conditional_expected_value(
    state: CoinState, u: int, v: Optional[int] = None, coin: int = 0
) -> Tuple[int, int]:
    """E[Z_u] as ``(num, shift)``, meaning num / 2**shift, where Z_u = 1 if
    u ends phase 1 uncovered, else X_u; with *v* given, live coin v of N[u]
    reads as set to *coin*.  O(1): it reads u's state only.

    A successful coin sets its node to 1, which meets c(u) <= 1 on its own,
    so u is uncovered exactly when ``ones[u]`` is 0 and every live coin of
    N[u] fails; then X_u = 0, so E[Z_u] = Pr(uncovered) + own[u] / one.
    """
    ones, miss, k, own = state.ones[u], state.miss[u], state.k[u], state.own[u]
    iota = state.iota
    if v is not None:
        k -= 1
        if u == v:
            own = coin << iota
        if coin:
            return own << (iota * k), iota * (k + 1)
        if not ones:
            miss //= state.one - state.own[v]
    shift = iota * k
    # over one**(k + 1): Pr(uncovered) * one + own * one**k
    return (0 if ones else miss << iota) + (own << shift), shift + iota


def branch_sum(state: CoinState, v: int, coin: int, scale: int) -> int:
    """Sum of E[Z_u] over u in N[v] with live coin v set to *coin*, each
    rounded up to a whole multiple of 1/*scale*, in units 1/*scale*: the
    quantity the derandomizers compare between the two branches of a coin.
    Each ceiling is a shift."""
    total = 0
    for u in state.closed(v):
        num, shift = conditional_expected_value(state, u, v, coin)
        total -= (-num * scale) >> shift
    return total


def expected_output_size(inst: RoundingInstance, fixed: Dict[int, int]) -> Fraction:
    """Exact expected phase-2 output size given the coins in *fixed*."""
    return CoinState(inst, fixed).expected_size()


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
    scale = n**10
    x, one = inst.x, inst.one
    coins: Dict[int, int] = {}
    state = CoinState(inst, coins)
    initial = state.expected_size()
    decisions: List[Tuple[int, Fraction, Fraction, int]] = []
    for v in order:
        if v in coins or not 0 < x.get(v, 0) < one:
            raise DomainError(f"node {v} has no undecided coin to fix")
        s0 = branch_sum(state, v, 0, scale)
        s1 = branch_sum(state, v, 1, scale)
        coin = 1 if s1 < s0 else 0
        state.fix(v, coin)
        coins[v] = coin
        decisions.append((v, Fraction(s0, scale), Fraction(s1, scale), coin))
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
