"""Abstract randomized rounding and exact conditional-expectation oracles.

Phase 1 scales each node's value to x(v)/p(v) with probability p(v) (else 0);
phase 2 puts every node whose constraint is still unsatisfied at value 1.
:func:`derandomize` fixes the coins one at a time, by the method of
conditional expectations, in the order a derandomizer gives; the two
derandomizers differ only in that order and its round cost.
:class:`IndependentCoinLaw` holds every coin's state, and the engine here
computes exact conditional expectations given its fixes: in closed form
where one successful coin covers a node (every one-shot instance), and
otherwise by a dynamic program over neighborhood sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import (
    DomainError,
    EnumerationBudgetError,
    InvariantViolation,
    PrecisionError,
    PreconditionError,
)
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

#: sentinel for neighborhood sums that already reached the constraint
SAT = "sat"

#: the neighborhood DP raises EnumerationBudgetError beyond this many states
#: (a one-shot instance holds at most 4)
MAX_DP_STATES = 1 << 24


@dataclass
class RoundingInstance:
    """One rounding step: host graph plus per-node value, probability, constraint.

    The host's node count sets the fixed-point width ``iota`` for
    quantization.
    """

    graph: Graph
    x: Dict[int, Fraction]
    p: Dict[int, Fraction]
    c: Dict[int, Fraction]

    def __post_init__(self):
        self.x = as_fractions(self.x)
        self.p = as_fractions(self.p)
        self.c = as_fractions(self.c)
        nodes = set(range(self.graph.n))
        if set(self.x) != nodes or set(self.p) != nodes or set(self.c) != nodes:
            raise DomainError("x, p, c must cover exactly the host graph's nodes")
        self.iota = iota_for(max(self.graph.n, 2))
        one = 1 << self.iota
        # every value in integer units of 2**-iota, which every expectation
        # reads, so they are computed once
        x_units: Dict[int, int] = {}
        self.p_units: Dict[int, int] = {}
        self.c_units: Dict[int, int] = {}
        for v in range(self.graph.n):
            xv, pv = self.x[v], self.p[v]
            if pv.numerator * xv.denominator < xv.numerator * pv.denominator:
                raise DomainError(f"p({v}) = {pv} < x({v}) = {xv}")
            for label, val, units in (
                ("x", xv, x_units),
                ("p", pv, self.p_units),
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
        # the phase-1 success value x/p, capped at 1 and rounded up to the grid
        self.ratio_units = {
            v: min(one, -((-xu * one) // self.p_units[v])) if xu else 0
            for v, xu in x_units.items()
        }
        # what a node with p in {0, 1} contributes without a coin
        self.det_units = {
            v: r if self.p_units[v] == one else 0
            for v, r in self.ratio_units.items()
        }
        self._ratio = {v: Fraction(r, one) for v, r in self.ratio_units.items()}

    def participating(self) -> List[int]:
        """Nodes with 0 < p < 1: the ones whose coin matters."""
        one = 1 << self.iota
        return [v for v, pu in self.p_units.items() if 0 < pu < one]

    def ratio(self, v: int) -> Fraction:
        """The phase-1 success value x(v)/p(v), capped at 1 and quantized up."""
        return self._ratio[v]

    def deterministic_value(self, v: int) -> Fraction:
        """Phase-1 value of a non-participating node (p in {0, 1})."""
        return Fraction(self.det_units[v], 1 << self.iota)


def phase1(inst: RoundingInstance, coins: Dict[int, int]) -> Dict[int, Fraction]:
    """Apply the coin outcomes: X_v = x(v)/p(v) on success, 0 on failure."""
    one = 1 << inst.iota
    X: Dict[int, Fraction] = {}
    for v in range(inst.graph.n):
        # a zero ratio means x = 0 (or p = 0, which forces x = 0)
        if not inst.ratio_units[v]:
            X[v] = ZERO
        elif inst.p_units[v] == one:
            X[v] = inst.ratio(v)
        else:
            if v not in coins:
                raise DomainError(f"participating node {v} has no coin")
            X[v] = inst.ratio(v) if coins[v] else ZERO
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


def _check_stage(graph: Graph, xprime: CFDS, r: int, label: str) -> None:
    """PreconditionError unless every positive value of x' is at least 1/r
    and *graph* has an edge: what every rounding stage needs of its input."""
    for v, val in xprime.x.items():
        if val > 0 and val < Fraction(1, r):
            raise PreconditionError(
                f"{label}: x'({v}) = {val} below the required fractionality 1/{r}"
            )
    if graph.delta_tilde < 2:
        raise PreconditionError(f"{label} rounding needs at least one edge")


def scale_values(
    xprime: CFDS, factor: Fraction, ambient_n: int, r: Optional[int] = None
) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
    """Scaled values and coin probabilities of a rounding step.

    x(v) = factor * x'(v), set to 1 when it reaches 1 and otherwise quantized
    up at the width of *ambient_n*.  Without *r* (one-shot) p = x; with *r*
    (factor-two) values below 2/r double with probability 1/2 and the rest
    keep p = 1.
    """
    one = 1 << iota_for(max(ambient_n, 2))
    x: Dict[int, Fraction] = {}
    p: Dict[int, Fraction] = {}
    for v, val in xprime.x.items():
        num = factor.numerator * val.numerator
        den = factor.denominator * val.denominator
        x[v] = ONE if num >= den else Fraction(-((-num * one) // den), one)
        if r is None:
            p[v] = x[v]
        else:
            p[v] = Fraction(1, 2) if x[v] < Fraction(2, r) else ONE
    return x, p


def one_shot_instance(graph: Graph, xprime: CFDS) -> RoundingInstance:
    """Scale values by ln(max inclusive-neighborhood size) and set p = x."""
    delta_tilde = graph.delta_tilde
    if delta_tilde < 2:
        raise DomainError(
            f"one-shot rounding needs max inclusive neighborhood >= 2, got {delta_tilde}"
        )
    x, p = scale_values(xprime, ln_upper(delta_tilde), graph.n)
    return RoundingInstance(graph=graph, x=x, p=p, c=dict(xprime.c))


def factor_two_instance(
    graph: Graph, xprime: CFDS, eps, r: int
) -> RoundingInstance:
    """Scale values by (1+eps); nodes below 2/r double with probability 1/2."""
    if r < 1:
        raise DomainError(f"fractionality parameter r must be >= 1, got {r}")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    x, p = scale_values(xprime, 1 + eps, graph.n, r)
    return RoundingInstance(graph=graph, x=x, p=p, c=dict(xprime.c))


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
    given what is fixed so far.  Before any fix it is p(v) as a multiple of
    2**-b; a fixed coin reads (1, 1) or (0, 1).  Derandomizers fix coins in
    place and try a branch by saving a node's :meth:`state` and restoring it
    afterwards.
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


def _neighborhood_states(
    inst: RoundingInstance, law: IndependentCoinLaw, center: int
) -> Tuple[Dict[Tuple[Optional[int], Any], int], int]:
    """Joint law of (center's coin, capped inclusive-neighborhood sum).

    Returns ``(states, denom)``: state ``(coin, sum)`` has probability
    ``states[state] / denom`` given the law's fixes.  Sums are integers in
    units of 2**-iota, tracked exactly up to c(center); anything at or above
    the constraint collapses into the ``SAT`` state.  Resolved coins join
    the fixed base sum; each live coin of the closed neighborhood is one step
    of a dynamic program over the states.  All arithmetic is on integers, so
    the result is exact.  More than ``MAX_DP_STATES`` states raise
    EnumerationBudgetError.
    """
    cap = inst.c_units[center]
    heads = law.heads
    base = 0
    center_coin: Optional[int] = None
    live: List[Tuple[int, int, int]] = []
    for w in inst.graph.closed_neighbors(center):
        if w not in heads:
            base += inst.det_units[w]
            continue
        good, width = heads[w]
        if 0 < good < width:
            live.append((w, good, width))
            continue
        if good:
            base += inst.ratio_units[w]
        if w == center:
            center_coin = 1 if good else 0

    states: Dict[Tuple[Optional[int], Any], int] = {
        (center_coin, SAT if base >= cap else base): 1
    }
    denom = 1
    for w, good, width in live:
        add = inst.ratio_units[w]
        nxt: Dict[Tuple[Optional[int], Any], int] = {}
        for (cc, s), num in states.items():
            for coin, weight in ((1, good), (0, width - good)):
                new_cc = coin if w == center else cc
                if s is SAT or (coin and s + add >= cap):
                    state = (new_cc, SAT)
                else:
                    state = (new_cc, s + add if coin else s)
                nxt[state] = nxt.get(state, 0) + num * weight
        states = nxt
        denom *= width
        if len(states) > MAX_DP_STATES:
            raise EnumerationBudgetError(
                f"neighborhood of node {center} holds {len(states)} DP states "
                f"(limit {MAX_DP_STATES})"
            )
    return states, denom


def exact_uncover_prob(
    inst: RoundingInstance, law: IndependentCoinLaw, v: int
) -> Fraction:
    """Pr(v's inclusive-neighborhood phase-1 sum falls short of c(v))."""
    states, denom = _neighborhood_states(inst, law, v)
    return Fraction(
        sum(num for (cc, s), num in states.items() if s is not SAT), denom
    )


def conditional_expected_value(
    inst: RoundingInstance, law: IndependentCoinLaw, u: int
) -> Fraction:
    """E[Z_u] where Z_u = 1 if u ends phase 1 uncovered, else X_u.

    If every live coin of N[u] reaches c(u) on its own when it succeeds, as
    in every one-shot instance (p = x makes each ratio 1, and c <= 1), u is
    uncovered exactly when the resolved base sum falls short and every live
    coin fails, and E[Z_u] has a closed form in the coins' (good, width).
    Otherwise the neighborhood DP computes it.
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
            if ratio_units[w] < cap:
                break  # one success may not cover u: take the DP
            miss *= width - good
            den *= width
        elif good:
            base += ratio_units[w]
    else:
        # in units of 2**-iota over den: an uncovered u counts 1, a covered
        # one X_u
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
    states, denom = _neighborhood_states(inst, law, u)
    fallback = inst.det_units[u]
    ratio = ratio_units[u]
    total = 0
    for (cc, s), num in states.items():
        if s is not SAT:
            total += num * one
        else:
            xu = fallback if cc is None else (ratio if cc else 0)
            total += num * xu
    return Fraction(total, denom * one)


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
        {v: inst.p[v] for v in inst.participating()}, b=inst.iota
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
