"""End-to-end dominating-set pipelines and machine-readable run reports.

Both pipelines go from an LP-based fractional start straight to a one-shot
rounding to an integral set.  The n-parameterized variant derandomizes over
a network decomposition; the degree-parameterized variant over bipartite
colorings.

The paper puts fractionality-doubling ("factor-two") stages between the
two.  They were deleted: their precondition r >= 256 * eps^-3 * ln Delta~
is met by no input this library can hold (the LP start lifts every value to
at least eps1/(2 Delta), so r <= 2 Delta/eps1 + 1), and where they were
forced to run they shrank the widest covering set Delta_L only 1.4-1.7x
while each stage cost more than a whole degree-parameterized run.  The
one-shot stage absorbs the remaining gap.  So the degree-parameterized
scheme's charged coloring rounds are Theta(Delta * Delta_L), about
0.45 * Delta^2 on dense graphs, not the paper's O(Delta * polylog Delta).
The n-parameterized scheme's one-shot rounds are 3 per distance-2 class of
each decomposition color's private coins, not the paper's shared seed per
cluster; the in-cluster coloring this needs is charged.  On sparse graphs
the 2-hop decomposition is one cluster, and a 1 600-node sparse random graph
takes 47 rounds.

Each stage reports two round counts.  ``sim_rounds`` are the rounds of the
stages implemented here, counted by each stage's schedule formula, not by a
simulation.  ``charged_rounds`` are the rounds of the cited distributed
subroutines that run centrally here, each a formula computed where its
stage's result is built: the LP solver (``lp_init.lp_round_charge``), the
network decomposition (``decomp.decomposition_charge``), the distance-2
colorings of both schemes (``bipartite.coloring_round_cost``), and the ruling subset and
cluster spanner of the CDS extension (``cds.build_cds``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cds import build_cds, undominated
from .derand_cluster import n_one_shot
from .derand_color import delta_one_shot
from .errors import DomainError, InvariantViolation, PreconditionError
from .graph import Graph
from .lp_init import initial_fds, lp_fractional_opt, lp_round_charge
from .oracles import brute_force_mds
from .values import ONE, fractionality, iota_for, ln_upper

DEFAULT_OPT_CAP = 24


@dataclass
class PipelineParams:
    """Stage parameters derived from (graph, eps) per the pipeline schedule."""

    eps: Fraction
    eps1: Fraction
    delta_tilde: int

    @classmethod
    def from_graph(cls, graph: Graph, eps) -> "PipelineParams":
        eps = Fraction(eps)
        if eps <= 0 or eps > 1:
            raise DomainError(f"eps must be in (0, 1], got {eps}")
        eps1 = min(eps / 16, Fraction(1, 4))
        return cls(eps=eps, eps1=eps1, delta_tilde=graph.delta_tilde)


def _frac_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


@dataclass
class StageReport:
    name: str
    size: Fraction
    fractionality: Fraction
    sim_rounds: int
    charged_rounds: int

    def to_obj(self) -> Dict:
        return {
            "name": self.name,
            "size": _frac_str(self.size),
            "fractionality": _frac_str(self.fractionality),
            "sim_rounds": self.sim_rounds,
            "charged_rounds": self.charged_rounds,
        }


@dataclass
class RunReport:
    graph_n: int
    graph_m: int
    delta: int
    params: Dict
    stages: List[StageReport] = field(default_factory=list)
    final_size: int = 0
    opt: Optional[Fraction] = None
    ratio: Optional[Fraction] = None
    valid: bool = False
    connected: Optional[bool] = None
    extras: Dict = field(default_factory=dict)

    def to_obj(self) -> Dict:
        final: Dict = {
            "size": self.final_size,
            "opt": _frac_str(self.opt) if self.opt is not None else None,
            "ratio": _frac_str(self.ratio) if self.ratio is not None else None,
            "valid": self.valid,
        }
        if self.connected is not None:
            final["connected"] = self.connected
        final.update(self.extras)
        return {
            "graph": {"n": self.graph_n, "m": self.graph_m, "delta": self.delta},
            "params": self.params,
            "stages": [s.to_obj() for s in self.stages],
            "final": final,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"graph: n={self.graph_n} m={self.graph_m} delta={self.delta}",
            f"params: {self.params}",
        ]
        for s in self.stages:
            lines.append(
                f"stage {s.name}: size={float(s.size):.4f} "
                f"fractionality={float(s.fractionality):.5f} "
                f"rounds sim={s.sim_rounds} charged={s.charged_rounds}"
            )
        opt = "?" if self.opt is None else f"{float(self.opt):.4f}"
        ratio = "?" if self.ratio is None else f"{float(self.ratio):.4f}"
        lines.append(
            f"final: size={self.final_size} opt={opt} ratio={ratio} valid={self.valid}"
        )
        if self.connected is not None:
            lines.append(f"connected: {self.connected}")
        return "\n".join(lines) + "\n"


def _opt_estimate(
    graph: Graph, opt_cap: int
) -> Tuple[Fraction, str]:
    """Brute-force optimum when feasible, else an LP-based estimate.

    Above *opt_cap* the value is the size of the repaired fractional LP
    solution, labelled ``"lp-estimate"``; the run's LP start has already
    stored that solution on the graph, so it is not solved again.  The LP
    optimum is a lower bound on OPT and the repaired size sits at or slightly
    above it, so the estimate certifies neither a lower nor an upper bound on
    OPT.
    """
    if graph.n <= opt_cap:
        return Fraction(brute_force_mds(graph, cap=opt_cap)[0]), "brute-force"
    size = Fraction(sum(lp_fractional_opt(graph)), 1 << iota_for(graph.n))
    return size, "lp-estimate"


def _trivial_report(graph: Graph, params: PipelineParams) -> Tuple[List[int], RunReport]:
    """Edgeless graphs: every node must be chosen."""
    ds = list(range(graph.n))
    report = RunReport(
        graph_n=graph.n,
        graph_m=graph.num_edges,
        delta=graph.max_degree,
        params=_params_obj(params),
        final_size=len(ds),
        opt=Fraction(graph.n),
        ratio=ONE,
        valid=True,
        extras={"opt_kind": "brute-force"},
    )
    report.stages.append(
        StageReport("trivial", Fraction(len(ds)), ONE, 0, 0)
    )
    return ds, report


def _params_obj(params: PipelineParams) -> Dict:
    return {
        "eps": _frac_str(params.eps),
        "eps1": _frac_str(params.eps1),
        "delta_tilde": params.delta_tilde,
    }


def _assert_ratio(
    graph: Graph,
    ds_size: int,
    eps: Fraction,
    opt: Fraction,
) -> None:
    bound = (1 + eps) * (2 + ln_upper(max(graph.delta_tilde, 1))) * opt
    if Fraction(ds_size) > bound:
        raise InvariantViolation(
            f"dominating set of size {ds_size} exceeds the bound "
            f"(1+eps)(2+ln Delta~)*OPT = {float(bound):.4f}"
        )


def _run_mds(
    graph: Graph,
    eps,
    scheme: str,
    opt_cap: int,
) -> Tuple[List[int], RunReport]:
    if graph.n == 0:
        raise DomainError("empty graph")
    params = PipelineParams.from_graph(graph, eps)
    if graph.delta_tilde < 2:
        return _trivial_report(graph, params)
    report = RunReport(
        graph_n=graph.n,
        graph_m=graph.num_edges,
        delta=graph.max_degree,
        params=_params_obj(params),
    )

    # x' in units of 2**-iota(n)
    current = initial_fds(graph, params.eps1)
    one = 1 << iota_for(graph.n)
    frac = fractionality(current, one)
    charge = lp_round_charge(params.eps1, graph.max_degree)
    report.stages.append(
        StageReport("initial-lp", Fraction(sum(current), one), frac, 0, charge)
    )

    F_eff = max(1, math.ceil(1 / frac))
    if scheme == "n":
        ds, outcome = n_one_shot(graph, current, F_eff)
    else:
        ds, outcome = delta_one_shot(graph, current, F_eff)
    report.stages.append(
        StageReport(
            "one-shot",
            Fraction(len(ds)),
            ONE,
            outcome.simulated_rounds,
            outcome.charged_rounds,
        )
    )

    bad = undominated(graph, ds)
    report.valid = not bad
    if bad:
        raise InvariantViolation(f"final set not dominating at {bad}")
    opt, opt_kind = _opt_estimate(graph, opt_cap)
    report.opt = opt
    report.ratio = Fraction(len(ds)) / opt
    report.extras["opt_kind"] = opt_kind
    report.final_size = len(ds)
    _assert_ratio(graph, len(ds), params.eps, opt)
    return ds, report


def run_mds_n(
    graph: Graph,
    eps,
    opt_cap: int = DEFAULT_OPT_CAP,
) -> Tuple[List[int], RunReport]:
    """Full pipeline with cluster-ordered derandomization."""
    return _run_mds(graph, eps, "n", opt_cap)


def run_mds_delta(
    graph: Graph,
    eps,
    opt_cap: int = DEFAULT_OPT_CAP,
) -> Tuple[List[int], RunReport]:
    """Full pipeline with coloring-ordered derandomization on bipartite hosts."""
    return _run_mds(graph, eps, "delta", opt_cap)


def run_cds(
    graph: Graph,
    eps,
    opt_cap: int = DEFAULT_OPT_CAP,
) -> Tuple[List[int], RunReport]:
    """Dominating set via the n-pipeline, then connected extension."""
    if not graph.is_connected():
        raise PreconditionError("connected dominating sets need a connected graph")
    ds, report = run_mds_n(graph, eps, opt_cap=opt_cap)
    result = build_cds(graph, ds)
    report.stages.append(
        StageReport(
            "cds-extension",
            Fraction(len(result.sbar)),
            ONE,
            result.simulated_rounds,
            result.charged_rounds,
        )
    )
    report.final_size = len(result.sbar)
    report.connected = graph.subgraph_is_connected(result.sbar)
    report.valid = report.connected and not undominated(graph, result.sbar)
    report.extras["num_clusters"] = len(result.centers)
    report.extras["ds_size"] = len(ds)
    report.ratio = None
    report.opt = None
    del report.extras["opt_kind"]
    return result.sbar, report
