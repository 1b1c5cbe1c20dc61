"""Outside-in layer tracing of the congestds pipelines.

The program is not edited.  Each public function of a layer is replaced, for
the duration of a traced pass, by a wrapper installed in the module that
*calls* it, under the name that module looks it up by (``pipeline`` looks up
``initial_fds``, ``derand_cluster`` looks up ``conditional_expected_value``,
``lp_init`` looks up ``linprog`` ...).  A wrapper records a span -- name,
start, end, parent span and the operation it belongs to -- and the layer's
self time is the span's duration minus the time its child spans cover.

``rounding.conditional_expected_value`` runs hundreds of thousands of times
per pass, so its spans are aggregated per parent span (count and seconds)
instead of being kept one by one.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

EXPECTATION = "rounding.conditional_expected_value"

#: (module the call is made from, attribute looked up there, span name)
PATCHES: List[Tuple[str, str, str]] = [
    ("pipeline", "run_mds_n", "pipeline.run_mds_n"),
    ("pipeline", "initial_fds", "lp_init.initial_fds"),
    ("pipeline", "lp_fractional_opt", "lp_init.lp_fractional_opt"),
    ("lp_init", "lp_fractional_opt", "lp_init.lp_fractional_opt"),
    ("lp_init", "linprog", "lp_init.linprog"),
    ("pipeline", "brute_force_mds", "oracles.brute_force_mds"),
    ("pipeline", "n_one_shot", "derand_cluster.n_one_shot"),
    ("pipeline", "n_factor_two", "derand_cluster.n_factor_two"),
    ("derand_cluster", "derandomize_clusterwise", "derand_cluster.derandomize_clusterwise"),
    ("derand_cluster", "compute_decomposition", "decomp.compute_decomposition"),
    ("derand_cluster", "validate_decomposition", "decomp.validate_decomposition"),
    ("pipeline", "delta_one_shot", "derand_color.delta_one_shot"),
    ("pipeline", "delta_factor_two", "derand_color.delta_factor_two"),
    ("derand_color", "derandomize_colorwise", "derand_color.derandomize_colorwise"),
    ("derand_color", "greedy_distance2_coloring", "bipartite.greedy_distance2_coloring"),
    ("derand_color", "coloring_violations", "bipartite.coloring_violations"),
    ("derand_cluster", "conditional_expected_value", EXPECTATION),
    ("derand_color", "conditional_expected_value", EXPECTATION),
    ("rounding", "conditional_expected_value", EXPECTATION),
    ("derand_cluster", "expected_output_size", "rounding.expected_output_size"),
    ("derand_color", "expected_output_size", "rounding.expected_output_size"),
    ("pipeline", "build_cds", "cds.build_cds"),
    ("pipeline", "validate_cfds", "values.validate_cfds"),
    ("lp_init", "validate_cfds", "values.validate_cfds"),
    ("derand_cluster", "validate_cfds", "values.validate_cfds"),
    ("derand_color", "validate_cfds", "values.validate_cfds"),
]


def _closed_size(adj, nodes) -> int:
    affected = set(nodes)
    for w in nodes:
        affected.update(adj[w])
    return len(affected)


def expected_calls_clusterwise(inst, decomp, outcome) -> int:
    """Expectation calls implied by a cluster-ordered fix log.

    Each non-skipped bit compares two branches over the closed neighbourhood
    of the coins it feeds; the initial-expectation check adds one call per
    host node.
    """
    adj = inst.graph.adj
    calls = inst.graph.n if outcome.initial_expectation is not None else 0
    participating = set(inst.participating())
    members = {cl.leader: cl.members for cl in decomp.clusters}
    for fix in outcome.fixes:
        if fix.skipped:
            continue
        kind, ident = fix.group
        if kind == "coin":
            fed = [ident]
        else:
            fed = [v for v in members[fix.cluster] if v in participating]
        calls += 2 * _closed_size(adj, fed)
    return calls


def expected_calls_colorwise(inst, outcome) -> int:
    """Expectation calls implied by a color-ordered decision log."""
    adj = inst.graph.adj
    calls = inst.graph.n if outcome.initial_expectation is not None else 0
    for d in outcome.decisions:
        calls += 2 * (len(adj[d.node]) + 1)
    return calls


class Tracer:
    """Spans and counts of one traced pass at a time."""

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now  # the clock the spans are timed by, in seconds
        self.records: List[Dict] = []
        self.op: Tuple[int, int] = (0, 0)
        self._next_id = 1
        self._stack: List[List] = []  # [span id, seconds covered by children]
        # (parent span id, op) -> [count, seconds] of the expectation calls
        self._hot: Dict[Tuple[int, Tuple[int, int]], List] = {}
        self._targets: Optional[List[Tuple[object, str, Callable, Callable]]] = None
        self.reset()

    def reset(self) -> None:
        """Start the per-pass totals afresh (records are kept for the file)."""
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([span_id, 0.0])
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.now()
            _, children = self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_s[name] += duration - children
            self.total_s[name] += duration
            self.calls[name] += 1
            if name == EXPECTATION:
                agg = self._hot.setdefault((parent, self.op), [0, 0.0])
                agg[0] += 1
                agg[1] += duration
            else:
                self.records.append({
                    "id": span_id, "parent": parent, "name": name,
                    "op": list(self.op), "start": start, "end": end,
                })

    def _wrapper(self, name: str, fn: Callable, on_result: Optional[Callable]):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                start = self.now()
                on_result(args, result)
                # bookkeeping is not the caller's work: charge it to no layer
                if self._stack:
                    self._stack[-1][1] += self.now() - start
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def _resolve(self) -> List[Tuple[object, str, Callable, Callable]]:
        """(module, attribute, original, wrapper) for every patch that exists."""
        hooks = {
            "derand_cluster.derandomize_clusterwise": self._on_clusterwise,
            "derand_color.derandomize_colorwise": self._on_colorwise,
            "bipartite.greedy_distance2_coloring": self._on_coloring,
        }
        targets = []
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(f"congestds.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: congestds.{module_name}.{attr} not found; "
                      f"span {name} not recorded", file=sys.stderr)
                continue
            targets.append((module, attr, fn, self._wrapper(name, fn, hooks.get(name))))
        return targets

    def install(self) -> None:
        if self._targets is None:
            self._targets = self._resolve()
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._targets or ():
            setattr(module, attr, fn)

    def _on_clusterwise(self, args, outcome) -> None:
        inst, decomp = args[0], args[1]
        self.counts["bits_fixed"] += sum(1 for f in outcome.fixes if not f.skipped)
        self.counts["bits_skipped"] += sum(1 for f in outcome.fixes if f.skipped)
        self.counts["expected_calls"] += expected_calls_clusterwise(inst, decomp, outcome)

    def _on_colorwise(self, args, outcome) -> None:
        self.counts["decisions"] += len(outcome.decisions)
        self.counts["expected_calls"] += expected_calls_colorwise(args[0], outcome)

    def _on_coloring(self, args, coloring) -> None:
        self.counts["colors"] += coloring.num_colors

    # -- results ---------------------------------------------------------------

    def layer_times(self) -> Dict[str, float]:
        """Per-layer seconds of the current pass, named as in BENCHMARK.json."""
        def self_of(prefix: str) -> float:
            return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

        t = self.total_s
        return {
            "rounding.expectation_s": t[EXPECTATION],
            "rounding.initial_check_s": t["rounding.expected_output_size"],
            "lp_init.linprog_s": t["lp_init.linprog"],
            "lp_init.repair_s": self.self_s["lp_init.initial_fds"]
            + self.self_s["lp_init.lp_fractional_opt"],
            "oracles.brute_force_s": t["oracles.brute_force_mds"],
            "derand_cluster.self_s": self_of("derand_cluster."),
            "derand_color.self_s": self_of("derand_color."),
            "decomp.compute_s": t["decomp.compute_decomposition"],
            "decomp.validate_s": t["decomp.validate_decomposition"],
            "bipartite.coloring_s": t["bipartite.greedy_distance2_coloring"],
            "bipartite.validate_s": t["bipartite.coloring_violations"],
            "cds.build_s": t["cds.build_cds"],
            "values.validate_s": t["values.validate_cfds"],
            "pipeline.self_s": self_of("pipeline."),
        }

    def layer_counts(self) -> Dict[str, int]:
        c = self.counts
        return {
            "rounding.expectation_calls": self.calls[EXPECTATION],
            "lp_init.linprog_calls": self.calls["lp_init.linprog"],
            "oracles.brute_force_calls": self.calls["oracles.brute_force_mds"],
            "derand_cluster.bits_fixed": c["bits_fixed"],
            "derand_cluster.bits_skipped": c["bits_skipped"],
            "derand_color.decisions": c["decisions"],
            "bipartite.colors": c["colors"],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            for (parent, op), (count, seconds) in self._hot.items():
                fh.write(json.dumps({
                    "parent": parent, "name": EXPECTATION, "op": list(op),
                    "count": count, "seconds": seconds,
                }) + "\n")


def clear_program_caches() -> None:
    """Empty every functools cache in congestds, so that a traced pass over
    graphs the untraced pass already ran does the same work again."""
    for name, module in list(sys.modules.items()):
        if name == "congestds" or name.startswith("congestds."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
