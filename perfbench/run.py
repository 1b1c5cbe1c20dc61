"""The congestds benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; ``congestds`` is imported from
``src/``.  A run repeats whole passes over the workload's operations (a fresh
set of graphs each pass) for about ``--seconds``, checks every output, and
prints one JSON object as its last line.  ``--trace 0`` reports
the end-to-end metrics, their times scaled to a nominal machine speed
(speed.py); ``--trace 1`` reports the per-layer ones.  See README.md in this
directory for the workloads, metrics and checks.
"""

import speed

# set-up is timed from the process's start to the first operation
CLOCK = speed.ScaledClock()
CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
EPS = Fraction(1, 2)
#: above this size the exact optimum is replaced by the packing lower bound
EXACT_OPT_MAX_N = 24
#: a run must end within this many seconds, the check in a second process too
RUN_LIMIT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.RECIPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run passes for about this long (at least one pass; "
                         "0: exactly one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Run:
    """Passes, timings and check results of one benchmark run."""

    def __init__(self, congestds, clock, tracer=None) -> None:
        self.Graph = congestds.Graph
        self.error_type = congestds.CongestDSError
        self.runners = {
            "n": ("pipeline.run_mds_n", congestds.run_mds_n),
            "delta": ("pipeline.run_mds_delta", congestds.run_mds_delta),
            "cds": ("pipeline.run_cds", congestds.run_cds),
        }
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.walls = []
        self.scaled_walls = []
        self.op_seconds = []  # scaled to nominal speed
        self.traced_walls = []
        self.layer_times = []
        self.expectation_calls = []
        self.first = {}  # pass-0 figures: peak RSS, set sizes, rounds, digest

    def _call(self, op, pass_index, i, traced=False):
        """One pipeline call on a freshly built graph; (seconds, seconds at
        nominal speed, output or None)."""
        name, fn = self.runners[op.pipeline]
        graph = self.Graph(op.n, op.edges)
        raw_before, scaled_before = self.clock.raw_s, self.clock.scaled_s
        self.clock.start()
        try:
            if traced:
                self.tracer.op = (pass_index, i)
                out = self.tracer.call(name, fn, graph, EPS)
            else:
                out = fn(graph, EPS)
        except self.error_type as exc:
            out = None
            self.failed += 1
            print(f"failed: pass {pass_index} op {i} {op.pipeline} {op.family} "
                  f"n={op.n}: {exc}", file=sys.stderr)
        finally:
            self.clock.stop()
        self.attempted += 1
        return self.clock.raw_s - raw_before, self.clock.scaled_s - scaled_before, out

    def _traced_call(self, op, pass_index, i):
        """The same call again with every layer wrapped; the program's caches
        are emptied first so that it does the same work again."""
        spans.clear_program_caches()
        self.tracer.install()
        try:
            return self._call(op, pass_index, i, traced=True)
        finally:
            self.tracer.uninstall()

    def run_pass(self, ops, pass_index) -> None:
        """Time one pass and check it.  With a tracer, each op runs untraced
        and then traced, back to back, so that both see the same machine load."""
        plain, traced = [], []
        if self.tracer is None:
            plain = [self._call(op, pass_index, i) for i, op in enumerate(ops)]
        else:
            self.tracer.reset()
            for i, op in enumerate(ops):
                plain.append(self._call(op, pass_index, i))
                traced.append(self._traced_call(op, pass_index, i))
            self.traced_walls.append(sum(s for _, s, _ in traced))
        self.walls.append(sum(t for t, _, _ in plain))
        self.scaled_walls.append(sum(s for _, s, _ in plain))
        outputs = [out for _, _, out in plain]
        self.op_seconds.extend(s for _, s, _ in plain)
        if pass_index == 0:
            # ru_maxrss keeps rising a little with every pass (by up to 10% on
            # sparse-delta), so read it where all runs did the same work
            done = [out for out in outputs if out is not None]
            self.first = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "set_size": sum(len(chosen) for chosen, _ in done),
                "sim_rounds": sum(s.sim_rounds for _, rep in done for s in rep.stages),
            }
        digest = self.check(ops, outputs, pass_index)
        if pass_index == 0:
            self.first["digest"] = digest
        if self.tracer is not None:
            self._check_trace(ops, [out for _, _, out in traced], digest, pass_index)

    def _check_trace(self, ops, outputs, digest, pass_index) -> None:
        tracer = self.tracer
        if self.check(ops, outputs, pass_index) != digest:
            self.errors.append(f"pass {pass_index}: traced run chose other sets")
        counted = tracer.calls[spans.EXPECTATION]
        if counted != tracer.counts["expected_calls"]:
            self.errors.append(
                f"pass {pass_index}: {counted} expectation calls, but the decision "
                f"and fix logs imply {tracer.counts['expected_calls']}")
        self.layer_times.append(tracer.layer_times())
        self.expectation_calls.append(counted)
        if pass_index == 0:
            self.first["layer_counts"] = tracer.layer_counts()

    def check(self, ops, outputs, pass_index) -> str:
        """Check every output against the benchmark's own computations;
        returns the digest of the chosen sets."""
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            chosen, report = out
            where = f"pass {pass_index} op {i} ({op.pipeline} {op.family} n={op.n})"
            adj = checks.adjacency(op.n, op.edges)
            if not checks.dominates(adj, chosen):
                self.errors.append(f"{where}: set does not dominate")
            if op.pipeline == "cds" and not checks.induces_connected(adj, chosen):
                self.errors.append(f"{where}: set does not induce a connected subgraph")
            if op.n <= EXACT_OPT_MAX_N:
                opt = checks.min_dominating_size(adj)
                bound = checks.approximation_bound(adj, EPS, opt)
                ds_size = report.extras["ds_size"] if op.pipeline == "cds" else len(chosen)
                if ds_size > bound:
                    self.errors.append(
                        f"{where}: dominating set of size {ds_size} exceeds "
                        f"(1+eps)(2+ln D~)*OPT = {bound:.3f} (OPT {opt})")
                if len(chosen) < opt:
                    self.errors.append(f"{where}: size {len(chosen)} below OPT {opt}")
                if report.opt is not None and report.extras.get("opt_kind") == "brute-force" \
                        and report.opt != opt:
                    self.errors.append(f"{where}: reported OPT {report.opt} != {opt}")
            else:
                lower = checks.packing_lower_bound(adj)
                if len(chosen) < lower:
                    self.errors.append(
                        f"{where}: size {len(chosen)} below the 2-packing bound {lower}")
        return checks.digest(None if out is None else out[0] for out in outputs)

    def end_to_end_metrics(self, setup_s: float):
        return {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(self.scaled_walls), "s"),
            "op_median_ms": metric(statistics.median(self.op_seconds) * 1000, "ms"),
            "peak_rss_mb": metric(self.first["peak_rss_mb"], "MB"),
            "set_size": metric(self.first["set_size"], "count"),
            "sim_rounds": metric(self.first["sim_rounds"], "count"),
        }

    def layer_metrics(self):
        """Times: per-pass means over the traced passes.  Counts: pass 0."""
        metrics = {
            name: metric(statistics.fmean(t[name] for t in self.layer_times), "s")
            for name in self.layer_times[0]
        }
        for name, value in self.first["layer_counts"].items():
            metrics[name] = metric(value, "count")
        metrics["rounding.expectation_us_per_call"] = metric(
            1e6 * sum(t["rounding.expectation_s"] for t in self.layer_times)
            / max(1, sum(self.expectation_calls)), "us")
        metrics["trace.overhead_s"] = metric(
            statistics.fmean(t - u for t, u in zip(self.traced_walls, self.scaled_walls)), "s")
        return metrics


def child_digest(workload: str, seed: int, hash_seed: str, timeout: float):
    """Pass-0 digest of the same workload and seed from a fresh process
    with another PYTHONHASHSEED (None if it fails or times out)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith("digest pass0 "):
            return line.split()[2]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("--seconds must be >= 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "congestds" / "__init__.py").is_file():
        print(f"congestds sources not found under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # single-threaded, as the benchmark is meant to be: otherwise BLAS starts
    # a worker thread per core at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import congestds

    run = Run(congestds, CLOCK, spans.Tracer(CLOCK.elapsed) if args.trace else None)
    seen = set()
    ops = inputs.make_pass(args.workload, args.seed, 0, seen)
    CLOCK.stop()
    setup_raw_s, setup_s = CLOCK.raw_s, CLOCK.scaled_s
    start = time.perf_counter()
    pass_index = 0
    while True:
        run.run_pass(ops, pass_index)
        pass_index += 1
        elapsed = time.perf_counter() - start
        # stop once another pass of average length would end more than half
        # a pass after --seconds, so that runs last about --seconds
        if elapsed + elapsed / pass_index / 2 >= args.seconds:
            break
        ops = inputs.make_pass(args.workload, args.seed, pass_index, seen)

    digest0 = run.first["digest"]
    print(f"digest pass0 {digest0}")
    if args.trace:
        hash_seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        other = child_digest(args.workload, args.seed, hash_seed,
                             max(1.0, RUN_LIMIT_S - speed.process_age()))
        if other != digest0:
            run.errors.append(
                f"pass-0 digest {digest0} differs under PYTHONHASHSEED={hash_seed}: {other}")
    metrics = run.layer_metrics() if args.trace else run.end_to_end_metrics(setup_s)

    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, raw_setup_s=setup_raw_s, pass_walls=run.walls,
                       scaled_pass_walls=run.scaled_walls, scaled_op_seconds=run.op_seconds,
                       traced_walls=run.traced_walls,
                       digest_pass0=digest0, errors=run.errors), fh, indent=1)
    if args.trace:
        run.tracer.write(RESULTS / f"{stem}-spans.jsonl")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        CLOCK.stop()  # set-up ends early where the arguments or sources are wrong
