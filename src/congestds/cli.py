"""Command-line interface: pipelines, oracles, generators, verification."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .errors import (
    CongestDSError,
    DomainError,
    InvariantViolation,
    StructuralError,
)
from .graph import format_graph, load_graph
from .oracles import CDS_CAP, brute_force_cds, brute_force_mds
from .cds import undominated
from .generators import generate_graph
from .pipeline import (
    DEFAULT_OPT_CAP,
    run_cds,
    run_mds_delta,
    run_mds_n,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_PRECONDITION = 3


def _exact_number(text: str) -> Fraction:
    """An exact rational from a decimal or p/q string."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument(
        "--epsilon", type=_exact_number, default=Fraction(1, 2),
        help="approximation parameter in (0, 1], e.g. 0.1 or 1/3",
    )
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--opt-cap", type=int, default=DEFAULT_OPT_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestds",
        description="Deterministic distributed dominating-set approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("mds-n", "mds-delta", "cds"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("oracle")
    p.add_argument("kind", choices=("mds", "cds"))
    p.add_argument("--input", required=True)
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--opt-cap", type=int, default=DEFAULT_OPT_CAP)

    p = sub.add_parser("gen")
    p.add_argument(
        "kind", choices=("path", "cycle", "star", "grid", "gnp", "petersen")
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("verify")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--set", required=True, dest="node_set",
        help="comma-separated node ids to check",
    )
    p.add_argument("--connected", action="store_true", help="also require connectivity")
    p.add_argument("--report", choices=("json", "text"), default="text")

    return parser


def _emit_report(report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text(), end="")


def _cmd_pipeline(args) -> int:
    graph = load_graph(args.input)
    runner = {"mds-n": run_mds_n, "mds-delta": run_mds_delta, "cds": run_cds}[
        args.command
    ]
    result, report = runner(graph, args.epsilon, opt_cap=args.opt_cap)
    report.extras["nodes"] = result
    _emit_report(report, args.report)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    graph = load_graph(args.input)
    if args.kind == "mds":
        size, witness = brute_force_mds(graph, cap=args.opt_cap)
    else:
        size, witness = brute_force_cds(graph, cap=min(args.opt_cap, CDS_CAP))
    obj = {"kind": args.kind, "size": size, "witness": witness}
    if args.report == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{args.kind} optimum: {size} (witness {witness})")
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = {
        key: getattr(args, key)
        for key in ("n", "m", "p", "rows", "cols")
        if getattr(args, key) is not None
    }
    graph = generate_graph(args.kind, params, seed=args.seed)
    text = format_graph(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = load_graph(args.input)
    try:
        nodes = sorted({int(tok) for tok in args.node_set.split(",") if tok.strip()})
    except ValueError as exc:
        raise DomainError(f"bad node list {args.node_set!r}") from exc
    for v in nodes:
        if not 0 <= v < graph.n:
            raise DomainError(f"node {v} out of range for n={graph.n}")
    dominating = not undominated(graph, nodes)
    connected = graph.subgraph_is_connected(nodes) if nodes else False
    ok = dominating and (connected or not args.connected)
    obj = {
        "dominating": dominating,
        "connected": connected,
        "ok": ok,
        "size": len(nodes),
    }
    if args.report == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(
            f"size={len(nodes)} dominating={dominating} connected={connected} ok={ok}"
        )
    return EXIT_OK if ok else EXIT_INVARIANT


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("mds-n", "mds-delta", "cds"):
            return _cmd_pipeline(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise DomainError(f"unknown command {args.command}")
    except (InvariantViolation, StructuralError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CongestDSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
