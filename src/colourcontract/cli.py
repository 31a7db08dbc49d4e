"""Command line front end.

Exit codes: 0 success, 1 validation or verification failure, 2 usage error.
``-`` stands for stdin on inputs and stdout on outputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .engine import ContractionMapping, apply_contraction, contract_to_fixpoint, equivalent_contractions
from .generators import RandomSpec, assign_random_colours, check_seed, gen_erdos_renyi, permute_enumeration
from .graph_io import export_dot, parse_graph, stats_json, text_blocks
from .oracle import colour_partition
from .worstcase import classify_roles, generate_fib_instance


def _read_text(path: str) -> bytes | str:
    """The input's bytes, undecoded: ``parse_graph`` reads them as UTF-8.
    A stdin with no byte buffer under it, such as ``io.StringIO``, gives its text."""
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces of a text one after another, as they come."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def _same_target(a: str, b: str) -> bool:
    """Both stdout, or two paths to one file."""
    return a == b if "-" in (a, b) else os.path.realpath(a) == os.path.realpath(b)


def _cmd_contract(args: argparse.Namespace) -> int:
    stats_target = args.stats if args.stats else ("-" if args.trace else None)
    graph_target = args.out
    if graph_target is None and stats_target != "-":
        graph_target = "-"
    # one stream or file cannot hold both the graph text and the JSON
    if graph_target is not None and stats_target is not None and _same_target(graph_target, stats_target):
        print(f"error: the graph and the statistics would both be written to {graph_target}", file=sys.stderr)
        return 2
    if args.permute_seed is not None:
        check_seed(args.permute_seed)
    g = parse_graph(_read_text(args.input))
    if args.permute_seed is not None:
        g, _ = permute_enumeration(g, args.permute_seed)
    final, trace = contract_to_fixpoint(g)
    if graph_target is not None:
        _write_text(graph_target, text_blocks(final))
    if stats_target is not None:
        _write_text(stats_target, [stats_json(g, final, trace, include_trace=args.trace)])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input))
    _write_text(args.out if args.out else "-", text_blocks(apply_contraction(g, colour_partition(g))))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # every seed is checked before any work, so a bad one prints no result
    for seed in args.seeds or []:
        check_seed(seed)
    g = parse_graph(_read_text(args.input))
    final, trace = contract_to_fixpoint(g)
    partition = colour_partition(g)
    ok = equivalent_contractions(g, final, trace, partition)
    print(f"base: {'equivalent' if ok else 'MISMATCH'} (iterations={trace.iterations}, blocks={partition.n_prime})")
    if args.seeds:
        base_blocks = ContractionMapping(n=g.n, n_prime=final.n, becomes=trace.total_map).fibre_minima
    for seed in args.seeds or []:
        h, perm = permute_enumeration(g, seed)
        final_h, trace_h = contract_to_fixpoint(h)
        ok_h = equivalent_contractions(h, final_h, trace_h, colour_partition(h))
        # original vertex v is vertex perm[v] of h
        blocks_h = ContractionMapping(n=g.n, n_prime=final_h.n, becomes=trace_h.total_map[perm])
        stable = np.array_equal(blocks_h.fibre_minima, base_blocks)
        ok = ok and ok_h and stable
        print(f"seed {seed}: {'equivalent' if ok_h else 'MISMATCH'}, partition {'stable' if stable else 'UNSTABLE'} under relabelling")
    print(f"verify: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_gen_fib(args: argparse.Namespace) -> int:
    inst = generate_fib_instance(args.level)
    if args.roles:
        sys.stdout.write(f"# level: {inst.level}\n# roles: {' '.join(inst.roles)}\n")
    _write_text("-", text_blocks(inst.graph))
    return 0


def _cmd_gen_random(args: argparse.Namespace) -> int:
    spec = RandomSpec(n=args.n, m=args.m, p=args.p, colours=args.colours, seed=args.seed)
    g = gen_erdos_renyi(spec)
    # colour draws use seed + 1 so the edge stream stays reproducible on its own
    g = assign_random_colours(g, spec.colours, spec.seed + 1)
    _write_text("-", text_blocks(g))
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input))
    roles = classify_roles(g) if args.roles else None
    sys.stdout.write(export_dot(g, role_labels=roles))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing reads it
    and never changes it."""
    parser = argparse.ArgumentParser(
        prog="colourcontract",
        description="Contract every connected monochromatic region of a vertex-coloured graph to a single vertex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contract = sub.add_parser("contract", help="iteratively contract a graph to its fixpoint")
    contract.add_argument("input", help="graph file, or - for stdin")
    contract.add_argument("--out", help="write the contracted graph here (- for stdout)")
    contract.add_argument("--stats", help="write run statistics JSON here (- for stdout)")
    contract.add_argument("--trace", action="store_true", help="include per-iteration vertex mappings in the statistics")
    contract.add_argument("--permute-seed", type=int, default=None, help="relabel vertices with this seed before contracting")
    contract.set_defaults(handler=_cmd_contract)

    oracle = sub.add_parser("oracle", help="contract with the naive traversal-based reference")
    oracle.add_argument("input", help="graph file, or - for stdin")
    oracle.add_argument("--out", help="write the contracted graph here (- for stdout)")
    oracle.set_defaults(handler=_cmd_oracle)

    verify = sub.add_parser("verify", help="cross-check the engine against the reference on one graph")
    verify.add_argument("input", help="graph file, or - for stdin")
    verify.add_argument("--seeds", type=int, nargs="+", default=None, help="also verify under these relabelling seeds")
    verify.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    fib = gen_sub.add_parser("fib", help="worst-case instance attaining the iteration bound")
    fib.add_argument("--level", type=int, required=True, help="family level (iterations needed to contract)")
    fib.add_argument("--roles", action="store_true", help="prepend per-vertex role labels as comments")
    fib.set_defaults(handler=_cmd_gen_fib)
    rand = gen_sub.add_parser("random", help="seeded random graph")
    rand.add_argument("--n", type=int, required=True)
    group = rand.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, default=None, help="exact edge count")
    group.add_argument("--p", type=float, default=None, help="per-pair edge probability")
    rand.add_argument("--colours", type=int, required=True, help="colours drawn uniformly with seed + 1")
    rand.add_argument("--seed", type=int, required=True)
    rand.set_defaults(handler=_cmd_gen_random)

    export = sub.add_parser("export-dot", help="emit DOT text for rendering")
    export.add_argument("input", help="graph file, or - for stdin")
    export.add_argument("--roles", action="store_true", help="style vertices by contraction role instead of colour id")
    export.set_defaults(handler=_cmd_export_dot)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
