#!/usr/bin/env python3
"""Measure iteration counts of the contraction engine on sparse random graphs.

For each seed the script samples an Erdos-Renyi graph with n vertices and
m = ceil(n ln n) edges, optionally sprinkles random colours over it, runs the
engine to its fixpoint, and records how many iterations that took and how
long each one ran.  The summary compares the observed counts against the
golden-ratio iteration bound, which is the worst case over all graphs of
that order.

Example:
    python3 scripts/iteration_experiment.py --n 50000 --seeds 20
    python3 scripts/iteration_experiment.py --n 20000 --colour-counts 1 2 4
"""

import argparse
import json
import math
import sys
import time

from colourcontract import (
    RandomSpec,
    assign_random_colours,
    contract_to_fixpoint,
    gen_erdos_renyi,
    iteration_bound,
)


def run_condition(n: int, m: int, colours: int, seeds: range) -> dict:
    runs = []
    for seed in seeds:
        g = gen_erdos_renyi(RandomSpec(n=n, m=m, seed=seed))
        if colours > 1:
            g = assign_random_colours(g, colours, seed=seed + 1)
        t0 = time.perf_counter()
        final, trace = contract_to_fixpoint(g)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        runs.append(
            {
                "seed": seed,
                "iterations": trace.iterations,
                "final_n": final.n,
                "final_m": final.m,
                "wall_time_ms": round(wall_ms, 3),
                "per_iteration_n": [r.n_prime for r in trace.per_iteration],
            }
        )
    counts = [r["iterations"] for r in runs]
    return {
        "n": n,
        "m": m,
        "colours": colours,
        "runs": runs,
        "summary": {
            "min_iterations": min(counts),
            "max_iterations": max(counts),
            "mean_iterations": round(sum(counts) / len(counts), 3),
            "mean_wall_time_ms": round(sum(r["wall_time_ms"] for r in runs) / len(runs), 3),
            "iteration_bound": iteration_bound(n),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000, help="vertex count per graph")
    parser.add_argument(
        "--m",
        type=int,
        default=None,
        help="edge count per graph (default: ceil(n ln n))",
    )
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds, starting at 0")
    parser.add_argument(
        "--colour-counts",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="palette sizes to test; 1 means every vertex shares one colour",
    )
    parser.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    if args.n < 1 or args.seeds < 1:
        parser.error("--n and --seeds must be positive")
    if min(args.colour_counts) < 1:
        parser.error("--colour-counts must be positive")
    m = args.m if args.m is not None else math.ceil(args.n * math.log(args.n))
    max_pairs = args.n * (args.n - 1) // 2
    if not 0 <= m <= max_pairs:
        parser.error(f"edge count {m} must be in [0, {max_pairs}] for n = {args.n}; set --m")

    conditions = [
        run_condition(args.n, m, colours, range(args.seeds))
        for colours in args.colour_counts
    ]
    report = {
        "n": args.n,
        "m": m,
        "seeds": args.seeds,
        "iteration_bound": iteration_bound(args.n),
        "conditions": conditions,
    }
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        for cond in conditions:
            s = cond["summary"]
            print(
                f"colours={cond['colours']}: iterations "
                f"{s['min_iterations']}..{s['max_iterations']} "
                f"(mean {s['mean_iterations']}, bound {s['iteration_bound']}), "
                f"mean wall {s['mean_wall_time_ms']:.0f} ms"
            )
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
