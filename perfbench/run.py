#!/usr/bin/env python3
"""Layered end-to-end benchmark of colourcontract.

    python3 perfbench/run.py --workload er-c4 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's input is generated
from ``--seed`` under ``perfbench/out/``; the package is imported from the
checkout's ``src/`` and driven in-process; every output is checked.  The run
prints one metric per line and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
It also writes a result file (and, when traced, its spans) to
``perfbench/out/results/``.

Exit codes: 0 when every output was correct, 1 when an operation failed,
2 on a usage error or when the checkout has no importable package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import describe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = {
    "cli_contract_ms": "ms",
    "contract_ms": "ms",
    "verify_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph_io.parse_graph.ms": "ms",
    "graph_io.bytes_in": "bytes",
    "graph_io.serialize_graph.ms": "ms",
    "graph_io.bytes_out": "bytes",
    "graph.new_graph.ms": "ms",
    "graph.validate.ms": "ms",
    "engine.build_functional_digraph.ms": "ms",
    "engine.same_colour_arcs": "count",
    "engine.project_to_roots.ms": "ms",
    "engine.forest_depth_max": "count",
    "engine.compact_mapping.ms": "ms",
    "engine.clusters_max": "count",
    "engine.apply_contraction.ms": "ms",
    "engine.arcs_in": "count",
    "engine.arcs_out": "count",
    "engine.merge_keep_ratio": "ratio",
    "engine.fixpoint_check.ms": "ms",
    "engine.contract_to_fixpoint.ms": "ms",
    "engine.rounds": "count",
    "engine.stats_coverage": "ratio",
    "engine.equivalent_contractions.ms": "ms",
    "oracle.colour_partition.ms": "ms",
    "oracle.colour_component.calls": "count",
    "graph.colour_neighbourhood_set.calls": "count",
    "generators.gen_erdos_renyi.ms": "ms",
    "generators.assign_random_colours.ms": "ms",
    "worstcase.generate_fib_instance.ms": "ms",
    "cli.run_cli.ms": "ms",
    "trace.overhead_pct": "%",
}

# engine counters come from the round's traced library contract alone
CONTRACT_COUNTERS = ("same_colour_arcs", "forest_depth_max", "clusters_max", "arcs_in", "arcs_out", "rounds")


def _import_package():
    """Import colourcontract from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import colourcontract

    if Path(colourcontract.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"colourcontract was found at {colourcontract.__file__}, not under {src}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def end_to_end_metrics(session) -> tuple[dict, dict, dict]:
    """Gated metrics (medians of the calibrated samples), and the full
    description of every timing, calibrated and as raw wall time."""
    scale = {"cli_contract_ms": ("cli_contract", 1e3), "contract_ms": ("contract", 1e3),
             "verify_ms": ("verify", 1e3), "setup_s": ("setup", 1.0)}
    metrics, timings, wall = {}, {}, {}
    for name, (op, factor) in scale.items():
        values = [v * factor for v in session.samples[op]]
        timings[name] = describe(values) if values else None
        wall[name] = describe([v * factor for v in session.wall[op]]) if values else None
        metrics[name] = timings[name]["median"] if values else None
    metrics["peak_rss_mb"] = session.peak_rss_mb
    return metrics, timings, wall


def per_layer_metrics(session) -> tuple[dict, list[str]]:
    """Median over traced rounds of each per-layer quantity, and the trace's
    accounting errors and round-count mismatches."""
    tracer = session.tracer
    self_ns, errors = tracer.self_times()
    calls = tracer.call_counts()
    per_round = []
    for r in range(session.round):
        ids = [i for i, (_, round_no) in enumerate(tracer.ops) if round_no == r]
        contract_ids = [i for i in ids if tracer.ops[i][0] == "contract"]
        if not contract_ids:
            continue
        contract = tracer.counters[contract_ids[0]]
        if session.reference is not None and contract["rounds"] != session.reference.iterations:
            errors.append(f"round {r} saw {contract['rounds']} rounds, expected {session.reference.iterations}")
        values = {}
        for name in PER_LAYER:
            if name.endswith(".ms"):
                span = name[: -len(".ms")]
                values[name] = sum(self_ns[i].get(span, 0) for i in ids) / 1e6
            elif name.endswith(".calls"):
                span = name[: -len(".calls")]
                values[name] = sum(calls[i].get(span, 0) for i in ids)
        values["graph_io.bytes_in"] = sum(tracer.counters[i]["bytes_in"] for i in ids)
        values["graph_io.bytes_out"] = sum(tracer.counters[i]["bytes_out"] for i in ids)
        for key in CONTRACT_COUNTERS:
            values[f"engine.{key}"] = contract[key]
        values["engine.merge_keep_ratio"] = contract["arcs_out"] / contract["arcs_in"] if contract["arcs_in"] else 0.0
        values["engine.stats_coverage"] = contract["stats_wall_ms"] / contract["outer_wall_ms"]
        per_round.append(values)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name != "trace.overhead_pct":
            # counts keep an observed value; times take the plain median
            pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
            metrics[name] = pick([v[name] for v in per_round]) if per_round else None
    traced, bare = session.samples["contract.traced"], session.samples["contract"]
    if traced and bare:
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(bare) - 1.0)
    else:
        metrics["trace.overhead_pct"] = None
    return metrics, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered end-to-end benchmark of colourcontract.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative; the ER edge seed (colours use seed + 1)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run giving per-layer metrics")
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be non-negative and --seconds in (0, 3600]")

    workload = WORKLOADS[args.workload]
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    return run(workload, args.seed, args.seconds, bool(args.trace), pins.get(workload.pin_key(args.seed), {}), OUT)


def run(workload, seed: int, seconds: float, traced: bool, pins: dict, out: Path) -> int:
    """Measure one workload, print its metrics and write its result file."""
    from harness import Session

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    workdir = out / "work" / f"{workload.name}-{seed}-{stamp}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    session = Session(workload, seed, workdir, pins)
    try:
        if traced:
            session.measure_traced(seconds)
        else:
            session.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    base = results / f"{workload.name}-seed{seed}-trace{int(traced)}-{stamp}"
    record = {
        "workload": workload.name,
        "definition": workload.definition(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
    }
    problems: list[str] = []
    if traced:
        (metrics, problems), units = per_layer_metrics(session), PER_LAYER
        session.tracer.write(base.with_name(base.name + "-spans.tsv.gz"))
        record["rounds"] = session.round
    else:
        (metrics, timings, wall), units = end_to_end_metrics(session), END_TO_END
        record["timings"] = timings
        record["wall_timings"] = wall
    failed = len(session.failures)
    correct = failed == 0 and not problems and all(v is not None for v in metrics.values())
    record.update(
        correct=correct,
        attempted=session.attempted,
        failed=failed,
        error_rate=failed / session.attempted,
        failures=session.failures,
        trace_problems=problems,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in session.failures + [f"trace: {p}" for p in problems[:20]]:
        print(f"FAILED {message}")
    for name, unit in units.items():
        line = f"{name}: {metrics[name]} {unit}"
        if not traced and record["timings"].get(name):
            t = record["timings"][name]
            line += f" (median of {len(t['samples'])}; q1 {t['q1']:.6g}, q3 {t['q3']:.6g}; tail {t['tail']};"
            line += f" wall median {record['wall_timings'][name]['median']:.6g})"
        print(line)
    print(f"error_rate: {record['error_rate']} ({failed} failed of {session.attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
