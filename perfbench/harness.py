"""Workloads, timed operations and output checks of the layered benchmark.

The package is reached only through its public entry points, looked up on
the module at call time: ``cli.run_cli`` in-process, and the public functions
of ``engine``, ``graph``, ``graph_io``, ``generators`` and ``worstcase``.  The
traced run wraps those module attributes (see ``tracing``); the untraced run
times the same calls bare.

The host's speed drifts by up to 1.5x over minutes (neighbouring load on a
shared machine; CPU time tracks wall time, so it is not preemption).  Every
timed call is therefore bracketed by a fixed calibration kernel that does not
touch the package, and its sample is the call's wall time divided by the mean
of the two kernel times, scaled by ``CALIBRATION_REFERENCE_S``: milliseconds
at the reference host speed.  The raw wall times are kept beside them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from colourcontract import cli, engine, generators, graph, graph_io, worstcase

from tracing import Tracer

OPS = ("contract", "cli_contract", "verify")
SETUP_REPEATS = 3

# The calibration kernel's median time on the reference host (2 cores, Python
# 3.11.7, numpy 2.4.6); the samples are scaled by it so they read as milliseconds.
CALIBRATION_REFERENCE_S = 0.065
# Fixed inputs of the kernel, independent of the workload and its seed.
_CAL_RNG = np.random.default_rng(20240418)
_CAL_KEYS = _CAL_RNG.integers(0, 1 << 20, 200_000)
_CAL_TEXT = "\n".join(f"{a} {b}" for a, b in _CAL_RNG.integers(0, 50_000, (40_000, 2)).tolist())


def calibration_seconds() -> float:
    """Wall time of a fixed mix of the work the package does: line parsing
    into Python dicts and sets, and a numpy sort, unique and bincount."""
    t0 = time.perf_counter()
    adjacency: dict[int, set[int]] = {}
    for line in _CAL_TEXT.splitlines():
        a, b = line.split()
        adjacency.setdefault(int(a), set()).add(int(b))
    order = np.argsort(_CAL_KEYS, kind="stable")
    _, counts = np.unique(_CAL_KEYS[order] >> 4, return_counts=True)
    np.bincount(counts)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """An Erdos-Renyi graph with n vertices and ceil(n ln n) edges, or a fib level."""

    name: str
    n: int = 0
    colours: int = 1
    level: int | None = None

    @property
    def m(self) -> int:
        return math.ceil(self.n * math.log(self.n))

    def definition(self, seed: int) -> dict:
        if self.level is not None:
            return {"generator": "worstcase.generate_fib_instance", "level": self.level}
        return {"generator": "generators.gen_erdos_renyi + assign_random_colours", "n": self.n, "m": self.m,
                "colours": self.colours, "edge_seed": seed, "colour_seed": seed + 1}

    def pin_key(self, seed: int) -> str:
        """Key of this workload and seed in ``pins.json``; fib levels ignore the seed."""
        return self.name if self.level is not None else f"{self.name}@{seed}"

    def build(self, seed: int) -> graph.ColouredGraph:
        """The workload's graph for this seed, generated as ``colourcontract gen`` does."""
        if self.level is not None:
            return worstcase.generate_fib_instance(self.level).graph
        spec = generators.RandomSpec(n=self.n, m=self.m, colours=self.colours, seed=seed)
        # colour draws use seed + 1, as `gen random` does
        return generators.assign_random_colours(generators.gen_erdos_renyi(spec), self.colours, seed + 1)


# er-c4 contracts strongly (parse and I/O dominate), er-c64 weakly (the merge
# keeps almost every arc), fib22 is the paper's tight worst case (22 rounds).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("er-c4", n=50_000, colours=4),
        Workload("er-c64", n=50_000, colours=64),
        Workload("fib22", level=22),
    )
}


class OutputMismatch(Exception):
    """An operation returned, but its output is wrong."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Reference:
    final: graph.ColouredGraph
    sha256: str
    iterations: int


class Session:
    """One workload at one seed: its input file, timings, reference result and failures.

    ``pins`` maps "input"/"final" to the sha256 the outputs must have for this
    workload and seed, when they are pinned.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, pins: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        workdir.mkdir(parents=True, exist_ok=True)
        self.input_path = workdir / "input.txt"
        self.out_path = workdir / "final.txt"
        self.stats_path = workdir / "stats.json"
        self.tracer: Tracer | None = None
        self.round = 0
        self.attempted = 0
        self.failures: list[str] = []
        # calibrated seconds, by op (".traced" when traced), and the raw wall seconds
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.last: dict[str, float] = {}  # seconds of the latest call, by op, check included
        self.spent: dict[str, float] = defaultdict(float)  # seconds of all calls, by op, checks included
        self.graph: graph.ColouredGraph | None = None
        self.input_sha: str | None = None
        self.reference: Reference | None = None
        self.peak_rss_mb: float | None = None

    def _timed(self, kind: str, call, traced: bool):
        """Run ``call()`` once, bare or as a traced operation, between two runs of
        the calibration kernel; returns (result, (wall seconds, calibrated seconds))."""
        gc.collect()
        before = calibration_seconds()
        if traced:
            with self.tracer.op(kind, self.round) as root:
                result = call()
            elapsed = (root[2] - root[1]) / 1e9
        else:
            t0 = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - t0
        after = calibration_seconds()
        return result, (elapsed, elapsed * CALIBRATION_REFERENCE_S / ((before + after) / 2))

    def run(self, kind: str, traced: bool = False) -> None:
        """One operation with its output check; a failure is recorded, not raised."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            wall, calibrated = getattr(self, "_" + kind)(traced)
        except Exception as exc:  # every failure is counted, the run goes on
            self.failures.append(f"{kind} #{self.attempted}: {type(exc).__name__}: {exc}")
        else:
            self.samples[f"{kind}.traced" if traced else kind].append(calibrated)
            self.wall[f"{kind}.traced" if traced else kind].append(wall)
        finally:
            self.last[kind] = time.perf_counter() - started
            self.spent[kind] += self.last[kind]

    def _setup(self, traced: bool) -> tuple[float, float]:
        def generate() -> graph.ColouredGraph:
            g = self.workload.build(self.seed)
            self.input_path.write_text(graph_io.serialize_graph(g), encoding="utf-8")
            return g

        g, times = self._timed("setup", generate, traced)
        text = self.input_path.read_text(encoding="utf-8")
        sha = sha256_text(text)
        if self.input_sha is None:
            _expect(self.pins.get("input", sha) == sha, f"input sha256 {sha} differs from the pinned one")
            parsed = graph_io.parse_graph(text)
            _expect(graph.graphs_equal(parsed, g), "input file does not parse back to the generated graph")
            self.input_sha, self.graph = sha, parsed
        _expect(sha == self.input_sha, "input generated from the same seed differs between repetitions")
        return times

    def _contract(self, traced: bool) -> tuple[float, float]:
        _expect(self.graph is not None, "no parsed input")
        (final, trace), times = self._timed("contract", lambda: engine.contract_to_fixpoint(self.graph), traced)
        sha = sha256_text(graph_io.serialize_graph(final))
        if self.reference is None:
            _expect(final.is_properly_coloured(), "final graph has an edge inside one colour")
            level = self.workload.level
            if level is not None:
                bound = engine.iteration_bound(self.graph.n)
                _expect(trace.iterations == level == bound, f"{trace.iterations} rounds, level {level}, bound {bound}")
                _expect(final.n == 1, f"worst case contracts to {final.n} vertices, not 1")
            _expect(self.pins.get("final", sha) == sha, f"final sha256 {sha} differs from the pinned one")
            self.reference = Reference(final, sha, trace.iterations)
        _expect(sha == self.reference.sha256, "final graph differs between repetitions")
        _expect(trace.iterations == self.reference.iterations, "round count differs between repetitions")
        return times

    def _cli_contract(self, traced: bool) -> tuple[float, float]:
        _expect(self.reference is not None, "no reference result")
        for path in (self.out_path, self.stats_path):
            path.unlink(missing_ok=True)
        argv = ["contract", str(self.input_path), "--out", str(self.out_path), "--stats", str(self.stats_path)]
        rc, times = self._timed("cli_contract", lambda: cli.run_cli(argv), traced)
        _expect(rc == 0, f"exit code {rc}")
        text = self.out_path.read_text(encoding="utf-8")
        _expect(sha256_text(text) == self.reference.sha256, "--out file differs from the library result")
        parsed = graph_io.parse_graph(text)
        _expect(graph.graphs_equal(parsed, self.reference.final), "--out file does not parse to the library result")
        _expect(parsed.is_properly_coloured(), "--out graph has an edge inside one colour")
        stats = json.loads(self.stats_path.read_text(encoding="utf-8"))
        ref = self.reference
        _expect(
            (stats["iterations"], stats["final_n"], stats["final_m"]) == (ref.iterations, ref.final.n, ref.final.m),
            f"--stats reports {stats['iterations']} rounds to n={stats['final_n']}, m={stats['final_m']}",
        )
        return times

    def _verify(self, traced: bool) -> tuple[float, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, times = self._timed("verify", lambda: cli.run_cli(["verify", str(self.input_path)]), traced)
        _expect(rc == 0 and "verify: OK" in out.getvalue(), f"verify exit {rc}: {out.getvalue()!r} {err.getvalue()!r}")
        return times

    def measure(self, seconds: float) -> None:
        """Untraced run: set up several times, then share ``seconds`` among the
        operations in proportion to the square root of their duration, so that a
        long operation gets fewer samples than a short one but not as few as an
        equal share of time would give it.  Every operation runs at least once;
        after that no operation starts that its last time says would end past
        the deadline."""
        for _ in range(SETUP_REPEATS):
            self.run("setup")
        deadline = time.perf_counter() + seconds
        for kind in OPS:  # the first contract gives the reference result
            self.run(kind)
        # peak RSS of one pass over the workload, before repetitions fragment the heap
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while True:
            fits = [k for k in OPS if time.perf_counter() + self.last[k] <= deadline]
            if not fits:
                break
            self.run(min(fits, key=lambda k: self.spent[k] / math.sqrt(self.last[k])))

    def measure_traced(self, seconds: float) -> None:
        """Traced run: whole rounds (set-up, traced and bare contract, CLI contract,
        verify) while the last round's time says the next one ends before the
        deadline; the bare contract gives the tracing overhead."""
        self.tracer = Tracer()
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            self.run("setup", traced=True)
            self.run("contract", traced=True)
            self.run("contract")
            self.run("cli_contract", traced=True)
            self.run("verify", traced=True)
            self.round += 1
            if 2 * time.perf_counter() - started > deadline:
                break
