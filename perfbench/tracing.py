"""Traced run: per-layer time of each hitsrank module, measured in process.

The layers are the package's modules. ``replica`` repeats one CLI
invocation's pipeline (argparse, file read, then the public calls into
``io``, ``graph``, ``hits`` and ``rank``, then output) with a span
around each public call, so a layer's self time is the span's duration
less the spans it encloses. The replica's stdout must equal the CLI's
byte for byte, which keeps it honest. The real ``hitsrank.cli.main``
runs beside it, untraced, for ``cli.main_s``; the same replica with
tracing off gives the tracing overhead. ``import_breakdown`` reads
``python -X importtime`` for the start-up cost every invocation pays.
"""

from __future__ import annotations

import importlib
import json
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from io import StringIO
from pathlib import Path

# public calls wrapped by the replica, one per-layer metric each
LAYER_CALLS = (
    "io.parse_matches",
    "io.parse_matrix",
    "io.parse_table",
    "io.emit_matrix",
    "io.emit_table",
    "io.table_object",
    "io.emit_comparison",
    "graph.build_adjacency",
    "graph.sort_teams",
    "hits.hits",
    "rank.points_table",
    "rank.rank_authority",
    "rank.rank_hub",
    "rank.compare_rankings",
)
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


@dataclass
class Solve:
    teams: int
    sweeps: int
    converged: bool
    capped: bool


@dataclass
class Tracer:
    """Spans kept in memory; ``invocation`` tags the spans of one call."""

    spans: list[Span] = field(default_factory=list)
    solves: list[Solve] = field(default_factory=list)
    invocation: int = 0
    _stack: list[int] = field(default_factory=list)

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.invocation)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def solve(self, teams: int, result, default_cap: int) -> None:
        # past the default cap, a `rank` run without --max-iters stops unconverged
        capped = not result.converged or result.iterations > default_cap
        self.solves.append(Solve(teams, result.iterations, result.converged, capped))

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


class NullTracer:
    """The replica's untraced mode: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def solve(self, teams, result, default_cap) -> None:
        pass


def replica(argv: list[str], t) -> str:
    """stdout of ``hitsrank <argv>``, rebuilt from the package's public calls."""
    return t.call(ROOT, _replica, argv, t)


def _replica(argv: list[str], t) -> str:
    # import_module, because the package re-exports a function named hits over its module
    cli, graph, hits, io, rank = (
        importlib.import_module(f"hitsrank.{name}") for name in ("cli", "graph", "hits", "io", "rank")
    )

    args = cli.build_parser().parse_args(argv)
    fmt = io.TableFormat[args.format.upper()] if hasattr(args, "format") else None
    if args.command == "compare":
        tables = [t.call("io.parse_table", io.parse_table, _read(p)) for p in (args.table_a, args.table_b)]
        report = t.call("rank.compare_rankings", rank.compare_rankings, *tables)
        return t.call("io.emit_comparison", io.emit_comparison, report, fmt, args.decimals)
    text = _read(args.input)
    if args.command == "points":
        matches = t.call("io.parse_matches", io.parse_matches, text)
        table = t.call(
            "rank.points_table", rank.points_table, matches,
            win_points=args.win_weight, draw_points=args.draw_weight,
        )
        return t.call("io.emit_table", io.emit_table, table, fmt, args.decimals)
    if args.command == "matrix" or args.input_kind == "matches":
        matches = t.call("io.parse_matches", io.parse_matches, text)
        m = t.call(
            "graph.build_adjacency", graph.build_adjacency, matches,
            win_weight=args.win_weight, draw_weight=args.draw_weight,
        )
        if args.sort_teams:
            m = t.call("graph.sort_teams", graph.sort_teams, m)
    else:
        m = t.call("io.parse_matrix", io.parse_matrix, text)
    if args.command == "matrix":
        return t.call("io.emit_matrix", io.emit_matrix, m)

    cfg = hits.SolverConfig(tolerance=args.tol, max_iterations=args.max_iters)
    result = t.call("hits.hits", hits.hits, m, cfg)
    t.solve(m.n, result, hits.SolverConfig().max_iterations)
    tables = []
    if args.which in ("authority", "both"):
        tables.append(("authority", t.call("rank.rank_authority", rank.rank_authority, result.authority, m.index)))
    if args.which in ("hub", "both"):
        order = rank.HubOrder.BEST_TEAM_FIRST if args.hub_order == "best-first" else rank.HubOrder.RAW_DESC
        tables.append(("hub", t.call("rank.rank_hub", rank.rank_hub, result.hub, m.index, order)))
    if len(tables) == 1:
        return t.call("io.emit_table", io.emit_table, tables[0][1], fmt, args.decimals)
    if fmt is io.TableFormat.JSON:
        objs = {name: t.call("io.table_object", io.table_object, table) for name, table in tables}
        return json.dumps(objs, indent=2) + "\n"
    blocks = [f"# {name}\n{t.call('io.emit_table', io.emit_table, table, fmt, args.decimals)}" for name, table in tables]
    return "\n".join(blocks)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def run_main(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """``hitsrank.cli.main(argv)`` in process: exit code, stdout, stderr, seconds."""
    from hitsrank import cli

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue().encode(), err.getvalue().encode(), elapsed


def import_breakdown(python: str, env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative import seconds of hitsrank.cli, and of scipy and numpy within it."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import hitsrank.cli"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    entries = []  # (depth, name, cumulative seconds), in the order printed
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"hitsrank": 0.0, "scipy": 0.0, "numpy": 0.0}
    # children print before their parent, so walk backwards to see ancestors first
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, name))
    return totals


def layer_metrics(
    tracer: Tracer, cycles: int, main_s: list[float], traced_s: list[float], untraced_s: list[float]
) -> dict:
    """Per-layer metrics from the spans of the traced replica runs.

    A ``<layer>_s`` value is the mean self time per call of that public
    function (0 where the workload never calls it). Solver counts are
    per cycle of the mix. ``cli.main_s`` is the mean warm in-process
    ``main`` time per invocation and ``cli.overhead_s`` what is left of
    it after the layer calls: argparse, file reading and dispatch.
    """
    own = tracer.self_times()
    per_call: dict[str, list[float]] = {name: [] for name in LAYER_CALLS}
    for span, t in zip(tracer.spans, own):
        if span.name in per_call:
            per_call[span.name].append(t)
    invocations = len(main_s)
    layer_total = sum(sum(v) for v in per_call.values())
    metrics = {f"{name}_s": (sum(v) / len(v) if v else 0.0, "s") for name, v in per_call.items()}
    main_mean = sum(main_s) / invocations
    metrics["cli.main_s"] = (main_mean, "s")
    metrics["cli.overhead_s"] = (main_mean - layer_total / invocations, "s")
    metrics["trace.overhead_s"] = ((sum(traced_s) - sum(untraced_s)) / invocations, "s")

    solves = tracer.solves
    hits_time = sum(per_call["hits.hits"])
    sweeps = sum(s.sweeps for s in solves)
    metrics["hits.sweeps"] = (sweeps / cycles, "count")
    metrics["hits.capped"] = (sum(s.capped for s in solves) / cycles, "count")
    metrics["hits.converged_ratio"] = (sum(s.converged for s in solves) / len(solves) if solves else 1.0, "ratio")
    metrics["hits.s_per_sweep"] = (hits_time / sweeps if sweeps else 0.0, "s")
    metrics["hits.bytes_per_sweep"] = (
        sum(16 * s.teams**2 * s.sweeps for s in solves) / sweeps if sweeps else 0.0, "B",
    )
    return metrics


def traced_run(wl, checker, seconds: float, python: str, env: dict, root: Path) -> dict:
    """Cycle the mix in process for about ``seconds``; outputs go to ``checker``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    imports = [import_breakdown(python, env, root) for _ in range(3)]

    tracer, null = Tracer(), NullTracer()
    main_s: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for inv in wl.mix:
            argv = inv.argv(wl.work)
            code, out, err, elapsed = run_main(argv)
            main_s.append(elapsed)
            if inv.stdout_file:
                (wl.work / inv.stdout_file).write_bytes(out)
            tracer.invocation = len(main_s)
            replicas = []
            # alternate which replica mode runs first, so warm caches favour neither
            for mode in ((tracer, null) if cycles % 2 == 0 else (null, tracer)):
                t0 = time.perf_counter()
                replicas.append(replica(argv, mode).encode())
                (traced_s if mode is tracer else untraced_s).append(time.perf_counter() - t0)
            checker.check(inv, code, out, err, tuple(replicas))
        cycles += 1
        # whole cycles only, and none that would likely end past the deadline
        if (time.perf_counter() - start) * (cycles + 1) / cycles > seconds:
            break

    metrics = layer_metrics(tracer, cycles, main_s, traced_s, untraced_s)
    for key, pkg in (("cli.import_s", "hitsrank"), ("cli.import_scipy_s", "scipy"), ("cli.import_numpy_s", "numpy")):
        metrics[key] = (statistics.median([b[pkg] for b in imports]), "s")
    calls = {name: sum(1 for s in tracer.spans if s.name == name) / cycles for name in LAYER_CALLS}
    spans_file = wl.work.with_name(wl.work.name + ".spans.jsonl")
    with open(spans_file, "w", encoding="utf-8") as f:
        for i, span in enumerate(tracer.spans):
            f.write(json.dumps({"id": i, **asdict(span)}) + "\n")
    return {"metrics": metrics, "cycles": cycles, "calls_per_cycle": calls, "spans_file": str(spans_file)}
