"""hitsrank benchmark: cold-start CLI invocations on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload season_cli --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each invocation of the workload's mix runs in a fresh
``python -m hitsrank`` process, one at a time (a closed loop with one
client), cycling through the mix until ``--seconds`` have passed;
the end-to-end metrics come from those processes. With ``--trace 1``
the same mix runs in process instead and the per-layer metrics come
from spans around each module's public calls (see tracing.py). Either
way every output goes through the independent checker (check.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines before it
are a readable report: run metadata, input shapes and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402

WORK_DIR = ".bench_work"
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 150
VERSIONS = (
    "import sys, numpy, scipy, hitsrank.cli; "
    "print(hitsrank.cli.__file__, sys.version.split()[0], numpy.__version__, scipy.__version__)"
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int


def run_process(cmd: list[str], env: dict, cwd: Path, stdout_path: Path, stderr_path: Path) -> Sample:
    """Run one process to completion; wall time from spawn to exit, rusage from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without leaving it; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, versions: list[str], env: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": versions[1],
        "numpy": versions[2],
        "scipy": versions[3],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: env.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def end_to_end(wl: workloads.Workload, checker: Checker, seconds: float, python: str, env: dict, root: Path) -> dict:
    """Closed loop over the mix in fresh processes; end-to-end metrics.

    Each entry of the mix gives the median of its samples, and a time
    metric is the mean over the entries, so every entry weighs the
    same however the run was cut, and a change to one entry moves the
    metric smoothly.
    """
    scratch = wl.work / "_io"
    scratch.mkdir(exist_ok=True)
    err_path = scratch / "stderr"

    def probe() -> Sample:
        return run_process([python, "-c", "import hitsrank.cli"], env, root, scratch / "stdout", err_path)

    samples: list[tuple[int, Sample]] = []  # (mix entry, sample)
    outputs: list[tuple[bytes, bytes]] = []
    setup: list[Sample] = []
    input_bytes = [0] * len(wl.mix)
    start = time.perf_counter()
    # at least one whole cycle, so every entry of the mix has a sample
    while len(samples) < len(wl.mix) or time.perf_counter() - start < seconds:
        # at most one set-up probe per invocation, spread over the window so that
        # the probes see the same machine as the samples
        if len(setup) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setup.append(probe())
        k = len(samples) % len(wl.mix)
        inv = wl.mix[k]
        out_path = wl.work / (inv.stdout_file or "_io/stdout")
        input_bytes[k] += sum((wl.work / f).stat().st_size for f in inv.inputs)
        samples.append((k, run_process([python, "-m", "hitsrank", *inv.argv(wl.work)], env, root, out_path, err_path)))
        outputs.append((out_path.read_bytes(), err_path.read_bytes()))
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())

    # outputs are checked after the loop, outside the timed window
    by_entry: list[list[Sample]] = [[] for _ in wl.mix]
    passed = [0] * len(wl.mix)
    for (k, sample), (out, err) in zip(samples, outputs):
        by_entry[k].append(sample)
        passed[k] += checker.check(wl.mix[k], sample.exit_code, out, err)
    count = [len(entry) for entry in by_entry]
    wall = [statistics.median(s.wall for s in entry) for entry in by_entry]
    cpu = [statistics.median(s.cpu for s in entry) for entry in by_entry]
    cycle_mb = sum(b / c for b, c in zip(input_bytes, count)) / 1e6
    metrics = {
        "setup_s": (statistics.median(s.wall for s in setup), "s"),
        "cpu_p50_s": (statistics.fmean(cpu), "s"),
        "input_mb_per_cpu_s": (cycle_mb / sum(cpu), "MB/s"),
        "peak_rss_mb": (max(s.rss_mb for _, s in samples), "MB"),
        "success_rate": (statistics.fmean(p / c for p, c in zip(passed, count)), "ratio"),
    }
    report = {
        "wall_p50_s": (statistics.fmean(wall), "s"),
        "input_mb_per_s": (cycle_mb / sum(wall), "MB/s"),
        "setup_cpu_s": (statistics.median(s.cpu for s in setup), "s"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "cpu_p50_s": f"{len(samples)} samples, {min(count)} to {max(count)} per entry",
        "success_rate": f"{checker.attempted - checker.failed} of {checker.attempted} invocations passed the checker",
    }
    return {
        "metrics": metrics, "report": report, "notes": notes, "cycles": len(samples) / len(wl.mix),
        "samples": {
            "wall_s": [round(s.wall, 4) for _, s in samples],
            "cpu_s": [round(s.cpu, 4) for _, s in samples],
            "setup_s": [round(s.wall, 4) for s in setup],
            "setup_cpu_s": [round(s.cpu, 4) for s in setup],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="hitsrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hitsrank" / "cli.py").is_file():
        print("error: run from the root of a hitsrank checkout (src/hitsrank/cli.py not found)", file=sys.stderr)
        return 2
    python = sys.executable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # also the first import, which writes the bytecode caches every later invocation reads
    found = subprocess.run(
        [python, "-c", VERSIONS], env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    versions = found.stdout.split()
    if found.returncode != 0 or not Path(versions[0]).is_relative_to(root / "src"):
        print(f"error: cannot import hitsrank from {root / 'src'}: {found.stderr.strip()[-300:]}", file=sys.stderr)
        return 2

    work = root / WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work)
    checker = Checker(wl.inputs)
    if args.trace:
        result = tracing.traced_run(wl, checker, args.seconds, python, env, root)
    else:
        result = end_to_end(wl, checker, args.seconds, python, env, root)

    report = {"meta": metadata(root, versions, env), "workload": wl.manifest(), "cycles": result["cycles"]}
    for key in ("calls_per_cycle", "spans_file", "samples"):
        if key in result:
            report[key] = result[key]
    print("# run " + json.dumps(report))
    notes = result.get("notes", {})
    for name, (value, unit) in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name:24s} {value:.6g} {unit}{note}")
    for name, (value, unit) in result.get("report", {}).items():
        note = f"; {notes[name]}" if name in notes else ""
        print(f"# {name:24s} {value:.6g} {unit}  (report only{note})")
    for reason in sorted(set(checker.reasons)):
        print(f"# failed x{checker.reasons.count(reason)}: {reason}")
    shutil.rmtree(work)
    print(json.dumps({
        "correct": checker.undisclosed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
