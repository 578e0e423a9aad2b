"""Benchmark of the harmonizer CLI: one seeded workload per invocation.

Usage, from the root of a source checkout (needs ``src/`` and ``data/``):

    python3 perfbench/run.py --workload chorale-batch --seed 1 --seconds 30 --trace 0

The inputs are generated from the seed (gen.py). A fresh child process
(worker.py) runs the workload as one closed-loop client with no threads,
calling ``harmonizer.cli.main`` in-process one job at a time, and every
output is checked (checks.py). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
from worker import HARD_STOP_FACTOR  # noqa: E402

DEFAULT_SEED = 1
# Timing varies by 10-20% between processes on a shared machine, so an
# untraced run spreads its time over several fresh worker processes and
# pools their samples; each also gives one set-up time.
WORKERS = 7
MIN_JOBS = 100          # job_ms_p90 needs ten samples beyond it
# A worker ends itself after HARD_STOP_FACTOR times its seconds; set-up and
# the pass under way at that moment get this much longer before the worker
# counts as hung and is killed.
WORKER_GRACE_S = 60
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


class BenchError(RuntimeError):
    pass


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _spawn(root: Path, manifest: Path, result: Path, seconds: float,
           min_jobs: int, trace: int) -> float:
    """Run one worker to completion and return the seconds from its spawn
    until it reported ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(result),
           "--src", str(root / "src"), "--seconds", str(seconds),
           "--min-jobs", str(min_jobs), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return run_child(cmd, root, env, HARD_STOP_FACTOR * seconds + WORKER_GRACE_S)


def run_child(cmd: list[str], cwd: Path, env: dict | None, timeout: float) -> float:
    """Run a child that prints ``READY`` when set up, and return the seconds
    from its spawn until that line. A child still running ``timeout``
    seconds after its spawn is killed."""
    start = perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE)
    out, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"worker still running after {timeout:.0f} s; killed")
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            out += chunk
            if ready is None and b"\n" in out:
                ready = perf_counter() - start
        try:
            code = proc.wait(timeout=max(deadline - perf_counter(), 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after {timeout:.0f} s; killed") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if out.split(b"\n", 1)[0].strip() != b"READY" or code != 0:
        raise BenchError(f"worker failed (exit {code})")
    return ready


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics pooled over the workers, and their sample counts."""
    passes = [p for r in results for p in r["passes"]]
    job_ms = [1000 * t for p in passes for t in p["job_s"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "beats_per_s": (sum(p["records"] for p in passes)
                        / sum(p["wall_s"] for p in passes), "1/s"),
        "job_ms_p50": (_percentile(job_ms, 50), "ms"),
        "job_ms_p90": (_percentile(job_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    samples = {"setup_s": len(results), "beats_per_s": len(passes),
               "job_ms_p50": len(job_ms), "job_ms_p90": len(job_ms),
               "peak_rss_mb": len(results)}
    return metrics, samples


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "self_ms":
        return "ms"
    if last == "bytes":
        return "bytes"
    return "ratio" if last.endswith("ratio") else "count"


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {name: (statistics.median_low(p["layers"][name] for p in traced), _unit(name))
               for name in traced[0]["layers"] if name not in tracing.INVARIANTS}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain), "ratio")
    return metrics, {name: len(traced) for name in metrics}


def invariants(result: dict) -> tuple[dict, list[str]]:
    """The tracing.INVARIANTS of the traced passes, which must agree."""
    traced = [p for p in result["passes"] if p["traced"]]
    values, problems = {}, []
    for name in tracing.INVARIANTS:
        seen = sorted({p["layers"][name] for p in traced})
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {seen}")
        values[name] = (seen[0], _unit(name))
    return values, problems


def run(args, root: Path) -> list[dict]:
    """Generate the inputs, run the workers one after another, and return
    their results, each with its set-up time."""
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        manifest = gen.generate(args.workload, args.seed, root / "data", work)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        workers = 1 if args.trace else WORKERS
        results = []
        for i in range(workers):
            result_path = work / f"result-{i}.json"
            ready = _spawn(root, manifest_path, result_path, args.seconds / workers,
                           math.ceil(MIN_JOBS / workers), args.trace)
            results.append(json.loads(result_path.read_text()) | {"setup_s": ready})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/harmonizer/cli.py", "data/melodies", "data/chorales",
                           "data/rock") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a harmonizer checkout; missing {missing}",
              file=sys.stderr)
        return 2
    try:
        results = run(args, root)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [p for r in results for p in r["passes"]]
    attempted = sum(r["setup"]["attempted"] for r in results) + sum(
        len(p["codes"]) for p in passes)
    failed = sum(r["setup"]["failed"] for r in results) + sum(p["failed"] for p in passes)
    problems = [problem for r in results for problem in r["problems"]]
    if len({tuple(p["digests"]) for p in passes}) != 1:
        problems.append("passes produced different output bytes")
    pass_digest = hashlib.sha256(
        "|".join(d or "-" for d in passes[0]["digests"]).encode()).hexdigest()
    expected = json.loads((HERE / "digests.json").read_text())
    if args.seed == DEFAULT_SEED and expected.get(args.workload) != pass_digest:
        problems.append(f"output digest {pass_digest} differs from the recorded"
                        f" {expected.get(args.workload)}")
    fixed = {}
    if args.trace:
        metrics, samples = per_layer(results[0])
        fixed, unequal = invariants(results[0])
        problems += unequal
        out_dir = root / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "request"), s))
             for s in results[0]["spans"]]))
        print(f"spans of set-up and the first traced pass: {spans_path}")
    else:
        metrics, samples = end_to_end(results)
        if samples["job_ms_p90"] < MIN_JOBS:
            problems.append(f"only {samples['job_ms_p90']} timed jobs before the hard"
                            f" stop; job_ms_p90 needs {MIN_JOBS}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}  (n={samples[name]})")
    for name, (value, unit) in fixed.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}  (invariant)")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g}"
          f"  ({failed}/{attempted} jobs)")
    env = {"python": results[0]["python"], "numpy": results[0]["numpy"],
           "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
           "workload": args.workload, "trace": args.trace, "workers": len(results),
           "git_commit": _git_commit(root), "output_digest": pass_digest,
           "samples": samples}
    print("env " + json.dumps(env, sort_keys=True))
    summary = {"correct": not problems and failed == 0, "attempted": attempted,
               "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
