"""One workload in one fresh process: set up, then run timed passes of CLI
jobs in-process through ``harmonizer.cli.main``, one job at a time.

Started by run.py, never by hand. Prints ``READY`` on stdout when set-up is
done, then writes its result as JSON to the given path. With ``--trace 1``
set-up is traced, and untraced and traced passes alternate so the
tracing overhead and byte-identity of outputs are measured in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing

MIN_TRACED_PAIRS = 3
# On a slow machine reaching --min-jobs may take longer than --seconds;
# stop at this multiple of --seconds regardless.
HARD_STOP_FACTOR = 4


def run_job(main, job: dict, sink: io.StringIO) -> tuple[float, int]:
    """Seconds taken and exit code of one CLI command; its console output
    goes to ``sink``."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = main(job["argv"])
        except SystemExit as exc:       # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a traceback: the CLI would exit 1
            traceback.print_exc(limit=-3, file=sink)
            code = 1
        elapsed = perf_counter() - start
    return elapsed, code


def run_pass(main, jobs, sink) -> dict:
    start = perf_counter()
    times, codes, errors = [], [], []
    for job in jobs:
        elapsed, code = run_job(main, job, sink)
        times.append(elapsed)
        codes.append(code)
        if code != 0:
            errors.append(f"{job['argv'][0]} {job.get('input', '')}: exit {code}:"
                          f" {sink.getvalue().strip()}")
    wall = perf_counter() - start
    return {"wall_s": wall, "job_s": times, "codes": codes, "errors": errors,
            "records": sum(j["records"] for j in jobs)}


def judge(jobs, result, reference) -> list[str]:
    """Per-job verdicts of one pass. The first pass is checked in full and
    becomes the reference; later passes must reproduce its bytes."""
    digests = [checks.digest(j["outputs"]) if code == 0 else None
               for j, code in zip(jobs, result["codes"])]
    problems = []
    for i, (job, code) in enumerate(zip(jobs, result["codes"])):
        if code != 0:
            problems.append(None)
        elif reference is None:
            found = checks.check_job(job)
            problems.append("; ".join(found) if found else "")
        elif digests[i] != reference["digests"][i]:
            problems.append("output bytes differ from the first pass")
        else:
            problems.append(reference["problems"][i])
    result["digests"] = digests
    result["problems"] = problems
    result["failed"] = sum(p != "" for p in problems)
    return [f"{job['argv'][0]} {job.get('input', '')}: {p}"
            for job, p in zip(jobs, problems) if p]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import harmonizer.cli
    import numpy
    src = Path(args.src).resolve()
    if src not in Path(harmonizer.cli.__file__).resolve().parents:
        print(f"harmonizer imported from {harmonizer.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    manifest = json.loads(Path(args.manifest).read_text())
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cli = harmonizer.cli

    def call_cli(argv):     # looks up cli.main per call, so wrapping takes effect
        return cli.main(argv)

    sink = io.StringIO()
    setup = run_pass(call_cli, manifest["setup"], sink)
    print("READY", flush=True)

    setup_problems = judge(manifest["setup"], setup, None) + setup["errors"]
    traced_setup = tracer.take() if tracer else None
    jobs = manifest["jobs"]
    passes, problems, reference = [], [], None
    kept_spans = 0
    started = perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if tracer:
            (tracer.install if traced else tracer.uninstall)()
        result = run_pass(call_cli, jobs, sink)
        problems += judge(jobs, result, reference) + result["errors"]
        if reference is None:
            reference = result
        result["traced"] = traced
        if traced:
            result["layers"] = tracing.layer_metrics(traced_setup, tracer.take())
            if kept_spans:      # keep only set-up and the first traced pass
                del tracer.spans[kept_spans:]
            kept_spans = len(tracer.spans)
        passes.append(result)
        elapsed = perf_counter() - started
        if tracer:      # stop only after a traced pass
            if len(passes) % 2:
                continue
            enough = len(passes) >= 2 * MIN_TRACED_PAIRS
        else:
            enough = len(passes) * len(jobs) >= args.min_jobs
        if elapsed >= args.seconds and enough or elapsed >= HARD_STOP_FACTOR * args.seconds:
            break
    if tracer:
        tracer.uninstall()

    out = {
        "setup": {"failed": setup["failed"], "attempted": len(manifest["setup"])},
        "passes": [{k: v for k, v in p.items() if k not in ("problems", "errors")}
                   for p in passes],
        "problems": (setup_problems + problems)[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        out["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
