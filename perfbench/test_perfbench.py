"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

import checks
import gen
import run
import tracing
import worker

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@pytest.fixture
def work():
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _relative(manifest: dict, base: Path) -> str:
    return json.dumps(manifest).replace(str(base), "<work>")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(work, workload):
    a, b, c = work / "a", work / "b", work / "c"
    manifest_a = gen.generate(workload, 5, DATA, a)
    manifest_b = gen.generate(workload, 5, DATA, b)
    gen.generate(workload, 6, DATA, c)
    assert _tree(a) == _tree(b)
    assert _relative(manifest_a, a) == _relative(manifest_b, b)
    if workload != "train-scaleup":     # its seed only renames files
        assert _tree(a) != _tree(c)


def test_melody_shifts_stay_in_the_feasible_span(work):
    gen.generate("chorale-batch", 3, DATA, work)
    shifts = {int(p.stem[3:]) for p in (work / "inputs").glob("m[0-9]*.txt")}
    assert shifts and all(gen.SHIFT_SPAN[0] <= s <= gen.SHIFT_SPAN[1] for s in shifts)


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harmonizer.cli
        yield harmonizer.cli
    finally:
        sys.path.remove(str(ROOT / "src"))


def _run(cli, jobs) -> list[str]:
    sink = io.StringIO()
    result = worker.run_pass(lambda argv: cli.main(argv), jobs, sink)
    assert result["errors"] == []
    return [checks.digest(job["outputs"]) for job in jobs]


def test_tracing_leaves_output_bytes_unchanged(work, cli):
    manifest = gen.generate("chorale-batch", 2, DATA, work)
    jobs = manifest["setup"] + manifest["jobs"][:12]
    plain = _run(cli, jobs)
    tracer = tracing.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main is not original
        traced = _run(cli, jobs)
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "hmm.load_bundle", "harmonize.enumerate_arrangements",
            "midiout.write_midi", "corpus.parse_corpus"} <= names
    aggregates = tracer.take()
    assert aggregates["calls"]["cli.main"] == len(jobs)
    assert all(t >= 0 for t in aggregates["self_s"].values())
    empty = {"self_s": {}, "calls": {}, "counts": {}, "distinct": set()}
    layers = tracing.layer_metrics(aggregates, empty)
    assert all(value > 0 for value in layers.values())
    listed = {m["name"]: m["unit"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {n: run._unit(n) for n in [*layers, "trace.overhead_ratio"]
            if n not in tracing.INVARIANTS} == listed


def test_hung_worker_is_killed_at_its_deadline():
    hang = [sys.executable, "-c",
            "import time; print('READY', flush=True); time.sleep(60)"]
    start = time.perf_counter()
    with pytest.raises(run.BenchError, match="killed"):
        run.run_child(hang, ROOT, None, timeout=1)
    assert time.perf_counter() - start < 10


def test_worker_set_up_time_is_measured_to_ready():
    ready = [sys.executable, "-c",
             "import time; time.sleep(0.3); print('READY', flush=True); time.sleep(0.3)"]
    assert 0.3 <= run.run_child(ready, ROOT, None, timeout=30) < 5


@pytest.fixture
def chorale_outputs(cli, work):
    manifest = gen.generate("chorale-batch", 4, DATA, work)
    jobs = manifest["setup"] + [j for j in manifest["jobs"] if j["kind"] == "chorale"][:2]
    _run(cli, jobs)
    return jobs


def test_checker_passes_real_outputs(chorale_outputs):
    for job in chorale_outputs:
        assert checks.check_job(job) == [], job["argv"]


def test_checker_rejects_out_of_range_note(chorale_outputs):
    job = next(j for j in chorale_outputs if j["kind"] == "chorale")
    score = Path(job["outputs"][0])
    lines = score.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if "| alto=" in line)
    head, rest = lines[row].split("| alto=", 1)
    lines[row] = head + "| alto=90:1 |" + rest.split("|", 1)[1]
    score.write_text("\n".join(lines) + "\n")
    problems = checks.check_job(job)
    assert any("alto 90 outside" in p for p in problems)


def test_checker_rejects_truncated_midi(chorale_outputs):
    job = next(j for j in chorale_outputs if j["kind"] == "chorale")
    midi = Path(job["outputs"][1])
    midi.write_bytes(midi.read_bytes()[:-5])
    assert any(p.startswith("MIDI:") for p in checks.check_job(job))


def test_checker_rejects_unpinned_masked_cell(chorale_outputs):
    job = next(j for j in chorale_outputs if j["kind"] == "train" and j["genre"] == "chorale")
    doc = json.loads(Path(job["outputs"][0]).read_text())
    mask = doc["chord_model"]["mask"]
    i, j = next((i, j) for i, row in enumerate(mask) for j, v in enumerate(row) if v)
    row = doc["chord_model"]["transition"][i]
    row[j], row[0 if j else 1] = row[j] + 1e-3, row[0 if j else 1] - 1e-3
    assert any("masked cell" in p for p in checks.check_model_doc(doc, require_mask=True))
