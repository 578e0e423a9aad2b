"""Seeded input generator for the benchmark workloads.

Reads only the fixture files under ``data/`` and writes the generated
melody, rock-line and corpus files into a work directory. The same seed
gives byte-identical files. The program under test sees only these files
and the command lines built here, never the seed itself.

Each workload is described by a manifest: the CLI jobs of one timed pass,
the number of input records each job reads, and what each job's outputs
must satisfy (see checks.py).
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("chorale-batch", "long-melody", "train-scaleup")

# Chorale melodies are shifted only within -7..+1 semitones. Every fixture
# melody stays feasible there with both decoders; from +2 upward the hard
# alto range (F3-D5) leaves some beats without an arrangement (exit 3).
SHIFT_SPAN = (-7, 1)
# Concatenated melodies need a narrower span. Across a melody boundary the
# decoded key can lag, and a G#5 soprano (m07 from -1, the others at +1)
# then drew a V65 with no alto inside F3-D5 within an octave of it: 5 of 240
# long melodies failed (exit 3). Up to -2 the soprano stays at or below G5.
LONG_SHIFT_SPAN = (-7, -2)
LONG_MELODY_BEATS = (1000, 1150, 1300, 1450)
# Copies of each transposed corpus piece in train-scaleup: 600 chorale files
# with 9,240 beats, and 360 rock files.
SCALEUP_COPIES = 5
PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


def _records(path: Path) -> list[tuple[str, dict[str, str]]]:
    """(index, fields) for each record line; header lines are skipped."""
    out = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or "|" not in line:
            continue
        index, *parts = (p.strip() for p in line.split("|"))
        out.append((index, dict(p.split("=", 1) for p in parts)))
    return out


def _headers(path: Path) -> dict[str, str]:
    out = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if ":" in line and "|" not in line:
            name, value = line.split(":", 1)
            out[name.strip()] = value.strip()
    return out


def _shift_notes(notes: str, shift: int) -> str:
    items = (item.split(":") for item in notes.split(","))
    return ",".join(f"{int(p) + shift}:{d}" for p, d in items)


def _shift_key(label: str, shift: int) -> str:
    minor = label[:1].islower()
    pc = PITCH_NAMES.index(label[0].upper() + label[1:])
    name = PITCH_NAMES[(pc + shift) % 12]
    return name.lower() if minor else name


def melody_text(melody_id: str, beats: list[str]) -> str:
    lines = [f"id: {melody_id}"]
    lines += [f"{i} | notes={notes}" for i, notes in enumerate(beats)]
    return "\n".join(lines) + "\n"


def rock_line_text(line_id: str, degrees: list[int]) -> str:
    lines = [f"id: {line_id}"]
    lines += [f"{i} | melody_degree_pc={pc}" for i, pc in enumerate(degrees)]
    return "\n".join(lines) + "\n"


def fixture_melodies(data: Path) -> dict[str, list[str]]:
    """Beat note lists of the fixture melodies, by file stem."""
    return {p.stem: [fields["notes"] for _, fields in _records(p)]
            for p in sorted((data / "melodies").glob("*.txt"))}


def fixture_rock_lines(data: Path) -> dict[str, list[int]]:
    return {p.stem: [int(fields["melody_degree_pc"]) for _, fields in _records(p)]
            for p in sorted((data / "rock").glob("*.txt"))}


def _harmonize_job(model: Path, melody: Path, method: str, seed: int,
                   out: Path, kind: str, records: int) -> dict:
    argv = ["harmonize", "--model", str(model), "--melody", str(melody),
            "--method", method]
    if kind == "chorale":
        argv += ["--ornaments", "on", "--seed", str(seed)]
    stem = out / f"{melody.stem}-{method}"
    score = stem.with_suffix(".score" if kind == "chorale" else ".prog")
    midi = stem.with_suffix(".mid")
    argv += ["--out-midi", str(midi), "--out-score", str(score)]
    return {"kind": kind, "argv": argv, "records": records,
            "input": str(melody), "outputs": [str(score), str(midi)]}


def _setup_jobs(data: Path, work: Path, warmup_melody: Path,
               warmup_rock: Path, seed: int) -> list[dict]:
    """Set-up shared by every workload: train the fixture models the
    harmonize workloads read, check them through an export/override round
    trip, and warm up each harmonize path once."""
    models = work / "models"
    export = work / "setup-export"
    out = work / "setup-out"
    for d in (models, export, out):
        d.mkdir(parents=True, exist_ok=True)
    major, rock = models / "chorale-major.json", models / "rock.json"
    return [
        _train_job(data / "chorales", "chorale", "major", major),
        _train_job(data / "rock", "rock", None, rock),
        _export_job(major, export),
        _override_job(major, export, models / "chorale-major-override.json"),
        _harmonize_job(major, warmup_melody, "viterbi", seed, out, "chorale", 0),
        _harmonize_job(major, warmup_melody, "posterior", seed, out, "chorale", 0),
        _harmonize_job(rock, warmup_rock, "viterbi", seed, out, "rock", 0),
    ]


def _corpus_records(corpus: Path) -> int:
    return sum(len(_records(p)) for p in corpus.iterdir() if p.is_file())


def _train_job(corpus: Path, genre: str, mode: str | None, out: Path) -> dict:
    argv = ["train", "--corpus", str(corpus), "--genre", genre, "--out", str(out)]
    if mode:
        argv += ["--mode", mode]
    return {"kind": "train", "argv": argv, "records": _corpus_records(corpus),
            "outputs": [str(out)], "genre": genre}


def _export_job(model: Path, out_dir: Path) -> dict:
    names = ["key_transition.csv", "key_emission.csv", "chord_transition.csv",
             "chord_emission.csv", "functional_summary.csv"]
    return {"kind": "export", "argv": ["export", "--model", str(model),
                                        "--out-dir", str(out_dir)],
            "records": 0, "model": str(model),
            "outputs": [str(out_dir / n) for n in names]}


def _override_job(model: Path, export_dir: Path, out: Path) -> dict:
    csv = export_dir / "chord_transition.csv"
    return {"kind": "override", "argv": ["override", "--model", str(model),
                                          "--transitions", str(csv),
                                          "--layer", "chord", "--out", str(out)],
            "records": 0, "model": str(model), "csv": str(csv),
            "outputs": [str(out)]}


def _chorale_batch(data, rng, inputs, models, out, seed):
    jobs = []
    for stem, beats in fixture_melodies(data).items():
        shift = rng.randint(*SHIFT_SPAN)
        path = inputs / f"{stem}{shift:+d}.txt"
        path.write_text(melody_text(path.stem, [_shift_notes(b, shift) for b in beats]))
        for method in ("viterbi", "posterior"):
            jobs.append(_harmonize_job(models / "chorale-major.json", path, method,
                                       seed, out, "chorale", len(beats)))
    for stem, degrees in fixture_rock_lines(data).items():
        shift = rng.randrange(12)
        path = inputs / f"{stem}-line{shift:+d}.txt"
        path.write_text(rock_line_text(path.stem, [(d + shift) % 12 for d in degrees]))
        for method in ("viterbi", "posterior"):
            jobs.append(_harmonize_job(models / "rock.json", path, method,
                                       seed, out, "rock", len(degrees)))
    rng.shuffle(jobs)
    return jobs


def _long_melody(data, rng, inputs, models, out, seed):
    """Four long melodies, each harmonized with both decoders. Their lengths
    differ so that job latencies form a spread rather than two clusters:
    with two equal clusters the median falls in the gap between them and
    jumps from one to the other with machine noise."""
    melodies = fixture_melodies(data)
    stems = sorted(melodies)
    model = models / "chorale-major.json"
    jobs = []
    for target in LONG_MELODY_BEATS:
        # Every melody opens with the same unshifted fixture melody: one greedy
        # chain grows from each first-beat arrangement, so the opening sets
        # the chain count (4 to 15 across seeds otherwise).
        beats = list(melodies[stems[0]])
        while len(beats) < target:
            shift = rng.randint(*LONG_SHIFT_SPAN)
            beats += [_shift_notes(b, shift) for b in melodies[rng.choice(stems)]]
        path = inputs / f"long{target}.txt"
        path.write_text(melody_text(path.stem, beats))
        jobs += [_harmonize_job(model, path, method, seed, out, "chorale", len(beats))
                 for method in ("viterbi", "posterior")]
    return jobs


def _scaled_corpus(source: Path, target: Path, rng, transpose) -> None:
    """Every piece of a fixture corpus in all 12 keys, SCALEUP_COPIES times,
    under seeded file names (the parser reads files in name order)."""
    target.mkdir(parents=True)
    pieces = []
    for path in sorted(source.glob("*.txt")):
        header, records = _headers(path), _records(path)
        for shift in range(-6, 6):
            for copy in range(SCALEUP_COPIES):
                lines = [f"id: {header['id']}{shift:+d}c{copy}", f"mode: {header['mode']}"]
                lines += [transpose(index, fields, shift) for index, fields in records]
                pieces.append("\n".join(lines) + "\n")
    names = rng.sample(range(10 * len(pieces)), len(pieces))
    for name, text in zip(names, pieces):
        (target / f"p{name:06d}.txt").write_text(text)


def _chorale_record(index, fields, shift):
    return (f"{index} | notes={_shift_notes(fields['notes'], shift)}"
            f" | key={_shift_key(fields['key'], shift)} | roman={fields['roman']}")


def _rock_record(index, fields, shift):
    values = {name: (int(fields[name]) + shift) % 12
              for name in ("key_pc", "roman_root_pc", "melody_degree_pc")}
    return f"{index} | " + " | ".join(f"{k}={v}" for k, v in values.items())


def _train_scaleup(data, rng, inputs, models, out, seed):
    chorales, rock = inputs / "chorales", inputs / "rock"
    _scaled_corpus(data / "chorales", chorales, rng, _chorale_record)
    _scaled_corpus(data / "rock", rock, rng, _rock_record)
    major = out / "major.json"
    return [
        _train_job(chorales, "chorale", "major", major),
        _train_job(chorales, "chorale", "minor", out / "minor.json"),
        _train_job(rock, "rock", None, out / "rock.json"),
        _export_job(major, out / "export"),
        _override_job(major, out / "export", out / "major-override.json"),
    ]


_BUILDERS = {"chorale-batch": _chorale_batch, "long-melody": _long_melody,
             "train-scaleup": _train_scaleup}


def generate(workload: str, seed: int, data: Path, work: Path) -> dict:
    """Write the inputs of one workload under ``work`` and return its
    manifest: set-up jobs and the jobs of one timed pass."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload: {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir(parents=True)
    melodies, lines = fixture_melodies(data), fixture_rock_lines(data)
    first = sorted(melodies)[0]
    warmup_melody = inputs / "warmup.txt"
    warmup_melody.write_text(melody_text("warmup", melodies[first]))
    warmup_rock = inputs / "warmup-line.txt"
    warmup_rock.write_text(rock_line_text("warmup-line", lines[sorted(lines)[0]]))
    setup = _setup_jobs(data, work, warmup_melody, warmup_rock, seed)
    jobs = _BUILDERS[workload](data, rng, inputs, work / "models", out, seed)
    return {"workload": workload, "seed": seed, "setup": setup, "jobs": jobs}
