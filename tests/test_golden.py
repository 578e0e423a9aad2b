"""Golden output test: every file and stdout the CLI produces for a fixed
set of commands, hashed and compared with the digests in golden.json.

The commands train the three fixture models, harmonize and analyze the 20
fixture melodies with both decoders (ornaments on, seed 7), harmonize
their 191-beat concatenation with both decoders (ornaments on, seeds 7
and 11), run the rock demo tune through analyze and through harmonize
(arpeggio with drums, and block without), export the major model and
override its chord layer with the exported CSV. They also train the major
model with no smoothing, export it, and override its chord layer with
that CSV's cells scaled by 1.2. Stdout is hashed with the wall-clock
`time:` lines removed and the scratch directory replaced by a
placeholder. There is no update switch: an intended output change edits
golden.json by hand and says why.
"""

import hashlib
import json
from pathlib import Path

from harmonizer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# the rock demo tune of scripts/harmonize_fixtures.py
ROCK_DEMO = [0, 4, 7, 4, 5, 9, 0, 7, 7, 5, 4, 0]
METHODS = ("viterbi", "posterior")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(tmp_path: Path, data_dir: Path, capsys) -> dict[str, str]:
    out = tmp_path / "out"
    models = out / "models"
    models.mkdir(parents=True)
    digests = {}

    def run(name: str, argv: list[str]) -> None:
        capsys.readouterr()
        code = main(argv)
        assert code == 0, f"{name}: exit {code}"
        text = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        kept = [line for line in text.splitlines() if "time:" not in line]
        digests[f"{name}.stdout"] = _sha("\n".join(kept).encode())

    for name, extra in (("chorale-major", ["--genre", "chorale", "--mode", "major"]),
                        ("chorale-minor", ["--genre", "chorale", "--mode", "minor"]),
                        ("rock", ["--genre", "rock"])):
        corpus = data_dir / ("rock" if name == "rock" else "chorales")
        run(f"train/{name}", ["train", "--corpus", str(corpus), *extra,
                              "--out", str(models / f"{name}.json")])

    major = str(models / "chorale-major.json")
    harmonized = out / "harmonize"
    harmonized.mkdir()
    for melody in sorted((data_dir / "melodies").iterdir()):
        for method in METHODS:
            stem = f"{melody.stem}-{method}"
            run(f"harmonize/{stem}",
                ["harmonize", "--model", major, "--melody", str(melody),
                 "--method", method, "--ornaments", "on", "--seed", "7",
                 "--out-midi", str(harmonized / f"{stem}.mid"),
                 "--out-score", str(harmonized / f"{stem}.score")])
            run(f"analyze/{stem}", ["analyze", "--model", major,
                                    "--melody", str(melody), "--method", method])

    # the 20 fixture melodies as one 191-beat line, ornamented at two seeds:
    # long output where most ornament sites and writer memo entries repeat
    records = [line.split(" | ", 1)[1]
               for melody in sorted((data_dir / "melodies").iterdir())
               for line in melody.read_text().splitlines()
               if line[:1].isdigit()]
    long_melody = tmp_path / "all-melodies.txt"
    long_melody.write_text("id: all-melodies\n" + "".join(
        f"{i} | {fields}\n" for i, fields in enumerate(records)))
    for method in METHODS:
        for seed in ("7", "11"):
            stem = f"all-melodies-{method}-seed{seed}"
            run(f"harmonize/{stem}",
                ["harmonize", "--model", major, "--melody", str(long_melody),
                 "--method", method, "--ornaments", "on", "--seed", seed,
                 "--out-midi", str(harmonized / f"{stem}.mid"),
                 "--out-score", str(harmonized / f"{stem}.score")])

    tune = tmp_path / "rock-demo-melody.txt"
    tune.write_text("id: rock-demo\n" + "\n".join(
        f"{i} | melody_degree_pc={pc}" for i, pc in enumerate(ROCK_DEMO)) + "\n")
    rock = str(models / "rock.json")
    for method in METHODS:
        stem = f"rock-demo-{method}"
        run(f"harmonize/{stem}",
            ["harmonize", "--model", rock, "--melody", str(tune),
             "--method", method, "--pattern", "arpeggio",
             "--out-midi", str(harmonized / f"{stem}.mid"),
             "--out-score", str(harmonized / f"{stem}.prog")])
        run(f"analyze/{stem}", ["analyze", "--model", rock,
                                "--melody", str(tune), "--method", method])
        stem = f"rock-demo-{method}-block-nodrums"
        run(f"harmonize/{stem}",
            ["harmonize", "--model", rock, "--melody", str(tune),
             "--method", method, "--pattern", "block", "--drums", "off",
             "--out-midi", str(harmonized / f"{stem}.mid"),
             "--out-score", str(harmonized / f"{stem}.prog")])

    matrices = out / "export"
    run("export/chorale-major", ["export", "--model", major,
                                 "--out-dir", str(matrices)])
    run("override/chorale-major-chord",
        ["override", "--model", major,
         "--transitions", str(matrices / "chord_transition.csv"),
         "--layer", "chord", "--out", str(models / "override.json")])

    # no smoothing, mask on: all-zero key rows share their mass uniformly,
    # and the masked chord rows are normalized from bare counts; its
    # exported chord CSV, every cell scaled by 1.2, is renormalized row by
    # row when it comes back in through override
    plain = str(models / "chorale-major-alpha0.json")
    run("train/chorale-major-alpha0",
        ["train", "--corpus", str(data_dir / "chorales"), "--mode", "major",
         "--alpha", "0", "--out", plain])
    plain_matrices = out / "export-alpha0"
    run("export/chorale-major-alpha0", ["export", "--model", plain,
                                        "--out-dir", str(plain_matrices)])
    lines = (plain_matrices / "chord_transition.csv").read_text().splitlines()
    scaled = tmp_path / "chord_transition-scaled.csv"
    scaled.write_text("\n".join([lines[0]] + [
        ",".join([cells[0]] + [repr(float(c) * 1.2) for c in cells[1:]])
        for cells in (line.split(",") for line in lines[1:])]) + "\n")
    run("override/chorale-major-alpha0-chord-scaled",
        ["override", "--model", plain, "--transitions", str(scaled),
         "--layer", "chord", "--out", str(models / "override-alpha0-scaled.json")])

    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    return digests


def test_cli_outputs_match_golden_digests(tmp_path, data_dir, capsys):
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests(tmp_path, data_dir, capsys)
    changed = sorted(n for n in expected.keys() & got.keys() if expected[n] != got[n])
    missing = sorted(expected.keys() - got.keys())
    unexpected = sorted(got.keys() - expected.keys())
    assert not (changed or missing or unexpected), (
        f"outputs differ from golden.json: changed {changed},"
        f" missing {missing}, not in golden.json {unexpected}")
