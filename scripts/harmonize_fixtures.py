"""Build every fixture output under build/: train the three fixture models
(major chorale, minor chorale, rock) into build/models/, harmonize every
fixture melody with both decoders plus a rock demo tune into build/out/,
and export each model's labeled matrices and group summary into
build/reports/<model>/. Each run is deterministic and overwrites the
previous files.

Usage: PYTHONPATH=src python scripts/harmonize_fixtures.py
"""

from pathlib import Path

from harmonizer.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
MODELS = ROOT / "build" / "models"
OUT = ROOT / "build" / "out"
REPORTS = ROOT / "build" / "reports"

ROCK_DEMO = [0, 4, 7, 4, 5, 9, 0, 7, 7, 5, 4, 0]


def _run(*argv):
    code = main([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(code)


def run():
    MODELS.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    for mode in ("major", "minor"):
        _run("train", "--corpus", DATA / "chorales", "--genre", "chorale",
             "--mode", mode, "--out", MODELS / f"chorale-{mode}.json")
    _run("train", "--corpus", DATA / "rock", "--genre", "rock",
         "--out", MODELS / "rock.json")
    for melody in sorted((DATA / "melodies").iterdir()):
        for method in ("viterbi", "posterior"):
            stem = f"{melody.stem}-{method}"
            _run("harmonize", "--model", MODELS / "chorale-major.json",
                 "--melody", melody, "--method", method, "--ornaments", "on",
                 "--seed", "1", "--out-midi", OUT / f"{stem}.mid",
                 "--out-score", OUT / f"{stem}.score")
    tune = OUT / "rock-demo-melody.txt"
    tune.write_text("id: rock-demo\n" + "\n".join(
        f"{i} | melody_degree_pc={pc}" for i, pc in enumerate(ROCK_DEMO)) + "\n")
    _run("harmonize", "--model", MODELS / "rock.json", "--melody", tune,
         "--pattern", "arpeggio", "--out-midi", OUT / "rock-demo.mid",
         "--out-score", OUT / "rock-demo.prog")
    for model in sorted(MODELS.glob("*.json")):
        _run("export", "--model", model, "--out-dir", REPORTS / model.stem)
    print(f"wrote models, harmonizations and reports under {ROOT / 'build'}")


if __name__ == "__main__":
    run()
