"""The standing mutant suite: every deliberate bug below must make the tests
fail.

Each entry is a file under the repository root, an exact text in it, the
text that replaces it, and the reason the tests must notice. For each
entry the script copies the tree into a temporary directory, applies the
edit there (an old text that is missing or not unique is an error in the
entry), and runs

    python -m pytest -x -q -p no:cacheprovider tests

in the copy, with the copy's `src` first on PYTHONPATH. A mutant is caught
when pytest reports a failing test (exit status 1). The script prints each
entry's time and the first failing test, and exits non-zero if any mutant
survives or any entry cannot be applied. A caught mutant means something
only on a tree whose own tests pass, so run it after the test suite.

Usage: python scripts/mutants.py

Never weaken or delete an entry to make the run pass: a survivor means a
test stopped checking what it once checked.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the tests never read: version control, caches and build outputs
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
    ".perfbench-work", ".perfbench-out", "build", "*.egg-info")
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


@dataclass(frozen=True)
class Mutant:
    path: str
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant("src/harmonizer/hmm.py",
           'f" {int(dead.argmax())}")',
           'f" {int(dead.argmax()) + 1}")',
           "the best-path kernel names the position after the first dead row"),
    Mutant("src/harmonizer/hmm.py",
           "score += rows[t]",
           "score += rows[t - 1]",
           "the best-path kernel adds the previous position's score row"),
    Mutant("src/harmonizer/hmm.py",
           "state = int(scores[-1].argmax())",
           "state = S - 1 - int(scores[-1][::-1].argmax())",
           "the best-path kernel breaks a final tie toward the highest index"),
    Mutant("src/harmonizer/harmonize.py",
           "_BASS_TENOR_ALTO = itemgetter(2, 1, 0)",
           "_BASS_TENOR_ALTO = itemgetter(0, 1, 2)",
           "voicing candidates are ordered alto first instead of bass first"),
    Mutant("src/harmonizer/hmm.py",
           "array.flags.writeable = False",
           "array.flags.writeable = True",
           "a loaded model's arrays, shared by every load, stay writable"),
    Mutant("src/harmonizer/core.py",
           '_FIGURE_ALIASES = {"6": "63", "42": "2"}',
           '_FIGURE_ALIASES = {"6": "63"}',
           "the chord table loses the figure alias 2 for 42"),
    Mutant("src/harmonizer/corpus.py",
           "if mode is not None and named in MODES and named != mode:",
           "if mode is not None and named != mode:",
           "training skips a chorale file whose mode header is invalid"),
    Mutant("src/harmonizer/corpus.py",
           "        return None\n    records = _records(",
           "        pass\n    records = _records(",
           "training parses the chorale files of the other mode"),
    Mutant("src/harmonizer/corpus.py",
           "beat=functools.cache(_beat),",
           'beat=lambda text, memo={}: memo.setdefault(text.split(",")[0],'
           " _beat(text)),",
           "the corpus beat memo is keyed on a beat's first note entry only"),
    Mutant("src/harmonizer/corpus.py",
           "names = sorted(entry.name for entry in entries if entry.is_file())",
           "names = sorted(entry.name for entry in entries)",
           "the corpus listing keeps subdirectories and dangling links"),
    Mutant("src/harmonizer/hmm.py",
           "type(n) is int and 0 < n < 2 ** 63 for n in counts.values()",
           "type(n) is int and 0 < n for n in counts.values()",
           "a saved chord count may exceed 64 bits"),
    Mutant("src/harmonizer/harmonize.py",
           "if tenor < bass:",
           "if False:",
           "a voicing may put the tenor below the bass"),
    Mutant("src/harmonizer/harmonize.py",
           "soprano - MAX_SPACING <= a <= soprano",
           "a <= soprano",
           "a voicing may put the alto more than an octave below the soprano"),
    Mutant("src/harmonizer/harmonize.py",
           "tenor <= alto <= tenor + MAX_SPACING",
           "tenor <= alto",
           "a voicing may put the tenor more than an octave below the alto"),
    Mutant("src/harmonizer/harmonize.py",
           "    bass_pc = chord_bass_pc(chord, key)\n    basses",
           "    bass_pc = chord_tone_pcs(chord, key)[0]\n    basses",
           "a voicing puts the chord root in the bass whatever the inversion"),
    Mutant("src/harmonizer/harmonize.py",
           "if soprano_pc == lt:",
           "if False:",
           "the upper voices double the leading tone the soprano sounds"),
    Mutant("src/harmonizer/harmonize.py",
           "min(range(len(chains)),",
           "min(reversed(range(len(chains))),",
           "a tie between chains goes to the last minimal seed"),
    Mutant("src/harmonizer/harmonize.py",
           "return _total_weight(self.violation_log)",
           "return _total_weight(self.violation_log[1:])",
           "the penalty sums the violation log one violation short"),
    Mutant("src/harmonizer/ornament.py",
           "abs(nxt - cur) in (3, 4):\n                mid = passing_tone",
           "abs(nxt - cur) in (4,):\n                mid = passing_tone",
           "a passing tone fills only a major third"),
    Mutant("src/harmonizer/ornament.py",
           "if floor <= neighbor <= ceiling:",
           "if True:",
           "an upper neighbour may leave the voice's range and order"),
    Mutant("src/harmonizer/ornament.py",
           "notes = ((neighbor, half), (cur, half))",
           "notes = ((cur, half), (neighbor, half))",
           "an appoggiatura is written as an auxiliary"),
    Mutant("src/harmonizer/ornament.py",
           "if notes is None and (nxt == cur or strong):",
           "if nxt == cur or strong:",
           "a beat with a passing tone draws again for a neighbour"),
    Mutant("src/harmonizer/ornament.py",
           "STRONG_BEAT_POSITIONS = (0, 2)",
           "STRONG_BEAT_POSITIONS = (0,)",
           "only the downbeat is a strong beat"),
    Mutant("src/harmonizer/ornament.py",
           "1 <= cur - extra[0] <= 2",
           "1 <= cur - extra[0] <= 3",
           "the rate estimate counts a step of 3 semitones as an appoggiatura"),
    Mutant("src/harmonizer/ornament.py",
           "abs(m - cur) <= 2",
           "abs(m - cur) <= 3",
           "the rate estimate counts a note 3 semitones off as an auxiliary"),
    Mutant("src/harmonizer/ornament.py",
           "any(lo < m < hi for m in extra)",
           "any(lo <= m < hi for m in extra)",
           "the rate estimate counts the lower end of a third as passing"),
    Mutant("src/harmonizer/ornament.py",
           "found / sites if sites else 0.0 for",
           "sites and found / sites for",
           "an ornament with no eligible site gets the int rate 0"),
    Mutant("src/harmonizer/corpus.py",
           '"bVI", "vi", "bVII", "viio"',
           '"bVI", "vi", "VII", "viio"',
           "a rock chord a whole tone below the tonic reads as VII"),
    Mutant("src/harmonizer/hmm.py",
           "smoothing_alpha=alpha + 0.0)",
           "smoothing_alpha=alpha)",
           "train --alpha -0.0 writes a model other than --alpha 0's"),
    Mutant("src/harmonizer/midiout.py",
           "            if type(duration) is not int or duration < 1:\n"
           "                raise ValueError(f\"note duration is not a positive"
           " whole number\"\n"
           "                                 f\" of ticks: {duration!r}\")\n"
           "            total += duration\n"
           "            part = encoded.get(note)\n"
           "            if part is None:\n",
           "            total += duration\n"
           "            part = encoded.get(note)\n"
           "            if part is None:\n"
           "                if type(duration) is not int or duration < 1:\n"
           "                    raise ValueError(f\"note duration is not a"
           " positive whole number\"\n"
           "                                     f\" of ticks: {duration!r}\")\n",
           "an SATB note's duration is checked only on a memo miss"),
    Mutant("src/harmonizer/midiout.py",
           "if total != PPQ:",
           "if False:",
           "an SATB beat that is not one beat long is written"),
    Mutant("src/harmonizer/midiout.py",
           "bytes([0, on, pitch, VELOCITY])",
           "bytes([1, on, pitch, VELOCITY])",
           "an SATB note-on comes one tick after the note before it ends"),
    Mutant("src/harmonizer/midiout.py",
           "            pitch, duration = note\n            if type(pitch) is not int:",
           "            pitch, duration = note\n            if False:",
           "an SATB note's float pitch is written when it follows its int twin"),
    Mutant("src/harmonizer/midiout.py",
           "\n        if type(pitch) is not int:",
           "\n        if False:",
           "a rock note's float pitch is written when it follows its int twin"),
    Mutant("src/harmonizer/midiout.py",
           "sorted(events, key=itemgetter(0, 1))",
           "sorted(events, key=itemgetter(0))",
           "a rock note-on may come before a note-off at the same tick"),
    Mutant("src/harmonizer/midiout.py",
           "_chunk([time_signature, tempo])",
           "_chunk([tempo, time_signature])",
           "the meta track writes the tempo before the time signature"),
    Mutant("src/harmonizer/corpus.py",
           "key_pc={key.tonic_pc}",
           "key_pc={key}",
           "the progression document writes a rock key by name"),
    Mutant("src/harmonizer/harmonize.py",
           "        if t in by_beat:\n            record +=",
           "        if False:\n            record +=",
           "the score record leaves out its violations field"),
    Mutant("src/harmonizer/corpus.py",
           "        value = values.get(record)\n"
           "        if value is None:\n"
           "            key_pc, root_pc, melody_pc = (_pitch_class(fields, name,"
           " source, lineno)\n"
           "                                          for name in _ROCK_FIELDS)\n",
           "        value = values.get(record)\n"
           "        if isinstance(value, CorpusError):\n"
           "            raise value\n"
           "        if value is None:\n"
           "            try:\n"
           "                key_pc, root_pc, melody_pc = (_pitch_class(fields, name,"
           " source, lineno)\n"
           "                                              for name in _ROCK_FIELDS)\n"
           "            except CorpusError as exc:\n"
           "                values[record] = exc\n"
           "                raise\n",
           "a rock record whose value fails is stored with its first location"),
    Mutant("src/harmonizer/corpus.py",
           "parse = functools.partial(_parse_chorale, memo={},",
           "parse = functools.partial(_parse_chorale,"
           ' memo=_parse_chorale.__dict__.setdefault("memo", {}),',
           "the chorale record memo is kept at module level and outlives the call"),
    Mutant("src/harmonizer/corpus.py",
           "        if not bar:\n            text = None\n",
           "",
           "a record with no | is keyed the same as one ending in |"),
    Mutant("src/harmonizer/hmm.py",
           "    text = read_text(path)\n"
           "    try:\n"
           "        shared = _parse_bundle(text)\n",
           "    text = read_text(path)\n"
           "    stat = Path(path).stat()\n"
           '    memo = load_bundle.__dict__.setdefault("memo", {})\n'
           "    key = (str(path), stat.st_size, stat.st_mtime_ns)\n"
           "    try:\n"
           "        shared = memo[key] if key in memo else"
           " memo.setdefault(key, _parse_bundle(text))\n",
           "a model file is read once per path, size and mtime, not per text"),
    Mutant("src/harmonizer/hmm.py",
           "- keys[0].tonic_pc",
           "- keys[-1].tonic_pc",
           "training moves a chorale by its closing key, not its opening key"),
    Mutant("src/harmonizer/corpus.py",
           "            if not (head.isascii() and head.isdigit()):",
           "            try:\n"
           "                int(head)\n"
           "            except ValueError:",
           "a record index is read by int(), which takes +0, 0_0 and non-ASCII digits"),
    Mutant("src/harmonizer/hmm.py",
           "alpha == 0 or sys.float_info.min <= alpha <= sys.float_info.max",
           "0 <= alpha <= sys.float_info.max",
           "the shared alpha rule accepts a subnormal alpha"),
    Mutant("src/harmonizer/hmm.py",
           '    _check_alpha(alpha, f"{layer}.smoothing_alpha")\n',
           "",
           "the model loader skips training's alpha rule"),
    Mutant("src/harmonizer/hmm.py",
           "smoothing_alpha=alpha + 0.0,",
           "smoothing_alpha=alpha,",
           "the model loader stores a -0.0 alpha as -0.0, so override writes it back"),
    Mutant("src/harmonizer/hmm.py",
           "if set(chords) != states:",
           "if not set(chords) <= states:",
           "a model's chord_counts may leave out a chord state"),
    Mutant("src/harmonizer/hmm.py",
           "0 < n < 2 ** 63",
           "0 <= n < 2 ** 63",
           "a model's chord_counts may hold a count of 0"),
    Mutant("src/harmonizer/hmm.py",
           'if mask_enabled and corpus.genre == "chorale" else None)',
           "if mask_enabled else None)",
           "a rock corpus is trained with the chorale mask when the mask is on"),
    Mutant("src/harmonizer/cli.py",
           'if args.out_score and (not title.isprintable() or "|" in title):',
           "if False:",
           "a melody file name that cannot title the score is written as its id: line"),
    Mutant("src/harmonizer/corpus.py",
           '.replace("\\r", "\\n")',
           "",
           "read_text leaves a lone carriage return as it is"),
)


def apply(mutant: Mutant, tree: Path):
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.path}: the old text of '{mutant.reason}'"
                         f" occurs {count} times, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[int, float, str]:
    """pytest's exit status on the tree with `mutant` applied, the seconds
    the tests took, and the first failing test or pytest's last line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests"], cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    output = done.stdout + done.stderr
    failed = _FAILED.search(output)
    lines = output.strip().splitlines()
    detail = failed.group(1) if failed else (lines[-1] if lines else "no output")
    return done.returncode, seconds, detail


def main() -> int:
    caught = 0
    for mutant in MUTANTS:
        code, seconds, detail = run(mutant)
        caught += code == 1
        # 0: every test passed; anything but 1: pytest could not run the tests
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR {code}")
        print(f"{verdict:8} {seconds:5.1f} s  {mutant.path}: {mutant.reason}\n"
              f"{'':17}{detail}", flush=True)
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
