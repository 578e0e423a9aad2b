"""Output checks written from PAPER.md and the file formats, sharing no code
with the program under test (nothing here imports ``harmonizer``).

Each ``check_*`` function returns a list of problems; an empty list means
the job's outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

# Vocal ranges from PAPER.md as MIDI numbers (C4 = 60).
RANGES = {"alto": (53, 74), "tenor": (47, 67), "bass": (40, 60)}  # F3-D5, B2-G4, E2-C4
MAX_SPACING = 12        # soprano-alto and alto-tenor, an octave
MASK_EPSILON = 1e-6
STOCHASTIC_TOL = 1e-9
PPQ = 480
VOICES = ("soprano", "alto", "tenor", "bass")
MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
ROMAN_DEGREES = ("I", "II", "III", "IV", "V", "VI", "VII")


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        data = Path(p).read_bytes()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def _record_fields(text: str) -> list[dict[str, str]]:
    out = []
    for raw in text.splitlines():
        if "|" not in raw:
            continue
        _, *parts = (p.strip() for p in raw.split("|"))
        out.append(dict(p.split("=", 1) for p in parts))
    return out


def _notes(text: str) -> list[tuple[int, float]]:
    return [(int(p), float(d)) for p, d in (item.split(":") for item in text.split(","))]


def parse_score(text: str) -> list[dict]:
    """Per beat: the four voices as (midi, beat fraction) lists."""
    return [{v: _notes(f[v]) for v in VOICES} for f in _record_fields(text)]


class MidiError(ValueError):
    pass


def parse_midi(data: bytes) -> list[list[tuple[int, int, int, int]]]:
    """Tracks of an SMF format 1 file at 480 PPQ, each a list of
    (tick, status, data1, data2) channel events. Raises MidiError on any
    structural fault, including truncation."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MidiError("missing MThd header")
    length, fmt, ntracks, division = struct.unpack(">IHHH", data[4:14])
    if length != 6 or fmt != 1 or division != PPQ:
        raise MidiError(f"unexpected header: length {length}, format {fmt}, division {division}")
    pos, tracks = 14, []
    for _ in range(ntracks):
        if data[pos:pos + 4] != b"MTrk" or pos + 8 > len(data):
            raise MidiError(f"missing MTrk chunk at byte {pos}")
        size = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise MidiError("truncated track chunk")
        tracks.append(_parse_track(body))
        pos += 8 + size
    if pos != len(data):
        raise MidiError(f"{len(data) - pos} trailing bytes")
    return tracks


def _var_len(body: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        byte = body[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiError("variable-length quantity longer than 4 bytes")


def _parse_track(body: bytes) -> list[tuple[int, int, int, int]]:
    events, pos, tick = [], 0, 0
    try:
        while pos < len(body):
            delta, pos = _var_len(body, pos)
            tick += delta
            status = body[pos]
            if status == 0xFF:
                kind = body[pos + 1]
                size, pos = _var_len(body, pos + 2)
                pos += size
                if kind == 0x2F:
                    if pos != len(body):
                        raise MidiError("events after end of track")
                    return events
            elif 0x80 <= status < 0xF0 and status & 0xF0 not in (0xC0, 0xD0):
                events.append((tick, status, body[pos + 1], body[pos + 2]))
                pos += 3
            else:
                raise MidiError(f"unsupported status byte 0x{status:02x}")
    except IndexError:
        raise MidiError("track ends inside an event")
    raise MidiError("track has no end-of-track event")


def note_ons(track) -> list[tuple[int, int]]:
    """(tick, pitch) of each note-on, with a matching note-off checked."""
    ons = [(t, d1) for t, s, d1, d2 in track if s & 0xF0 == 0x90 and d2 > 0]
    offs = [e for e in track if e[1] & 0xF0 == 0x80 or (e[1] & 0xF0 == 0x90 and e[3] == 0)]
    if len(ons) != len(offs):
        raise MidiError(f"{len(ons)} note-ons but {len(offs)} note-offs")
    return sorted(ons)


def _voice_onsets(beats: list[list[tuple[int, float]]]) -> list[tuple[int, int]]:
    out = []
    for t, notes in enumerate(beats):
        cursor = t * PPQ
        for pitch, fraction in notes:
            out.append((round(cursor), pitch))
            cursor += fraction * PPQ
    return sorted(out)


def check_chorale(job: dict) -> list[str]:
    """Score and MIDI of one chorale harmonization."""
    score_path, midi_path = job["outputs"]
    problems = []
    melody = [_notes(f["notes"]) for f in _record_fields(Path(job["input"]).read_text())]
    beats = parse_score(Path(score_path).read_text())
    if [b["soprano"] for b in beats] != melody:
        problems.append("soprano line differs from the input melody")
    for t, beat in enumerate(beats):
        for voice, (lo, hi) in RANGES.items():
            for pitch, _ in beat[voice]:
                if not lo <= pitch <= hi:
                    problems.append(f"beat {t}: {voice} {pitch} outside {lo}-{hi}")
        if all(len(beat[v]) == 1 for v in ("alto", "tenor", "bass")):
            s, a, t_, b = (beat[v][0][0] for v in VOICES)
            if not s >= a >= t_ >= b:
                problems.append(f"beat {t}: voices out of SATB order {s},{a},{t_},{b}")
            if s - a > MAX_SPACING or a - t_ > MAX_SPACING:
                problems.append(f"beat {t}: upper-voice spacing over an octave")
    try:
        tracks = parse_midi(Path(midi_path).read_bytes())
        if len(tracks) != 1 + len(VOICES):
            problems.append(f"MIDI has {len(tracks)} tracks, expected {1 + len(VOICES)}")
        else:
            for voice, track in zip(VOICES, tracks[1:]):
                if note_ons(track) != _voice_onsets([b[voice] for b in beats]):
                    problems.append(f"MIDI {voice} notes differ from the score")
    except MidiError as exc:
        problems.append(f"MIDI: {exc}")
    return problems


def _roman_root(key_pc: int, roman: str) -> int:
    """Absolute root pitch class of a numeral in a major key."""
    accidental = {"b": -1, "#": 1}.get(roman[:1], 0)
    letters = roman.lstrip("b#").rstrip("o+0123456789").upper()
    return (key_pc + MAJOR_SCALE[ROMAN_DEGREES.index(letters)] + accidental) % 12


def check_rock(job: dict) -> list[str]:
    """Progression document and accompaniment MIDI of one rock line."""
    prog_path, midi_path = job["outputs"]
    problems = []
    degrees = [int(f["melody_degree_pc"])
               for f in _record_fields(Path(job["input"]).read_text())]
    progression = _record_fields(Path(prog_path).read_text())
    if len(progression) != len(degrees):
        return [f"{len(progression)} measures for a {len(degrees)}-measure line"]
    measure = 4 * PPQ
    try:
        tracks = parse_midi(Path(midi_path).read_bytes())
        if len(tracks) != 5:
            return [f"MIDI has {len(tracks)} tracks, expected 5"]
        melody, bass, keys, drums = (note_ons(t) for t in tracks[1:])
        if melody != [(i * measure, 60 + d) for i, d in enumerate(degrees)]:
            problems.append("MIDI melody differs from the input line")
        roots = [(i * measure, 48 + _roman_root(int(f["key_pc"]), f["roman"]))
                 for i, f in enumerate(progression)]
        if [n for n in bass if n[0] % measure == 0] != roots:
            problems.append("bass does not start each measure on the chord root")
        for name, notes, per_measure in (("bass", bass, 4), ("keys", keys, 8),
                                         ("drums", drums, 12)):
            if len(notes) != per_measure * len(degrees):
                problems.append(f"{name} has {len(notes)} notes")
    except (MidiError, ValueError) as exc:
        problems.append(f"MIDI: {exc}")
    return problems


def _stochastic(name: str, rows) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        if min(row) < 0 or abs(sum(row) - 1.0) > STOCHASTIC_TOL:
            problems.append(f"{name} row {i} is not stochastic")
    return problems


def check_model_doc(doc: dict, require_mask: bool = False) -> list[str]:
    problems = []
    if doc.get("format") != "key-chord-models":
        return ["not a model file"]
    for layer in ("key_model", "chord_model"):
        m = doc[layer]
        n_states, n_obs = len(m["states"]), len(m["observations"])
        if len(m["transition"]) != n_states or any(len(r) != n_states for r in m["transition"]):
            problems.append(f"{layer} transition is not {n_states}x{n_states}")
        if len(m["emission"]) != n_states or any(len(r) != n_obs for r in m["emission"]):
            problems.append(f"{layer} emission is not {n_states}x{n_obs}")
        problems += _stochastic(f"{layer} transition", m["transition"])
        problems += _stochastic(f"{layer} emission", m["emission"])
        problems += _stochastic(f"{layer} initial", [m["initial"]])
        mask = m.get("mask")
        if mask is None:
            continue
        masked = [(i, j) for i, row in enumerate(mask) for j, v in enumerate(row) if v]
        for i, j in masked:
            if m["transition"][i][j] != MASK_EPSILON:
                problems.append(f"{layer} masked cell ({i},{j}) is not {MASK_EPSILON}")
        if layer == "chord_model" and require_mask and not masked:
            problems.append("chorale chord model has no masked cells")
    if require_mask and doc["chord_model"].get("mask") is None:
        problems.append("chorale chord model has no mask")
    return problems


def check_train(job: dict) -> list[str]:
    doc = json.loads(Path(job["outputs"][0]).read_text())
    return check_model_doc(doc, require_mask=job["genre"] == "chorale")


def read_matrix(path) -> tuple[list[str], list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0][1:], [r[0] for r in rows[1:]],
            [[float(v) for v in r[1:]] for r in rows[1:]])


def check_export(job: dict) -> list[str]:
    doc = json.loads(Path(job["model"]).read_text())
    problems = []
    for path in job["outputs"]:
        name = Path(path).stem
        cols, rows, matrix = read_matrix(path)
        if name == "functional_summary":
            # rows of chord families never seen in training stay all zero
            if any(sum(r) and abs(sum(r) - 1.0) > STOCHASTIC_TOL for r in matrix):
                problems.append("functional summary rows are not normalized")
            continue
        layer, part = name.split("_")
        model = doc[f"{layer}_model"]
        labels = [str(s) for s in model["states"]]
        expected_cols = labels if part == "transition" else [str(o) for o in model["observations"]]
        if rows != labels or cols != expected_cols:
            problems.append(f"{name}.csv labels differ from the model")
        if matrix != model[part]:
            problems.append(f"{name}.csv values differ from the model")
    return problems


def check_override(job: dict) -> list[str]:
    source = json.loads(Path(job["model"]).read_text())
    result = json.loads(Path(job["outputs"][0]).read_text())
    _, _, matrix = read_matrix(job["csv"])
    problems = check_model_doc(result)
    if result["chord_model"]["transition"] != matrix:
        problems.append("override did not reproduce the exported chord matrix")
    if result["key_model"] != source["key_model"]:
        problems.append("override changed the key layer")
    if result["chord_model"]["emission"] != source["chord_model"]["emission"]:
        problems.append("override changed the chord emissions")
    return problems


CHECKS = {"chorale": check_chorale, "rock": check_rock, "train": check_train,
          "export": check_export, "override": check_override}


def check_job(job: dict) -> list[str]:
    """Problems with one job's outputs; unreadable or malformed outputs are
    problems too, never exceptions."""
    try:
        return CHECKS[job["kind"]](job)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
