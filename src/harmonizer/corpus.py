"""Corpus ingestion: structured-text chorale and rock files, melody files,
and the offset that moves a piece to its reference key.

Chorale files carry one record per beat:

    id: fixture-01
    mode: major
    0 | notes=72:1.0 | key=C | roman=I
    1 | notes=76:0.5,77:0.5 | key=C | roman=I6

Rock files carry one record per measure, all fields integer pitch classes:

    id: rock-01
    mode: major
    0 | key_pc=0 | roman_root_pc=0 | melody_degree_pc=4

Melody files reuse the chorale record grammar with the key/roman columns
absent. Rock melody files hold only `melody_degree_pc`; in them, as in
rock corpus files, each measure is one beat (`_measure_event`). Note
durations are written in beats; each is read once into whole 1/480-beat
ticks (`beats_to_ticks`), and ticks are written back as beats with enough
digits to read back to the same tick. All of these, and the score,
progression and analysis documents the other modules write, share one
grammar, read by `_records` and written by `_format_records`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import (
    MAJOR,
    MODES,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    all_keys,
    beats_to_ticks,
    check_midi_pitch,
    triadic_numeral_for_root,
)

GENRES = ("chorale", "rock")


class CorpusError(ValueError):
    """An input file problem, its message prefixed with the file and line."""

    def __init__(self, message: str, source: str = "", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}" if where else message)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; CorpusError naming the file when its bytes
    are not UTF-8. Every input file is read through here."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"not UTF-8 text: {exc}", str(path))


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; CorpusError naming the file when
    it is not JSON, nests too deeply or holds an integer too long to read."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CorpusError(f"not valid JSON: {exc}", str(path))


@dataclass(frozen=True)
class AnnotatedChorale:
    """A melody, one BeatEvent per beat, with its per-beat key and
    Roman-numeral annotation in the form the decoder returns."""

    id: str
    mode: str
    events: tuple[BeatEvent, ...]
    annotation: ProgressionAnnotation

    def __post_init__(self):
        if self.mode not in MODES:
            raise MusicError(f"unknown mode: {self.mode!r}")
        if len(self.events) < 2:
            raise MusicError(f"piece {self.id!r} has fewer than 2 events")
        if len(self.events) != len(self.annotation):
            raise MusicError(f"piece {self.id!r} has {len(self.events)} beats"
                             f" but {len(self.annotation)} labels")

    def transpose(self, semitones: int) -> "AnnotatedChorale":
        """The whole piece moved by `semitones`: notes and keys move, the
        key-relative chords stay."""
        events = tuple(beat.transpose(semitones) for beat in self.events)
        return AnnotatedChorale(self.id, self.mode, events,
                                self.annotation.transpose(semitones))


@dataclass(frozen=True)
class Corpus:
    chorales: tuple[AnnotatedChorale, ...]
    genre: str

    def select_mode(self, mode: str) -> "Corpus":
        picked = tuple(ch for ch in self.chorales if ch.mode == mode)
        return Corpus(picked, self.genre)


def _parse_note_list(text: str, source: str, line: int) -> tuple[tuple[int, int], ...]:
    """Comma-separated `pitch:beats` entries as (MIDI number, ticks)
    pairs; whether the ticks fill the beat is left to BeatEvent."""
    notes = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            pitch_s, beats_s = item.split(":")
            notes.append((int(pitch_s), beats_to_ticks(float(beats_s))))
        except ValueError as exc:
            raise CorpusError(f"bad note entry {item!r}: {exc}", source, line)
    if not notes:
        raise CorpusError("empty note list", source, line)
    return tuple(notes)


def _format_note_list(notes) -> str:
    """(MIDI number, ticks) pairs as comma-joined "pitch:beats" text. Ten
    decimals (nine is the fewest) read back to the same tick for every
    count up to a beat."""
    return ",".join(f"{midi}:{ticks / PPQ:.10f}".rstrip("0").rstrip(".")
                    for midi, ticks in notes)


def _records(text: str, source: str, unit: str, required: tuple[str, ...] = ()
             ) -> tuple[dict[str, str], list[tuple[int, dict[str, str]]]]:
    """Read the record grammar shared by every text file: `name: value`
    header lines, then `index | name=value | ...` records whose indices
    run 0, 1, 2, ...; blank and `#` lines are skipped anywhere. Returns the
    header and one (line, fields) pair per record, each record holding
    every field named in `required`."""
    header = {}
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not records and ":" in line and "|" not in line:
            name, value = line.split(":", 1)
            header[name.strip()] = value.strip()
            continue
        head, *parts = line.split("|")
        try:
            index = int(head)  # int() skips the blanks that strip() would
        except ValueError:
            raise CorpusError(f"record must start with an integer index:"
                              f" {head.strip()!r}", source, lineno)
        if index != len(records):
            raise CorpusError(f"{unit} index {index} out of order,"
                              f" expected {len(records)}", source, lineno)
        fields = {}
        for part in parts:
            name, equals, value = part.partition("=")
            if not equals:
                raise CorpusError(f"expected field=value, got {part.strip()!r}",
                                  source, lineno)
            fields[name.strip()] = value.strip()
        missing = [name for name in required if name not in fields]
        if missing:
            raise CorpusError(f"missing fields: {sorted(missing)}", source, lineno)
        records.append((lineno, fields))
    if not records:
        raise CorpusError("file has no records", source)
    return header, records


def _format_records(header, records) -> str:
    """Inverse of _records: `header` is (name, value) pairs and each record
    a sequence of (name, value) string pairs; records are numbered from 0."""
    lines = [f"{name}: {value}" for name, value in header]
    lines += [" | ".join([str(index), *map("=".join, fields)])
              for index, fields in enumerate(records)]
    return "\n".join(lines) + "\n"


def format_progression(annotation: ProgressionAnnotation, genre: str,
                       header=()) -> str:
    """One record per label, the key written as the genre's files write
    it: a chorale key by name (`key=`), a rock key by its tonic pitch
    class alone (`key_pc=`)."""
    records = []
    for key, chord in zip(annotation.keys, annotation.chords):
        if genre == "rock":
            key_field = ("key_pc", str(key.tonic_pc))
        else:
            key_field = ("key", str(key))
        records.append((key_field, ("roman", str(chord))))
    return _format_records(header, records)


def _pitch_class(fields: dict[str, str], name: str, source: str, line: int) -> int:
    """An integer field holding a pitch class, 0-11."""
    try:
        value = int(fields[name])
    except ValueError:
        raise CorpusError(f"{name} must be an integer: {fields[name]!r}", source, line)
    if not 0 <= value <= 11:
        raise CorpusError(f"{name} out of range 0-11: {value}", source, line)
    return value


def _beat(fields: dict[str, str], source: str, line: int) -> BeatEvent:
    """The `notes` field of a record as one beat; CorpusError at the
    record's line when the notes do not make a beat."""
    notes = _parse_note_list(fields["notes"], source, line)
    try:
        return BeatEvent(notes)
    except MusicError as exc:
        raise CorpusError(str(exc), source, line)


def parse_chorale_text(text: str, source: str = "<text>") -> AnnotatedChorale:
    header, records = _records(text, source, "beat", ("notes", "key", "roman"))
    mode = header.get("mode", "")
    if mode not in MODES:
        raise CorpusError(f"missing or invalid mode header: {mode!r}", source)
    events, keys, chords = [], [], []
    for lineno, fields in records:
        events.append(_beat(fields, source, lineno))
        try:
            keys.append(KeyLabel.from_string(fields["key"]))
            chords.append(RomanChord.from_string(fields["roman"]))
        except MusicError as exc:
            raise CorpusError(str(exc), source, lineno)
    try:
        return AnnotatedChorale(header.get("id", source), mode, tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


def _measure_event(melody_pc: int) -> BeatEvent:
    """A rock measure as one beat: its melody pitch class in octave 4."""
    return BeatEvent(((60 + melody_pc, PPQ),))


def parse_rock_text(text: str, source: str = "<text>") -> AnnotatedChorale:
    """Measure-level rock analyses, converted to the same event structure:
    keys become major KeyLabels, chord roots become root-position triads, and
    each measure becomes one beat (`_measure_event`)."""
    names = ("key_pc", "roman_root_pc", "melody_degree_pc")
    header, records = _records(text, source, "measure", names)
    events, keys, chords = [], [], []
    for lineno, fields in records:
        key_pc, root_pc, melody_pc = (_pitch_class(fields, name, source, lineno)
                                      for name in names)
        events.append(_measure_event(melody_pc))
        keys.append(all_keys()[key_pc])  # majors come first
        chords.append(triadic_numeral_for_root((root_pc - key_pc) % 12))
    try:
        return AnnotatedChorale(header.get("id", source), "major", tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


def parse_corpus(path: str | Path, genre: str = "chorale") -> Corpus:
    """Parse every file in a directory, in lexicographic filename order.

    Files that fail to parse are all reported together, each with its file
    and line location.
    """
    if genre not in GENRES:
        raise CorpusError(f"unknown genre: {genre!r}")
    directory = Path(path)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise CorpusError(f"no corpus files in {directory}")
    parse = parse_chorale_text if genre == "chorale" else parse_rock_text
    chorales = []
    problems = []
    for p in files:
        try:
            chorales.append(parse(read_text(p), source=str(p)))
        except CorpusError as exc:
            problems.append(str(exc))
    if problems:
        raise CorpusError("corpus parse failed:\n" + "\n".join(problems))
    return Corpus(tuple(chorales), genre)


def parse_melody_text(text: str, source: str = "<text>") -> MelodyLine:
    """Melody-only schema: the chorale record grammar without key/roman.
    Extra annotation columns are tolerated and ignored."""
    _, records = _records(text, source, "beat", ("notes",))
    return MelodyLine(tuple(_beat(fields, source, lineno)
                            for lineno, fields in records))


def parse_melody_file(path: str | Path) -> MelodyLine:
    p = Path(path)
    return parse_melody_text(read_text(p), source=str(p))


def parse_rock_melody_text(text: str, source: str = "<text>") -> MelodyLine:
    """A rock melody, one beat per measure as in `parse_rock_text`."""
    _, records = _records(text, source, "measure", ("melody_degree_pc",))
    return MelodyLine(tuple(
        _measure_event(_pitch_class(fields, "melody_degree_pc", source, lineno))
        for lineno, fields in records))


def parse_rock_melody_file(path: str | Path) -> MelodyLine:
    p = Path(path)
    return parse_rock_melody_text(read_text(p), source=str(p))


def reference_offset(chorale: AnnotatedChorale) -> int:
    """The semitones that move the chorale's opening key tonic to C (major)
    or A (minor): the smallest offset, ties broken downward, so -6..+5.
    CorpusError naming the piece when the move would take a note out of
    the MIDI range, for the first such note in beat order."""
    target = 0 if chorale.mode == MAJOR else 9
    delta = (target - chorale.annotation.keys[0].tonic_pc) % 12
    offset = delta if delta < 6 else delta - 12
    try:
        if offset:
            for beat in chorale.events:
                for midi, _ in beat.notes:
                    check_midi_pitch(midi + offset)
    except MusicError as exc:
        raise CorpusError(f"piece {chorale.id!r} transposed by {offset:+d}"
                          f" semitones to its reference key: {exc}")
    return offset
