"""Corpus ingestion: structured-text chorale and rock files and melody
files.

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
rock corpus files, each measure is one beat (`_MEASURE_EVENTS`). Note
durations are written in beats; each is read once into whole 1/480-beat
ticks (`beats_to_ticks`), and ticks are written back as beats with enough
digits to read back to the same tick. All of these, and the score,
progression and analysis documents the other modules write, share one
grammar, read by `_header` and `_records`. The writers,
`format_progression` and `harmonize.to_score_document`, build each
record as one string.

`parse_corpus` reads the regular files of a directory (links to files
included) in the order of their names compared as strings, each named as
`str(directory / name)`. Given a mode it still reads every file and its
header, once, but the chorale reader parses the records only of the
pieces it keeps: a file whose header names the other mode ends there.
Each parse call, of a corpus or of one melody, reads each distinct record
text once: one dict that lives for the call maps the text after a record's
index to its checked fields, so records written the same way in any file
share one fields dict. The index and order checks run on every line. The
call also parses each distinct `notes` text once (a `functools.cache` of
`_beat`), so equal beats are one shared object, and a rock corpus reads
each distinct record text's (event, key, chord) once. All records of a
file are checked against the grammar before any value is read. A text that
fails is never stored, so each file and line that holds it reports its own
error. Nothing is kept between calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .core import (
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
)

GENRES = ("chorale", "rock")


class CorpusError(ValueError):
    """An input file problem, its message prefixed with the file and line."""

    def __init__(self, message: str, source: str = "", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}" if where else message)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, less a byte-order mark at its start;
    CorpusError naming the file when its bytes are not UTF-8. Every input
    file is read through here."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"not UTF-8 text: {exc}", str(path))


def parse_json(text: str, source: str = ""):
    """The JSON document in `text`; CorpusError naming `source` when it is
    not JSON, nests too deeply or holds an integer too long to read."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CorpusError(f"not valid JSON: {exc}", source)


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


@dataclass(frozen=True)
class Corpus:
    chorales: tuple[AnnotatedChorale, ...]
    genre: str


def _beat(text: str) -> BeatEvent:
    """A `notes` field, comma-separated `pitch:beats` entries, as one beat
    of (MIDI number, ticks) pairs; MusicError when the entries do not make
    a beat. The callers memoize it per call and add the file and line."""
    notes = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            pitch_s, beats_s = item.split(":")
            notes.append((int(pitch_s), beats_to_ticks(float(beats_s))))
        except ValueError as exc:
            raise MusicError(f"bad note entry {item!r}: {exc}")
    if not notes:
        raise MusicError("empty note list")
    return BeatEvent(tuple(notes))


def _format_note_list(notes) -> str:
    """(MIDI number, ticks) pairs as comma-joined "pitch:beats" text. Ten
    decimals (nine is the fewest) read back to the same tick for every
    count up to a beat."""
    return ",".join(f"{midi}:{ticks / PPQ:.10f}".rstrip("0").rstrip(".")
                    for midi, ticks in notes)


def _header(text: str, source: str):
    """The `name: value` lines that open a file, and a lazy iterator over
    the (line number, stripped text) pairs of the lines after them; blank
    and `#` lines are skipped. CorpusError at the line that names a header
    field a second time. Nothing past the header is read until the
    iterator is consumed."""
    lines = ((lineno, line) for lineno, line in
             enumerate(map(str.strip, text.splitlines()), start=1)
             if line and not line.startswith("#"))
    header = {}
    for lineno, line in lines:
        if ":" not in line or "|" in line:
            return header, itertools.chain([(lineno, line)], lines)
        name, value = line.split(":", 1)
        name = name.strip()
        if name in header:
            raise CorpusError(f"header field named twice: {name!r}", source, lineno)
        header[name] = value.strip()
    return header, lines


def _records(lines, source: str, unit: str, required: set[str] | frozenset[str],
             memo: dict[str | None, dict[str, str]]
             ) -> list[tuple[int, str | None, dict[str, str]]]:
    """Read the record grammar shared by every text file from the lines
    that `_header` leaves after a file's `name: value` header lines:
    `index | name=value | ...` records whose indices, ASCII decimal
    digits, run 0, 1, 2, ...
    Returns one (line, text, fields) triple per record, each record naming
    each field at most once and holding every field named in `required`.
    `text` is the record after its first `|`, or None for a record with no
    `|` and so no fields (the empty text is a record ending in `|`).

    `memo` maps each text already read to its checked fields. The caller
    keeps it for one read call, with one `required`, so equal texts share
    one fields dict, which no caller changes. A text that fails is never stored, so each
    line that holds it reports its own error."""
    records = []
    for lineno, line in lines:
        head, bar, text = line.partition("|")
        head = head.strip()
        if head != str(len(records)):  # not the next index as the writers spell it
            if not (head.isascii() and head.isdigit()):  # int() takes "+0", "0_0"
                raise CorpusError(f"record must start with an integer index:"
                                  f" {head!r}", source, lineno)
            if int(head) != len(records):
                raise CorpusError(f"{unit} index {int(head)} out of order,"
                                  f" expected {len(records)}", source, lineno)
        if not bar:
            text = None
        fields = memo.get(text)
        if fields is None:
            fields = {}
            for part in text.split("|") if bar else ():
                name, equals, value = part.partition("=")
                if not equals:
                    raise CorpusError(f"expected field=value, got {part.strip()!r}",
                                      source, lineno)
                name = name.strip()
                if name in fields:
                    raise CorpusError(f"field named twice: {name!r}", source, lineno)
                fields[name] = value.strip()
            if not fields.keys() >= required:
                missing = sorted(required.difference(fields))
                raise CorpusError(f"missing fields: {missing}", source, lineno)
            memo[text] = fields
        records.append((lineno, text, fields))
    if not records:
        raise CorpusError("file has no records", source)
    return records


def format_progression(annotation: ProgressionAnnotation, genre: str,
                       header=()) -> str:
    """One record per label, after the `name: value` lines of `header`'s
    (name, value) pairs, the key written as the genre's files write it: a
    chorale key by name (`key=`), a rock key by its tonic pitch class
    alone (`key_pc=`)."""
    lines = [f"{name}: {value}" for name, value in header]
    labels = enumerate(zip(annotation.keys, annotation.chords))
    if genre == "rock":
        lines += [f"{t} | key_pc={key.tonic_pc} | roman={chord}"
                  for t, (key, chord) in labels]
    else:
        lines += [f"{t} | key={key} | roman={chord}" for t, (key, chord) in labels]
    return "\n".join(lines) + "\n"


def _pitch_class(fields: dict[str, str], name: str, source: str, line: int) -> int:
    """An integer field holding a pitch class, 0-11."""
    try:
        value = int(fields[name])
    except ValueError:
        raise CorpusError(f"{name} must be an integer: {fields[name]!r}", source, line)
    if not 0 <= value <= 11:
        raise CorpusError(f"{name} out of range 0-11: {value}", source, line)
    return value


def _parse_chorale(text: str, source: str, memo, beat,
                   mode: str | None) -> AnnotatedChorale | None:
    """One chorale file's text, its records read through `memo` (see
    `_records`) and its beats by `beat`, a memo of `_beat`, both of which
    the caller may share between files; CorpusError at the first bad line.
    None, before any record is read, when the header names a valid mode
    other than a `mode` that is not None; an invalid mode header is
    reported after the records."""
    header, lines = _header(text, source)
    named = header.get("mode", "")
    if mode is not None and named in MODES and named != mode:
        return None
    records = _records(lines, source, "beat", {"notes", "key", "roman"}, memo)
    if named not in MODES:
        raise CorpusError(f"missing or invalid mode header: {named!r}", source)
    events, keys, chords = [], [], []
    for lineno, _, fields in records:
        try:
            events.append(beat(fields["notes"]))
            keys.append(KeyLabel.from_string(fields["key"]))
            chords.append(RomanChord.from_string(fields["roman"]))
        except MusicError as exc:
            raise CorpusError(str(exc), source, lineno)
    try:
        return AnnotatedChorale(header.get("id", source), named, tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


# a rock measure as one beat: its melody pitch class in octave 4, one
# shared beat per pitch class
_MEASURE_EVENTS = tuple(BeatEvent(((60 + pc, PPQ),)) for pc in range(12))
# a rock chord by its root's pitch class above the major tonic: a
# root-position triad, chromatic roots spelled flat and major
_ROCK_CHORDS = tuple(map(RomanChord.from_string, (
    "I", "bII", "ii", "bIII", "iii", "IV", "bV", "V", "bVI", "vi", "bVII", "viio")))


_ROCK_FIELDS = ("key_pc", "roman_root_pc", "melody_degree_pc")


def _parse_rock(text: str, source: str, memo, values) -> AnnotatedChorale:
    """One rock file's measure-level analysis, converted to the chorale
    event structure: keys become major KeyLabels, chord roots become
    root-position triads, and each measure becomes one beat
    (`_MEASURE_EVENTS`). Its records are read through `memo` (see
    `_records`), and `values` maps each record text already read to its
    (event, key, chord); the caller may share both between files. A text
    whose value fails is never stored."""
    header, lines = _header(text, source)
    records = _records(lines, source, "measure", set(_ROCK_FIELDS), memo)
    events, keys, chords = [], [], []
    for lineno, record, fields in records:
        value = values.get(record)
        if value is None:
            key_pc, root_pc, melody_pc = (_pitch_class(fields, name, source, lineno)
                                          for name in _ROCK_FIELDS)
            value = values[record] = (_MEASURE_EVENTS[melody_pc],
                                      all_keys()[key_pc],  # majors come first
                                      _ROCK_CHORDS[(root_pc - key_pc) % 12])
        event, key, chord = value
        events.append(event)
        keys.append(key)
        chords.append(chord)
    try:
        return AnnotatedChorale(header.get("id", source), "major", tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


def parse_corpus(path: str | Path, genre: str = "chorale",
                 mode: str | None = None) -> Corpus:
    """Parse the pieces of `mode` (every piece when None) from the files of
    a directory, in name order; subdirectories are skipped. One record
    memo, and one `_beat` memo or rock value memo, serve every file.

    Every file is read, but the chorale reader skips a file whose header
    names a valid mode other than `mode` after that header: its records
    are not parsed. Any other file is parsed whole, so one with a missing
    or invalid mode header fails as it would without `mode`; one whose
    header names a field twice fails under every mode. Rock pieces are
    all major. Files that fail to parse are all reported together, each
    with its file and line location.
    """
    if genre not in GENRES:
        raise CorpusError(f"unknown genre: {genre!r}")
    directory = Path(path)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    with os.scandir(directory) as entries:
        names = sorted(entry.name for entry in entries if entry.is_file())
    if not names:
        raise CorpusError(f"no corpus files in {directory}")
    # prefix + name is str(directory / name): no "./" for ".", one "/"
    prefix = str(directory / "_")[:-1]
    if genre == "chorale":
        parse = functools.partial(_parse_chorale, memo={},
                                  beat=functools.cache(_beat), mode=mode)
    else:
        parse = functools.partial(_parse_rock, memo={}, values={})
    chorales = []
    problems = []
    for name in names:
        source = prefix + name
        try:
            piece = parse(read_text(source), source)
        except CorpusError as exc:
            problems.append(str(exc))
            continue
        if piece is not None and mode in (None, piece.mode):
            chorales.append(piece)
    if problems:
        raise CorpusError("corpus parse failed:\n" + "\n".join(problems))
    return Corpus(tuple(chorales), genre)


def parse_melody_text(text: str, source: str = "<text>") -> MelodyLine:
    """Melody-only schema: the chorale record grammar without key/roman.
    Extra annotation columns are tolerated and ignored."""
    records = _records(_header(text, source)[1], source, "beat", {"notes"}, {})
    beat = functools.cache(_beat)
    events = []
    for lineno, _, fields in records:
        try:
            events.append(beat(fields["notes"]))
        except MusicError as exc:
            raise CorpusError(str(exc), source, lineno)
    return MelodyLine(tuple(events))


def parse_melody_file(path: str | Path, genre: str = "chorale") -> MelodyLine:
    """A melody file, read with the reader of its genre."""
    p = Path(path)
    parse = parse_rock_melody_text if genre == "rock" else parse_melody_text
    return parse(read_text(p), source=str(p))


def parse_rock_melody_text(text: str, source: str = "<text>") -> MelodyLine:
    """A rock melody, one beat per measure as in a rock corpus file."""
    records = _records(_header(text, source)[1], source, "measure",
                       {"melody_degree_pc"}, {})
    return MelodyLine(tuple(
        _MEASURE_EVENTS[_pitch_class(fields, "melody_degree_pc", source, lineno)]
        for lineno, _, fields in records))

