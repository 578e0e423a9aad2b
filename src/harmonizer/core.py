"""Shared musical vocabulary: pitches, keys, Roman-numeral chords, and
beat-indexed melody sequences.

All pitch arithmetic is pitch-class based (mod 12); enharmonic spelling is
out of scope. Keys serialize as note names, uppercase for major and
lowercase for minor ("C", "f#"). Chords serialize as Roman numerals with
standard inversion figures ("I", "ii6", "V65", "viio").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_NAME_TO_PC = {name: pc for pc, name in enumerate(PITCH_NAMES)}

MAJOR = "major"
MINOR = "minor"
MODES = (MAJOR, MINOR)

TONIC = "tonic"
PREDOMINANT = "predominant"
DOMINANT = "dominant"

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
NATURAL_MINOR_SCALE = (0, 2, 3, 5, 7, 8, 10)
HARMONIC_MINOR_SCALE = (0, 2, 3, 5, 7, 8, 11)

_NUMERALS = ("I", "II", "III", "IV", "V", "VI", "VII")

_ROMAN_RE = re.compile(
    r"^(?P<accidental>[b#])?"
    r"(?P<numeral>VII|VI|V|IV|III|II|I|vii|vi|v|iv|iii|ii|i)"
    r"(?P<marker>[o+])?"
    r"(?P<figure>65|64|63|43|42|7|6|2)?$"
)

# canonical inversion figures; "63" and "2" are accepted aliases on parse
_TRIAD_FIGURES = {"root": "", "first": "6", "second": "64"}
_SEVENTH_FIGURES = {"root": "7", "first": "65", "second": "43", "third": "42"}
INVERSIONS = ("root", "first", "second", "third")


class MusicError(ValueError):
    """Invalid musical value or label."""


@dataclass(frozen=True, order=True)
class Pitch:
    """MIDI pitch, integer semitones with middle C = 60."""

    midi: int

    def __post_init__(self):
        if not 0 <= self.midi <= 127:
            raise MusicError(f"MIDI pitch out of range 0-127: {self.midi}")

    @property
    def pitch_class(self) -> int:
        return self.midi % 12

    def transpose(self, semitones: int) -> "Pitch":
        return Pitch(self.midi + semitones)


@dataclass(frozen=True, order=True)
class KeyLabel:
    """One of the 24 keys: a tonic pitch class plus major/minor mode."""

    tonic_pc: int
    mode: str

    def __post_init__(self):
        if not 0 <= self.tonic_pc <= 11:
            raise MusicError(f"tonic pitch class out of range: {self.tonic_pc}")
        if self.mode not in MODES:
            raise MusicError(f"unknown mode: {self.mode!r}")

    def to_string(self) -> str:
        name = PITCH_NAMES[self.tonic_pc]
        return name if self.mode == MAJOR else name.lower()

    @classmethod
    def from_string(cls, text: str) -> "KeyLabel":
        if not isinstance(text, str) or not text.strip():
            raise MusicError(f"unknown key label: {text!r}")
        text = text.strip()
        mode = MAJOR if text[:1].isupper() else MINOR
        pc = _NAME_TO_PC.get(text[0].upper() + text[1:])
        if pc is None:
            raise MusicError(f"unknown key label: {text!r}")
        return cls(pc, mode)

    def transpose(self, semitones: int) -> "KeyLabel":
        return KeyLabel((self.tonic_pc + semitones) % 12, self.mode)


def all_keys() -> tuple[KeyLabel, ...]:
    """The full 24-key alphabet: 12 majors then 12 minors, by tonic."""
    majors = tuple(KeyLabel(pc, MAJOR) for pc in range(12))
    minors = tuple(KeyLabel(pc, MINOR) for pc in range(12))
    return majors + minors


@dataclass(frozen=True, order=True)
class RomanChord:
    """Key-relative chord: scale-degree root, quality, inversion, seventh.

    quality is one of "major", "minor", "diminished", "augmented";
    accidental shifts the root a semitone down (-1, notated "b") or
    up (+1, "#") from the diatonic degree.
    """

    degree: int
    quality: str
    inversion: str = "root"
    seventh: bool = False
    accidental: int = 0

    def __post_init__(self):
        if not 1 <= self.degree <= 7:
            raise MusicError(f"scale degree out of range: {self.degree}")
        if self.quality not in ("major", "minor", "diminished", "augmented"):
            raise MusicError(f"unknown chord quality: {self.quality!r}")
        if self.inversion not in INVERSIONS:
            raise MusicError(f"unknown inversion: {self.inversion!r}")
        if self.inversion == "third" and not self.seventh:
            raise MusicError("third inversion requires a seventh chord")
        if self.accidental not in (-1, 0, 1):
            raise MusicError(f"accidental out of range: {self.accidental}")

    @property
    def numeral(self) -> str:
        base = _NUMERALS[self.degree - 1]
        if self.quality in ("minor", "diminished"):
            base = base.lower()
        marker = {"diminished": "o", "augmented": "+"}.get(self.quality, "")
        prefix = {-1: "b", 0: "", 1: "#"}[self.accidental]
        return prefix + base + marker

    @property
    def figure(self) -> str:
        table = _SEVENTH_FIGURES if self.seventh else _TRIAD_FIGURES
        return table[self.inversion]

    def to_string(self) -> str:
        return self.numeral + self.figure

    @classmethod
    def from_string(cls, text: str) -> "RomanChord":
        m = _ROMAN_RE.match(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise MusicError(f"unparseable Roman numeral: {text!r}")
        numeral = m.group("numeral")
        marker = m.group("marker")
        figure = m.group("figure") or ""
        degree = _NUMERALS.index(numeral.upper()) + 1
        if marker == "o":
            if numeral.isupper():
                raise MusicError(f"diminished marker needs lowercase numeral: {text!r}")
            quality = "diminished"
        elif marker == "+":
            if numeral.islower():
                raise MusicError(f"augmented marker needs uppercase numeral: {text!r}")
            quality = "augmented"
        else:
            quality = "major" if numeral.isupper() else "minor"
        accidental = {"b": -1, "#": 1, None: 0}[m.group("accidental")]
        if figure in ("", "6", "63", "64"):
            seventh = False
            inversion = {"": "root", "6": "first", "63": "first", "64": "second"}[figure]
        else:
            seventh = True
            inversion = {"7": "root", "65": "first", "43": "second", "42": "third", "2": "third"}[figure]
        return cls(degree=degree, quality=quality, inversion=inversion,
                   seventh=seventh, accidental=accidental)


@dataclass(frozen=True)
class BeatEvent:
    """All notes sounding within one beat, durations as fractions of the beat.

    The representative pitch (what sequence models observe) is the note
    sounding at the beat onset, i.e. the first entry.
    """

    beat_index: int
    notes: tuple[tuple[Pitch, float], ...]

    def __post_init__(self):
        if not self.notes:
            raise MusicError(f"beat {self.beat_index} has no notes")
        total = sum(d for _, d in self.notes)
        if abs(total - 1.0) > 1e-9:
            raise MusicError(
                f"beat {self.beat_index} durations sum to {total}, expected 1.0")
        if not all(0 < d < math.inf for _, d in self.notes):
            raise MusicError(
                f"beat {self.beat_index} has a non-positive or non-finite duration")

    @property
    def representative(self) -> Pitch:
        return self.notes[0][0]


@dataclass(frozen=True)
class MelodyLine:
    """A beat-quantized melody; beat indices are contiguous from 0."""

    events: tuple[BeatEvent, ...]

    def __post_init__(self):
        if not self.events:
            raise MusicError("melody line is empty")
        for i, ev in enumerate(self.events):
            if ev.beat_index != i:
                raise MusicError(
                    f"beat indices not contiguous: expected {i}, got {ev.beat_index}")

    def __len__(self) -> int:
        return len(self.events)

    def representatives(self) -> list[Pitch]:
        return [ev.representative for ev in self.events]

    def transpose(self, semitones: int) -> "MelodyLine":
        events = tuple(
            BeatEvent(ev.beat_index,
                      tuple((p.transpose(semitones), d) for p, d in ev.notes))
            for ev in self.events)
        return MelodyLine(events)


@dataclass(frozen=True)
class ProgressionAnnotation:
    """Per-beat key and chord labels aligned with a melody."""

    keys: tuple[KeyLabel, ...]
    chords: tuple[RomanChord, ...]

    def __post_init__(self):
        if len(self.keys) != len(self.chords):
            raise MusicError(
                f"key/chord lengths differ: {len(self.keys)} vs {len(self.chords)}")

    def __len__(self) -> int:
        return len(self.keys)


def transposed_degree(pitch: Pitch | int, key: KeyLabel) -> int:
    """Melody pitch relative to the key tonic, as a pitch class 0-11."""
    midi = pitch.midi if isinstance(pitch, Pitch) else pitch
    return (midi % 12 - key.tonic_pc) % 12


# Functional grouping. Degree 6 belongs to both the tonic and predominant
# families; summaries report it as tonic, transition legality honours both.
_GROUPS_BY_DEGREE = {
    1: frozenset({TONIC}),
    2: frozenset({PREDOMINANT}),
    3: frozenset({TONIC}),
    4: frozenset({PREDOMINANT}),
    5: frozenset({DOMINANT}),
    6: frozenset({TONIC, PREDOMINANT}),
    7: frozenset({DOMINANT}),
}


def functional_group(chord: RomanChord) -> str:
    """Single reporting group for a chord: tonic, predominant or dominant."""
    groups = _GROUPS_BY_DEGREE[chord.degree]
    if TONIC in groups:
        return TONIC
    return next(iter(groups))


def functional_groups(chord: RomanChord) -> frozenset[str]:
    """All functional families the chord may act in."""
    return _GROUPS_BY_DEGREE[chord.degree]


def _retro(g1: str, g2: str) -> bool:
    return (g1 == DOMINANT and g2 == PREDOMINANT) or (g1 == PREDOMINANT and g2 == TONIC)


def is_retrogressive(first: RomanChord, second: RomanChord) -> bool:
    """True when the move violates the progression grammar under every
    functional reading of both chords."""
    return all(_retro(g1, g2)
               for g1 in functional_groups(first)
               for g2 in functional_groups(second))


def chord_root_pc(chord: RomanChord, key: KeyLabel) -> int:
    """Absolute pitch class of the chord root inside the given key."""
    if key.mode == MAJOR:
        base = MAJOR_SCALE[chord.degree - 1]
    else:
        base = NATURAL_MINOR_SCALE[chord.degree - 1]
        # leading-tone chords in minor are built on the raised seventh degree
        if chord.degree == 7 and chord.quality == "diminished":
            base = 11
    return (key.tonic_pc + base + chord.accidental) % 12


def chord_tone_pcs(chord: RomanChord, key: KeyLabel) -> tuple[int, ...]:
    """Pitch classes of the chord tones, root first: (root, third, fifth[, seventh])."""
    root = chord_root_pc(chord, key)
    third = 4 if chord.quality in ("major", "augmented") else 3
    fifth = {"diminished": 6, "augmented": 8}.get(chord.quality, 7)
    tones = [root, (root + third) % 12, (root + fifth) % 12]
    if chord.seventh:
        seventh = 9 if chord.quality == "diminished" else 10
        tones.append((root + seventh) % 12)
    return tuple(tones)


def chord_bass_pc(chord: RomanChord, key: KeyLabel) -> int:
    """Pitch class required in the bass by the chord's inversion figure."""
    tones = chord_tone_pcs(chord, key)
    return tones[INVERSIONS.index(chord.inversion)]


def leading_tone_pc(key: KeyLabel) -> int:
    """The leading tone: major scale degree 7, or raised 7 in minor."""
    return (key.tonic_pc + 11) % 12


def diatonic_pcs(key: KeyLabel) -> frozenset[int]:
    """Scale pitch classes; minor keys use the harmonic minor collection."""
    scale = MAJOR_SCALE if key.mode == MAJOR else HARMONIC_MINOR_SCALE
    return frozenset((key.tonic_pc + step) % 12 for step in scale)


# Root-position triadic numerals addressed by root pitch class relative to a
# major tonic; chromatic roots use flat spellings and default to major quality.
_TRIADIC_BY_REL_ROOT = {
    0: "I", 1: "bII", 2: "ii", 3: "bIII", 4: "iii", 5: "IV",
    6: "bV", 7: "V", 8: "bVI", 9: "vi", 10: "bVII", 11: "viio",
}


def triadic_numeral_for_root(rel_root_pc: int) -> RomanChord:
    """Root-position triad whose root sits rel_root_pc semitones above a
    major tonic. Used by measure-level corpora that label chords by root."""
    if not 0 <= rel_root_pc <= 11:
        raise MusicError(f"relative root out of range: {rel_root_pc}")
    return RomanChord.from_string(_TRIADIC_BY_REL_ROOT[rel_root_pc])

