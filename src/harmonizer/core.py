"""Shared musical vocabulary: keys, Roman-numeral chords, and
melodies, one beat after another, whose pitches are MIDI numbers and whose
durations are whole ticks, `PPQ` to the beat. Beats text becomes ticks
once, in `beats_to_ticks`, when a file is read.

All pitch arithmetic is pitch-class based (mod 12); enharmonic spelling is
out of scope. Keys and chords are values from parse to print: `str(label)`
is their one text form, note names for keys, uppercase for major and
lowercase for minor ("C", "f#"), Roman numerals with standard inversion
figures for chords ("I", "ii6", "V65", "viio"). `from_string` looks the
text up in a table built from `str()` of every label, so `str()` alone
defines the grammar: 24 keys, and 588 chords under 756 texts, the figure
aliases "63" and "2" included. Each label is one shared object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

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

# canonical inversion figures by (seventh, inversion), and the alias a
# figure also reads as
_FIGURES = {(False, "root"): "", (False, "first"): "6", (False, "second"): "64",
            (True, "root"): "7", (True, "first"): "65", (True, "second"): "43",
            (True, "third"): "42"}
_FIGURE_ALIASES = {"6": "63", "42": "2"}
INVERSIONS = ("root", "first", "second", "third")
QUALITIES = ("major", "minor", "diminished", "augmented")


class MusicError(ValueError):
    """Invalid musical value or label."""


# MIDI ticks per beat; every note duration is a whole number of ticks
PPQ = 480
# every piece is read in 4/4: the bar of the ornamenter's strong beats, the
# rock measure and the MIDI time signature
BEATS_PER_BAR = 4


def beats_to_ticks(value: float) -> int:
    """value beats as a positive whole number of ticks, to within 1e-6
    tick; MusicError naming the value otherwise."""
    exact = value * PPQ
    if not 0 < exact < math.inf:
        raise MusicError(f"duration {value} beats is not a positive finite"
                         f" number of ticks")
    ticks = round(exact)
    if abs(exact - ticks) > 1e-6:
        raise MusicError(f"duration {value} beats is not a whole number of"
                         f" 1/{PPQ}-beat ticks")
    if ticks < 1:
        raise MusicError(f"duration {value} beats is shorter than one"
                         f" 1/{PPQ}-beat tick")
    return ticks


@dataclass(frozen=True)
class KeyLabel:
    """One of the 24 keys: a tonic pitch class plus major/minor mode."""

    tonic_pc: int
    mode: str

    def __post_init__(self):
        if not 0 <= self.tonic_pc <= 11:
            raise MusicError(f"tonic pitch class out of range: {self.tonic_pc}")
        if self.mode not in MODES:
            raise MusicError(f"unknown mode: {self.mode!r}")

    def __str__(self) -> str:
        name = PITCH_NAMES[self.tonic_pc]
        return name if self.mode == MAJOR else name.lower()

    @classmethod
    def from_string(cls, text: str) -> "KeyLabel":
        """The shared key named by text, surrounding blanks ignored."""
        key = _KEY_BY_TEXT.get(text.strip()) if isinstance(text, str) else None
        if key is None:
            raise MusicError(f"unknown key label: {text!r}")
        return key

    def transpose(self, semitones: int) -> "KeyLabel":
        return _KEYS[(self.tonic_pc + semitones) % 12, self.mode]


# the 24 shared keys: 12 majors then 12 minors, by tonic
_ALL_KEYS = tuple(KeyLabel(pc, mode) for mode in MODES for pc in range(12))
_KEYS = {(key.tonic_pc, key.mode): key for key in _ALL_KEYS}
_KEY_BY_TEXT = {str(key): key for key in _ALL_KEYS}


def all_keys() -> tuple[KeyLabel, ...]:
    """The full 24-key alphabet: 12 majors then 12 minors, by tonic. These
    are the objects `from_string` and `transpose` return."""
    return _ALL_KEYS


@dataclass(frozen=True)
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
        if self.quality not in QUALITIES:
            raise MusicError(f"unknown chord quality: {self.quality!r}")
        if self.inversion not in INVERSIONS:
            raise MusicError(f"unknown inversion: {self.inversion!r}")
        if self.inversion == "third" and not self.seventh:
            raise MusicError("third inversion requires a seventh chord")
        if self.accidental not in (-1, 0, 1):
            raise MusicError(f"accidental out of range: {self.accidental}")

    def __str__(self) -> str:
        numeral = _NUMERALS[self.degree - 1]
        if self.quality in ("minor", "diminished"):
            numeral = numeral.lower()
        marker = {"diminished": "o", "augmented": "+"}.get(self.quality, "")
        prefix = {-1: "b", 0: "", 1: "#"}[self.accidental]
        return prefix + numeral + marker + _FIGURES[self.seventh, self.inversion]

    @classmethod
    def from_string(cls, text: str) -> "RomanChord":
        """The shared chord named by text, surrounding blanks ignored; equal
        chords spelled differently ("I6", "I63") share one object too."""
        chord = _CHORD_BY_TEXT.get(text.strip()) if isinstance(text, str) else None
        if chord is None:
            raise MusicError(f"unparseable Roman numeral: {text!r}")
        return chord


def _chord_table() -> dict[str, RomanChord]:
    """Every valid chord under the text `str()` writes for it and under its
    figure's alias: 588 chords, 756 texts."""
    table = {}
    forms = itertools.product(range(1, 8), QUALITIES, (-1, 0, 1), _FIGURES.items())
    for degree, quality, accidental, ((seventh, inversion), figure) in forms:
        chord = RomanChord(degree, quality, inversion, seventh, accidental)
        text = str(chord)
        table[text] = chord
        if figure in _FIGURE_ALIASES:
            table[text.removesuffix(figure) + _FIGURE_ALIASES[figure]] = chord
    return table


_CHORD_BY_TEXT = _chord_table()


def check_midi_pitch(midi: int) -> None:
    """MusicError unless `midi` is a MIDI note number, 0-127."""
    if not 0 <= midi <= 127:
        raise MusicError(f"MIDI pitch out of range 0-127: {midi}")


@dataclass(frozen=True)
class BeatEvent:
    """All notes sounding within one beat as (MIDI number, ticks) pairs
    whose ticks add up to exactly `PPQ`. Every melody pitch enters through
    here and is checked by `check_midi_pitch`. A beat's place is its
    position in the melody.

    The representative pitch (what sequence models observe) is the note
    sounding at the beat onset, i.e. the first entry.
    """

    notes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.notes:
            raise MusicError("beat has no notes")
        total = 0
        for midi, ticks in self.notes:
            check_midi_pitch(midi)
            if type(ticks) is not int or ticks < 1:
                raise MusicError(f"beat has a duration that is not a positive"
                                 f" whole number of ticks: {ticks!r}")
            total += ticks
        if total != PPQ:
            raise MusicError(f"beat durations sum to {total} ticks"
                             f" ({total / PPQ:g} beats), expected {PPQ}")

    @property
    def representative(self) -> int:
        return self.notes[0][0]

    def transpose(self, semitones: int) -> "BeatEvent":
        return BeatEvent(tuple((midi + semitones, ticks) for midi, ticks in self.notes))


@dataclass(frozen=True)
class MelodyLine:
    """A beat-quantized melody, one BeatEvent per beat."""

    events: tuple[BeatEvent, ...]

    def __post_init__(self):
        if not self.events:
            raise MusicError("melody line is empty")

    def __len__(self) -> int:
        return len(self.events)

    def representatives(self) -> list[int]:
        return [ev.representative for ev in self.events]

    def transpose(self, semitones: int) -> "MelodyLine":
        return MelodyLine(tuple(ev.transpose(semitones) for ev in self.events))


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

    def transpose(self, semitones: int) -> "ProgressionAnnotation":
        """Every key moved by `semitones`; the chords, being relative to
        their key, stay as they are."""
        return ProgressionAnnotation(
            tuple(key.transpose(semitones) for key in self.keys), self.chords)


def transposed_degree(pitch: int, key: KeyLabel) -> int:
    """Melody pitch relative to the key tonic, as a pitch class 0-11."""
    return (pitch - key.tonic_pc) % 12


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
_TRIADIC_BY_REL_ROOT = tuple(map(RomanChord.from_string, (
    "I", "bII", "ii", "bIII", "iii", "IV", "bV", "V", "bVI", "vi", "bVII", "viio")))


def triadic_numeral_for_root(rel_root_pc: int) -> RomanChord:
    """Root-position triad whose root sits rel_root_pc semitones above a
    major tonic. Used by measure-level corpora that label chords by root."""
    if not 0 <= rel_root_pc <= 11:
        raise MusicError(f"relative root out of range: {rel_root_pc}")
    return _TRIADIC_BY_REL_ROOT[rel_root_pc]

