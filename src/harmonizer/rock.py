"""Measure-level harmonization of rock melodies and symbolic accompaniment.

The decode reuses the two-stage key/chord machinery at one label per
measure. Rendering is deterministic: the bass walks root then chord tones,
the keyboard plays block chords or an eighth-note arpeggio, and an
optional fixed drum pattern fills out the texture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    MAJOR,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    RomanChord,
    chord_tone_pcs,
)
from .corpus import _format_records
from .hmm import HmmModel, decode_key_chord

BEATS_PER_MEASURE = 4

KICK = 36
SNARE = 38
CLOSED_HAT = 42

PATTERNS = ("arpeggio", "block")

# (onset_in_beats, duration_in_beats, midi)
NoteEvent = tuple[float, float, int]


@dataclass
class AccompanimentScore:
    """Per-measure note events for the generated backing tracks. The melody
    track is filled when the input melody is supplied to the renderer."""

    bass_track: list[list[NoteEvent]]
    keys_track: list[list[NoteEvent]]
    drum_track: list[list[NoteEvent]]
    melody_track: list[list[NoteEvent]] = field(default_factory=list)


def harmonize_rock(key_model: HmmModel, chord_model: HmmModel,
                   melody_measures, method: str = "viterbi") -> list[tuple[int, str]]:
    """Decode one (key pitch class, numeral) pair per measure from the
    melody pitch class of each measure."""
    events = tuple(BeatEvent(i, ((60 + int(pc), 1.0),))
                   for i, pc in enumerate(melody_measures))
    melody = MelodyLine(events)
    annotation = decode_key_chord(key_model, chord_model, melody, method)
    return [(k.tonic_pc, c.to_string())
            for k, c in zip(annotation.keys, annotation.chords)]


def _triad(key_pc: int, numeral: str) -> tuple[int, int, int]:
    """Chord tone pitch classes (root, third, fifth) in absolute terms."""
    chord = RomanChord.from_string(numeral)
    tones = chord_tone_pcs(chord, KeyLabel(key_pc, MAJOR))
    return tones[0], tones[1], tones[2]


def render_accompaniment(progression: list[tuple[int, str]],
                         pattern: str = "arpeggio", drums: bool = True,
                         melody_degree_pcs: list[int] | None = None) -> AccompanimentScore:
    """Deterministic symbolic backing for a decoded progression.

    Every measure's bass starts on the harmonic root (octave 3) and
    ascends through the remaining chord tones, returning to the nearest
    one to fill the measure. The keyboard plays the triad as half-note
    blocks on beats 1 and 3, or as a repeating eighth-note arpeggio.
    Drums are a fixed rock pattern: kick on 1 and 3, snare on 2 and 4,
    closed hats on every eighth.
    """
    if not progression:
        raise MusicError("empty progression")
    if pattern not in PATTERNS:
        raise MusicError(f"unknown accompaniment pattern: {pattern!r}")
    if melody_degree_pcs is not None and len(melody_degree_pcs) != len(progression):
        raise MusicError("melody length does not match progression length")
    bass_track, keys_track, drum_track, melody_track = [], [], [], []
    for i, (key_pc, numeral) in enumerate(progression):
        root_pc, third_pc, fifth_pc = _triad(key_pc, numeral)
        root = 48 + root_pc
        third = root + (third_pc - root_pc) % 12
        fifth = root + (fifth_pc - root_pc) % 12
        bass_track.append([(0.0, 1.0, root), (1.0, 1.0, third),
                           (2.0, 1.0, fifth), (3.0, 1.0, third)])
        block = [60 + root_pc, 60 + root_pc + (third_pc - root_pc) % 12,
                 60 + root_pc + (fifth_pc - root_pc) % 12]
        if pattern == "block":
            keys_track.append([(0.0, 2.0, p) for p in block]
                              + [(2.0, 2.0, p) for p in block])
        else:
            cycle = [block[0], block[1], block[2]]
            keys_track.append([(k * 0.5, 0.5, cycle[k % 3]) for k in range(8)])
        if drums:
            measure = [(0.0, 0.5, KICK), (1.0, 0.5, SNARE),
                       (2.0, 0.5, KICK), (3.0, 0.5, SNARE)]
            measure += [(k * 0.5, 0.5, CLOSED_HAT) for k in range(8)]
            drum_track.append(measure)
        else:
            drum_track.append([])
        if melody_degree_pcs is not None:
            melody_track.append([(0.0, float(BEATS_PER_MEASURE),
                                  60 + melody_degree_pcs[i])])
    return AccompanimentScore(bass_track=bass_track, keys_track=keys_track,
                              drum_track=drum_track, melody_track=melody_track)


def to_progression_document(progression: list[tuple[int, str]],
                            title: str = "rock-harmonization") -> str:
    return _format_records((("id", title),),
                           ((("key_pc", str(key_pc)), ("roman", numeral))
                            for key_pc, numeral in progression))
