"""Measure-level harmonization of rock melodies and symbolic accompaniment.

The decode reuses the two-stage key/chord machinery at one label per
measure. Note onsets and durations are whole ticks, `PPQ` to the beat,
onsets counted from the start of their measure. Rendering is
deterministic: the bass walks root then chord tones, the keyboard plays
block chords or an eighth-note arpeggio, and an optional fixed drum
pattern fills out the texture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BEATS_PER_BAR,
    MAJOR,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    RomanChord,
    chord_tone_pcs,
)
from .corpus import _format_records
from .hmm import HmmModel, decode_key_chord

EIGHTH = PPQ // 2

KICK = 36
SNARE = 38
CLOSED_HAT = 42

PATTERNS = ("arpeggio", "block")

# (onset ticks within the measure, duration ticks, midi)
NoteEvent = tuple[int, int, int]


@dataclass
class AccompanimentScore:
    """Per-measure note events for the generated backing tracks. The melody
    track is filled when the input melody is supplied to the renderer."""

    bass_track: list[list[NoteEvent]]
    keys_track: list[list[NoteEvent]]
    drum_track: list[list[NoteEvent]]
    melody_track: list[list[NoteEvent]] = field(default_factory=list)


def harmonize_rock(key_model: HmmModel, chord_model: HmmModel, melody_measures,
                   method: str = "viterbi") -> list[tuple[int, RomanChord]]:
    """Decode one (key pitch class, chord) pair per measure from the
    melody pitch class of each measure."""
    events = tuple(BeatEvent(i, ((60 + int(pc), PPQ),))
                   for i, pc in enumerate(melody_measures))
    melody = MelodyLine(events)
    annotation = decode_key_chord(key_model, chord_model, melody, method)
    return [(k.tonic_pc, c) for k, c in zip(annotation.keys, annotation.chords)]


def render_accompaniment(progression: list[tuple[int, RomanChord]],
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
    for i, (key_pc, chord) in enumerate(progression):
        root_pc, third_pc, fifth_pc = chord_tone_pcs(chord, KeyLabel(key_pc, MAJOR))[:3]
        root = 48 + root_pc
        third = root + (third_pc - root_pc) % 12
        fifth = root + (fifth_pc - root_pc) % 12
        bass_track.append([(k * PPQ, PPQ, pitch)
                           for k, pitch in enumerate((root, third, fifth, third))])
        block = [root + 12, third + 12, fifth + 12]
        if pattern == "block":
            keys_track.append([(0, 2 * PPQ, p) for p in block]
                              + [(2 * PPQ, 2 * PPQ, p) for p in block])
        else:
            keys_track.append([(k * EIGHTH, EIGHTH, block[k % 3]) for k in range(8)])
        if drums:
            measure = [(k * PPQ, EIGHTH, drum)
                       for k, drum in enumerate((KICK, SNARE, KICK, SNARE))]
            measure += [(k * EIGHTH, EIGHTH, CLOSED_HAT) for k in range(8)]
            drum_track.append(measure)
        else:
            drum_track.append([])
        if melody_degree_pcs is not None:
            melody_track.append([(0, BEATS_PER_BAR * PPQ,
                                  60 + melody_degree_pcs[i])])
    return AccompanimentScore(bass_track=bass_track, keys_track=keys_track,
                              drum_track=drum_track, melody_track=melody_track)


def to_progression_document(progression: list[tuple[int, RomanChord]],
                            title: str = "rock-harmonization") -> str:
    return _format_records((("id", title),),
                           ((("key_pc", str(key_pc)), ("roman", str(chord)))
                            for key_pc, chord in progression))
