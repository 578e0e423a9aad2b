"""Symbolic accompaniment for decoded rock melodies.

A rock melody is a `MelodyLine` with one beat per measure; `harmonize_rock`
decodes it with the chorale pipeline's `decode_key_chord`, one key and chord
per measure, and renders the backing. Note onsets and durations are whole
ticks, `PPQ` to the beat, onsets counted from the start of their measure.
Rendering is deterministic: the bass walks root then chord tones, the
keyboard plays block chords or an eighth-note arpeggio, and an optional
fixed drum pattern fills out the texture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BEATS_PER_BAR,
    MAJOR,
    PPQ,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    chord_tone_pcs,
)
from .hmm import HmmModel, decode_key_chord

EIGHTH = PPQ // 2

KICK = 36
SNARE = 38
CLOSED_HAT = 42

PATTERNS = ("arpeggio", "block")

_DRUM_MEASURE = (tuple((k * PPQ, EIGHTH, drum)
                       for k, drum in enumerate((KICK, SNARE, KICK, SNARE)))
                 + tuple((k * EIGHTH, EIGHTH, CLOSED_HAT) for k in range(8)))

# (onset ticks within the measure, duration ticks, midi)
NoteEvent = tuple[int, int, int]


@dataclass
class AccompanimentScore:
    """Per-measure note events for the melody and the backing tracks."""

    bass_track: list[list[NoteEvent]]
    keys_track: list[list[NoteEvent]]
    drum_track: list[list[NoteEvent]]
    melody_track: list[list[NoteEvent]]


def harmonize_rock(key_model: HmmModel, chord_model: HmmModel, melody: MelodyLine,
                   method: str = "viterbi", pattern: str = "arpeggio", drums: bool = True,
                   ) -> tuple[ProgressionAnnotation, AccompanimentScore]:
    """The rock counterpart of `harmonize.harmonize_melody`."""
    annotation = decode_key_chord(key_model, chord_model, melody, method)
    return annotation, render_accompaniment(melody, annotation, pattern, drums)


def render_accompaniment(melody: MelodyLine, annotation: ProgressionAnnotation,
                         pattern: str = "arpeggio",
                         drums: bool = True) -> AccompanimentScore:
    """Deterministic symbolic backing for a melody's decoded progression,
    one measure per beat of the melody.

    Every measure's bass starts on the harmonic root (octave 3) and
    ascends through the remaining chord tones, returning to the nearest
    one to fill the measure. The keyboard plays the triad as half-note
    blocks on beats 1 and 3, or as a repeating eighth-note arpeggio.
    Drums are a fixed rock pattern: kick on 1 and 3, snare on 2 and 4,
    closed hats on every eighth.
    """
    if pattern not in PATTERNS:
        raise MusicError(f"unknown accompaniment pattern: {pattern!r}")
    if len(melody) != len(annotation):
        raise MusicError(f"melody has {len(melody)} measures but the"
                         f" progression has {len(annotation)}")
    bass_track, keys_track, drum_track, melody_track = [], [], [], []
    for event, key, chord in zip(melody.events, annotation.keys, annotation.chords):
        # the rock format names a key by its tonic alone (`key_pc`), so a
        # minor key is read as the major key on the same tonic
        major = KeyLabel(key.tonic_pc, MAJOR)
        root_pc, third_pc, fifth_pc = chord_tone_pcs(chord, major)[:3]
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
        drum_track.append(list(_DRUM_MEASURE) if drums else [])
        melody_track.append([(0, BEATS_PER_BAR * PPQ, event.representative)])
    return AccompanimentScore(bass_track=bass_track, keys_track=keys_track,
                              drum_track=drum_track, melody_track=melody_track)
