"""Standard MIDI File emission and matrix/report exports.

Files are SMF format 1 at 480 ticks per quarter note: one tempo/meta
track followed by one track per voice or instrument. Note velocities are
fixed at 80 and tick arithmetic is exact, so written files re-parse to
the identical event list.

An SATB voice line tiles its beats, each beat's notes filling exactly one
beat, so its events already come in tick order: `_line_chunk` writes it
note by note. Rock tracks hold chords and a drum pattern out of onset
order, so `_notes_chunk` sorts their events. `_chunk` frames every track.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    BEATS_PER_BAR,
    DOMINANT,
    PPQ,
    PREDOMINANT,
    TONIC,
    check_midi_pitch,
    functional_group,
)
from .harmonize import Harmonization
from .hmm import HmmModel, _write_labeled_matrix
from .rock import AccompanimentScore

VELOCITY = 80
CHORALE_TEMPO = 80
ROCK_TEMPO = 120
DRUM_CHANNEL = 9
SATB = ("soprano", "alto", "tenor", "bass")   # track order and channels 0-3

GROUP_ORDER = (TONIC, PREDOMINANT, DOMINANT)
GROUP_SHORT = {TONIC: "T", PREDOMINANT: "PD", DOMINANT: "D"}

END_OF_TRACK = bytes([0x00, 0xFF, 0x2F, 0x00])   # zero delta, then the meta event


def _var_len(value: int) -> bytes:
    """MIDI variable-length quantity encoding."""
    if value < 0:
        raise ValueError(f"negative delta time: {value}")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def _chunk(parts: list[bytes]) -> bytes:
    """The MTrk chunk of a track's encoded events, `parts`, closed by the
    end-of-track marker."""
    parts.append(END_OF_TRACK)
    body = b"".join(parts)
    return b"MTrk" + struct.pack(">I", len(body)) + body


def _notes_chunk(notes: list[tuple[int, int, int]], channel: int) -> bytes:
    """The MTrk chunk of (onset_tick, duration_tick, pitch) triples on
    `channel`. Its events are sorted by tick, note-offs before note-ons at
    the same tick; the sort is stable, so the note-ons of one tick keep
    their list order. ValueError when an onset is not a non-negative whole
    number of ticks, a duration is not a positive one or a pitch is not an
    int, and `check_midi_pitch`'s error for a pitch outside 0-127."""
    # one (on, off) pair per distinct pitch; a `functools.cache` of a
    # per-pitch function was 7% slower (4.70 vs 4.40 ms to write the four
    # tracks of a 300-measure arpeggio accompaniment, 7,500 notes, Python 3.11)
    payloads = {}
    events = []
    for onset, duration, pitch in notes:
        if type(onset) is not int or onset < 0:
            raise ValueError(f"note onset is not a non-negative whole number"
                             f" of ticks: {onset!r}")
        if type(duration) is not int or duration < 1:
            raise ValueError(f"note duration is not a positive whole number"
                             f" of ticks: {duration!r}")
        # checked before the memo: 48.0 finds 48's entry
        if type(pitch) is not int:
            raise ValueError(f"note pitch is not a whole MIDI number: {pitch!r}")
        pair = payloads.get(pitch)
        if pair is None:
            check_midi_pitch(pitch)
            pair = payloads[pitch] = (bytes([0x90 | channel, pitch, VELOCITY]),
                                      bytes([0x80 | channel, pitch, 0]))
        events.append((onset, 1, pair[0]))
        events.append((onset + duration, 0, pair[1]))
    # one encoding per distinct delta; `functools.cache(_var_len)` was 11%
    # slower (4.91 vs 4.40 ms, the same input)
    deltas = {}
    parts = []
    last_tick = 0
    for tick, _, payload in sorted(events, key=itemgetter(0, 1)):
        delta = tick - last_tick
        encoded = deltas.get(delta)
        if encoded is None:
            encoded = deltas[delta] = _var_len(delta)
        parts += (encoded, payload)
        last_tick = tick
    return _chunk(parts)


def _line_chunk(line, channel: int) -> bytes:
    """The MTrk chunk of one SATB voice line on `channel`, its notes in
    line order. Every note is `00`, its note-on, its duration as a delta
    and its note-off: in a line whose beats each last one beat this is
    what `_notes_chunk` writes for the line's notes. ValueError when a
    pitch is not an int, a duration is not a positive whole number of
    ticks or a beat's ticks do not add up to one beat, and
    `check_midi_pitch`'s error for a pitch outside 0-127."""
    on, off = 0x90 | channel, 0x80 | channel
    encoded = {}   # (pitch, ticks) -> its note's bytes
    parts = []
    for t, beat in enumerate(line):
        total = 0
        for note in beat:
            # checked first: (60.0, 240) and (60, 240.0) find (60, 240)'s memo entry
            pitch, duration = note
            if type(pitch) is not int:
                raise ValueError(f"note pitch is not a whole MIDI number: {pitch!r}")
            if type(duration) is not int or duration < 1:
                raise ValueError(f"note duration is not a positive whole number"
                                 f" of ticks: {duration!r}")
            total += duration
            part = encoded.get(note)
            if part is None:
                check_midi_pitch(pitch)
                part = encoded[note] = (bytes([0, on, pitch, VELOCITY])
                                        + _var_len(duration)
                                        + bytes([off, pitch, 0]))
            parts.append(part)
        if total != PPQ:
            raise ValueError(f"{SATB[channel]} beat {t} lasts {total} ticks,"
                             f" not {PPQ}")
    return _chunk(parts)


def _meta_chunk(tempo_bpm: int) -> bytes:
    """The first track: at tick 0, the time signature BEATS_PER_BAR/4 and
    then the tempo."""
    time_signature = bytes([0, 0xFF, 0x58, 0x04, BEATS_PER_BAR, 0x02, 0x18, 0x08])
    usec_per_quarter = struct.pack(">I", 60_000_000 // tempo_bpm)[1:]
    tempo = bytes([0, 0xFF, 0x51, 0x03]) + usec_per_quarter
    return _chunk([time_signature, tempo])


def write_midi(score: Harmonization | AccompanimentScore, path: str | Path,
               tempo_bpm: int | None = None) -> Path:
    """Write a harmonization (4 SATB tracks) or accompaniment score
    (melody/bass/keys/drums) as an SMF format 1 file."""
    if isinstance(score, Harmonization):
        tempo = tempo_bpm or CHORALE_TEMPO
        voices = score.voice_lines()
        tracks = [_line_chunk(voices[name], channel)
                  for channel, name in enumerate(SATB)]
    elif isinstance(score, AccompanimentScore):
        tempo = tempo_bpm or ROCK_TEMPO
        layout = [(0, score.melody_track), (1, score.bass_track),
                  (2, score.keys_track), (DRUM_CHANNEL, score.drum_track)]
        tracks = [_notes_chunk(notes, channel)
                  for channel, notes in layout if notes]
    else:
        raise TypeError(f"cannot write {type(score).__name__} as MIDI")
    chunks = [_meta_chunk(tempo), *tracks]
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), PPQ)
    out = Path(path)
    out.write_bytes(header + b"".join(chunks))
    return out


def export_matrices(model: HmmModel, out_dir: str | Path, prefix: str = "") -> list[Path]:
    """Write the transition and emission matrices as labeled CSV files with
    full-precision decimal probabilities."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    transition_path = directory / f"{prefix}transition.csv"
    emission_path = directory / f"{prefix}emission.csv"
    _write_labeled_matrix(transition_path, model.states, model.states,
                          model.transition)
    _write_labeled_matrix(emission_path, model.states,
                          range(model.emission.shape[1]), model.emission)
    return [transition_path, emission_path]


def functional_summary(chord_model: HmmModel, chord_counts: dict) -> np.ndarray:
    """3x3 matrix of transition mass between the tonic, predominant and
    dominant chord families. Source chords are weighted by how often they
    occurred in training; rows are renormalized."""
    groups = [GROUP_ORDER.index(functional_group(c)) for c in chord_model.states]
    weights = np.array([chord_counts.get(c, 0) for c in chord_model.states], dtype=float)
    summary = np.zeros((3, 3))
    # one addition per chord pair in row-major order, which fixes the rounding
    np.add.at(summary, np.ix_(groups, groups), weights[:, None] * chord_model.transition)
    totals = summary.sum(axis=1, keepdims=True)
    return np.divide(summary, totals, out=summary, where=totals > 0)


def export_functional_summary(chord_model: HmmModel, chord_counts: dict,
                              out_path: str | Path) -> Path:
    summary = functional_summary(chord_model, chord_counts)
    path = Path(out_path)
    labels = [GROUP_SHORT[g] for g in GROUP_ORDER]
    _write_labeled_matrix(path, labels, labels, summary)
    return path
