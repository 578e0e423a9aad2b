"""Standard MIDI File emission and matrix/report exports.

Files are SMF format 1 at 480 ticks per quarter note: one tempo/meta
track followed by one track per voice or instrument. Note velocities are
fixed at 80 and tick arithmetic is exact, so written files re-parse to
the identical event list.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import BEATS_PER_BAR, PPQ, check_midi_pitch, functional_group
from .harmonize import Harmonization
from .hmm import HmmModel, _write_labeled_matrix
from .rock import AccompanimentScore

VELOCITY = 80
CHORALE_TEMPO = 80
ROCK_TEMPO = 120
DRUM_CHANNEL = 9

GROUP_ORDER = ("tonic", "predominant", "dominant")
GROUP_SHORT = {"tonic": "T", "predominant": "PD", "dominant": "D"}

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


def _track_chunk(events: list[tuple[int, int, bytes]]) -> bytes:
    """Serialize (tick, order, payload) events into an MTrk chunk with an
    end-of-track marker. Events are sorted by tick, then by the order key
    so note-offs precede note-ons at the same tick; the sort is stable, so
    events with equal (tick, order) keep their list order."""
    deltas = {}             # one encoding per distinct delta
    parts = []
    last_tick = 0
    for tick, _, payload in sorted(events, key=itemgetter(0, 1)):
        delta = tick - last_tick
        encoded = deltas.get(delta)
        if encoded is None:
            encoded = deltas[delta] = _var_len(delta)
        parts += (encoded, payload)
        last_tick = tick
    parts.append(END_OF_TRACK)
    body = b"".join(parts)
    return b"MTrk" + struct.pack(">I", len(body)) + body


def _note_events(notes: list[tuple[int, int, int]], channel: int):
    """(onset_tick, duration_tick, pitch) triples to on/off event tuples;
    ValueError when a duration is not a positive whole number of ticks,
    and `check_midi_pitch`'s error for a pitch outside 0-127."""
    payloads = {}           # one (on, off) pair per distinct pitch
    events = []
    for onset, duration, pitch in notes:
        if type(duration) is not int or duration < 1:
            raise ValueError(f"note duration is not a positive whole number"
                             f" of ticks: {duration!r}")
        pair = payloads.get(pitch)
        if pair is None:
            check_midi_pitch(pitch)
            pair = payloads[pitch] = (bytes([0x90 | channel, pitch, VELOCITY]),
                                      bytes([0x80 | channel, pitch, 0]))
        events.append((onset, 1, pair[0]))
        events.append((onset + duration, 0, pair[1]))
    return events


def _meta_track(tempo_bpm: int) -> list[tuple[int, int, bytes]]:
    usec_per_quarter = 60_000_000 // tempo_bpm
    tempo = struct.pack(">I", usec_per_quarter)[1:]
    return [
        # time signature BEATS_PER_BAR/4
        (0, 0, bytes([0xFF, 0x58, 0x04, BEATS_PER_BAR, 0x02, 0x18, 0x08])),
        (0, 0, bytes([0xFF, 0x51, 0x03]) + tempo),
    ]


def _harmonization_note_lists(h: Harmonization) -> list[list[tuple[int, int, int]]]:
    """SATB note lists as (onset_tick, duration_tick, pitch)."""
    voices = h.voice_lines()
    out = []
    for name in ("soprano", "alto", "tenor", "bass"):
        notes = []
        for t, beat in enumerate(voices[name]):
            cursor = t * PPQ
            for pitch, duration in beat:
                notes.append((cursor, duration, pitch))
                cursor += duration
        out.append(notes)
    return out


def _accompaniment_note_lists(score: AccompanimentScore) -> list[tuple[int, list]]:
    """(channel, notes) per instrument track, melody first;
    ValueError when an onset is not a whole number of ticks inside its
    measure."""
    measure_ticks = BEATS_PER_BAR * PPQ
    tracks = []
    layout = [(0, score.melody_track), (1, score.bass_track),
              (2, score.keys_track), (DRUM_CHANNEL, score.drum_track)]
    for channel, measures in layout:
        if not measures or all(not m for m in measures):
            continue
        notes = []
        for i, measure in enumerate(measures):
            for onset, duration, pitch in measure:
                if type(onset) is not int or not 0 <= onset < measure_ticks:
                    raise ValueError(f"note onset is not a whole number of ticks"
                                     f" in [0, {measure_ticks}): {onset!r}")
                notes.append((i * measure_ticks + onset, duration, pitch))
        tracks.append((channel, notes))
    return tracks


def write_midi(score: Harmonization | AccompanimentScore, path: str | Path,
               tempo_bpm: int | None = None) -> Path:
    """Write a harmonization (4 SATB tracks) or accompaniment score
    (melody/bass/keys/drums) as an SMF format 1 file."""
    if isinstance(score, Harmonization):
        tempo = tempo_bpm or CHORALE_TEMPO
        note_lists = _harmonization_note_lists(score)
        tracks = [_note_events(notes, channel)
                  for channel, notes in enumerate(note_lists)]
    elif isinstance(score, AccompanimentScore):
        tempo = tempo_bpm or ROCK_TEMPO
        tracks = [_note_events(notes, channel)
                  for channel, notes in _accompaniment_note_lists(score)]
    else:
        raise TypeError(f"cannot write {type(score).__name__} as MIDI")
    chunks = [_track_chunk(_meta_track(tempo))]
    chunks += [_track_chunk(events) for events in tracks]
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
    _write_labeled_matrix(emission_path, model.states, model.observations,
                          model.emission)
    return [transition_path, emission_path]


def functional_summary(chord_model: HmmModel, chord_counts: dict) -> np.ndarray:
    """3x3 matrix of transition mass between the tonic, predominant and
    dominant chord families. Source chords are weighted by how often they
    occurred in training; rows are renormalized."""
    groups = [GROUP_ORDER.index(functional_group(chord))
              for chord in chord_model.states]
    summary = np.zeros((3, 3))
    for i, gi in enumerate(groups):
        weight = float(chord_counts.get(chord_model.states[i], 0))
        if weight == 0.0:
            continue
        for j, gj in enumerate(groups):
            summary[gi, gj] += weight * chord_model.transition[i, j]
    for g in range(3):
        row_sum = summary[g].sum()
        if row_sum > 0:
            summary[g] /= row_sum
    return summary


def export_functional_summary(chord_model: HmmModel, chord_counts: dict,
                              out_path: str | Path) -> Path:
    summary = functional_summary(chord_model, chord_counts)
    path = Path(out_path)
    labels = [GROUP_SHORT[g] for g in GROUP_ORDER]
    _write_labeled_matrix(path, labels, labels, summary)
    return path
