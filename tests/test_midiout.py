from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from harmonizer import midiout
from harmonizer.core import (
    MAJOR,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    ProgressionAnnotation,
    RomanChord,
    check_midi_pitch,
)
from harmonizer.harmonize import Arrangement, Harmonization, harmonize_melody
from harmonizer.hmm import read_transition_csv
from harmonizer.midiout import (
    PPQ,
    _line_chunk,
    _notes_chunk,
    export_functional_summary,
    export_matrices,
    functional_summary,
    write_midi,
)
from harmonizer.ornament import OrnamentConfig, insert_ornaments
from harmonizer.rock import render_accompaniment

from oracles import _variable_length, smf_note_track
from smf_reader import read_midi


def melody_from_midi(pitches) -> MelodyLine:
    return MelodyLine(tuple(BeatEvent(((m, PPQ),)) for m in pitches))


def tiny_harmonization(n=1) -> Harmonization:
    melody = melody_from_midi([72] * n)
    arrangements = [Arrangement(64, 55, 48) for _ in range(n)]
    keys = tuple([KeyLabel(0, MAJOR)] * n)
    chords = tuple([RomanChord.from_string("I")] * n)
    return Harmonization(soprano=melody, arrangements=arrangements,
                         annotation=ProgressionAnnotation(keys, chords),
                         violation_log=[])


def tiny_accompaniment(n=1, pattern="arpeggio"):
    """`n` measures of I in C under a held middle C."""
    return render_accompaniment(melody_from_midi([60] * n),
                                tiny_harmonization(n).annotation, pattern)


def test_single_beat_chorale_file_layout(tmp_path):
    path = write_midi(tiny_harmonization(), tmp_path / "one.mid")
    parsed = read_midi(path)
    assert parsed.format == 1
    assert parsed.division == PPQ
    assert len(parsed.tracks) == 5  # meta + SATB
    assert parsed.tracks[0].tempos, "tempo event expected in the meta track"
    tick = 60_000_000 // 80
    assert parsed.tracks[0].tempos[0] == (0, tick)
    for track, pitch in zip(parsed.tracks[1:], (72, 64, 55, 48)):
        assert track.notes == [(pitch, 0, PPQ, track.notes[0][3])]


def test_round_trip_fixture_harmonization(tmp_path, major_bundle, fixture_melodies):
    name, melody = fixture_melodies[2]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    path = write_midi(h, tmp_path / f"{name}.mid")
    parsed = read_midi(path)
    voices = h.voice_lines()
    for track, voice in zip(parsed.tracks[1:],
                            ("soprano", "alto", "tenor", "bass")):
        expected = []
        for beat_index, beat in enumerate(voices[voice]):
            cursor = beat_index * PPQ
            for pitch, ticks in beat:
                expected.append((pitch, cursor, ticks))
                cursor += ticks
        assert [(p, o, d) for p, o, d, _ in track.notes] == expected


def test_ornamented_notes_get_eighth_ticks(tmp_path, major_bundle,
                                           fixture_melodies):
    _, melody = fixture_melodies[5]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    ornamented = insert_ornaments(h, OrnamentConfig(1.0, 1.0, 1.0, rng_seed=2))
    path = write_midi(ornamented, tmp_path / "orn.mid")
    parsed = read_midi(path)
    durations = {d for track in parsed.tracks[1:] for _, _, d, _ in track.notes}
    assert 240 in durations  # an eighth note somewhere
    assert durations <= {240, 480}


def test_rock_round_trip_and_channels(tmp_path, rock_bundle):
    from harmonizer.hmm import decode_key_chord
    melody = melody_from_midi([60, 64, 67, 65, 69, 60, 67, 60])
    annotation = decode_key_chord(rock_bundle.key_model, rock_bundle.chord_model,
                                  melody)
    score = render_accompaniment(melody, annotation, "arpeggio", True)
    path = write_midi(score, tmp_path / "rock.mid")
    parsed = read_midi(path)
    assert len(parsed.tracks) == 5  # meta, melody, bass, keys, drums
    assert parsed.tracks[0].tempos[0] == (0, 60_000_000 // 120)
    drum_channels = {c for _, _, _, c in parsed.tracks[4].notes}
    assert drum_channels == {9}
    # the bass track round-trips every measure
    assert len(score.bass_track) == 4 * len(melody)
    expected = sorted((pitch, onset, duration)
                      for onset, duration, pitch in score.bass_track)
    got = sorted((p, o, d) for p, o, d, _ in parsed.tracks[2].notes)
    assert got == expected


def test_write_rejects_bad_pitch(tmp_path):
    h = tiny_harmonization()
    h.alto_line = [((64, PPQ),)]
    h.arrangements[0] = Arrangement(64, 55, 48)
    score = tiny_accompaniment()
    score.bass_track[0] = (0, PPQ, 400)
    with pytest.raises(ValueError, match="400"):
        write_midi(score, tmp_path / "bad.mid")


# --- the track encoder against the literal one in tests/oracles.py -------------

def _chunks(data: bytes) -> list[bytes]:
    """The MTrk chunks of an SMF file, each with its 8-byte chunk header."""
    chunks, at = [], 14
    while at < len(data):
        length = int.from_bytes(data[at + 4:at + 8], "big")
        chunks.append(data[at:at + 8 + length])
        at += 8 + length
    return chunks


@pytest.mark.parametrize("value, expected", [
    (0, [0x00]), (0x40, [0x40]), (0x7F, [0x7F]), (0x80, [0x81, 0x00]),
    (0x2000, [0xC0, 0x00]), (0x3FFF, [0xFF, 0x7F]), (0x4000, [0x81, 0x80, 0x00]),
    (0x0FFFFFFF, [0xFF, 0xFF, 0xFF, 0x7F])])
def test_oracle_variable_length_matches_smf_spec(value, expected):
    assert _variable_length(value) == expected


# onsets and durations mix a few common values, which give ties, zero deltas
# and overlapping notes, with wide ones, which give deltas of 2^14 and more
_TICKS = st.one_of(st.sampled_from([0, 240, 480, 960]), st.integers(0, 2 ** 22))
_DURATIONS = st.one_of(st.sampled_from([240, 480]), st.integers(1, 2 ** 21))
_NOTES = st.lists(st.tuples(_TICKS, _DURATIONS, st.integers(0, 127)), max_size=40)


@given(notes=_NOTES, channel=st.integers(0, 15))
# two chords sharing onsets and offsets, an overlap, an offset meeting an
# onset, and a gap of 2^14 ticks
@example(notes=[(0, 480, 60), (0, 480, 64), (240, 480, 67), (480, 240, 60),
                (480, 240, 64), (720 + 2 ** 14, 480, 72)], channel=2)
def test_track_bytes_match_literal_encoder(notes, channel):
    assert _notes_chunk(notes, channel) == smf_note_track(notes, channel)


def _laid_out(line) -> list[tuple[int, int, int]]:
    """A voice line's (onset_tick, duration_tick, pitch) notes, beat t
    starting at t * PPQ and each note where the one before it ends."""
    notes = []
    for beat_index, beat in enumerate(line):
        cursor = beat_index * PPQ
        for pitch, ticks in beat:
            notes.append((cursor, ticks, pitch))
            cursor += ticks
    return notes


def test_ornamented_file_tracks_match_literal_encoder(tmp_path, major_bundle,
                                                      fixture_melodies):
    _, melody = fixture_melodies[5]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    ornamented = insert_ornaments(h, OrnamentConfig(1.0, 1.0, 1.0, rng_seed=2))
    tracks = _chunks(write_midi(ornamented, tmp_path / "orn.mid").read_bytes())
    voices = ornamented.voice_lines()
    for channel, name in enumerate(("soprano", "alto", "tenor", "bass")):
        notes = _laid_out(voices[name])
        assert tracks[1 + channel] == smf_note_track(notes, channel)


def _split_beat(cuts, pitches):
    """One beat of len(pitches) notes, split at the lowest len(pitches) - 1
    of the distinct cut ticks."""
    bounds = [0, *sorted(cuts)[:len(pitches) - 1], PPQ]
    return tuple(zip(pitches, (b - a for a, b in zip(bounds, bounds[1:]))))


# 1-3 notes per beat whose ticks add up to one beat; common cuts and
# pitches make repeated notes, and so memo hits, likely
_SATB_BEAT = st.builds(
    _split_beat,
    st.lists(st.one_of(st.sampled_from([120, 240, 360]), st.integers(1, PPQ - 1)),
             min_size=2, max_size=2, unique=True),
    st.lists(st.one_of(st.sampled_from([60, 64]), st.integers(0, 127)),
             min_size=1, max_size=3))
_SATB_LINES = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(_SATB_BEAT, min_size=n, max_size=n), min_size=4, max_size=4))


def _harmonization_of(lines) -> Harmonization:
    h = tiny_harmonization(len(lines[0]))
    h.soprano = MelodyLine(tuple(map(BeatEvent, lines[0])))
    h.alto_line, h.tenor_line, h.bass_line = lines[1:]
    return h


@given(lines=_SATB_LINES)
# a pitch held across a beat line, a repeated eighth and a 1-tick note
@example(lines=[[((60, 480),), ((60, 240), (60, 240))],
                [((55, 1), (57, 479)), ((55, 480),)],
                [((48, 480),), ((48, 240), (50, 240))],
                [((36, 480),), ((36, 480),)]])
def test_satb_tracks_match_literal_encoder(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("satb") / "satb.mid"
    tracks = _chunks(write_midi(_harmonization_of(lines), path).read_bytes())
    assert len(tracks) == 5
    for channel, line in enumerate(lines):
        expected = smf_note_track(_laid_out(line), channel)
        assert tracks[1 + channel] == expected
        assert _line_chunk(line, channel) == expected


def test_float_duration_raises_after_its_int_twin(tmp_path):
    # (64, 240.0) == (64, 240) and both hash alike, so a memo that the
    # check came after would let the float through
    h = tiny_harmonization(2)
    h.alto_line = [((64, 240), (64, 240)), ((64, 240.0), (64, 240.0))]
    with pytest.raises(ValueError, match="^note duration is not a positive whole"
                       " number of ticks: 240.0$"):
        write_midi(h, tmp_path / "float.mid")


@pytest.mark.parametrize("first,second", [(64, 64.0), (64.0, 64)])
def test_float_pitch_raises_in_either_order(tmp_path, first, second):
    # 64.0 == 64 and both hash alike, so a pitch memo that the check came
    # after would write the float when it follows its int twin
    h = tiny_harmonization(2)
    h.alto_line = [((first, 480),), ((second, 480),)]
    with pytest.raises(ValueError, match="^note pitch is not a whole MIDI"
                       " number: 64.0$"):
        write_midi(h, tmp_path / "float.mid")
    score = tiny_accompaniment()
    score.bass_track[:2] = [(0, 480, first - 16), (480, 480, second - 16)]
    with pytest.raises(ValueError, match="^note pitch is not a whole MIDI"
                       " number: 48.0$"):
        write_midi(score, tmp_path / "float-rock.mid")


@pytest.mark.parametrize("beat,voice,total", [
    (((55, 240), (57, 480)), "tenor", 720),
    (((55, 240),), "tenor", 240),
    ((), "tenor", 0),
    (((64, 479),), "alto", 479),
])
def test_chorale_beat_not_one_beat_long_raises(tmp_path, beat, voice, total):
    # written note after note, such a beat would overlap the next one or
    # leave a gap before it
    h = tiny_harmonization(3)
    getattr(h, f"{voice}_line")[1] = beat
    out = tmp_path / "long.mid"
    with pytest.raises(ValueError, match=f"^{voice} beat 1 lasts {total} ticks,"
                       f" not {PPQ}$"):
        write_midi(h, out)
    assert not out.exists()


def test_pitch_check_fires_after_valid_pitches(tmp_path):
    with pytest.raises(ValueError, match="^MIDI pitch out of range 0-127: 128$"):
        _notes_chunk([(0, 480, 60), (480, 480, 127), (960, 480, 60),
                      (1440, 480, 128)], 0)
    score = tiny_accompaniment()
    score.bass_track[:3] = [(0, 240, 48), (240, 240, 48), (480, 480, 128)]
    with pytest.raises(ValueError, match="128"):
        write_midi(score, tmp_path / "bad.mid")


def test_writer_memos_run_once_per_distinct_input_per_call(monkeypatch):
    encoded, checked = [], []
    var_len = midiout._var_len

    def counting_var_len(value):
        encoded.append(value)
        return var_len(value)

    def counting_check(pitch):
        checked.append(pitch)
        return check_midi_pitch(pitch)

    monkeypatch.setattr(midiout, "_var_len", counting_var_len)
    monkeypatch.setattr(midiout, "check_midi_pitch", counting_check)
    notes = [(0, 480, 60), (0, 480, 64), (480, 240, 60), (720, 240, 62),
             (960, 960, 60), (1920, 480, 64)]
    for channel in (0, 0, 3):
        encoded.clear()
        checked.clear()
        chunk = _notes_chunk(notes, channel)
        assert Counter(checked) == Counter({60, 62, 64})
        ticks = sorted([on for on, _, _ in notes] + [on + d for on, d, _ in notes])
        assert Counter(encoded) == Counter({b - a for a, b in zip([0] + ticks, ticks)})
        assert chunk == smf_note_track(notes, channel)
    # an SATB line encodes each distinct (pitch, ticks) note once per track
    line = [((60, 480),), ((60, 240), (62, 240)), ((60, 240), (62, 240)),
            ((62, 240), (60, 240)), ((64, 480),), ((60, 480),)]
    for channel in (0, 0, 3):
        encoded.clear()
        checked.clear()
        chunk = _line_chunk(line, channel)
        assert Counter(encoded) == Counter({480: 2, 240: 2})
        assert Counter(checked) == Counter({60: 2, 62: 1, 64: 1})
        assert chunk == smf_note_track(_laid_out(line), channel)


def test_negative_delta_is_rejected():
    with pytest.raises(ValueError, match="negative delta time"):
        midiout._var_len(-1)


def test_off_grid_fraction_after_ornaments_raises(tmp_path, major_bundle,
                                                  fixture_melodies):
    _, melody = fixture_melodies[5]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    ornamented = insert_ornaments(h, OrnamentConfig(1.0, 1.0, 1.0, rng_seed=2))
    assert any(len(beat) == 2 for beat in ornamented.alto_line[:-1])
    pitch = ornamented.alto_line[-1][0][0]
    # durations are int ticks; the writer takes nothing else, not even a
    # whole float, and reports the value
    for beat, shown in ((((pitch, 480 / 7), (pitch, 2880 / 7)), "68.57"),
                        (((pitch, 240.0), (pitch, 240.0)), "240.0"),
                        (((pitch, 0), (pitch, PPQ)), "0$"),
                        (((pitch, True), (pitch, 479)), "True")):
        ornamented.alto_line[-1] = beat
        with pytest.raises(ValueError, match="not a positive whole number of"
                           f" ticks: {shown}"):
            write_midi(ornamented, tmp_path / "off-grid.mid")
    score = tiny_accompaniment()
    score.keys_track[-1] = (7 * 240, 240.0, 67)
    with pytest.raises(ValueError, match="not a positive whole number of ticks"):
        write_midi(score, tmp_path / "off-grid-rock.mid")
    # an onset, rock or chorale, is a non-negative int tick from the start of
    # the piece: not a fraction, not a whole float and not before the piece
    score = tiny_accompaniment(2, pattern="block")
    _, duration, pitch = score.keys_track[7]
    for onset in (240.5, 240.0, -240):
        score.keys_track[7] = (onset, duration, pitch)
        with pytest.raises(ValueError, match="onset is not a non-negative whole"
                           f" number of ticks: {onset}$"):
            write_midi(score, tmp_path / "off-grid-rock.mid")
    # tracks have no measures, so a note past the last one is written
    score.keys_track[7] = (8 * PPQ, duration, pitch)
    notes = read_midi(write_midi(score, tmp_path / "late.mid")).tracks[3].notes
    assert (pitch, 8 * PPQ, duration) in [(p, o, d) for p, o, d, _ in notes]
    with pytest.raises(ValueError, match="onset .* ticks: 0.5$"):
        _notes_chunk([(0, PPQ, 60), (0.5, PPQ, 62)], 0)


# --- matrix exports -------------------------------------------------------------

def test_export_key_matrix_is_24x24(tmp_path, major_bundle):
    paths = export_matrices(major_bundle.key_model, tmp_path, prefix="key_")
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 25  # header plus one row per key
    header = lines[0].split(",")
    assert len(header) == 25
    labels, matrix = read_transition_csv(paths[0])
    assert len(labels) == 24
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6)


def test_export_import_round_trip_bitexact(tmp_path, major_bundle):
    paths = export_matrices(major_bundle.chord_model, tmp_path, prefix="chord_")
    labels, matrix = read_transition_csv(paths[0])
    assert list(labels) == [str(s) for s in major_bundle.chord_model.states]
    assert np.array_equal(matrix, major_bundle.chord_model.transition)


def test_functional_summary_recomputation(tmp_path, major_bundle):
    out = export_functional_summary(major_bundle.chord_model,
                                    major_bundle.chord_counts,
                                    tmp_path / "summary.csv")
    labels, matrix = read_transition_csv(out)
    assert labels == ["T", "PD", "D"]
    recomputed = functional_summary(major_bundle.chord_model,
                                    major_bundle.chord_counts)
    assert np.allclose(matrix, recomputed, atol=1e-9)
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)


def test_functional_summary_dominants_resolve(major_bundle):
    summary = functional_summary(major_bundle.chord_model,
                                 major_bundle.chord_counts)
    t, pd, d = 0, 1, 2
    assert summary[d, t] > summary[d, pd]
    assert summary[pd, d] >= summary[pd, t]


def test_functional_summary_single_chord():
    from harmonizer.hmm import estimate
    one = RomanChord.from_string("I")
    model = estimate([one], [([one, one, one], [0, 0, 0])], alpha=0.0)
    summary = functional_summary(model, {one: 3})
    assert summary[0, 0] == pytest.approx(1.0)
    assert summary[1].sum() == 0 and summary[2].sum() == 0


@pytest.mark.parametrize("score", ["C major", None, {"bass_track": []}],
                         ids=["str", "none", "dict"])
def test_write_midi_refuses_other_types(tmp_path, score):
    with pytest.raises(TypeError,
                       match=f"^cannot write {type(score).__name__} as MIDI$"):
        write_midi(score, tmp_path / "other.mid")
    assert not (tmp_path / "other.mid").exists()
