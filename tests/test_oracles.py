"""Self-checks of the transposition reference in `tests/oracles.py`:
`shifted` moves a piece by some semitones note by note and `reference_offset`
gives the smallest move to its reference key, C major or A minor. They are
the reference that `test_hmm` trains against, comparing `hmm.py`'s training,
which moves only keys and pitch classes, with the model of the moved corpus;
these tests check that reference itself, not `src/`."""

import pytest

from harmonizer.core import MAJOR, KeyLabel, MusicError, transposed_degree

from oracles import parse_chorale_text, reference_offset, shifted


def transpose_to_reference(ch):
    """The piece moved by its reference offset, as training counts it."""
    return shifted(ch, reference_offset(ch))


def test_transpose_d_major_down_two(chorale_corpus):
    ch = next(c for c in chorale_corpus.chorales if c.id == "fixture-03")
    assert ch.annotation.keys[0] == KeyLabel(2, MAJOR)
    first_pitch = ch.events[0].representative
    moved = transpose_to_reference(ch)
    assert moved.annotation.keys[0] == KeyLabel(0, MAJOR)
    assert moved.events[0].representative == first_pitch - 2


def test_transpose_identity_when_already_c(chorale_corpus):
    ch = next(c for c in chorale_corpus.chorales if c.id == "fixture-01")
    assert transpose_to_reference(ch) == ch


def test_transpose_is_idempotent(chorale_corpus):
    for ch in chorale_corpus.chorales:
        once = transpose_to_reference(ch)
        assert transpose_to_reference(once) == once


def test_transpose_bflat_style_offset():
    # opening tonic of A# major moves up two semitones to C, preserving a
    # later modulation up a fifth
    text = """\
id: up-two
mode: major
0 | notes=70:1 | key=A# | roman=I
1 | notes=72:1 | key=F | roman=I
"""
    moved = transpose_to_reference(parse_chorale_text(text, "t"))
    assert moved.annotation.keys[:2] == (KeyLabel(0, MAJOR), KeyLabel(7, MAJOR))
    assert moved.events[0].representative == 72


def test_transpose_minor_targets_a(chorale_corpus):
    ch = next(c for c in chorale_corpus.chorales if c.id == "fixture-10")
    moved = transpose_to_reference(ch)
    assert moved.annotation.keys[0] == KeyLabel(9, "minor")
    assert moved.mode == "minor"


def test_transpose_preserves_degree_sequences(chorale_corpus):
    for ch in chorale_corpus.chorales:
        moved = transpose_to_reference(ch)
        before = [transposed_degree(beat.representative, key)
                  for beat, key in zip(ch.events, ch.annotation.keys)]
        after = [transposed_degree(beat.representative, key)
                 for beat, key in zip(moved.events, moved.annotation.keys)]
        assert before == after


def test_reference_move_out_of_range_names_the_first_note():
    # F# major moves down six semitones, taking the second beat's notes to
    # -2 and -5; the oracle's error names -2, the note the moved beat fails on
    text = ("id: low\nmode: major\n0 | notes=66:1 | key=F# | roman=I\n"
            "1 | notes=4:0.5,1:0.5 | key=F# | roman=I\n")
    ch = parse_chorale_text(text, "t")
    assert reference_offset(ch) == -6
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: -2$"):
        shifted(ch, -6)


def test_transpose_offset_is_smallest():
    # every major tonic, in place of a random draw of one
    offsets = []
    for tonic in range(12):
        text = (f"id: x\nmode: major\n"
                f"0 | notes=70:1 | key={KeyLabel(tonic, MAJOR)} | roman=I\n"
                f"1 | notes=72:1 | key={KeyLabel(tonic, MAJOR)} | roman=V\n")
        moved = transpose_to_reference(parse_chorale_text(text, "x"))
        offset = moved.events[0].representative - 70
        assert moved.annotation.keys[0].tonic_pc == 0
        assert -6 <= offset <= 5    # the +-6 tie is broken downward
        assert (70 + offset) % 12 == (70 - tonic) % 12
        offsets.append(offset)
    assert offsets == [0, -1, -2, -3, -4, -5, -6, 5, 4, 3, 2, 1]


def test_shifted_piece_round_trips_and_keeps_chords(chorale_corpus, rock_corpus):
    for ch in chorale_corpus.chorales + rock_corpus.chorales:
        for s in range(-11, 12):
            moved = shifted(ch, s)
            assert shifted(moved, -s) == ch, (ch.id, s)
            assert moved.annotation.chords == ch.annotation.chords
            assert [k.tonic_pc for k in moved.annotation.keys] == [
                (k.tonic_pc + s) % 12 for k in ch.annotation.keys]
            assert [b.representative for b in moved.events] == \
                [b.representative + s for b in ch.events]
