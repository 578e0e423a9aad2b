import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    PPQ,
    KeyLabel,
    MusicError,
    ProgressionAnnotation,
    transposed_degree,
)
from harmonizer.corpus import (
    AnnotatedChorale,
    CorpusError,
    parse_chorale_text,
    parse_corpus,
    parse_melody_text,
    parse_rock_text,
    reference_offset,
    _format_note_list,
    _format_records,
    _parse_note_list,
    _records,
)

VALID_CHORALE = """\
id: tiny
mode: major
0 | notes=72:1 | key=C | roman=I
1 | notes=74:0.5,76:0.5 | key=C | roman=V
2 | notes=72:1 | key=C | roman=I
"""


def test_parse_valid_chorale():
    ch = parse_chorale_text(VALID_CHORALE, "tiny.txt")
    assert ch.id == "tiny"
    assert ch.mode == "major"
    assert len(ch.events) == 3
    assert [midi for midi, _ in ch.events[1].notes] == [74, 76]
    assert ch.annotation.keys[1] == KeyLabel(0, MAJOR)
    assert str(ch.annotation.chords[1]) == "V"


def test_parse_reports_location_of_bad_duration():
    bad = VALID_CHORALE.replace("74:0.5,76:0.5", "74:0.5,76:0.4")
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(bad, "tiny.txt")
    assert "tiny.txt:4" in str(err.value)
    assert "0.9" in str(err.value)


def test_parse_reports_bad_key_and_numeral():
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(VALID_CHORALE.replace("key=C", "key=X", 1), "t.txt")
    assert "t.txt:3" in str(err.value)
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(VALID_CHORALE.replace("roman=V", "roman=V99"), "t.txt")
    assert "t.txt:4" in str(err.value)


def test_parse_rejects_out_of_order_beats():
    shuffled = VALID_CHORALE.replace("1 | notes=74", "7 | notes=74")
    with pytest.raises(CorpusError):
        parse_chorale_text(shuffled, "t.txt")


def test_parse_corpus_fixture_counts(data_dir, chorale_corpus):
    # hand count of the fixture files committed under data/chorales
    expected = {
        "fixture-01": 16, "fixture-02": 20, "fixture-03": 16, "fixture-04": 16,
        "fixture-05": 16, "fixture-06": 16, "fixture-07": 12, "fixture-08": 18,
        "fixture-09": 12, "fixture-10": 12,
    }
    assert len(chorale_corpus.chorales) == len(expected)
    for ch in chorale_corpus.chorales:
        assert len(ch.events) == expected[ch.id], ch.id
    # deterministic lexicographic ordering
    assert [ch.id for ch in chorale_corpus.chorales] == sorted(expected)


def test_parse_corpus_empty_directory(tmp_path):
    with pytest.raises(CorpusError):
        parse_corpus(tmp_path, "chorale")


def test_parse_corpus_collects_file_diagnostics(tmp_path):
    (tmp_path / "a.txt").write_text(VALID_CHORALE)
    (tmp_path / "b.txt").write_text(VALID_CHORALE.replace("key=C", "key=Q", 1))
    with pytest.raises(CorpusError) as err:
        parse_corpus(tmp_path, "chorale")
    assert "b.txt:3" in str(err.value)


def test_every_written_tick_count_reads_back():
    for ticks in range(1, PPQ + 1):
        text = _format_note_list([(60, ticks)])
        assert _parse_note_list(text, "t.txt", 1) == ((60, ticks),), text


def test_triplet_chorale_survives_serialize_and_parse():
    triplets = "74:0.3333333333,76:0.3333333333,77:0.3333333333"
    ch = parse_chorale_text(VALID_CHORALE.replace("74:0.5,76:0.5", triplets))
    assert ch.events[1].notes == ((74, 160), (76, 160), (77, 160))
    assert _format_note_list(ch.events[1].notes) == triplets


_NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8)
# values may hold ":", "=" and "#", but not "|" or a line break; the reader
# strips the spaces around them
_VALUES = st.text(string.ascii_letters + string.digits + " #:=.,;-",
                  max_size=12).map(str.strip)


@given(header=st.dictionaries(_NAMES, _VALUES, max_size=3),
       records=st.lists(st.dictionaries(_NAMES, _VALUES, max_size=4),
                        min_size=1, max_size=5))
def test_written_records_read_back(header, records):
    text = _format_records(header.items(), [fields.items() for fields in records])
    got_header, got = _records(text, "t.txt", "beat")
    assert got_header == header
    assert [fields for _, fields in got] == records


@pytest.mark.parametrize("line, message", [
    ("x | notes=72:1", "record must start with an integer index: 'x'"),
    ("|notes=72:1", "record must start with an integer index: ''"),
    ("0x\t| n=1", "record must start with an integer index: '0x'"),
    ("0 | notes", "expected field=value, got 'notes'"),
    ("0\t|\tnotes\t| n=1", "expected field=value, got 'notes'"),
    ("0 || notes=1", "expected field=value, got ''"),
    ("1 | notes=72:1", "beat index 1 out of order, expected 0"),
])
def test_record_errors_name_the_stripped_part(line, message):
    with pytest.raises(CorpusError) as caught:
        _records(f"mode: major\n{line}\n", "f.txt", "beat")
    assert str(caught.value) == f"f.txt:2: {message}"


def test_record_fields_split_at_the_first_equals_sign():
    _, records = _records(" 0  |  a  = b=c | d = |= 5\n", "f.txt", "beat")
    assert records == [(1, {"a": "b=c", "d": "", "": "5"})]


def test_melody_schema_ignores_annotation_columns():
    melody = parse_melody_text(VALID_CHORALE, "t.txt")
    assert len(melody) == 3
    melody_only = parse_melody_text(
        "0 | notes=72:1\n1 | notes=74:1\n", "m.txt")
    assert melody_only.representatives() == [72, 74]


def test_rock_parse_and_range_check():
    text = """\
id: r
mode: major
0 | key_pc=7 | roman_root_pc=2 | melody_degree_pc=9
1 | key_pc=7 | roman_root_pc=7 | melody_degree_pc=11
"""
    song = parse_rock_text(text, "r.txt")
    assert song.annotation.keys[0] == KeyLabel(7, MAJOR)
    assert str(song.annotation.chords[0]) == "V"  # root a fifth above the key
    assert song.events[0].representative % 12 == 9
    with pytest.raises(CorpusError) as err:
        parse_rock_text(text.replace("melody_degree_pc=9", "melody_degree_pc=12"),
                        "r.txt")
    assert "r.txt:3" in str(err.value)


# --- transposition -------------------------------------------------------

def transpose_to_reference(ch):
    """The piece moved by its reference offset, as training counts it."""
    return ch.transpose(reference_offset(ch))


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
    # -2 and -5; the error names -2, the note the moved beat fails on
    text = ("id: low\nmode: major\n0 | notes=66:1 | key=F# | roman=I\n"
            "1 | notes=4:0.5,1:0.5 | key=F# | roman=I\n")
    ch = parse_chorale_text(text, "t")
    message = ("piece 'low' transposed by -6 semitones to its reference key:"
               " MIDI pitch out of range 0-127: -2")
    with pytest.raises(CorpusError) as exc:
        reference_offset(ch)
    assert str(exc.value) == message
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: -2$"):
        ch.transpose(-6)


@settings(max_examples=50)
@given(tonic=st.integers(min_value=0, max_value=11))
def test_transpose_offset_is_smallest(tonic):
    text = (f"id: x\nmode: major\n"
            f"0 | notes=70:1 | key={KeyLabel(tonic, MAJOR)} | roman=I\n"
            f"1 | notes=72:1 | key={KeyLabel(tonic, MAJOR)} | roman=V\n")
    moved = transpose_to_reference(parse_chorale_text(text, "x"))
    offset = moved.events[0].representative - 70
    assert moved.annotation.keys[0].tonic_pc == 0
    assert -6 <= offset <= 5    # the +-6 tie is broken downward
    assert (70 + offset) % 12 == (70 - tonic) % 12


def test_piece_transpose_round_trips_and_keeps_chords(chorale_corpus, rock_corpus):
    for ch in chorale_corpus.chorales + rock_corpus.chorales:
        for s in range(1, 12):
            moved = ch.transpose(s)
            assert moved.transpose(-s) == ch, (ch.id, s)
            assert moved.annotation.chords == ch.annotation.chords
            assert moved.annotation.keys == tuple(k.transpose(s)
                                                  for k in ch.annotation.keys)
            assert [b.representative for b in moved.events] == \
                [b.representative + s for b in ch.events]


def test_piece_needs_one_label_per_beat():
    ch = parse_chorale_text(VALID_CHORALE, "tiny.txt")
    short = ProgressionAnnotation(ch.annotation.keys[:2], ch.annotation.chords[:2])
    with pytest.raises(MusicError, match="3 beats but 2 labels"):
        AnnotatedChorale(ch.id, ch.mode, ch.events, short)
