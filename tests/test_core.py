import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    MINOR,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    all_keys,
    chord_bass_pc,
    chord_root_pc,
    chord_tone_pcs,
    functional_group,
    functional_groups,
    is_retrogressive,
    leading_tone_pc,
    transposed_degree,
)
from harmonizer.core import _CHORD_BY_TEXT

from oracles import parse_roman, shifted

ROMAN_SAMPLES = [
    "I", "I6", "I64", "ii", "ii6", "ii65", "iii", "IV", "IV6", "V", "V6",
    "V64", "V7", "V65", "V43", "V42", "vi", "viio", "viio6", "viio7",
    "bVII", "bII6", "i", "iv", "VI", "III", "iio", "I7",
]


def test_pitch_bounds():
    assert BeatEvent(((0, PPQ),)).representative == 0
    assert BeatEvent(((127, PPQ),)).representative == 127
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: 128"):
        BeatEvent(((128, PPQ),))
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: -1"):
        BeatEvent(((-1, PPQ),))
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: 130"):
        BeatEvent(((72, 240), (130, 240)))
    line = MelodyLine((BeatEvent(((120, PPQ),)),))
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: 128"):
        shifted(line, 8)


def test_exactly_24_keys():
    keys = all_keys()
    assert len(keys) == 24
    assert len(set(keys)) == 24
    assert sum(k.mode == MAJOR for k in keys) == 12


@pytest.mark.parametrize("key", all_keys())
def test_key_string_round_trip(key):
    assert KeyLabel.from_string(str(key)) == key


def test_key_string_grammar():
    assert KeyLabel.from_string("C") == KeyLabel(0, MAJOR)
    assert KeyLabel.from_string("f#") == KeyLabel(6, MINOR)
    assert str(KeyLabel(10, MAJOR)) == "A#"
    with pytest.raises(MusicError):
        KeyLabel.from_string("H")


@pytest.mark.parametrize("key", all_keys())
def test_oracle_key_shift_is_key_transpose(key):
    # the test oracle moves keys without `KeyLabel.transpose`; once, here,
    # the two are checked against each other
    for s in range(-12, 13):
        assert shifted(key, s) == key.transpose(s), s


def test_from_string_shares_one_object_per_label():
    assert KeyLabel.from_string("f#") is KeyLabel.from_string(" f# ")
    assert KeyLabel.from_string("C") is all_keys()[0]
    assert KeyLabel(11, MAJOR).transpose(1) is all_keys()[0]
    assert RomanChord.from_string("V7") is RomanChord.from_string("V7")
    assert RomanChord.from_string("I6") is RomanChord.from_string(" I63")
    assert RomanChord.from_string("V2") is RomanChord.from_string("V42")


def test_labels_hash_as_the_tuple_of_their_fields():
    # the hash is computed once, but is the value the generated __hash__
    # gives, so no dict or set order moves
    labels = [*all_keys(), *set(_CHORD_BY_TEXT.values())]
    assert len(labels) == 24 + 588
    for label in labels:
        values = tuple(getattr(label, field.name) for field in dataclasses.fields(label))
        assert hash(label) == hash(values), label
        assert hash(type(label)(*values)) == hash(label)


@pytest.mark.parametrize("cls", [KeyLabel, RomanChord])
@pytest.mark.parametrize("text", ["", " ", "H", "Vo", "I64x", 5, None, ["I"],
                                  {"C": 1}])
def test_from_string_rejects_bad_or_non_string_input(cls, text):
    for _ in range(2):   # a failed parse is not remembered
        with pytest.raises(MusicError):
            cls.from_string(text)


@pytest.mark.parametrize("text", ROMAN_SAMPLES)
def test_roman_string_round_trip(text):
    chord = RomanChord.from_string(text)
    assert str(chord) == text
    assert RomanChord.from_string(str(chord)) == chord


def test_roman_parse_details():
    v65 = RomanChord.from_string("V65")
    assert v65.degree == 5 and v65.seventh and v65.inversion == "first"
    assert v65.quality == "major"
    dim = RomanChord.from_string("viio")
    assert dim.quality == "diminished" and not dim.seventh
    assert RomanChord.from_string("V2") == RomanChord.from_string("V42")
    with pytest.raises(MusicError):
        RomanChord.from_string("VIIIo")
    with pytest.raises(MusicError):
        RomanChord.from_string("Vo")  # a diminished numeral is lowercase
    with pytest.raises(MusicError):
        RomanChord.from_string("I64x")


def _read(reader, text):
    """What reader returns for text, or MusicError when it refuses it."""
    try:
        return reader(text)
    except MusicError:
        return MusicError


# every accidental, numeral, marker and figure the grammar knows, with
# near misses of each, inside surrounding blanks; then non-string inputs
ROMAN_PRODUCT = [
    lead + accidental + numeral + marker + figure + trail
    for lead, trail in (("", ""), (" ", ""), ("", "\t"), ("\n ", " \n"))
    for accidental in ("", "b", "#", "bb", "x")
    for numeral in ("I", "II", "III", "IV", "V", "VI", "VII", "i", "ii", "iii",
                    "iv", "v", "vi", "vii", "VIII", "viii", "Vi", "iV", "")
    for marker in ("", "o", "+", "0")
    for figure in ("", "6", "63", "64", "7", "65", "43", "42", "2", "4", "642",
                   "5", "66")
] + [5, None, b"I", ["I"], {"I": 1}]


def test_roman_reader_matches_the_grammar_oracle():
    for text in ROMAN_PRODUCT:
        assert _read(RomanChord.from_string, text) == _read(parse_roman, text), text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="IViv b#o+0123456789\t\nx", max_size=10))
def test_roman_reader_matches_the_grammar_oracle_on_any_text(text):
    assert _read(RomanChord.from_string, text) == _read(parse_roman, text)


def test_roman_table_holds_every_chord_once():
    # 756 texts name 588 chords, each distinct in value and one object
    assert len(_CHORD_BY_TEXT) == 756
    assert len(set(_CHORD_BY_TEXT.values())) == 588
    assert len(set(map(id, _CHORD_BY_TEXT.values()))) == 588
    assert all(RomanChord.from_string(text) is chord
               for text, chord in _CHORD_BY_TEXT.items())


def test_third_inversion_requires_seventh():
    with pytest.raises(MusicError):
        RomanChord(degree=5, quality="major", inversion="third", seventh=False)


def test_transposed_degree_examples():
    assert transposed_degree(60, KeyLabel(0, MAJOR)) == 0
    assert transposed_degree(74, KeyLabel(5, MAJOR)) == 9
    key = KeyLabel(7, MINOR)
    assert transposed_degree(60, key) == transposed_degree(72, key)


@given(midi=st.integers(min_value=0, max_value=115),
       tonic=st.integers(min_value=0, max_value=11),
       mode=st.sampled_from([MAJOR, MINOR]))
def test_transposed_degree_octave_invariant(midi, tonic, mode):
    key = KeyLabel(tonic, mode)
    assert transposed_degree(midi, key) == transposed_degree(midi + 12, key)
    assert 0 <= transposed_degree(midi, key) <= 11


def test_functional_groups():
    assert functional_group(RomanChord.from_string("I")) == "tonic"
    assert functional_group(RomanChord.from_string("IV")) == "predominant"
    assert functional_group(RomanChord.from_string("V")) == "dominant"
    assert functional_group(RomanChord.from_string("viio")) == "dominant"
    assert functional_group(RomanChord.from_string("iii")) == "tonic"
    # degree six reports tonic but acts in both families
    vi = RomanChord.from_string("vi")
    assert functional_group(vi) == "tonic"
    assert functional_groups(vi) == frozenset({"tonic", "predominant"})


def test_functional_group_total_over_samples():
    for text in ROMAN_SAMPLES:
        assert functional_group(RomanChord.from_string(text)) in (
            "tonic", "predominant", "dominant")


def test_retrogression_rules():
    c = RomanChord.from_string
    assert is_retrogressive(c("V"), c("IV"))
    assert is_retrogressive(c("ii"), c("I"))
    assert not is_retrogressive(c("I"), c("V"))
    assert not is_retrogressive(c("IV"), c("V"))
    assert not is_retrogressive(c("V"), c("I"))
    # degree-six dual membership keeps both usages legal
    assert not is_retrogressive(c("V"), c("vi"))   # deceptive resolution
    assert not is_retrogressive(c("ii"), c("vi"))
    assert not is_retrogressive(c("vi"), c("ii"))


def test_chord_tones_major_key():
    key = KeyLabel(0, MAJOR)
    assert chord_tone_pcs(RomanChord.from_string("I"), key) == (0, 4, 7)
    assert chord_tone_pcs(RomanChord.from_string("ii"), key) == (2, 5, 9)
    assert chord_tone_pcs(RomanChord.from_string("viio"), key) == (11, 2, 5)
    assert chord_tone_pcs(RomanChord.from_string("V7"), key) == (7, 11, 2, 5)
    assert chord_tone_pcs(RomanChord.from_string("bVII"), key) == (10, 2, 5)


def test_chord_tones_minor_key():
    key = KeyLabel(9, MINOR)  # a minor
    assert chord_tone_pcs(RomanChord.from_string("i"), key) == (9, 0, 4)
    assert chord_tone_pcs(RomanChord.from_string("V"), key) == (4, 8, 11)
    # leading-tone chord sits on the raised seventh degree
    assert chord_root_pc(RomanChord.from_string("viio"), key) == 8
    # the subtonic stays natural
    assert chord_root_pc(RomanChord.from_string("VII"), key) == 7


def test_bass_pc_follows_inversion():
    key = KeyLabel(0, MAJOR)
    assert chord_bass_pc(RomanChord.from_string("I"), key) == 0
    assert chord_bass_pc(RomanChord.from_string("I6"), key) == 4
    assert chord_bass_pc(RomanChord.from_string("I64"), key) == 7
    assert chord_bass_pc(RomanChord.from_string("V42"), key) == 5


def test_leading_tone():
    assert leading_tone_pc(KeyLabel(0, MAJOR)) == 11
    assert leading_tone_pc(KeyLabel(9, MINOR)) == 8


def test_beat_event_invariants():
    with pytest.raises(MusicError, match="^beat has no notes$"):
        BeatEvent(())
    with pytest.raises(MusicError, match=r"sum to 432 ticks \(0.9 beats\), expected 480"):
        BeatEvent(((60, 240), (62, 192)))
    for ticks in ((479,), (481,), (240, 241), (1,), (480, 480)):
        with pytest.raises(MusicError, match=f"^beat durations sum to {sum(ticks)} ticks"):
            BeatEvent(tuple((60, d) for d in ticks))
    ev = BeatEvent(((60, 240), (62, 240)))
    assert ev.representative == 60
    assert BeatEvent(((60, 1), (62, 479))).notes == ((60, 1), (62, 479))


@pytest.mark.parametrize("notes", [
    ((60, 480.0),),                 # a float, even a whole one
    ((60, 240), (62, 240.0)),
    ((60, 0), (62, 480)),           # zero
    ((60, -240), (62, 720)),        # negative, though the sum is a beat
    ((60, True), (62, 479)),        # a bool is not a tick count
    ((60, "480"),),
], ids=["float", "float-second", "zero", "negative", "bool", "text"])
def test_beat_event_rejects_a_tick_count_that_is_not_a_positive_int(notes):
    with pytest.raises(MusicError, match="not a positive whole number of ticks"):
        BeatEvent(notes)


def test_melody_line_invariants():
    with pytest.raises(MusicError):
        MelodyLine(())
    line = MelodyLine((BeatEvent(((60, PPQ),)),
                       BeatEvent(((62, PPQ),))))
    assert len(line) == 2
    assert line.representatives() == [60, 62]


def test_annotation_length_mismatch():
    keys = (KeyLabel(0, MAJOR),)
    chords = (RomanChord.from_string("I"), RomanChord.from_string("V"))
    with pytest.raises(MusicError):
        ProgressionAnnotation(keys, chords)


@pytest.mark.parametrize("make, message", [
    (lambda: KeyLabel(12, MAJOR), "tonic pitch class out of range: 12"),
    (lambda: KeyLabel(0, "dorian"), "unknown mode: 'dorian'"),
    (lambda: RomanChord(8, "major"), "scale degree out of range: 8"),
    (lambda: RomanChord(1, "sus4"), "unknown chord quality: 'sus4'"),
    (lambda: RomanChord(1, "major", "fourth"), "unknown inversion: 'fourth'"),
    (lambda: RomanChord(1, "major", accidental=2), "accidental out of range: 2"),
], ids=["tonic", "mode", "degree", "quality", "inversion", "accidental"])
def test_labels_refuse_fields_out_of_range(make, message):
    with pytest.raises(MusicError, match=f"^{re.escape(message)}$"):
        make()
