from pathlib import Path

import pytest

from harmonizer.core import (
    MINOR,
    PPQ,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
)
from harmonizer.corpus import (
    CorpusError,
    format_progression,
    parse_rock_melody_text,
)
from harmonizer.hmm import METHODS, decode_key_chord
from harmonizer.rock import PATTERNS, harmonize_rock, render_accompaniment

from oracles import (
    brute_force_viterbi,
    decode_chords_given_keys,
    parse_rock_text,
    shifted,
)

I, IV, V = map(RomanChord.from_string, ("I", "IV", "V"))
C = KeyLabel.from_string("C")


def line(*pcs: int) -> MelodyLine:
    """A rock melody, one measure per pitch class."""
    return parse_rock_melody_text("".join(f"{i} | melody_degree_pc={pc}\n"
                                          for i, pc in enumerate(pcs)))


def in_c(*chords: RomanChord) -> ProgressionAnnotation:
    return ProgressionAnnotation((C,) * len(chords), chords)


def decode(bundle, melody: MelodyLine, chord_model=None) -> ProgressionAnnotation:
    return decode_key_chord(bundle.key_model, chord_model or bundle.chord_model,
                            melody)


def test_rock_measure_range_validation():
    def measures(key_pc, root_pc, melody_pc):
        return ("0 | key_pc=0 | roman_root_pc=0 | melody_degree_pc=0\n"
                f"1 | key_pc={key_pc} | roman_root_pc={root_pc}"
                f" | melody_degree_pc={melody_pc}\n")
    assert len(parse_rock_text(measures(0, 7, 11)).events) == 2
    assert parse_rock_melody_text(measures(0, 7, 11)).representatives() == [60, 71]
    for bad in ((12, 0, 0), (0, -1, 0), (0, 0, 12)):
        with pytest.raises(CorpusError, match="out of range 0-11"):
            parse_rock_text(measures(*bad), "r.txt")
    with pytest.raises(CorpusError, match="r.txt:2: melody_degree_pc out of range"):
        parse_rock_melody_text(measures(0, 0, -1), "r.txt")


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent
                                         / "data" / "rock").glob("*.txt")),
                         ids=lambda p: p.stem)
def test_rock_melody_reads_as_the_corpus_piece_events(path):
    text = path.read_text()
    assert parse_rock_melody_text(text).events == parse_rock_text(text).events


def test_rock_vocabulary_is_corpus_derived(rock_bundle):
    states = set(rock_bundle.chord_model.states)
    assert {I, IV, V} <= states
    assert RomanChord.from_string("bVII") in states  # present in the training data
    assert rock_bundle.chord_model.mask is None


def test_tonal_melody_gets_primary_triads(rock_bundle):
    melody = line(0, 4, 7, 0, 5, 9, 7, 11, 2, 0, 4, 0)
    annotation = decode(rock_bundle, melody)
    assert len(annotation) == len(melody)
    assert set(annotation.chords) <= set(rock_bundle.chord_model.states)
    primary = sum(chord in (I, IV, V) for chord in annotation.chords)
    assert primary / len(annotation) >= 0.75


def test_single_measure_matches_brute_force(rock_bundle):
    annotation = decode(rock_bundle, line(4))
    expected_keys, _ = brute_force_viterbi(rock_bundle.key_model, [4])
    assert len(annotation) == 1
    assert annotation.keys[0] == expected_keys[0]
    delta = (4 - annotation.keys[0].tonic_pc) % 12
    expected_chords, _ = brute_force_viterbi(rock_bundle.chord_model, [delta])
    assert annotation.chords[0] == expected_chords[0]


def test_transposed_melody_with_forced_keys_same_numerals(rock_bundle):
    melody = line(0, 4, 7, 5, 9, 0)
    annotation = decode(rock_bundle, melody)
    shift = 5
    chords = decode_chords_given_keys(rock_bundle.chord_model, shifted(melody, shift),
                                      shifted(annotation, shift).keys, "viterbi")
    assert tuple(chords) == annotation.chords


@pytest.mark.parametrize("method", METHODS)
def test_harmonize_rock_decodes_then_renders(rock_bundle, method):
    melody = line(0, 4, 7, 5, 9, 0, 7, 0)
    annotation, score = harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                                       melody, method, "block", False)
    assert annotation == decode_key_chord(rock_bundle.key_model,
                                          rock_bundle.chord_model, melody, method)
    assert score == render_accompaniment(melody, annotation, "block", False)


def test_render_bass_measure_for_c_major_tonic():
    score = render_accompaniment(line(0), in_c(I), pattern="block", drums=False)
    assert score.bass_track == [(0, 480, 48), (480, 480, 52),
                                (960, 480, 55), (1440, 480, 52)]


def test_bass_downbeat_always_harmonic_root(rock_bundle):
    melody = line(0, 4, 7, 5, 9, 0, 7, 11, 2, 5, 4, 0)
    annotation = decode(rock_bundle, melody)
    score = render_accompaniment(melody, annotation, pattern="arpeggio", drums=True)
    from harmonizer.core import chord_root_pc
    # four bass notes to the measure, the first on its downbeat
    downbeats = score.bass_track[::4]
    assert len(downbeats) == len(melody)
    for i, (key, chord, (onset, _, pitch)) in enumerate(
            zip(annotation.keys, annotation.chords, downbeats)):
        assert onset == i * 4 * PPQ
        assert pitch % 12 == chord_root_pc(chord, key)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_minor_key_renders_as_the_major_key_on_its_tonic(pattern):
    # a rock key is its tonic alone, so the renderer reads any key as major
    chords = tuple(map(RomanChord.from_string, ("I", "vi", "IV", "V", "bVII")))
    melody = line(0, 9, 5, 7, 10)
    for tonic_pc in (0, 7):
        major = shifted(in_c(*chords), tonic_pc)
        minor = ProgressionAnnotation((KeyLabel(tonic_pc, MINOR),) * len(chords),
                                      chords)
        assert (render_accompaniment(melody, minor, pattern)
                == render_accompaniment(melody, major, pattern))


def test_drums_flag():
    silent = render_accompaniment(line(0, 7), in_c(I, V), drums=False)
    assert silent.drum_track == []
    loud = render_accompaniment(line(0, 7), in_c(I, V), drums=True)
    first, second = loud.drum_track[:12], loud.drum_track[12:]
    assert second == [(onset + 4 * PPQ, d, p) for onset, d, p in first]
    pitches = {p for _, _, p in first}
    assert pitches == {36, 38, 42}
    hats = [e for e in first if e[2] == 42]
    assert len(hats) == 8


@pytest.mark.parametrize("pattern", PATTERNS)
def test_tracks_hold_whole_ticks_within_the_measure(pattern):
    score = render_accompaniment(line(0, 7), in_c(I, V), pattern, drums=True)
    for track in (score.melody_track, score.bass_track, score.keys_track,
                  score.drum_track):
        assert {onset // (4 * PPQ) for onset, _, _ in track} == {0, 1}
        for onset, duration, _ in track:
            assert type(onset) is int and type(duration) is int
            start = onset - onset % (4 * PPQ)
            assert 0 <= start <= onset < onset + duration <= start + 4 * PPQ


def test_block_vs_arpeggio_patterns():
    block = render_accompaniment(line(0), in_c(I), pattern="block")
    onsets = sorted({onset for onset, _, _ in block.keys_track})
    assert onsets == [0, 960]
    arp = render_accompaniment(line(0), in_c(I), pattern="arpeggio")
    assert len(arp.keys_track) == 8
    assert [p for _, _, p in arp.keys_track][:3] == [60, 64, 67]


def test_render_is_deterministic():
    annotation = in_c(I, IV, V, I)
    a = render_accompaniment(line(0, 5, 7, 0), annotation, "arpeggio", True)
    b = render_accompaniment(line(0, 5, 7, 0), annotation, "arpeggio", True)
    assert a == b


def test_render_rejects_bad_input():
    with pytest.raises(MusicError):
        render_accompaniment(line(0), in_c())
    with pytest.raises(MusicError):
        render_accompaniment(line(0), in_c(I), pattern="shuffle")
    with pytest.raises(MusicError):
        render_accompaniment(line(0, 4), in_c(I))


def test_progression_document():
    annotation = ProgressionAnnotation((C, KeyLabel.from_string("G")), (I, V))
    doc = format_progression(annotation, "rock", (("id", "t"),))
    assert doc.splitlines() == ["id: t", "0 | key_pc=0 | roman=I",
                                "1 | key_pc=7 | roman=V"]


def test_boosting_columns_makes_rare_chords_reachable(rock_bundle):
    # the data-driven matrix harmonizes everything with primary triads;
    # raising the probability of moving into vi/bVII surfaces them
    import numpy as np

    from harmonizer.hmm import HmmModel

    cm = rock_bundle.chord_model
    melody = line(0, 4, 7, 9, 0, 2, 4, 9, 7, 10, 0, 0)
    base = [str(c) for c in decode(rock_bundle, melody).chords]
    assert "bVII" not in base
    boosted = cm.transition.copy()
    targets = [j for j, s in enumerate(cm.states) if str(s) in ("vi", "bVII")]
    boosted[:, targets] += 0.8
    boosted /= boosted.sum(axis=1, keepdims=True)
    custom = HmmModel(cm.states, boosted, cm.emission,
                      cm.initial, mask=None, smoothing_alpha=cm.smoothing_alpha)
    after = [str(c) for c in decode(rock_bundle, melody, custom).chords]
    assert set(after) & {"vi", "bVII"}
    assert after != base
