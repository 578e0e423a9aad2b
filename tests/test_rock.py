import pytest

from harmonizer.core import MAJOR, PPQ, KeyLabel, MusicError, RomanChord
from harmonizer.corpus import CorpusError, parse_rock_melody_text, parse_rock_text
from harmonizer.rock import (
    PATTERNS,
    AccompanimentScore,
    harmonize_rock,
    render_accompaniment,
    to_progression_document,
)

from oracles import brute_force_viterbi

I, IV, V = map(RomanChord.from_string, ("I", "IV", "V"))


def test_rock_measure_range_validation():
    def measures(key_pc, root_pc, melody_pc):
        return ("0 | key_pc=0 | roman_root_pc=0 | melody_degree_pc=0\n"
                f"1 | key_pc={key_pc} | roman_root_pc={root_pc}"
                f" | melody_degree_pc={melody_pc}\n")
    assert len(parse_rock_text(measures(0, 7, 11)).events) == 2
    assert parse_rock_melody_text(measures(0, 7, 11)) == [0, 11]
    for bad in ((12, 0, 0), (0, -1, 0), (0, 0, 12)):
        with pytest.raises(CorpusError, match="out of range 0-11"):
            parse_rock_text(measures(*bad), "r.txt")
    with pytest.raises(CorpusError, match="r.txt:2: melody_degree_pc out of range"):
        parse_rock_melody_text(measures(0, 0, -1), "r.txt")


def test_rock_vocabulary_is_corpus_derived(rock_bundle):
    states = set(rock_bundle.chord_model.states)
    assert {I, IV, V} <= states
    assert RomanChord.from_string("bVII") in states  # present in the training data
    assert rock_bundle.chord_model.mask is None


def test_tonal_melody_gets_primary_triads(rock_bundle):
    melody = [0, 4, 7, 0, 5, 9, 7, 11, 2, 0, 4, 0]
    progression = harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                                 melody, "viterbi")
    assert len(progression) == len(melody)
    chords = {chord for _, chord in progression}
    assert chords <= set(rock_bundle.chord_model.states)
    primary = sum(chord in (I, IV, V) for _, chord in progression)
    assert primary / len(progression) >= 0.75


def test_pitch_class_lifted_past_127_is_rejected(rock_bundle):
    # measures sit in octave 4, so 68 lifts to MIDI 128
    with pytest.raises(MusicError, match="MIDI pitch out of range 0-127: 128"):
        harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                       [0, 68], "viterbi")


def test_single_measure_matches_brute_force(rock_bundle):
    melody = [4]
    progression = harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                                 melody, "viterbi")
    expected_keys, _ = brute_force_viterbi(rock_bundle.key_model, [4])
    assert len(progression) == 1
    key_pc, chord = progression[0]
    assert KeyLabel(key_pc, MAJOR) == expected_keys[0]
    delta = (4 - key_pc) % 12
    expected_chords, _ = brute_force_viterbi(rock_bundle.chord_model, [delta])
    assert chord == expected_chords[0]


def test_transposed_melody_with_forced_keys_same_numerals(rock_bundle):
    from harmonizer.core import PPQ, BeatEvent, MelodyLine
    from harmonizer.hmm import decode_chords_given_keys

    melody = [0, 4, 7, 5, 9, 0]
    progression = harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                                 melody, "viterbi")
    shift = 5
    shifted = MelodyLine(tuple(BeatEvent(i, ((60 + (pc + shift) % 12, PPQ),))
                               for i, pc in enumerate(melody)))
    forced = [KeyLabel((key_pc + shift) % 12, MAJOR) for key_pc, _ in progression]
    chords = decode_chords_given_keys(rock_bundle.chord_model, shifted, forced,
                                      "viterbi")
    assert chords == [chord for _, chord in progression]


def test_render_bass_measure_for_c_major_tonic():
    score = render_accompaniment([(0, I)], pattern="block", drums=False)
    assert score.bass_track[0] == [(0, 480, 48), (480, 480, 52),
                                   (960, 480, 55), (1440, 480, 52)]


def test_bass_downbeat_always_harmonic_root(rock_bundle):
    melody = [0, 4, 7, 5, 9, 0, 7, 11, 2, 5, 4, 0]
    progression = harmonize_rock(rock_bundle.key_model, rock_bundle.chord_model,
                                 melody)
    score = render_accompaniment(progression, pattern="arpeggio", drums=True)
    from harmonizer.core import chord_root_pc
    for (key_pc, chord), measure in zip(progression, score.bass_track):
        onset, _, pitch = measure[0]
        assert onset == 0
        root = chord_root_pc(chord, KeyLabel(key_pc, MAJOR))
        assert pitch % 12 == root


def test_drums_flag():
    silent = render_accompaniment([(0, I), (0, V)], drums=False)
    assert all(m == [] for m in silent.drum_track)
    loud = render_accompaniment([(0, I)], drums=True)
    pitches = {p for _, _, p in loud.drum_track[0]}
    assert pitches == {36, 38, 42}
    hats = [e for e in loud.drum_track[0] if e[2] == 42]
    assert len(hats) == 8


@pytest.mark.parametrize("pattern", PATTERNS)
def test_tracks_hold_whole_ticks_within_the_measure(pattern):
    score = render_accompaniment([(0, I), (0, V)], pattern, drums=True,
                                 melody_degree_pcs=[0, 7])
    for track in (score.melody_track, score.bass_track, score.keys_track,
                  score.drum_track):
        assert len(track) == 2
        for measure in track:
            for onset, duration, _ in measure:
                assert type(onset) is int and type(duration) is int
                assert 0 <= onset < onset + duration <= 4 * PPQ


def test_block_vs_arpeggio_patterns():
    block = render_accompaniment([(0, I)], pattern="block")
    onsets = sorted({onset for onset, _, _ in block.keys_track[0]})
    assert onsets == [0, 960]
    arp = render_accompaniment([(0, I)], pattern="arpeggio")
    assert len(arp.keys_track[0]) == 8
    assert [p for _, _, p in arp.keys_track[0]][:3] == [60, 64, 67]


def test_render_is_deterministic():
    prog = [(0, I), (0, IV), (0, V), (0, I)]
    a = render_accompaniment(prog, "arpeggio", True, melody_degree_pcs=[0, 5, 7, 0])
    b = render_accompaniment(prog, "arpeggio", True, melody_degree_pcs=[0, 5, 7, 0])
    assert a == b


def test_render_rejects_bad_input():
    with pytest.raises(MusicError):
        render_accompaniment([])
    with pytest.raises(MusicError):
        render_accompaniment([(0, I)], pattern="shuffle")
    with pytest.raises(MusicError):
        render_accompaniment([(0, I)], melody_degree_pcs=[0, 4])


def test_progression_document():
    doc = to_progression_document([(0, I), (7, V)], title="t")
    assert doc.splitlines() == ["id: t", "0 | key_pc=0 | roman=I",
                                "1 | key_pc=7 | roman=V"]


def test_boosting_columns_makes_rare_chords_reachable(rock_bundle):
    # the data-driven matrix harmonizes everything with primary triads;
    # raising the probability of moving into vi/bVII surfaces them
    import numpy as np

    from harmonizer.hmm import HmmModel

    cm = rock_bundle.chord_model
    melody = [0, 4, 7, 9, 0, 2, 4, 9, 7, 10, 0, 0]
    base = [str(c) for _, c in harmonize_rock(rock_bundle.key_model, cm, melody)]
    assert "bVII" not in base
    boosted = cm.transition.copy()
    targets = [j for j, s in enumerate(cm.states) if str(s) in ("vi", "bVII")]
    boosted[:, targets] += 0.8
    boosted /= boosted.sum(axis=1, keepdims=True)
    custom = HmmModel(cm.states, cm.observations, boosted, cm.emission,
                      cm.initial, mask=None, smoothing_alpha=cm.smoothing_alpha)
    after = [str(c) for _, c in harmonize_rock(rock_bundle.key_model, custom, melody)]
    assert set(after) & {"vi", "bVII"}
    assert after != base
