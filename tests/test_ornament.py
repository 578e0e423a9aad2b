import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    ProgressionAnnotation,
    RomanChord,
    diatonic_pcs,
)
from harmonizer.corpus import parse_chorale_text, Corpus
from harmonizer.harmonize import Arrangement, Harmonization, to_score_document
from harmonizer.ornament import (
    OrnamentConfig,
    _scale_tone_between,
    _upper_scale_tone,
    estimate_ornament_rates,
    insert_ornaments,
)

C = KeyLabel(0, MAJOR)


def melody_from_midi(pitches) -> MelodyLine:
    return MelodyLine(tuple(BeatEvent(((m, PPQ),)) for m in pitches))


def plain_harmonization(soprano, triples) -> Harmonization:
    melody = melody_from_midi(soprano)
    arrangements = [Arrangement(a, t, b) for a, t, b in triples]
    keys = tuple([C] * len(soprano))
    chords = tuple([RomanChord.from_string("I")] * len(soprano))
    return Harmonization(soprano=melody, arrangements=arrangements,
                         annotation=ProgressionAnnotation(keys, chords),
                         penalty=0.0, violation_log=[])


def test_config_validates_probabilities():
    with pytest.raises(Exception):
        OrnamentConfig(p_passing=1.5)
    with pytest.raises(Exception):
        OrnamentConfig(p_auxiliary=-0.1)


def test_zero_rates_reproduce_input_exactly():
    h = plain_harmonization([72, 74, 72], [(64, 55, 48), (65, 57, 50), (64, 55, 48)])
    cfg = OrnamentConfig(0.0, 0.0, 0.0, rng_seed=9)
    out = insert_ornaments(h, cfg)
    assert to_score_document(out) == to_score_document(h)


def test_passing_tone_fills_a_third():
    # tenor walks 55 -> 59; the diatonic passing tone in C major is 57
    h = plain_harmonization([72, 74], [(64, 55, 48), (67, 59, 52)])
    cfg = OrnamentConfig(p_passing=1.0, p_auxiliary=0.0, p_appoggiatura=0.0,
                         rng_seed=1)
    out = insert_ornaments(h, cfg)
    assert out.tenor_line[0] == ((55, 240), (57, 240))
    assert out.tenor_line[1] == ((59, PPQ),)


def test_auxiliary_decorates_repeated_pitch():
    # alto repeats 64; upper neighbour in C major is 65
    h = plain_harmonization([72, 74], [(64, 55, 48), (64, 57, 50)])
    cfg = OrnamentConfig(p_passing=0.0, p_auxiliary=1.0, p_appoggiatura=0.0,
                         rng_seed=1)
    out = insert_ornaments(h, cfg)
    assert out.alto_line[0] == ((64, 240), (65, 240))


def test_appoggiatura_leans_on_strong_beat():
    h = plain_harmonization([76, 74], [(67, 60, 48), (65, 57, 50)])
    cfg = OrnamentConfig(p_passing=0.0, p_auxiliary=0.0, p_appoggiatura=1.0,
                         rng_seed=1)
    out = insert_ornaments(h, cfg)
    # beat 0 is strong: the alto G gets an A leaning onto it
    assert out.alto_line[0] == ((69, 240), (67, 240))


def test_soprano_is_never_touched():
    h = plain_harmonization([72, 72, 72, 72],
                            [(64, 55, 48)] * 4)
    cfg = OrnamentConfig(1.0, 1.0, 1.0, rng_seed=3)
    out = insert_ornaments(h, cfg)
    assert [list(ev.notes) for ev in out.soprano.events] == \
        [list(ev.notes) for ev in h.soprano.events]


def test_inserted_pitches_are_diatonic_and_durations_sum():
    h = plain_harmonization([72, 74, 76, 77, 79, 77],
                            [(64, 55, 48), (65, 57, 50), (67, 59, 52),
                             (65, 57, 50), (64, 55, 48), (65, 57, 50)])
    cfg = OrnamentConfig(1.0, 1.0, 1.0, rng_seed=5)
    out = insert_ornaments(h, cfg)
    for line in (out.alto_line, out.tenor_line, out.bass_line):
        for beat in line:
            assert sum(d for _, d in beat) == PPQ
            for p, _ in beat:
                assert p % 12 in diatonic_pcs(C)


def test_fixed_seed_reproduces_output():
    h = plain_harmonization([72, 74, 76, 74], [(64, 55, 48), (65, 57, 50),
                                               (67, 59, 52), (65, 57, 50)])
    cfg = OrnamentConfig(0.5, 0.5, 0.5, rng_seed=42)
    a = insert_ornaments(h, cfg)
    b = insert_ornaments(h, cfg)
    assert to_score_document(a) == to_score_document(b)


def test_out_of_order_insertions_are_skipped():
    # the tenor already touches the alto: an upper neighbour would cross it
    h = plain_harmonization([72, 72], [(64, 64, 48), (64, 64, 48)])
    cfg = OrnamentConfig(p_passing=0.0, p_auxiliary=1.0, p_appoggiatura=0.0,
                         rng_seed=1)
    out = insert_ornaments(h, cfg)
    assert out.tenor_line[0] == ((64, PPQ),)
    # the alto itself can still take its neighbour (soprano is far above)
    assert out.alto_line[0] == ((64, 240), (65, 240))


def test_diatonic_helpers():
    c_major = diatonic_pcs(C)
    assert _scale_tone_between(55, 59, c_major) == 57
    assert _scale_tone_between(59, 55, c_major) == 57
    assert _scale_tone_between(64, 67, c_major) == 65
    assert _upper_scale_tone(64, c_major) == 65
    assert _upper_scale_tone(60, c_major) == 62
    a_minor = diatonic_pcs(KeyLabel(9, "minor"))
    assert _upper_scale_tone(64, a_minor) == 65
    # harmonic minor: above G-sharp comes A... above E comes F
    assert _upper_scale_tone(68, a_minor) == 69


# --- rate estimation ----------------------------------------------------------

def build_rate_corpus(beats) -> Corpus:
    lines = ["id: rates", "mode: major"]
    for i, notes in enumerate(beats):
        lines.append(f"{i} | notes={notes} | key=C | roman=I")
    ch = parse_chorale_text("\n".join(lines) + "\n", "rates")
    return Corpus((ch,), "chorale")


def test_rates_zero_without_multi_note_beats():
    corpus = build_rate_corpus(["72:1", "76:1", "72:1", "76:1"])
    cfg = estimate_ornament_rates(corpus)
    assert cfg.p_passing == 0.0
    assert cfg.p_auxiliary == 0.0
    assert cfg.p_appoggiatura == 0.0


def test_passing_rate_counts_filled_thirds():
    # four eligible pairs a third apart, exactly one filled
    corpus = build_rate_corpus([
        "72:0.5,74:0.5", "76:1",   # filled third 72->76
        "72:1", "76:1",            # bare third (76->72 gap from previous also counts)
        "72:1", "76:1",
        "72:1",
    ])
    cfg = estimate_ornament_rates(corpus)
    # pairs: (0,1) filled, (1,2), (2,3), (3,4), (4,5), (5,6) all eligible thirds
    assert cfg.p_passing == pytest.approx(1 / 6)


def test_rates_always_in_unit_interval(major_corpus):
    cfg = estimate_ornament_rates(major_corpus)
    for value in cfg.as_dict().values():
        assert 0.0 <= value <= 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_all_probability_one_output_respects_duration_invariant(seed):
    h = plain_harmonization([72, 74, 72, 74], [(64, 55, 48), (65, 57, 50),
                                               (64, 55, 48), (65, 57, 50)])
    out = insert_ornaments(h, OrnamentConfig(1.0, 1.0, 1.0, rng_seed=seed))
    for line in (out.alto_line, out.tenor_line, out.bass_line):
        assert len(line) == 4
        for beat in line:
            # whole ticks, as ints: the writers take nothing else
            assert all(type(d) is int for _, d in beat)
            assert sum(d for _, d in beat) == PPQ
