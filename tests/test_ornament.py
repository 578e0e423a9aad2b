import ast
import dataclasses
import json
from collections import Counter

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
from harmonizer import hmm, ornament
from harmonizer.corpus import AnnotatedChorale, Corpus
from harmonizer.harmonize import (
    Arrangement,
    Harmonization,
    harmonize_melody,
    to_score_document,
)
from harmonizer.ornament import (
    OrnamentConfig,
    _scale_tone_between,
    _upper_scale_tone,
    estimate_ornament_rates,
    insert_ornaments,
)
from oracles import ornament_rate_reference, ornament_reference, parse_chorale_text

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
                         violation_log=[])


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


@pytest.fixture(scope="module")
def fixture_harmonizations(major_bundle, fixture_melodies):
    return [harmonize_melody(major_bundle.key_model, major_bundle.chord_model,
                             melody, method)
            for _, melody in fixture_melodies for method in ("viterbi", "posterior")]


def _window(h: Harmonization, start: int, stop: int) -> Harmonization:
    keys, chords = h.annotation.keys, h.annotation.chords
    return Harmonization(MelodyLine(h.soprano.events[start:stop]),
                         h.arrangements[start:stop],
                         ProgressionAnnotation(keys[start:stop], chords[start:stop]),
                         [])


_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rates=st.tuples(_RATE, _RATE, _RATE),
       seed=st.integers(0, 2 ** 32 - 1))
def test_insertion_equals_the_one_branch_per_type_reference(
        fixture_harmonizations, data, rates, seed):
    # a window of a fixture skeleton, so that any beat may be the first,
    # the last or a strong one
    h = data.draw(st.sampled_from(fixture_harmonizations))
    start = data.draw(st.integers(0, len(h.soprano) - 1))
    h = _window(h, start, data.draw(st.integers(start + 1, len(h.soprano))))
    cfg = OrnamentConfig(*rates, rng_seed=seed)
    out = insert_ornaments(h, cfg)
    assert [out.alto_line, out.tenor_line, out.bass_line] == ornament_reference(h, cfg)


def test_scales_and_passing_tones_are_found_once_per_distinct_input_per_call(
        monkeypatch, major_bundle, fixture_melodies):
    notes = [ev.notes for _, melody in fixture_melodies for ev in melody.events]
    melody = MelodyLine(tuple(map(BeatEvent, notes)))
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    cfg = OrnamentConfig(1.0, 1.0, 1.0, rng_seed=4)
    expected = insert_ornaments(h, cfg)
    scales, searches = [], []

    def counting_scale(key):
        scales.append(key)
        return diatonic_pcs(key)

    def counting_search(low, high, pcs):
        searches.append((low, high, pcs))
        return _scale_tone_between(low, high, pcs)

    monkeypatch.setattr(ornament, "diatonic_pcs", counting_scale)
    monkeypatch.setattr(ornament, "_scale_tone_between", counting_search)
    keys = h.annotation.keys
    thirds = [(cur, nxt, diatonic_pcs(keys[t]))
              for line in (h.alto_line, h.tenor_line, h.bass_line)
              for t, ((cur, _),), ((nxt, _),) in zip(range(len(keys)), line, line[1:])
              if abs(nxt - cur) in (3, 4)]
    assert len(set(keys)) < len(keys)
    assert len(set(thirds)) < len(thirds)
    for _ in range(2):
        scales.clear()
        searches.clear()
        assert insert_ornaments(h, cfg) == expected
        assert Counter(scales) == Counter(set(keys))
        assert Counter(searches) == Counter(set(thirds))


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
    # harmonic minor's augmented second, F to G-sharp, holds no scale tone
    assert _scale_tone_between(65, 68, a_minor) is None


def test_upper_scale_tone_is_found_in_every_key():
    # no step of a major or harmonic-minor scale is wider than three semitones
    for mode in ("major", "minor"):
        for tonic_pc in range(12):
            pcs = diatonic_pcs(KeyLabel(tonic_pc, mode))
            for pitch in range(125):
                tone = _upper_scale_tone(pitch, pcs)
                assert 1 <= tone - pitch <= 3 and tone % 12 in pcs


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


def _rate_piece(beats) -> AnnotatedChorale:
    """A C major piece of beats given as lists of 1-3 MIDI pitches, each
    note an equal share of the beat."""
    events = tuple(BeatEvent(tuple((m, PPQ // len(beat)) for m in beat))
                   for beat in beats)
    labels = ProgressionAnnotation((C,) * len(beats),
                                   (RomanChord.from_string("I"),) * len(beats))
    return AnnotatedChorale("rates", MAJOR, events, labels)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(60, 67), min_size=1, max_size=3),
                         min_size=2, max_size=9), min_size=1, max_size=3))
def test_rates_equal_the_site_list_reference(pieces):
    rates = estimate_ornament_rates(
        Corpus(tuple(map(_rate_piece, pieces)), "chorale")).as_dict()
    assert rates == ornament_rate_reference(pieces)
    assert all(type(rate) is float for rate in rates.values())


@pytest.mark.parametrize("name, beats, rate", [
    # an appoggiatura steps down one or two semitones onto the beat's note
    ("p_appoggiatura", ["74:0.5,73:0.5", "60:1"], 1.0),
    ("p_appoggiatura", ["74:0.5,72:0.5", "60:1"], 1.0),
    ("p_appoggiatura", ["74:0.5,71:0.5", "60:1"], 0.0),
    # an auxiliary leaves a repeated pitch by one or two semitones
    ("p_auxiliary", ["72:0.5,73:0.5", "72:1"], 1.0),
    ("p_auxiliary", ["72:0.5,70:0.5", "72:1"], 1.0),
    ("p_auxiliary", ["72:0.5,75:0.5", "72:1"], 0.0),
    ("p_auxiliary", ["72:0.5,69:0.5", "72:1"], 0.0),
    # a passing tone lies strictly inside the third
    ("p_passing", ["72:0.5,74:0.5", "76:1"], 1.0),
    ("p_passing", ["72:0.5,72:0.5", "76:1"], 0.0),
    ("p_passing", ["72:0.5,76:0.5", "76:1"], 0.0),
    ("p_passing", ["76:0.5,72:0.5", "72:1"], 0.0),
    ("p_passing", ["76:0.5,76:0.5", "72:1"], 0.0),
], ids=["appoggiatura-1", "appoggiatura-2", "appoggiatura-3", "auxiliary-1",
        "auxiliary-2", "auxiliary-3", "auxiliary-3-below", "passing-inside",
        "passing-low-start", "passing-high-end", "passing-low-end",
        "passing-high-start"])
def test_each_rate_rule_at_its_boundary(name, beats, rate):
    assert getattr(estimate_ornament_rates(build_rate_corpus(beats)), name) == rate


def test_a_rate_without_sites_is_saved_as_the_float_zero(tmp_path, major_bundle):
    # no beat repeats the pitch before it: no auxiliary site
    cfg = estimate_ornament_rates(build_rate_corpus(["72:1", "76:1", "74:1"]))
    assert type(cfg.p_auxiliary) is float
    path = hmm.save_bundle(dataclasses.replace(
        major_bundle, ornament_rates=cfg.as_dict()), tmp_path / "model.json")
    assert '"p_auxiliary": 0.0,' in path.read_text()
    assert type(json.loads(path.read_text())["ornament_rates"]["p_auxiliary"]) is float


def test_a_model_accepts_the_rate_names_of_the_ornament_config():
    # hmm cannot import ornament (ornament imports harmonize, which imports
    # hmm), so its list of rate names is kept in step here
    doc = {"version": 1, "genre": "chorale", "mode": MAJOR,
           "ornament_rates": {"p_stray": 0.5}}
    with pytest.raises(hmm.HmmError, match="unknown key 'p_stray'") as err:
        hmm._check_bundle_fields(doc)
    accepted = ast.literal_eval(str(err.value).split("accepted: ", 1)[1])
    assert accepted == list(OrnamentConfig().as_dict())


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
