import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    MINOR,
    MODES,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    chord_bass_pc,
    is_retrogressive,
    leading_tone_pc,
)
from harmonizer import harmonize
from harmonizer.corpus import _format_note_list, parse_melody_text
from harmonizer.harmonize import (
    ALTO_RANGE,
    BASS_RANGE,
    MAX_SPACING,
    PENALTY_WEIGHTS,
    TENOR_RANGE,
    Arrangement,
    Harmonization,
    InfeasibleHarmonizationError,
    Violation,
    chain_arrangements,
    enumerate_arrangements,
    harmonize_melody,
    score_arrangements,
    to_score_document,
    voice_progression,
)
from harmonizer.hmm import METHODS, decode_key_chord
from harmonizer.ornament import OrnamentConfig, insert_ornaments

from oracles import greedy_voicing, lattice_arrangements, score_document_reference

C_MAJOR = KeyLabel(0, MAJOR)


arr = Arrangement


def melody_from_midi(pitches) -> MelodyLine:
    return MelodyLine(tuple(BeatEvent(((m, PPQ),)) for m in pitches))


def check_vertical(arrangement: Arrangement, soprano: int):
    a, t, b = arrangement.alto, arrangement.tenor, arrangement.bass
    assert b <= t <= a <= soprano
    assert ALTO_RANGE[0] <= a <= ALTO_RANGE[1]
    assert TENOR_RANGE[0] <= t <= TENOR_RANGE[1]
    assert BASS_RANGE[0] <= b <= BASS_RANGE[1]
    assert soprano - a <= MAX_SPACING
    assert a - t <= MAX_SPACING


# --- enumeration -----------------------------------------------------------

def test_enumeration_contains_textbook_voicing():
    result = enumerate_arrangements(C_MAJOR, RomanChord.from_string("I"), 72)
    assert (64, 55, 48) in result
    for r in result:
        check_vertical(r, 72)


def test_enumeration_excludes_out_of_range_alto():
    result = enumerate_arrangements(C_MAJOR, RomanChord.from_string("I"), 72)
    assert all(r.alto != 52 for r in result)
    assert all(r.alto >= 53 for r in result)


@pytest.mark.parametrize("roman,soprano", [
    ("I", 72), ("I6", 76), ("I64", 72), ("ii", 74), ("ii6", 74),
    ("IV", 77), ("V", 74), ("V", 71), ("V7", 77), ("V65", 74),
    ("V42", 71), ("vi", 72), ("viio6", 74), ("iii", 71),
])
def test_enumeration_matches_lattice_oracle_major(roman, soprano):
    chord = RomanChord.from_string(roman)
    result = enumerate_arrangements(C_MAJOR, chord, soprano)
    expected = lattice_arrangements(C_MAJOR, chord, soprano)
    assert result == expected
    assert result == sorted(result, key=lambda x: (x[2], x[1], x[0]))


@pytest.mark.parametrize("roman,soprano", [
    ("i", 72), ("iv", 74), ("V", 76), ("V7", 68), ("VI", 77), ("iio6", 74),
])
def test_enumeration_matches_lattice_oracle_minor(roman, soprano):
    key = KeyLabel(9, MINOR)
    chord = RomanChord.from_string(roman)
    result = enumerate_arrangements(key, chord, soprano)
    expected = lattice_arrangements(key, chord, soprano)
    assert result == expected


# the fixture chord states of both modes, then further inversions and
# sevenths, and chromatic and altered chords the fixtures never use
ORACLE_CHORDS = (
    "I", "I6", "I64", "IV", "IV6", "V", "V42", "V6", "V65", "V7", "ii", "ii6",
    "ii65", "iii", "vi", "viio", "viio6", "III", "VI", "i", "iio6", "iv",
    "V43", "ii7", "ii43", "ii42", "IV64", "iii6", "vi6", "i6", "i64", "iv6",
    "VI6", "viio7", "viio65",
    "bII6", "III+",
)


# every chord the numeral grammar reads: 3 accidentals x 7 degrees x 4
# qualities x 7 figures
GRAMMAR_CHORDS = tuple(
    accidental + numeral + figure
    for accidental in ("", "b", "#")
    for upper in ("I", "II", "III", "IV", "V", "VI", "VII")
    for numeral in (upper, upper + "+", upper.lower(), upper.lower() + "o")
    for figure in ("", "6", "64", "7", "65", "43", "42"))


def test_grammar_chords_are_588_distinct_chords():
    assert len(set(map(RomanChord.from_string, GRAMMAR_CHORDS))) == 588


@settings(max_examples=300, deadline=None)
@given(tonic=st.integers(0, 11), mode=st.sampled_from(MODES),
       roman=st.sampled_from(GRAMMAR_CHORDS), soprano=st.integers(52, 87))
# the soprano and the bass both on the leading tone: nothing is available
@example(tonic=0, mode=MAJOR, roman="V6", soprano=71)
@example(tonic=0, mode=MAJOR, roman="V65", soprano=83)
@example(tonic=0, mode=MAJOR, roman="viio", soprano=71)
@example(tonic=0, mode=MAJOR, roman="iii64", soprano=71)
@example(tonic=9, mode=MINOR, roman="V6", soprano=68)
def test_enumeration_matches_lattice_oracle_any_key(tonic, mode, roman, soprano):
    key = KeyLabel(tonic, mode)
    chord = RomanChord.from_string(roman)
    result = enumerate_arrangements(key, chord, soprano)
    expected = lattice_arrangements(key, chord, soprano)
    assert result == expected
    assert result == sorted(result, key=lambda x: (x[2], x[1], x[0]))
    if soprano % 12 == leading_tone_pc(key) == chord_bass_pc(chord, key):
        assert result == []


def test_enumeration_never_doubles_leading_tone():
    # soprano on the leading tone over the dominant
    result = enumerate_arrangements(C_MAJOR, RomanChord.from_string("V"), 71)
    assert result, "soprano on the leading tone must stay voiceable"
    for r in result:
        pcs = [71 % 12, r.alto % 12, r.tenor % 12, r.bass % 12]
        assert pcs.count(11) == 1


def test_enumeration_empty_when_soprano_below_everything():
    # soprano far below the alto range leaves nothing to enumerate
    result = enumerate_arrangements(C_MAJOR, RomanChord.from_string("I"), 40)
    assert result == []


def test_enumeration_is_deterministic():
    chord = RomanChord.from_string("V7")
    first = enumerate_arrangements(C_MAJOR, chord, 74)
    second = enumerate_arrangements(C_MAJOR, chord, 74)
    assert first == second


# --- chaining ----------------------------------------------------------------

def test_chain_picks_zero_distance_candidate():
    seed = arr(64, 55, 48)
    same = arr(64, 55, 48)
    other = arr(72, 64, 55)
    [(chain, _)] = chain_arrangements([[seed], [other, same]])
    assert chain == [seed, same]


def test_chain_hand_computed_distances():
    seed = arr(64, 55, 48)
    near = arr(65, 57, 50)   # squared distance 1+4+4 = 9
    far = arr(60, 52, 43)    # squared distance 16+9+25 = 50
    [(chain, _)] = chain_arrangements([[seed], [far, near]])
    assert chain[1] == near


def test_chain_tie_broken_by_horizontal_violations():
    # alto and bass sit an octave apart in the seed; moving both keeps the
    # octave (a violation), while the alternative at the same distance is
    # clean but lexicographically later, so the tie-break must prefer it
    seed = arr(60, 55, 48)
    parallel = arr(58, 55, 46)   # squared distance 8, parallel octaves
    clean = arr(62, 57, 48)      # squared distance 8, no violations
    [(chain, _)] = chain_arrangements([[seed], [parallel, clean]])
    assert chain[1] == clean
    # sanity: the violating candidate would win a pure lexicographic tie
    assert ((parallel.bass, parallel.tenor, parallel.alto)
            < (clean.bass, clean.tenor, clean.alto))


def test_chain_full_tie_goes_to_least_bass_tenor_alto():
    # both candidates are at squared distance 5 with no violations; the
    # list order and the alto order favour higher_bass, the
    # (bass, tenor, alto) order lower_bass
    seed = arr(64, 55, 48)
    lower_bass, higher_bass = arr(66, 55, 47), arr(63, 55, 50)
    [(chain, _)] = chain_arrangements([[seed], [higher_bass, lower_bass]])
    assert chain[1] is lower_bass
    assert greedy_voicing([[seed], [higher_bass, lower_bass]], [76, 76])[0][1] \
        is lower_bass


def test_lattice_raises_for_first_empty_beat():
    # sopranos 45 and 40 lie below every alto pitch; the first is named
    melody = melody_from_midi([72, 45, 40])
    ann = ProgressionAnnotation((C_MAJOR,) * 3, (RomanChord.from_string("I"),) * 3)
    with pytest.raises(InfeasibleHarmonizationError) as err:
        harmonize._arrangement_lattice(melody, ann)
    assert err.value.beat_index == 1
    assert str(err.value) == "no feasible arrangement at beat 1 for chord I"


def test_lattice_shares_one_list_per_distinct_input():
    melody = melody_from_midi([72, 74, 72, 72])
    chords = tuple(RomanChord.from_string(r) for r in ("I", "V", "I", "IV"))
    lattice = harmonize._arrangement_lattice(
        melody, ProgressionAnnotation((C_MAJOR,) * 4, chords))
    assert lattice[0] is lattice[2] and lattice[0] is not lattice[3]
    assert lattice[0] == enumerate_arrangements(C_MAJOR, chords[0], 72)


# --- penalties ----------------------------------------------------------------

def test_no_motion_no_penalty():
    melody = melody_from_midi([72, 72, 72])
    chains = [arr(64, 55, 48) for _ in range(3)]
    assert score_arrangements(melody, chains) == []


def test_parallel_octave_between_soprano_and_bass():
    melody = melody_from_midi([72, 74])
    chains = [arr(67, 64, 60), arr(67, 64, 62)]
    log = score_arrangements(melody, chains)
    rules = [v.rule for v in log]
    assert "parallel_octaves" in rules
    entry = next(v for v in log if v.rule == "parallel_octaves")
    assert entry.beat_index == 1
    assert entry.weight == PENALTY_WEIGHTS["parallel_octaves"]


def test_parallel_fifths_detected():
    melody = melody_from_midi([76, 77])
    chains = [arr(67, 60, 48), arr(69, 62, 50)]  # tenor-bass fifths move up
    log = score_arrangements(melody, chains)
    assert any(v.rule == "parallel_fifths" for v in log)


def test_bass_leap_over_octave():
    melody = melody_from_midi([72, 72])
    chains = [arr(64, 55, 48), arr(64, 55, 60)]  # bass jumps 12 -> fine
    log = score_arrangements(melody, chains)
    assert all(v.rule != "leap_over_octave" for v in log)
    chains = [arr(64, 55, 46), arr(64, 55, 60)]  # bass jumps 14
    log = score_arrangements(melody, chains)
    leap = [v for v in log if v.rule == "leap_over_octave"]
    assert len(leap) == 1 and leap[0].weight == 3.0


def test_inner_voice_leap_graded():
    melody = melody_from_midi([72, 72])
    chains = [arr(62, 54, 48), arr(70, 54, 48)]  # alto leaps 8
    log = score_arrangements(melody, chains)
    assert any(v.rule == "inner_voice_leap" and v.weight == 1.0 for v in log)


def test_voice_overlap_detected():
    melody = melody_from_midi([72, 72])
    # tenor at beat 1 rises above the alto's previous pitch
    chains = [arr(60, 55, 48), arr(64, 62, 48)]
    log = score_arrangements(melody, chains)
    assert any(v.rule == "voice_overlap" for v in log)


def test_penalty_equals_sum_of_log_weights(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[4]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    assert h.violation_log
    assert h.penalty == sum(v.weight for v in h.violation_log)
    assert type(h.penalty) is int
    assert all(type(v.weight) is int for v in h.violation_log)
    assert score_arrangements(h.soprano, h.arrangements) == h.violation_log


def test_penalty_is_read_from_the_log_alone():
    # the penalty is no field of its own: it follows the log and cannot be set
    assert "penalty" not in {f.name for f in dataclasses.fields(Harmonization)}
    melody = melody_from_midi([72, 72])
    h = Harmonization(melody, [arr(64, 55, 48)] * 2, ProgressionAnnotation(
        (C_MAJOR,) * 2, (RomanChord.from_string("I"),) * 2), [])
    assert h.penalty == 0
    h.violation_log.extend([Violation(1, "voice_overlap", 2),
                            Violation(1, "inner_voice_leap", 1)])
    assert h.penalty == 3
    with pytest.raises(AttributeError):
        h.penalty = 0


# --- full harmonization ---------------------------------------------------------

def test_single_beat_melody_takes_first_seed(major_bundle):
    melody = melody_from_midi([72])
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    assert h.penalty == 0
    assert len(h.arrangements) == 1
    chord = h.annotation.chords[0]
    key = h.annotation.keys[0]
    seeds = enumerate_arrangements(key, chord, 72)
    assert h.arrangements[0] == seeds[0]


def test_voice_lines_hold_midi_numbers():
    melody = parse_melody_text("0 | notes=72:0.5,74:0.5\n")
    h = voice_progression(melody, ProgressionAnnotation(
        (C_MAJOR,), (RomanChord.from_string("I"),)))
    [arrangement] = h.arrangements
    assert h.voice_lines() == {
        "soprano": [((72, 240), (74, 240))],
        "alto": [((arrangement.alto, PPQ),)],
        "tenor": [((arrangement.tenor, PPQ),)],
        "bass": [((arrangement.bass, PPQ),)],
    }


def test_harmonize_penalty_is_minimum_over_seeds(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[7]   # m08, short
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    # exhaustive re-evaluation of every seed with an independent loop
    ann = h.annotation
    cands = [enumerate_arrangements(ann.keys[t], ann.chords[t],
                                    melody.events[t].representative)
             for t in range(len(melody))]
    best = None
    for seed in cands[0]:
        chain = [seed]
        for t in range(1, len(cands)):
            prev = chain[-1]
            scored = []
            for c in cands[t]:
                d = ((c.alto - prev.alto) ** 2
                     + (c.tenor - prev.tenor) ** 2
                     + (c.bass - prev.bass) ** 2)
                scored.append((d, c))
            min_d = min(d for d, _ in scored)
            ties = [c for d, c in scored if d == min_d]
            if len(ties) == 1:
                chain.append(ties[0])
            else:
                sopranos = [ev.representative
                            for ev in melody.events[t - 1:t + 1]]
                chain.append(greedy_voicing([[prev], ties], sopranos)[0][1])
        penalty = sum(v.weight for v in score_arrangements(melody, chain))
        if best is None or penalty < best:
            best = penalty
    assert h.penalty == best


def _concatenated(fixture_melodies) -> MelodyLine:
    notes = [ev.notes for _, melody in fixture_melodies for ev in melody.events]
    return MelodyLine(tuple(map(BeatEvent, notes)))


def _assert_matches_greedy_oracle(melody, annotation):
    h = voice_progression(melody, annotation)
    candidates = [enumerate_arrangements(key, chord, soprano)
                  for key, chord, soprano in zip(annotation.keys,
                                                 annotation.chords,
                                                 melody.representatives())]
    arrangements, penalty = greedy_voicing(candidates, melody.representatives())
    assert h.arrangements == arrangements
    assert h.penalty == penalty
    assert h.violation_log == score_arrangements(h.soprano, h.arrangements)


@pytest.mark.parametrize("method", METHODS)
def test_voicing_matches_greedy_oracle(major_bundle, fixture_melodies, method):
    for _, melody in fixture_melodies:
        annotation = decode_key_chord(major_bundle.key_model,
                                      major_bundle.chord_model, melody, method)
        _assert_matches_greedy_oracle(melody, annotation)


@pytest.mark.parametrize("method", METHODS)
def test_voicing_matches_greedy_oracle_concatenated(major_bundle,
                                                    fixture_melodies, method):
    # all 20 melodies as one line: enumeration inputs repeat, the same
    # chord and soprano come under different keys, and distances tie
    melody = _concatenated(fixture_melodies)
    annotation = decode_key_chord(major_bundle.key_model,
                                  major_bundle.chord_model, melody, method)
    _assert_matches_greedy_oracle(melody, annotation)


def test_enumeration_runs_once_per_distinct_input_per_call(
        monkeypatch, major_bundle, fixture_melodies):
    calls = []

    def counting(key, chord, soprano):
        calls.append((key, chord, soprano))
        return enumerate_arrangements(key, chord, soprano)

    monkeypatch.setattr(harmonize, "enumerate_arrangements", counting)
    melody = _concatenated(fixture_melodies)
    annotation = decode_key_chord(major_bundle.key_model,
                                  major_bundle.chord_model, melody)
    distinct = set(zip(annotation.keys, annotation.chords,
                       melody.representatives()))
    assert len(distinct) < len(melody)
    first = voice_progression(melody, annotation)
    assert Counter(calls) == Counter(distinct)
    calls.clear()
    second = voice_progression(melody, annotation)
    assert Counter(calls) == Counter(distinct)
    assert second.arrangements == first.arrangements


def test_score_document_formats_once_per_distinct_input_per_call(
        monkeypatch, major_bundle, fixture_melodies):
    melody = _concatenated(fixture_melodies)
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    expected = to_score_document(h)
    beats, labels = [], []

    def counting_notes(beat):
        beats.append(beat)
        return _format_note_list(beat)

    def counting_str(value):
        if isinstance(value, (KeyLabel, RomanChord)):
            labels.append(value)
        return str(value)

    monkeypatch.setattr(harmonize, "_format_note_list", counting_notes)
    monkeypatch.setattr(harmonize, "str", counting_str, raising=False)
    distinct_beats = {beat for line in h.voice_lines().values() for beat in line}
    distinct_labels = {*h.annotation.keys, *h.annotation.chords}
    assert len(distinct_beats) < 4 * len(melody)
    for _ in range(2):
        beats.clear()
        labels.clear()
        assert to_score_document(h) == expected
        assert Counter(beats) == Counter(distinct_beats)
        assert Counter(labels) == Counter(distinct_labels)


# --- chains grown together ----------------------------------------------------

ORACLE_KEYS = (C_MAJOR, KeyLabel(7, MAJOR), KeyLabel(9, MINOR))


@pytest.fixture(scope="module")
def feasible_beats():
    """Every (key, chord, soprano) with at least one arrangement, over a few
    keys, the oracle chords and sopranos C4-G5."""
    beats = []
    for key in ORACLE_KEYS:
        for roman in ORACLE_CHORDS:
            chord = RomanChord.from_string(roman)
            for soprano in range(60, 80):
                if enumerate_arrangements(key, chord, soprano):
                    beats.append((key, chord, soprano))
    return beats


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_chains_match_greedy_oracle(data, feasible_beats):
    beats = data.draw(st.lists(st.sampled_from(feasible_beats),
                               min_size=1, max_size=30))
    keys, chords, sopranos = zip(*beats)
    melody = MelodyLine(tuple(BeatEvent(((p, PPQ),)) for p in sopranos))
    _assert_matches_greedy_oracle(melody, ProgressionAnnotation(keys, chords))


def _voice_lattice(monkeypatch, lattice, soprano=76) -> Harmonization:
    """voice_progression over a hand-built lattice, one candidate list per
    beat, checked against the greedy oracle."""
    beats = iter(lattice)
    monkeypatch.setattr(harmonize, "enumerate_arrangements",
                        lambda key, chord, soprano: next(beats))
    n = len(lattice)
    melody = melody_from_midi([soprano] * n)
    h = voice_progression(melody, ProgressionAnnotation(
        (C_MAJOR,) * n, tuple(RomanChord(t + 1, "major") for t in range(n))))
    assert (h.arrangements, h.penalty) == greedy_voicing(lattice, [soprano] * n)
    assert h.violation_log == score_arrangements(melody, h.arrangements)
    return h


def test_chains_that_never_meet(monkeypatch):
    low, high = arr(64, 55, 48), arr(67, 60, 52)
    low_step, high_step = arr(65, 57, 50), arr(69, 62, 53)
    lattice = [[low, high], [low_step, high_step], [low, high],
               [low_step, high_step]]
    assert chain_arrangements(lattice) == [
        ([low, low_step, low, low_step], None),
        ([high, high_step, high, high_step], None)]
    _voice_lattice(monkeypatch, lattice)


def test_chains_that_meet_at_beat_1(monkeypatch):
    # both seeds step to the same arrangement, the first with an alto leap
    # of a minor sixth, so the second chain wins and takes its violations
    # after beat 1 (an overlap and a leap in the bass) from the first
    leaping, smooth = arr(72, 57, 48), arr(64, 55, 48)
    meet, far = arr(64, 55, 43), arr(72, 64, 55)
    lattice = [[leaping, smooth], [meet, far], [arr(62, 55, 43), far],
               [arr(60, 52, 56)]]
    (first, first_joined), (second, joined) = chain_arrangements(lattice)
    assert first[1] is meet and second[1] is meet
    assert first[1:] == second[1:]
    assert first_joined is None and joined == (1, 0)
    h = _voice_lattice(monkeypatch, lattice)
    assert h.arrangements[0] is smooth
    assert {v.rule for v in h.violation_log if v.beat_index == 3} == {
        "voice_overlap", "leap_over_octave"}


@pytest.mark.parametrize("method", METHODS)
def test_each_distinct_chain_step_runs_once_per_call(
        monkeypatch, major_bundle, fixture_melodies, method):
    steps = []
    greedy_step = harmonize._greedy_step

    def counting(prev, candidates):
        steps.append((id(candidates), prev))
        return greedy_step(prev, candidates)

    monkeypatch.setattr(harmonize, "_greedy_step", counting)
    melody = _concatenated(fixture_melodies)
    annotation = decode_key_chord(major_bundle.key_model,
                                  major_bundle.chord_model, melody, method)
    candidates_per_beat = harmonize._arrangement_lattice(melody, annotation)
    chains, joins = zip(*chain_arrangements(candidates_per_beat))
    distinct = {(t, chain[t - 1]) for chain in chains
                for t in range(1, len(chain))}
    assert len(chains) > 1 and len(distinct) < len(chains) * (len(melody) - 1)
    assert sorted(steps, key=repr) == sorted(
        ((id(candidates_per_beat[t]), prev) for t, prev in distinct), key=repr)
    # each join names the first beat the chain shares with any earlier
    # chain, and the least earlier chain that has it there
    assert any(joins)
    for index, chain in enumerate(chains):
        shared = [(t, j) for j in range(index) for t in range(1, len(chain))
                  if chain[t] == chains[j][t]]
        assert joins[index] == min(shared, default=None)


def test_harmonize_is_deterministic(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[3]
    h1 = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    h2 = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    assert to_score_document(h1) == to_score_document(h2)
    assert h1.arrangements == h2.arrangements


def test_all_fixture_harmonizations_satisfy_constraints(major_bundle,
                                                        fixture_melodies):
    for name, melody in fixture_melodies:
        h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model,
                             melody)
        assert len(h.arrangements) == len(melody)
        for ev, a in zip(melody.events, h.arrangements):
            check_vertical(a, ev.representative)


def test_masked_viterbi_decodes_have_no_retrogression(major_bundle,
                                                      fixture_melodies):
    for name, melody in fixture_melodies:
        h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model,
                             melody, "viterbi")
        chords = h.annotation.chords
        bad = [(t, str(chords[t - 1]), str(chords[t]))
               for t in range(1, len(chords))
               if is_retrogressive(chords[t - 1], chords[t])]
        assert bad == [], f"{name}: {bad}"


def test_infeasible_beat_is_reported():
    # a soprano below every alto pitch cannot be voiced
    melody = melody_from_midi([72, 45, 72])
    ann = ProgressionAnnotation(
        tuple([KeyLabel(0, MAJOR)] * 3),
        tuple(RomanChord.from_string(r) for r in ("I", "I", "I")))
    with pytest.raises(InfeasibleHarmonizationError) as err:
        voice_progression(melody, ann)
    assert err.value.beat_index == 1
    assert "beat 1 for chord I" in str(err.value)


def test_score_document_shape(major_bundle, fixture_melodies):
    name, melody = fixture_melodies[0]
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    doc = to_score_document(h, title=name)
    lines = doc.splitlines()
    assert lines[0] == f"id: {name}"
    assert len([l for l in lines if " | " in l]) == len(melody)
    assert "soprano=" in lines[2] and "roman=" in lines[2]


@pytest.mark.parametrize("ornaments", [False, True], ids=["plain", "ornamented"])
def test_score_document_equals_the_field_list_reference(major_bundle,
                                                         fixture_melodies,
                                                         ornaments):
    with_violations = with_two_notes = 0
    for index, (name, melody) in enumerate(fixture_melodies):
        for method in METHODS:
            h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model,
                                 melody, method)
            if ornaments:
                h = insert_ornaments(h, OrnamentConfig(0.5, 0.5, 0.5,
                                                       rng_seed=index))
            title = f"{name} by {method} decoding"
            assert to_score_document(h, title) == score_document_reference(h, title)
            with_violations += bool(h.violation_log)
            with_two_notes += any(len(beat) > 1 for beat in h.alto_line)
    assert with_violations > 0
    assert (with_two_notes > 0) == ornaments


# --- property: random diatonic melodies stay feasible and legal ----------------

@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_melodies_all_arrangements_valid(data, major_bundle):
    degrees = st.sampled_from([60, 62, 64, 65, 67, 69, 71, 72, 74, 76, 77, 79])
    pitches = data.draw(st.lists(degrees, min_size=2, max_size=8))
    melody = melody_from_midi(pitches)
    h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model, melody)
    for ev, a in zip(melody.events, h.arrangements):
        check_vertical(a, ev.representative)


@pytest.mark.parametrize("beats", [1, 3])
def test_voice_progression_refuses_an_annotation_of_another_length(beats):
    melody = melody_from_midi([72, 71])
    annotation = ProgressionAnnotation((KeyLabel(0, MAJOR),) * beats,
                                       (RomanChord.from_string("I"),) * beats)
    with pytest.raises(MusicError, match="^annotation length does not match"
                       " melody length$"):
        voice_progression(melody, annotation)
