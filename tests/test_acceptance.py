"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them all). Tolerances are fixed here,
not configurable."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from harmonizer.core import is_retrogressive
from harmonizer.corpus import parse_corpus, parse_rock_melody_text
from harmonizer.harmonize import (
    ALTO_RANGE,
    BASS_RANGE,
    TENOR_RANGE,
    harmonize_melody,
    to_score_document,
)
from harmonizer.hmm import (
    HmmModel,
    apply_override,
    decode_key_chord,
    train_key_chord_models,
    viterbi,
    posterior_decode,
)
from harmonizer.midiout import PPQ, export_matrices, functional_summary, write_midi
from harmonizer.ornament import OrnamentConfig, insert_ornaments
from harmonizer.rock import render_accompaniment

from oracles import (
    brute_force_argmax_set,
    brute_force_posteriors,
    decode_chords_given_keys,
    sequence_log_probability,
    shifted,
)
from smf_reader import read_midi


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    else:
        print(f"[acceptance] criterion {number} ({name}): PASS")


def random_model(rng, n_states, n_obs) -> HmmModel:
    return HmmModel(tuple(range(n_states)),
                    rng.dirichlet(np.ones(n_states), size=n_states),
                    rng.dirichlet(np.ones(n_obs), size=n_states),
                    rng.dirichlet(np.ones(n_states)))


def test_criterion_1_decoder_correctness():
    with criterion(1, "decoder correctness vs brute force"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240901)
        for _ in range(200):
            n_states = int(rng.integers(2, 5))     # S <= 4
            n_obs = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))            # n <= 6
            model = random_model(rng, n_states, n_obs)
            obs = list(rng.integers(0, n_obs, size=n))
            best_logp, winners = brute_force_argmax_set(model, obs)
            got = viterbi(model, obs)
            # exact label match against the brute-force argmax; exactly tied
            # optima (permuted factor products) are all argmaxes
            assert got in winners
            assert sequence_log_probability(model, got, obs) == pytest.approx(
                best_logp, abs=1e-9)
        for _ in range(100):
            n_states = int(rng.integers(2, 4))     # S <= 3
            n_obs = int(rng.integers(2, 4))
            n = int(rng.integers(1, 6))            # n <= 5
            model = random_model(rng, n_states, n_obs)
            obs = list(rng.integers(0, n_obs, size=n))
            _, marginals = posterior_decode(model, obs)
            assert np.allclose(marginals, brute_force_posteriors(model, obs),
                               atol=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"decoder check too slow: {elapsed:.1f}s"


def test_criterion_2_phrase_model_compliance(major_bundle, fixture_melodies):
    with criterion(2, "zero retrogressive transitions in masked decodes"):
        assert len(fixture_melodies) == 20
        assert major_bundle.chord_model.mask is not None
        violations = 0
        for name, melody in fixture_melodies:
            annotation = decode_key_chord(major_bundle.key_model,
                                          major_bundle.chord_model,
                                          melody, "viterbi")
            chords = annotation.chords
            violations += sum(is_retrogressive(chords[t - 1], chords[t])
                              for t in range(1, len(chords)))
        assert violations == 0


def test_criterion_3_constraint_satisfaction(major_bundle, fixture_melodies):
    with criterion(3, "100% vertical constraint satisfaction"):
        checked = 0
        for method in ("viterbi", "posterior"):
            for name, melody in fixture_melodies:
                h = harmonize_melody(major_bundle.key_model,
                                     major_bundle.chord_model, melody, method)
                for ev, arr in zip(melody.events, h.arrangements):
                    s = ev.representative
                    a, t, b = arr.alto, arr.tenor, arr.bass
                    assert b <= t <= a <= s
                    assert ALTO_RANGE[0] <= a <= ALTO_RANGE[1]
                    assert TENOR_RANGE[0] <= t <= TENOR_RANGE[1]
                    assert BASS_RANGE[0] <= b <= BASS_RANGE[1]
                    assert s - a <= 12 and a - t <= 12
                    checked += 1
        assert checked > 0


def test_criterion_4_performance(data_dir, fixture_melodies):
    with criterion(4, "training < 60s and harmonization < 5s"):
        started = time.perf_counter()
        corpus = parse_corpus(data_dir / "chorales", "chorale", "major")
        assert len(corpus.chorales) == 8
        bundle = train_key_chord_models(corpus)
        train_time = time.perf_counter() - started
        assert train_time < 60.0, f"training took {train_time:.2f}s"

        _, melody = fixture_melodies[1]   # 13 beats
        started = time.perf_counter()
        harmonize_melody(bundle.key_model, bundle.chord_model, melody)
        harmonize_time = time.perf_counter() - started
        assert harmonize_time < 5.0, f"harmonization took {harmonize_time:.2f}s"
        print(f"[acceptance] timings: train {train_time:.3f}s,"
              f" harmonize {harmonize_time:.3f}s", end=" ")


def test_criterion_5_interpretability(major_corpus, major_bundle):
    with criterion(5, "key stability and functional structure"):
        key_model = major_bundle.key_model
        seen = {k for ch in major_corpus.chorales for k in ch.annotation.keys}
        index = key_model.state_index()
        dominant_diagonal = sum(
            int(np.argmax(key_model.transition[index[label]]) == index[label])
            for label in seen)
        assert dominant_diagonal / len(seen) >= 0.8
        summary = functional_summary(major_bundle.chord_model,
                                     major_bundle.chord_counts)
        t, pd, d = 0, 1, 2
        assert summary[d, t] > summary[d, pd]
        assert summary[pd, d] >= summary[pd, t]


def test_criterion_6_transposition_equivariance(major_bundle, fixture_melodies):
    with criterion(6, "chord decode equivariant under key shifts"):
        for name, melody in fixture_melodies[:6]:
            base = decode_key_chord(major_bundle.key_model,
                                    major_bundle.chord_model, melody, "viterbi")
            for shift in range(1, 12):
                chords = decode_chords_given_keys(major_bundle.chord_model,
                                                  shifted(melody, shift),
                                                  shifted(base, shift).keys,
                                                  "viterbi")
                assert chords == list(base.chords), (name, shift)


def test_criterion_7_ornament_identity_and_determinism(major_bundle,
                                                       fixture_melodies,
                                                       tmp_path):
    with criterion(7, "ornament identity at zero rates, seeded determinism"):
        _, melody = fixture_melodies[5]
        h = harmonize_melody(major_bundle.key_model, major_bundle.chord_model,
                             melody)
        silent = insert_ornaments(h, OrnamentConfig(0.0, 0.0, 0.0, rng_seed=77))
        assert to_score_document(silent) == to_score_document(h)
        p0 = write_midi(h, tmp_path / "plain.mid")
        p1 = write_midi(silent, tmp_path / "silent.mid")
        assert p0.read_bytes() == p1.read_bytes()

        cfg = OrnamentConfig(0.6, 0.5, 0.4, rng_seed=123)
        first = insert_ornaments(h, cfg)
        second = insert_ornaments(h, cfg)
        assert to_score_document(first) == to_score_document(second)
        f0 = write_midi(first, tmp_path / "orn0.mid")
        f1 = write_midi(second, tmp_path / "orn1.mid")
        assert f0.read_bytes() == f1.read_bytes()


def test_criterion_8_midi_round_trip(major_bundle, rock_bundle,
                                     fixture_melodies, tmp_path):
    with criterion(8, "MIDI round-trips via an independent reader"):
        files = 0
        for name, melody in fixture_melodies[:5]:
            h = harmonize_melody(major_bundle.key_model,
                                 major_bundle.chord_model, melody)
            h = insert_ornaments(h, OrnamentConfig(0.7, 0.6, 0.3, rng_seed=5))
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
            files += 1
        rock_melody = parse_rock_melody_text("".join(
            f"{i} | melody_degree_pc={pc}\n"
            for i, pc in enumerate([0, 4, 7, 5, 9, 0, 7, 11, 2, 0])))
        annotation = decode_key_chord(rock_bundle.key_model,
                                      rock_bundle.chord_model, rock_melody)
        for pattern in ("arpeggio", "block"):
            score = render_accompaniment(rock_melody, annotation, pattern, True)
            path = write_midi(score, tmp_path / f"rock-{pattern}.mid")
            parsed = read_midi(path)
            layout = [("melody", score.melody_track), ("bass", score.bass_track),
                      ("keys", score.keys_track), ("drums", score.drum_track)]
            for track, (label, notes) in zip(parsed.tracks[1:], layout):
                expected = sorted((pitch, onset, duration)
                                  for onset, duration, pitch in notes)
                got = sorted((p, o, d) for p, o, d, _ in track.notes)
                assert got == expected, label
            files += 1
        assert files == 7


def test_criterion_9_override_workflow(major_bundle, fixture_melodies, tmp_path):
    with criterion(9, "identity override neutral, boosted override effective"):
        chord_model = major_bundle.chord_model
        paths = export_matrices(chord_model, tmp_path, prefix="chord_")
        identity = apply_override(chord_model, paths[0])
        decodes_before = []
        for name, melody in fixture_melodies:
            base = decode_key_chord(major_bundle.key_model, chord_model,
                                    melody, "viterbi")
            same = decode_key_chord(major_bundle.key_model, identity,
                                    melody, "viterbi")
            assert base == same, name
            decodes_before.append(base)

        # boost the columns of the minor and diminished diatonic chords so
        # they become reachable, then renormalize each row
        boosted = chord_model.transition.copy()
        targets = [j for j, label in enumerate(chord_model.states)
                   if str(label)[0] in "bvi" or str(label).startswith("ii")]
        assert targets, "expected boostable chords in the vocabulary"
        boosted[:, targets] += 0.5
        boosted /= boosted.sum(axis=1, keepdims=True)
        boost_path = tmp_path / "boosted.csv"
        import csv
        with open(boost_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + [str(s) for s in chord_model.states])
            for label, row in zip(chord_model.states, boosted):
                writer.writerow([str(label)] + [repr(float(v)) for v in row])
        boosted_model = apply_override(chord_model, boost_path)
        changed = 0
        for (name, melody), before in zip(fixture_melodies, decodes_before):
            after = decode_key_chord(major_bundle.key_model, boosted_model,
                                     melody, "viterbi")
            if after != before:
                changed += 1
        assert changed >= 1
