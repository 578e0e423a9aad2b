import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    RomanChord,
    transposed_degree,
)
from harmonizer.corpus import Corpus, CorpusError, reference_offset
from harmonizer.hmm import (
    MASK_EPSILON,
    AlphabetError,
    DecodeInfeasibleError,
    HmmError,
    HmmModel,
    METHODS,
    _distribute,
    apply_override,
    build_phrase_mask,
    decode_chords_given_keys,
    decode_key_chord,
    estimate,
    load_bundle,
    masked_pairs,
    posterior_decode,
    save_bundle,
    sequence_log_probability,
    train_key_chord_models,
    viterbi,
)
from harmonizer.midiout import export_matrices, functional_summary

from oracles import (
    brute_force_argmax_set,
    brute_force_posteriors,
    brute_force_viterbi,
    counting_estimate,
    distribute_row,
    stepwise_posterior,
    stepwise_viterbi,
)


def random_model(rng, n_states, n_obs) -> HmmModel:
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    emission = rng.dirichlet(np.ones(n_obs), size=n_states)
    initial = rng.dirichlet(np.ones(n_states))
    return HmmModel(tuple(f"s{i}" for i in range(n_states)),
                    tuple(range(n_obs)), transition, emission, initial)


def awkward_model(rng, n_states, n_obs) -> HmmModel:
    """A random model with the cells that make decoding awkward: exact
    zeros, MASK_EPSILON transitions and exactly tied probabilities."""
    def stochastic(shape, masked):
        if rng.random() < 0.5:
            weights = rng.random(shape)
        else:  # few distinct values, so sums and products tie exactly
            weights = rng.integers(1, 3, size=shape).astype(float)
        zeros = rng.random(shape) < rng.choice([0.0, 0.3, 0.6])
        weights[zeros | masked] = 0.0
        for row, allowed in zip(weights, ~masked):
            if row.sum() == 0.0:
                row[rng.choice(np.flatnonzero(allowed))] = 1.0
        budget = 1.0 - MASK_EPSILON * masked.sum(axis=1, keepdims=True)
        out = weights / weights.sum(axis=1, keepdims=True) * budget
        out[masked] = MASK_EPSILON
        return out

    mask = rng.random((n_states, n_states)) < 0.2
    mask[np.arange(n_states), rng.integers(0, n_states, size=n_states)] = False
    return HmmModel(
        tuple(f"s{i}" for i in range(n_states)), tuple(range(n_obs)),
        stochastic((n_states, n_states), mask),
        stochastic((n_states, n_obs), np.zeros((n_states, n_obs), dtype=bool)),
        stochastic((1, n_states), np.zeros((1, n_states), dtype=bool))[0],
        mask=mask)


def melody_from_midi(pitches) -> MelodyLine:
    return MelodyLine(tuple(BeatEvent(((m, PPQ),)) for m in pitches))


# --- estimation -----------------------------------------------------------

def test_estimate_single_self_loop():
    model = estimate(["C"], [0], [(["C", "C", "C"], [0, 0, 0])], alpha=0.0)
    assert model.transition[0, 0] == pytest.approx(1.0)
    assert model.initial[0] == pytest.approx(1.0)


def test_estimate_hand_counts():
    # counts: A->A three times, A->B once
    seqs = [(list("AAAAB"), [0] * 5)]
    model = estimate(["A", "B"], [0], seqs, alpha=0.0)
    assert model.transition[0].tolist() == pytest.approx([0.75, 0.25])


def test_estimate_masked_cell_stays_tiny_despite_counts():
    labels = ["V", "IV", "I"]
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 1] = True  # forbid V -> IV
    seqs = [(["V", "IV"], [0, 0]), (["V", "IV"], [0, 0]), (["V", "I"], [0, 0])]
    model = estimate(labels, [0], seqs, mask=mask, alpha=0.0)
    assert model.transition[0, 1] <= 1e-6
    assert model.transition[0].sum() == pytest.approx(1.0, abs=1e-9)


def test_estimate_unseen_label_errors():
    with pytest.raises(AlphabetError):
        estimate(["A"], [0], [(["A", "Z"], [0, 0])])
    with pytest.raises(AlphabetError):
        estimate(["A"], [0], [(["A"], [5])])
    with pytest.raises(HmmError):
        estimate(["A"], [0], [])


# an int too large for a float is not finite either
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), -1.0,
                                   pytest.param(10 ** 400, id="huge-int")])
def test_estimate_rejects_non_finite_or_negative_alpha(alpha):
    with pytest.raises(HmmError, match="smoothing alpha"):
        estimate(["A"], [0], [(["A", "A"], [0, 0])], alpha=alpha)


def test_estimate_rejects_alpha_whose_row_total_overflows():
    pairs = [(["A", "B"], [0, 1])]
    with pytest.raises(HmmError, match="smoothing alpha 1e\\+308 is too large"):
        estimate(["A", "B"], [0, 1], pairs, alpha=1e308)
    # a row of one cell totals the alpha itself, which is finite
    one = estimate(["A"], [0], [(["A"], [0])], alpha=1e308)
    assert one.transition.tolist() == [[1.0]]
    assert estimate(["A", "B"], [0, 1], pairs, alpha=1e300).emission.tolist() == \
        [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("mode", ["major", "minor"])
def test_training_moves_chorales_to_their_reference_keys(tmp_path, chorale_corpus,
                                                         mode):
    # the corpus shifted to every opening tonic, the +-6 tie (broken
    # downward) among them, trains the model of its moved copies
    raw = chorale_corpus.select_mode(mode)
    for s in range(-6, 6):
        shifted = Corpus(tuple(ch.transpose(s) for ch in raw.chorales), "chorale")
        moved = Corpus(tuple(ch.transpose(reference_offset(ch))
                             for ch in shifted.chorales), "chorale")
        assert moved != shifted
        texts = [save_bundle(train_key_chord_models(corpus),
                             tmp_path / f"{name}.json").read_text()
                 for name, corpus in (("shifted", shifted), ("moved", moved))]
        assert texts[0] == texts[1], s


def test_training_keeps_rock_keys(rock_corpus, rock_bundle):
    opening = {ch.annotation.keys[0] for ch in rock_corpus.chorales}
    initial = rock_bundle.key_model.initial
    index = rock_bundle.key_model.state_index()
    assert len(opening) > 1
    assert all(initial[index[key]] > initial.min() for key in opening)


def test_estimate_is_deterministic():
    seqs = [(list("ABAB"), [0, 1, 0, 1]), (list("AABB"), [1, 1, 0, 0])]
    m1 = estimate(["A", "B"], [0, 1], seqs)
    m2 = estimate(["A", "B"], [0, 1], seqs)
    assert np.array_equal(m1.transition, m2.transition)
    assert np.array_equal(m1.emission, m2.emission)
    assert np.array_equal(m1.initial, m2.initial)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_estimate_rows_stochastic_and_masked_cells_bounded(data):
    n_states = data.draw(st.integers(2, 5))
    labels = [f"s{i}" for i in range(n_states)]
    n_obs = data.draw(st.integers(1, 4))
    seqs = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(labels), st.integers(0, n_obs - 1)),
                 min_size=1, max_size=8),
        min_size=1, max_size=5))
    pairs = [([h for h, _ in seq], [o for _, o in seq]) for seq in seqs]
    mask_flags = data.draw(st.lists(st.booleans(), min_size=n_states * n_states,
                                    max_size=n_states * n_states))
    mask = np.array(mask_flags).reshape(n_states, n_states)
    for i in range(n_states):  # keep at least one way out of each state
        mask[i, (i + 1) % n_states] = False
    alpha = data.draw(st.sampled_from([0.0, 0.01, 1.0]))
    model = estimate(labels, list(range(n_obs)), pairs, mask=mask, alpha=alpha)
    assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)
    assert model.initial.sum() == pytest.approx(1.0, abs=1e-9)
    assert (model.transition[mask] <= MASK_EPSILON + 1e-15).all()
    assert (model.transition >= 0).all() and (model.emission >= 0).all()


# a later sequence that each fails one check of `estimate`
_BAD_SEQUENCES = {
    "length": (["s0", "s0"], [0]),
    "empty": ([], []),
    "hidden": (["s0", "zz"], [0, 0]),
    "observed": (["s0", "s0"], [0, 99]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_estimate_equals_counting_loop(data):
    n_states = data.draw(st.integers(1, 6))
    labels = [f"s{i}" for i in range(n_states)]
    n_obs = data.draw(st.integers(1, 5))
    seqs = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(labels), st.integers(0, n_obs - 1)),
                 min_size=1, max_size=10),
        min_size=1, max_size=6))
    pairs = [([h for h, _ in seq], [o for _, o in seq]) for seq in seqs]
    mask = None
    if data.draw(st.booleans()):
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=n_states ** 2, max_size=n_states ** 2)))
        mask = mask.reshape(n_states, n_states)
        mask[np.arange(n_states), (np.arange(n_states) + 1) % n_states] = False
    alpha = data.draw(st.sampled_from([0.0, 0.01, 1.0]))
    bad = data.draw(st.sampled_from([None, *_BAD_SEQUENCES]))
    if bad is not None:
        pairs.insert(data.draw(st.integers(1, len(pairs))), _BAD_SEQUENCES[bad])
        errors = []
        for fit in (estimate, counting_estimate):
            with pytest.raises(HmmError) as caught:
                fit(labels, range(n_obs), pairs, mask=mask, alpha=alpha)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        return
    fast = estimate(labels, range(n_obs), pairs, mask=mask, alpha=alpha)
    slow = counting_estimate(labels, range(n_obs), pairs, mask=mask, alpha=alpha)
    for name in ("transition", "emission", "initial"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name


def _per_row(weights, mask=None):
    """`distribute_row` over each row, stacked in the shape of `weights`."""
    rows = np.atleast_2d(weights)
    masks = [None] * len(rows) if mask is None else np.atleast_2d(mask)
    out = np.array([distribute_row(r, m) for r, m in zip(rows, masks)])
    return out.reshape(np.shape(weights))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distribute_equals_per_row_reference(data):
    n_rows = data.draw(st.integers(0, 6))
    n_cols = data.draw(st.integers(1, 30))
    one_d = n_rows == 1 and data.draw(st.booleans())
    shape = (n_cols,) if one_d else (n_rows, n_cols)
    size = int(np.prod(shape))
    if data.draw(st.booleans()):     # counts plus a smoothing alpha
        counts = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        alpha = data.draw(st.sampled_from([0.0, 1e-5, 0.01, 1.0, 3.5]))
        weights = np.array(counts, dtype=float).reshape(shape) + alpha
    else:                            # a hand-written row, as an override reads
        weights = np.array(data.draw(st.lists(
            st.floats(0.0, 2.0), min_size=size, max_size=size))).reshape(shape)
    mask = None
    if data.draw(st.booleans()):
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=size, max_size=size)), dtype=bool).reshape(shape)
        if data.draw(st.booleans()):     # otherwise a row may be all masked
            np.atleast_2d(mask)[:, data.draw(st.integers(0, n_cols - 1))] = False
    try:
        expected = _per_row(weights, mask)
    except HmmError as exc:
        with pytest.raises(HmmError, match=str(exc)):
            _distribute(weights, mask)
        return
    got = _distribute(weights, mask)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_distribute_sums_only_the_allowed_cells():
    # summing this row with its masked cell zeroed rounds differently, and
    # would change 8 of its 9 probabilities
    weights = np.array([3, 5, 5, 1, 1, 3, 2, 4, 1], dtype=float) + 0.01
    mask = np.zeros(9, dtype=bool)
    mask[0] = True
    expected = distribute_row(weights, mask)
    assert _distribute(weights, mask).tobytes() == expected.tobytes()
    assert _distribute(weights[None], mask[None]).tobytes() == expected.tobytes()


def test_distribute_shares_an_all_zero_row_uniformly():
    mask = np.array([[False, True, False, False], [False] * 4])
    got = _distribute(np.zeros((2, 4)), mask)
    budget = 1.0 - MASK_EPSILON
    assert got.tolist() == [[budget / 3, MASK_EPSILON, budget / 3, budget / 3],
                            [0.25] * 4]


# --- viterbi ---------------------------------------------------------------

def test_viterbi_single_step_peaked_emission():
    emission = np.array([[0.9, 0.1], [0.1, 0.9]])
    model = HmmModel(("a", "b"), (0, 1), np.full((2, 2), 0.5), emission,
                     np.array([0.5, 0.5]))
    assert viterbi(model, [1]) == ["b"]


def test_viterbi_identity_transitions_force_constant_path():
    transition = np.eye(3)
    emission = np.full((3, 4), 0.25)
    initial = np.array([0.0, 1.0, 0.0])
    model = HmmModel(("a", "b", "c"), (0, 1, 2, 3), transition, emission, initial)
    assert viterbi(model, [0, 3, 2, 1, 0]) == ["b"] * 5


def test_viterbi_matches_brute_force_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = random_model(rng, 3, 4)
        obs = list(rng.integers(0, 4, size=5))
        best_logp, winners = brute_force_argmax_set(model, obs)
        got = viterbi(model, obs)
        assert got in winners
        assert sequence_log_probability(model, got, obs) == pytest.approx(best_logp)


def test_viterbi_beats_random_sequences():
    rng = np.random.default_rng(11)
    model = random_model(rng, 4, 5)
    obs = list(rng.integers(0, 5, size=12))
    best = viterbi(model, obs)
    best_logp = sequence_log_probability(model, best, obs)
    for _ in range(1000):
        hidden = [model.states[i] for i in rng.integers(0, 4, size=len(obs))]
        assert sequence_log_probability(model, hidden, obs) <= best_logp + 1e-12


def test_viterbi_infeasible_observation():
    emission = np.array([[1.0, 0.0], [1.0, 0.0]])
    model = HmmModel(("a", "b"), (0, 1), np.full((2, 2), 0.5), emission,
                     np.array([0.5, 0.5]))
    with pytest.raises(DecodeInfeasibleError):
        viterbi(model, [0, 1, 0])


@pytest.mark.parametrize("observed, viterbi_message, posterior_message", [
    ([0, 0, 1, 0, 0],
     "no hidden state can generate observation at position 2",
     "no hidden state can generate observation at position 2"),
    ([1, 0, 0],
     "no hidden state can generate observation at position 0",
     "no hidden state can generate observation at position 0"),
    ([1],
     "no hidden state can generate observation at position 0",
     "no hidden state can generate observation at position 0"),
])
def test_infeasible_decode_messages(observed, viterbi_message,
                                    posterior_message):
    # no state emits observation 1
    emission = np.array([[1.0, 0.0], [1.0, 0.0]])
    model = HmmModel(("a", "b"), (0, 1), np.full((2, 2), 0.5), emission,
                     np.array([0.5, 0.5]))
    with pytest.raises(DecodeInfeasibleError) as viterbi_error:
        viterbi(model, observed)
    assert str(viterbi_error.value) == viterbi_message
    with pytest.raises(DecodeInfeasibleError) as posterior_error:
        posterior_decode(model, observed)
    assert str(posterior_error.value) == posterior_message


def test_viterbi_tie_breaks_to_lowest_index():
    # both states explain everything equally well
    model = HmmModel(("a", "b"), (0,), np.full((2, 2), 0.5),
                     np.ones((2, 1)), np.array([0.5, 0.5]))
    assert viterbi(model, [0, 0, 0]) == ["a", "a", "a"]


# --- posterior decoding ----------------------------------------------------

def test_posterior_single_step_equals_viterbi():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_model(rng, 4, 3)
        obs = [int(rng.integers(0, 3))]
        labels, marginals = posterior_decode(model, obs)
        assert labels == viterbi(model, obs)
        assert marginals.shape == (1, 4)


def test_posterior_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_model(rng, 3, 3)
        obs = list(rng.integers(0, 3, size=4))
        expected = brute_force_posteriors(model, obs)
        labels, got = posterior_decode(model, obs)
        assert np.allclose(got, expected, atol=1e-9)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)
        assert labels == [model.states[i] for i in np.argmax(expected, axis=1)]


def test_posterior_deterministic_model_one_hot():
    transition = np.array([[0.0, 1.0], [1.0, 0.0]])
    emission = np.array([[1.0, 0.0], [0.0, 1.0]])
    initial = np.array([1.0, 0.0])
    model = HmmModel(("a", "b"), (0, 1), transition, emission, initial)
    labels, marginals = posterior_decode(model, [0, 1, 0, 1])
    assert labels == ["a", "b", "a", "b"] == viterbi(model, [0, 1, 0, 1])
    assert np.allclose(np.sort(marginals, axis=1)[:, -1], 1.0)


# --- fast kernels against the stepwise reference ----------------------------

def _decoded_or_error(decoder, model, observed):
    try:
        return decoder(model, observed)
    except DecodeInfeasibleError as exc:
        return str(exc)


def assert_decoders_match_stepwise(model, observed):
    """Exact equality, not closeness: the fast kernels do the stepwise
    arithmetic in the same order, so labels, marginals and error messages
    are all bit-identical. Returns the Viterbi and the posterior labels, or
    the error message of each."""
    best = _decoded_or_error(viterbi, model, observed)
    assert best == _decoded_or_error(stepwise_viterbi, model, observed)
    got = _decoded_or_error(posterior_decode, model, observed)
    expected = _decoded_or_error(stepwise_posterior, model, observed)
    if isinstance(expected, str):
        assert got == expected
        return best, got
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    return best, got[0]


def test_kernels_equal_stepwise_on_awkward_random_models():
    rng = np.random.default_rng(2021)
    outcomes = {"decoded": 0, "infeasible": 0}
    for n_states in range(1, 31):
        for _ in range(6):
            n_obs = int(rng.integers(1, 7))
            model = awkward_model(rng, n_states, n_obs)
            observed = list(rng.integers(0, n_obs, size=int(rng.integers(1, 41))))
            best, _ = assert_decoders_match_stepwise(model, observed)
            outcomes["infeasible" if isinstance(best, str) else "decoded"] += 1
    # both the decoded and the infeasible paths were exercised
    assert min(outcomes.values()) >= 5


def test_kernels_equal_stepwise_on_exact_ties():
    for n_states in (1, 2, 5, 24):
        model = HmmModel(tuple(range(n_states)), (0, 1),
                         np.full((n_states, n_states), 1.0 / n_states),
                         np.full((n_states, 2), 0.5),
                         np.full(n_states, 1.0 / n_states))
        assert_decoders_match_stepwise(model, [0, 1, 1, 0, 1] * 7)


def test_kernels_equal_stepwise_on_long_fixture_concatenation(
        major_bundle, fixture_melodies):
    pitches = [p for _, melody in fixture_melodies
               for p in melody.representatives()] * 10
    assert len(pitches) == 1910
    pcs = [p % 12 for p in pitches]
    for keys in assert_decoders_match_stepwise(major_bundle.key_model, pcs):
        deltas = [transposed_degree(p, k) for p, k in zip(pitches, keys)]
        assert_decoders_match_stepwise(major_bundle.chord_model, deltas)


# --- masks and diagnostics --------------------------------------------------

def test_build_phrase_mask():
    labels = ["I", "IV", "V", "vi"]
    mask = build_phrase_mask(list(map(RomanChord.from_string, labels)))
    idx = {l: i for i, l in enumerate(labels)}
    assert mask[idx["V"], idx["IV"]]
    assert mask[idx["IV"], idx["I"]]
    assert not mask[idx["I"], idx["IV"]]
    assert not mask[idx["V"], idx["vi"]]
    assert not mask[idx["V"], idx["I"]]


def test_masked_pairs_reported_not_repaired():
    labels = ["I", "IV", "V"]
    mask = build_phrase_mask(list(map(RomanChord.from_string, labels)))
    model = estimate(labels, [0], [(["I", "V"], [0, 0])], mask=mask)
    report = masked_pairs(model, ["I", "V", "IV", "I"])
    assert report == [(2, "V", "IV"), (3, "IV", "I")]
    assert masked_pairs(model, ["I", "V", "I"]) == []


def test_masked_pairs_rejects_unknown_label():
    labels = ["I", "IV", "V"]
    model = estimate(labels, [0], [(["I", "V"], [0, 0])],
                     mask=build_phrase_mask(list(map(RomanChord.from_string, labels))))
    with pytest.raises(AlphabetError, match="'ii'"):
        masked_pairs(model, ["I", "ii", "V"])


def two_state_model() -> HmmModel:
    return HmmModel(("a", "b"), (0, 1), np.full((2, 2), 0.5),
                    np.full((2, 2), 0.5), np.array([0.5, 0.5]))


def test_sequence_log_probability_rejects_length_mismatch():
    with pytest.raises(HmmError, match="lengths differ: 1 vs 2"):
        sequence_log_probability(two_state_model(), ["a"], [0, 1])


def test_sequence_log_probability_rejects_empty_input():
    with pytest.raises(HmmError, match="empty"):
        sequence_log_probability(two_state_model(), [], [])


def _masked_three_chord_model() -> HmmModel:
    labels = ["I", "IV", "V"]
    return estimate(labels, [0], [(["I", "V"], [0, 0])],
                    mask=build_phrase_mask(list(map(RomanChord.from_string, labels))))


@pytest.mark.parametrize("call,message", [
    (lambda: estimate(["A"], [0], [(["A", "Z"], [0, 0])]),
     "hidden label not in alphabet: 'Z'"),
    (lambda: estimate(["A"], [0], [(["A", "A"], [0, 5])]),
     "observed label not in alphabet: 5"),
    (lambda: viterbi(two_state_model(), [0, 7]),
     "observation not in alphabet: 7"),
    (lambda: posterior_decode(two_state_model(), [9, 0]),
     "observation not in alphabet: 9"),
    (lambda: sequence_log_probability(two_state_model(), ["a", "z"], [0, 1]),
     "hidden label not in alphabet: 'z'"),
    (lambda: masked_pairs(_masked_three_chord_model(), ["I", "ii"]),
     "hidden label not in alphabet: 'ii'"),
], ids=["estimate-hidden", "estimate-observed", "viterbi", "posterior",
        "sequence-hidden", "masked-pairs"])
def test_alphabet_error_messages(call, message):
    with pytest.raises(AlphabetError) as exc:
        call()
    assert str(exc.value) == message


def test_sequence_log_probability_rejects_unknown_labels():
    with pytest.raises(AlphabetError, match="hidden label .*'z'"):
        sequence_log_probability(two_state_model(), ["a", "z"], [0, 1])
    with pytest.raises(AlphabetError, match="observation .*7"):
        sequence_log_probability(two_state_model(), ["a", "b"], [0, 7])


# --- two-stage decoding ------------------------------------------------------

def test_decode_key_chord_constant_c_major(major_bundle):
    melody = melody_from_midi([60, 64, 67, 72, 64, 60])
    ann = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                           melody, "viterbi")
    assert len(ann) == 6
    assert all(k == KeyLabel(0, MAJOR) for k in ann.keys)


def test_decode_key_stage_matches_brute_force_short(major_bundle):
    melody = melody_from_midi([60, 64, 67])
    pcs = [p % 12 for p in melody.representatives()]
    expected_keys, _ = brute_force_viterbi(major_bundle.key_model, pcs)
    ann = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                           melody, "viterbi")
    assert list(ann.keys) == expected_keys
    deltas = [(p % 12 - k.tonic_pc) % 12
              for p, k in zip(melody.representatives(), expected_keys)]
    expected_chords, _ = brute_force_viterbi(major_bundle.chord_model, deltas)
    assert list(ann.chords) == expected_chords


def test_decode_is_deterministic(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[0]
    first = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                             melody, "viterbi")
    second = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                              melody, "viterbi")
    assert first == second


def test_chord_stage_shift_invariance(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[2]
    ann = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                           melody, "viterbi")
    for shift in (2, 7):
        shifted_melody = melody.transpose(shift)
        chords = decode_chords_given_keys(major_bundle.chord_model, shifted_melody,
                                          ann.transpose(shift).keys, "viterbi")
        assert chords == list(ann.chords)


@pytest.mark.parametrize("method", METHODS)
def test_decoders_return_the_model_states(tmp_path, major_bundle,
                                          fixture_melodies, method):
    # a loaded model too: its states are the labels read from the file
    save_bundle(major_bundle, tmp_path / "model.json")
    for bundle in (major_bundle, load_bundle(tmp_path / "model.json")):
        for _, melody in fixture_melodies:
            ann = decode_key_chord(bundle.key_model, bundle.chord_model,
                                   melody, method)
            for labels, model in ((ann.keys, bundle.key_model),
                                  (ann.chords, bundle.chord_model)):
                index = model.state_index()
                assert all(model.states[index[x]] is x for x in labels)


def test_mask_cells_may_be_bools(tmp_path, major_bundle):
    # true and false read as 1 and 0 do
    path = save_bundle(major_bundle, tmp_path / "model.json")
    doc = json.loads(path.read_text())
    doc["chord_model"]["mask"] = [[bool(cell) for cell in row]
                                  for row in doc["chord_model"]["mask"]]
    (tmp_path / "bools.json").write_text(json.dumps(doc))
    mask = load_bundle(tmp_path / "bools.json").chord_model.mask
    assert mask.dtype == bool
    assert np.array_equal(mask, major_bundle.chord_model.mask)


def test_posterior_method_runs_both_stages(major_bundle, fixture_melodies):
    _, melody = fixture_melodies[1]
    ann = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                           melody, "posterior")
    assert len(ann) == len(melody)


def test_concurrent_decodes_share_one_model(major_bundle, fixture_melodies):
    from concurrent.futures import ThreadPoolExecutor

    _, melody = fixture_melodies[0]
    expected = decode_key_chord(major_bundle.key_model,
                                major_bundle.chord_model, melody, "viterbi")
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: decode_key_chord(major_bundle.key_model,
                                       major_bundle.chord_model,
                                       melody, "viterbi"),
            range(8)))
    assert all(r == expected for r in results)


# --- persistence and overrides ----------------------------------------------

def test_bundle_round_trip(tmp_path, major_bundle):
    path = tmp_path / "model.json"
    save_bundle(major_bundle, path)
    loaded = load_bundle(path)
    assert loaded.genre == major_bundle.genre
    assert loaded.key_model.states == major_bundle.key_model.states
    assert loaded.chord_model.states == major_bundle.chord_model.states
    assert all(isinstance(s, KeyLabel) for s in loaded.key_model.states)
    assert all(isinstance(s, RomanChord) for s in loaded.chord_model.states)
    assert np.array_equal(loaded.key_model.transition,
                          major_bundle.key_model.transition)
    assert np.array_equal(loaded.chord_model.emission,
                          major_bundle.chord_model.emission)
    assert np.array_equal(loaded.chord_model.mask, major_bundle.chord_model.mask)
    assert loaded.chord_counts == major_bundle.chord_counts
    # counts are keyed by the chord states themselves, not their text
    assert set(loaded.chord_counts) <= set(loaded.chord_model.states)
    assert all(isinstance(c, RomanChord) for c in loaded.chord_counts)


def test_save_bundle_is_byte_deterministic(tmp_path, major_bundle):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_bundle(major_bundle, a)
    save_bundle(major_bundle, b)
    assert a.read_bytes() == b.read_bytes()


def test_identity_override_decodes_identically(tmp_path, major_bundle,
                                               fixture_melodies):
    out = export_matrices(major_bundle.chord_model, tmp_path, prefix="chord_")
    overridden = apply_override(major_bundle.chord_model, out[0])
    _, melody = fixture_melodies[0]
    before = decode_key_chord(major_bundle.key_model, major_bundle.chord_model,
                              melody, "viterbi")
    after = decode_key_chord(major_bundle.key_model, overridden, melody, "viterbi")
    assert before == after


def test_override_rejects_dimension_mismatch(tmp_path, major_bundle):
    # a chord matrix has the wrong shape for the 24-state key model
    out = export_matrices(major_bundle.chord_model, tmp_path, prefix="chord_")
    count = len(major_bundle.chord_model.states)
    with pytest.raises(HmmError, match=rf"\({count} labels vs 24 states\)$"):
        apply_override(major_bundle.key_model, out[0])


def _relabeled_csv(tmp_path, model, labels: list[str]):
    """The model's exported transition CSV under other row and column
    labels, in the given order."""
    lines = export_matrices(model, tmp_path, prefix="l_")[0].read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[0][1:] = labels
    for row, label in zip(rows[1:], labels):
        row[0] = label
    path = tmp_path / "labels.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("case", ["respelled", "swapped"])
def test_override_names_the_first_label_that_differs(tmp_path, major_bundle, case):
    # as many labels as states, but one spelled otherwise or two swapped
    model = major_bundle.chord_model
    names = [str(s) for s in model.states]
    if case == "respelled":
        labels = ["I63" if name == "I6" else name for name in names]
        detail = "label 'I63' where the model has 'I6'"
    else:
        labels = [names[1], names[0]] + names[2:]
        detail = f"label {names[1]!r} where the model has {names[0]!r}"
    with pytest.raises(HmmError) as err:
        apply_override(model, _relabeled_csv(tmp_path, model, labels))
    assert str(err.value) == f"override labels do not match model states: {detail}"


def test_override_rejects_non_numeric_cell(tmp_path, major_bundle):
    model = major_bundle.chord_model
    paths = export_matrices(model, tmp_path, prefix="z_")
    lines = paths[0].read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = "abc"
    bad = tmp_path / "text.csv"
    bad.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    with pytest.raises(HmmError) as err:
        apply_override(model, bad)
    assert str(bad) in str(err.value)
    assert repr(cells[0]) in str(err.value)


def _override_csv(tmp_path, model, rows: dict[int, list[float]]):
    """The model's exported transition CSV with the given rows replaced."""
    lines = export_matrices(model, tmp_path, prefix="r_")[0].read_text().splitlines()
    for i, values in rows.items():
        label = lines[i + 1].split(",")[0]
        lines[i + 1] = ",".join([label] + [repr(float(v)) for v in values])
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_override_rejects_negative_and_wild_rows(tmp_path, major_bundle):
    # the first refused row in row order is named; a row both negative and
    # out of range is reported as negative
    model = major_bundle.chord_model
    S = len(model.states)
    row = [f"override row {str(s)!r}" for s in model.states]
    wild = [9.0] * S
    negative = [-0.5] + [1.5 / (S - 1)] * (S - 1)
    both = [-0.5] + [9.0] * (S - 1)
    cases = [({1: wild, 2: negative}, f"{row[1]} sums to {9 * S}, outside"),
             ({1: negative, 2: wild}, f"{row[1]} has negative entries"),
             ({2: both}, f"{row[2]} has negative entries")]
    for rows, message in cases:
        with pytest.raises(HmmError) as err:
            apply_override(model, _override_csv(tmp_path, model, rows))
        assert str(err.value).startswith(message)


def test_override_renormalizes_rows_off_by_less_than_half(tmp_path, major_bundle):
    model = major_bundle.chord_model
    scaled = {i: list(row * f) for i, (row, f) in
              enumerate(zip(model.transition, np.linspace(0.6, 1.4, 9)))}
    overridden = apply_override(model, _override_csv(tmp_path, model, scaled))
    for i, row in enumerate(overridden.transition):
        source = np.array(scaled[i]) if i in scaled else model.transition[i]
        expected = source if abs(source.sum() - 1.0) <= 1e-9 else source / source.sum()
        assert row.tobytes() == expected.tobytes()


# --- each model text parsed once --------------------------------------------

def test_rewritten_model_is_read_again_under_its_old_size_and_mtime(
        tmp_path, major_bundle):
    path = save_bundle(major_bundle, tmp_path / "model.json")
    before = load_bundle(path)
    old = path.stat()
    # two chord rows swapped: other valid bytes of the same length
    doc = json.loads(path.read_text())
    rows = doc["chord_model"]["transition"]
    rows[0], rows[1] = rows[1], rows[0]
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    new = path.stat()
    assert (new.st_size, new.st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    after = load_bundle(path).chord_model.transition
    order = [1, 0] + list(range(2, len(after)))
    assert np.array_equal(after, before.chord_model.transition[order])


def test_each_load_is_its_own_bundle_over_shared_models(tmp_path, major_bundle):
    rates = {"p_passing": 0.25}
    path = save_bundle(dataclasses.replace(major_bundle, ornament_rates=rates),
                       tmp_path / "model.json")
    first, second = load_bundle(path), load_bundle(path)
    assert first is not second
    assert first.chord_model is second.chord_model
    first.chord_model = first.key_model
    first.chord_counts.clear()
    first.ornament_rates["p_passing"] = 1.0
    third = load_bundle(path)
    assert third.chord_model is second.chord_model
    assert third.chord_counts == major_bundle.chord_counts
    assert third.ornament_rates == rates


def test_loaded_matrices_are_read_only(tmp_path, major_bundle):
    path = save_bundle(major_bundle, tmp_path / "model.json")
    loaded = load_bundle(path)
    assert loaded.chord_model.mask is not None
    for layer in ("key_model", "chord_model"):
        for name in ("transition", "emission", "initial", "mask"):
            array = getattr(getattr(loaded, layer), name)
            if array is None:
                continue
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0
    again = load_bundle(path)
    for layer in ("key_model", "chord_model"):
        assert np.array_equal(getattr(again, layer).transition,
                              getattr(major_bundle, layer).transition)


def test_read_only_models_decode_export_and_override(tmp_path, major_bundle,
                                                     fixture_melodies):
    loaded = load_bundle(save_bundle(major_bundle, tmp_path / "model.json"))
    for method in METHODS:
        for _, melody in fixture_melodies[:4]:
            assert (decode_key_chord(loaded.key_model, loaded.chord_model,
                                     melody, method)
                    == decode_key_chord(major_bundle.key_model,
                                        major_bundle.chord_model, melody, method))
    written = {}
    for tag, bundle in (("trained", major_bundle), ("loaded", loaded)):
        paths = export_matrices(bundle.key_model, tmp_path / tag, prefix="key_")
        paths += export_matrices(bundle.chord_model, tmp_path / tag, prefix="chord_")
        written[tag] = [p.read_bytes() for p in paths]
    assert written["loaded"] == written["trained"]
    assert np.array_equal(functional_summary(loaded.chord_model, loaded.chord_counts),
                          functional_summary(major_bundle.chord_model,
                                             major_bundle.chord_counts))
    csv_path = tmp_path / "loaded" / "chord_transition.csv"
    overridden = apply_override(loaded.chord_model, csv_path)
    assert np.array_equal(overridden.transition, loaded.chord_model.transition)
    assert overridden.emission is loaded.chord_model.emission


def _malformed_model(good: str, damage: str) -> bytes:
    doc = json.loads(good)
    if damage == "not-utf-8":
        return b"\xff\xfe" + good.encode()
    if damage == "not-json":
        return b"nope"
    if damage == "not-a-model":
        return b"[]"
    if damage == "missing-field":
        del doc["version"]
    else:
        doc["chord_model"]["transition"][0][0] = -1.0
    return json.dumps(doc).encode()


@pytest.mark.parametrize("damage,error,message", [
    ("not-utf-8", CorpusError, "not UTF-8 text: 'utf-8' codec can't decode"
     " byte 0xff in position 0: invalid start byte"),
    ("not-json", CorpusError,
     "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("not-a-model", HmmError, "not a model file"),
    ("missing-field", HmmError, "model file lacks field 'version'"),
    ("bad-cell", HmmError,
     "chord_model.transition has a negative or non-finite cell"),
])
def test_load_errors_name_their_own_path_and_are_not_kept(
        tmp_path, major_bundle, damage, error, message):
    good = save_bundle(major_bundle, tmp_path / "good.json").read_bytes()
    bad = _malformed_model(good.decode(), damage)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_bytes(bad)
    for path in paths * 2:
        with pytest.raises(error) as caught:
            load_bundle(path)
        assert str(caught.value) == f"{path}: {message}"
    paths[0].write_bytes(good)
    assert load_bundle(paths[0]).chord_counts == major_bundle.chord_counts
