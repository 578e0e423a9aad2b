"""Independent reference implementations used to verify the fast paths.

Everything here trades speed for obviousness: estimation that counts one
cell at a time and normalizes one row at a time, exhaustive enumeration
over hidden sequences, Viterbi and forward-backward as one plain step per
position, a full lattice filter for chord voicings, the greedy voicing
search as a literal loop with every tie-break key computed, an SMF
track encoder that spells out every event, and the Roman-numeral grammar
as a regular expression with a branch for each marker and case.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from harmonizer.core import (
    KeyLabel,
    MusicError,
    RomanChord,
    chord_bass_pc,
    chord_tone_pcs,
    leading_tone_pc,
)
from harmonizer.harmonize import (
    INNER_LEAP_LIMIT,
    OCTAVE_LEAP_LIMIT,
    PENALTY_WEIGHTS,
)
from harmonizer.hmm import (
    MASK_EPSILON,
    DecodeInfeasibleError,
    HmmError,
    HmmModel,
    _indices,
)


def _log(x: float) -> float:
    return math.log(x) if x > 0 else float("-inf")


def distribute_row(raw: np.ndarray, mask_row: np.ndarray | None) -> np.ndarray:
    """`_distribute` for one row: masked cells are MASK_EPSILON and the
    allowed cells share the rest of the row's mass in proportion to their
    weights, or uniformly when those sum to 0. The total sums the allowed
    cells alone. The whole-matrix normalizer must return the same bytes
    and raise the same error."""
    n = raw.shape[0]
    if mask_row is None:
        mask_row = np.zeros(n, dtype=bool)
    allowed = ~mask_row
    n_masked = int(mask_row.sum())
    if n_masked >= n:
        raise HmmError("a row has every transition masked")
    budget = 1.0 - MASK_EPSILON * n_masked
    out = np.empty(n, dtype=float)
    out[mask_row] = MASK_EPSILON
    total = raw[allowed].sum()
    if total <= 0.0:
        out[allowed] = budget / allowed.sum()
    else:
        out[allowed] = raw[allowed] / total * budget
    return out


def counting_estimate(states, observations, sequences, mask=None,
                      alpha: float = 0.01) -> HmmModel:
    """`estimate` with a literal counting loop: each sequence is checked
    and indexed in turn, and every initial, transition and emission cell
    it touches gains 1. The fast estimator must return equal arrays and
    raise the same errors. Argument checks that come before any counting
    are not repeated here."""
    states, observations = tuple(states), tuple(observations)
    s_index = {s: i for i, s in enumerate(states)}
    o_index = {o: i for i, o in enumerate(observations)}
    S, O = len(states), len(observations)
    trans_counts = np.zeros((S, S), dtype=float)
    emit_counts = np.zeros((S, O), dtype=float)
    init_counts = np.zeros(S, dtype=float)
    for hidden, observed in sequences:
        if len(hidden) != len(observed):
            raise HmmError(
                f"paired sequence lengths differ: {len(hidden)} vs {len(observed)}")
        if not hidden:
            raise HmmError("empty sequence in training set")
        h_idx = _indices(hidden, s_index, "hidden label")
        o_idx = _indices(observed, o_index, "observed label")
        init_counts[h_idx[0]] += 1
        for a, b in zip(h_idx, h_idx[1:]):
            trans_counts[a, b] += 1
        for h, o in zip(h_idx, o_idx):
            emit_counts[h, o] += 1
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    transition = np.vstack([
        distribute_row(trans_counts[i] + alpha, None if mask is None else mask[i])
        for i in range(S)])
    emission = np.vstack([distribute_row(emit_counts[i] + alpha, None)
                          for i in range(S)])
    initial = distribute_row(init_counts + alpha, None)
    return HmmModel(states, observations, transition, emission, initial,
                    mask=mask, smoothing_alpha=alpha)


def brute_force_viterbi(model: HmmModel, observed) -> tuple[list, float]:
    """Argmax over every hidden sequence by direct enumeration. Returns the
    first maximizer in index order and its joint log probability."""
    o_index = {o: i for i, o in enumerate(model.observations)}
    obs = [o_index[o] for o in observed]
    S = len(model.states)
    n = len(obs)
    best_seq, best_logp = None, float("-inf")
    for seq in itertools.product(range(S), repeat=n):
        logp = _log(model.initial[seq[0]]) + _log(model.emission[seq[0], obs[0]])
        for t in range(1, n):
            logp += _log(model.transition[seq[t - 1], seq[t]])
            logp += _log(model.emission[seq[t], obs[t]])
        if logp > best_logp:
            best_logp = logp
            best_seq = seq
    return [model.states[i] for i in best_seq], best_logp


def brute_force_argmax_set(model: HmmModel, observed,
                           tol: float = 1e-9) -> tuple[float, list[list]]:
    """Every joint-argmax hidden sequence, by direct enumeration. Distinct
    sequences can be exactly tied (permuted products of the same factors),
    so all sequences within tol of the maximum log probability are
    returned."""
    o_index = {o: i for i, o in enumerate(model.observations)}
    obs = [o_index[o] for o in observed]
    S = len(model.states)
    n = len(obs)
    scored = []
    best_logp = float("-inf")
    for seq in itertools.product(range(S), repeat=n):
        logp = _log(model.initial[seq[0]]) + _log(model.emission[seq[0], obs[0]])
        for t in range(1, n):
            logp += _log(model.transition[seq[t - 1], seq[t]])
            logp += _log(model.emission[seq[t], obs[t]])
        scored.append((logp, seq))
        if logp > best_logp:
            best_logp = logp
    winners = [[model.states[i] for i in seq]
               for logp, seq in scored if logp >= best_logp - tol]
    return best_logp, winners


def brute_force_posteriors(model: HmmModel, observed) -> np.ndarray:
    """Exact per-position posterior marginals by enumerating every hidden
    sequence and accumulating joint probabilities."""
    o_index = {o: i for i, o in enumerate(model.observations)}
    obs = [o_index[o] for o in observed]
    S = len(model.states)
    n = len(obs)
    marginals = np.zeros((n, S))
    for seq in itertools.product(range(S), repeat=n):
        p = model.initial[seq[0]] * model.emission[seq[0], obs[0]]
        for t in range(1, n):
            p *= model.transition[seq[t - 1], seq[t]] * model.emission[seq[t], obs[t]]
        for t in range(n):
            marginals[t, seq[t]] += p
    return marginals / marginals.sum(axis=1, keepdims=True)


def _observed_indices(model: HmmModel, observed) -> list[int]:
    o_index = {o: i for i, o in enumerate(model.observations)}
    return [o_index[o] for o in observed]


def _log_array(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def stepwise_viterbi(model: HmmModel, observed) -> list:
    """Viterbi with one plain step per position: each step slices the
    emission column it needs and picks the best predecessor by fancy
    indexing. The fast kernel must return the same labels and raise the
    same errors."""
    obs = _observed_indices(model, observed)
    log_t = _log_array(model.transition)
    log_e = _log_array(model.emission)
    n = len(obs)
    S = len(model.states)
    score = _log_array(model.initial) + log_e[:, obs[0]]
    if np.all(np.isneginf(score)):
        raise DecodeInfeasibleError(
            "no hidden state can generate observation at position 0")
    back = np.zeros((n, S), dtype=int)
    for t in range(1, n):
        candidate = score[:, None] + log_t
        back[t] = np.argmax(candidate, axis=0)
        score = candidate[back[t], np.arange(S)] + log_e[:, obs[t]]
        if np.all(np.isneginf(score)):
            raise DecodeInfeasibleError(
                f"no hidden state can generate observation at position {t}")
    path = [int(np.argmax(score))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.states[i] for i in path]


def stepwise_posterior(model: HmmModel, observed) -> tuple[list, np.ndarray]:
    """Scaled forward-backward with one plain step per position, each
    slicing the emission column it needs. The fast kernel must return the
    same labels, bit-identical marginals and the same errors."""
    obs = _observed_indices(model, observed)
    n = len(obs)
    S = len(model.states)
    alpha = np.zeros((n, S))
    scale = np.zeros(n)
    alpha[0] = model.initial * model.emission[:, obs[0]]
    scale[0] = alpha[0].sum()
    if scale[0] == 0.0:
        raise DecodeInfeasibleError(
            "no hidden state can generate observation at position 0")
    alpha[0] /= scale[0]
    for t in range(1, n):
        alpha[t] = (alpha[t - 1] @ model.transition) * model.emission[:, obs[t]]
        scale[t] = alpha[t].sum()
        if scale[t] == 0.0:
            raise DecodeInfeasibleError(
                f"no hidden state can generate observation at position {t}")
        alpha[t] /= scale[t]
    beta = np.zeros((n, S))
    beta[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = (model.transition @ (beta[t + 1] * model.emission[:, obs[t + 1]]))
        beta[t] /= scale[t + 1]
    marginals = alpha * beta
    marginals /= marginals.sum(axis=1, keepdims=True)
    labels = [model.states[int(np.argmax(row))] for row in marginals]
    return labels, marginals


def _allowed_upper_multisets(chord: RomanChord, key: KeyLabel,
                             soprano_pc: int) -> list[tuple[int, ...]]:
    """Stages of admissible (alto, tenor) pitch-class multisets, restating
    the doubling rules: complete triads first, then the fifth-omitting
    fallback; seventh chords keep seventh and third/root; the leading tone
    is swapped out of the uppers when the soprano already sounds it."""
    tones = chord_tone_pcs(chord, key)
    bass = chord_bass_pc(chord, key)
    lt = leading_tone_pc(key)

    def fix_lt(pcs: list[int]) -> tuple[int, ...]:
        pcs = list(pcs)
        if soprano_pc == lt and lt in pcs:
            pcs.remove(lt)
            for replacement in (tones[1], tones[0], tones[2]):
                if replacement != lt:
                    pcs.append(replacement)
                    break
        return tuple(sorted(pcs))

    if chord.seventh:
        uppers = []
        for tone in (tones[3], tones[1], tones[0], tones[2]):
            if tone != bass and len(uppers) < 2:
                uppers.append(tone)
        return [fix_lt(uppers)]
    root, third, fifth = tones
    complete = [root, third, fifth]
    complete.remove(bass)
    stages = [fix_lt(complete)]
    if bass != fifth:
        doubled = root if root != lt else third
        fallback = [doubled, doubled, third if doubled == root else root]
        fallback.remove(bass)
        stages.append(fix_lt(fallback))
    return stages


def lattice_arrangements(key: KeyLabel, chord: RomanChord,
                         soprano_midi: int) -> list[tuple[int, int, int]]:
    """Brute-force enumeration over the full alto x tenor x bass lattice,
    filtered by every vertical constraint. Returns (alto, tenor, bass)
    triples sorted by (bass, tenor, alto)."""
    bass_pc = chord_bass_pc(chord, key)
    lt = leading_tone_pc(key)
    soprano_pc = soprano_midi % 12
    stages = _allowed_upper_multisets(chord, key, soprano_pc)
    for stage_multiset in stages:
        found = []
        for alto in range(53, 75):
            for tenor in range(47, 68):
                for bass in range(40, 61):
                    if bass % 12 != bass_pc:
                        continue
                    if not (bass <= tenor <= alto <= soprano_midi):
                        continue
                    if soprano_midi - alto > 12 or alto - tenor > 12:
                        continue
                    if tuple(sorted((alto % 12, tenor % 12))) != stage_multiset:
                        continue
                    pcs = (soprano_pc, alto % 12, tenor % 12, bass_pc)
                    if sum(pc == lt for pc in pcs) > 1:
                        continue
                    found.append((alto, tenor, bass))
        if found:
            return sorted(found, key=lambda x: (x[2], x[1], x[0]))
    return []


def _rule_weights(prev, cur, audited) -> list[float]:
    """Weights of the horizontal rules broken between two voice stacks
    ordered high to low. audited[v] says how voice v's own motion is
    judged: None (the given soprano), "inner" (alto, tenor) or "outer"
    (bass)."""
    weights = []
    for hi, lo in itertools.combinations(range(len(cur)), 2):
        both_move = prev[hi] != cur[hi] and prev[lo] != cur[lo]
        intervals = {(prev[hi] - prev[lo]) % 12, (cur[hi] - cur[lo]) % 12}
        if both_move and intervals == {7}:
            weights.append(PENALTY_WEIGHTS["parallel_fifths"])
        if both_move and intervals == {0}:
            weights.append(PENALTY_WEIGHTS["parallel_octaves"])
        adjacent = lo == hi + 1
        if adjacent and (cur[lo] > prev[hi] or cur[hi] < prev[lo]):
            weights.append(PENALTY_WEIGHTS["voice_overlap"])
    for v, kind in enumerate(audited):
        leap = abs(cur[v] - prev[v])
        if kind is not None and leap > OCTAVE_LEAP_LIMIT:
            weights.append(PENALTY_WEIGHTS["leap_over_octave"])
        elif kind == "inner" and leap > INNER_LEAP_LIMIT:
            weights.append(PENALTY_WEIGHTS["inner_voice_leap"])
    return weights


def greedy_voicing(beats, soprano_midis):
    """The greedy voicing search with nothing skipped. Each first-beat
    candidate seeds a chain; each step scores every candidate by
    (squared distance, rule hits among alto, tenor and bass,
    (bass, tenor, alto)) and keeps the least. The chain with the lowest
    four-voice penalty wins, the earlier seed on equal penalty.
    Returns (arrangements, penalty)."""
    best = None
    for index in range(len(beats[0])):
        chain = [index]
        for t in range(1, len(beats)):
            prev = beats[t - 1][chain[-1]]
            keys = []
            for alto, tenor, bass in beats[t]:
                distance = ((alto - prev[0]) ** 2 + (tenor - prev[1]) ** 2
                            + (bass - prev[2]) ** 2)
                hits = len(_rule_weights(prev, (alto, tenor, bass),
                                         ("inner", "inner", "outer")))
                keys.append((distance, hits, (bass, tenor, alto)))
            chain.append(keys.index(min(keys)))
        stacks = [(s,) + beats[t][j]
                  for t, (s, j) in enumerate(zip(soprano_midis, chain))]
        penalty = sum(sum(_rule_weights(a, b, (None, "inner", "inner", "outer")))
                      for a, b in zip(stacks, stacks[1:]))
        if best is None or (penalty, index) < best[:2]:
            best = (penalty, index, chain)
    penalty, _, chain = best
    return [beats[t][j] for t, j in enumerate(chain)], penalty


def _variable_length(value: int) -> list[int]:
    """Base-128 digits of value, most significant first, with bit 7 set on
    every digit but the last."""
    digits = [value % 128]
    while value >= 128:
        value //= 128
        digits.insert(0, value % 128)
    return [d | 0x80 for d in digits[:-1]] + digits[-1:]


def smf_note_track(notes, channel: int, velocity: int = 80) -> bytes:
    """An SMF MTrk chunk for (onset_tick, duration_tick, pitch) notes, one
    event at a time. Each note becomes a note-on and a note-off. Events go
    in tick order, a note-off before a note-on at the same tick, and
    otherwise in the order the notes were given; each is preceded by its
    delta time from the event before. An end-of-track event closes it."""
    events = []
    for index, (onset, duration, pitch) in enumerate(notes):
        events.append(((onset, 1, 2 * index), [0x90 + channel, pitch, velocity]))
        events.append(((onset + duration, 0, 2 * index + 1),
                       [0x80 + channel, pitch, 0]))
    events.sort(key=lambda event: event[0])
    body = []
    now = 0
    for (tick, _, _), payload in events:
        body += _variable_length(tick - now) + payload
        now = tick
    body += _variable_length(0) + [0xFF, 0x2F, 0x00]
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


_NUMERALS = ("I", "II", "III", "IV", "V", "VI", "VII")

_ROMAN_RE = re.compile(
    r"^(?P<accidental>[b#])?"
    r"(?P<numeral>VII|VI|V|IV|III|II|I|vii|vi|v|iv|iii|ii|i)"
    r"(?P<marker>[o+])?"
    r"(?P<figure>65|64|63|43|42|7|6|2)?$"
)

# the (seventh, inversion) form each figure reads as; "63" and "2" are
# aliases of "6" and "42"
_FORM_OF_FIGURE = {"": (False, "root"), "6": (False, "first"),
                   "63": (False, "first"), "64": (False, "second"),
                   "7": (True, "root"), "65": (True, "first"),
                   "43": (True, "second"), "42": (True, "third"),
                   "2": (True, "third")}


def parse_roman(text) -> RomanChord:
    """The chord a Roman numeral names, surrounding blanks ignored: an
    optional accidental, a numeral whose case gives major or minor, an
    optional marker ("o" diminished on a lowercase numeral, "+" augmented
    on an uppercase one) and an optional figure. MusicError otherwise.
    `RomanChord.from_string` must accept exactly these texts and return
    equal chords."""
    stripped = text.strip() if isinstance(text, str) else None
    m = None if stripped is None else _ROMAN_RE.match(stripped)
    if m is None:
        raise MusicError(f"unparseable Roman numeral: {text!r}")
    numeral = m.group("numeral")
    marker = m.group("marker")
    degree = _NUMERALS.index(numeral.upper()) + 1
    if marker == "o":
        if numeral.isupper():
            raise MusicError(f"diminished marker needs lowercase numeral: {text!r}")
        quality = "diminished"
    elif marker == "+":
        if numeral.islower():
            raise MusicError(f"augmented marker needs uppercase numeral: {text!r}")
        quality = "augmented"
    else:
        quality = "major" if numeral.isupper() else "minor"
    accidental = {"b": -1, "#": 1, None: 0}[m.group("accidental")]
    seventh, inversion = _FORM_OF_FIGURE[m.group("figure") or ""]
    return RomanChord(degree=degree, quality=quality, inversion=inversion,
                      seventh=seventh, accidental=accidental)
