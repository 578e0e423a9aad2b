"""Independent reference implementations used to verify the fast paths.

Everything here trades speed for obviousness: estimation that counts one
cell at a time and normalizes one row at a time, exhaustive enumeration
over hidden sequences and over the index paths of a score lattice, the
joint log probability of a hidden/observed pair summed one position at a
time, Viterbi and forward-backward as one plain step per position, a full
lattice filter for chord voicings, the greedy voicing search as a literal
loop with every tie-break key computed, an SMF track encoder that spells
out every event, the Roman-numeral grammar as a regular expression
with a branch for each marker and case, a piece moved by some
semitones note by note, its keys rebuilt from their tonics, and the
smallest such move to its reference key, ornament
insertion as one branch and one write per ornament type, the
ornament rates as a list of yes/no sites per type, the score and
progression documents as (name, value) fields per record joined by one
record writer, the chord stage of the two-stage decode given the keys,
a chorale or rock file parsed alone, and the text readers with no memo, each
record read from its own line.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from pathlib import Path

import numpy as np

from harmonizer.core import (
    BEATS_PER_BAR,
    MAJOR,
    MODES,
    PPQ,
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    chord_bass_pc,
    chord_tone_pcs,
    diatonic_pcs,
    leading_tone_pc,
    transposed_degree,
)
from harmonizer.corpus import (
    _MEASURE_EVENTS,
    _ROCK_CHORDS,
    AnnotatedChorale,
    Corpus,
    CorpusError,
    _beat,
    _format_note_list,
    _header,
    _parse_chorale,
    _parse_rock,
    _pitch_class,
    read_text,
)
from harmonizer.harmonize import (
    ALTO_RANGE,
    BASS_RANGE,
    INNER_LEAP_LIMIT,
    OCTAVE_LEAP_LIMIT,
    PENALTY_WEIGHTS,
    TENOR_RANGE,
)
from harmonizer.hmm import (
    MASK_EPSILON,
    PITCH_CLASSES,
    DecodeInfeasibleError,
    HmmError,
    HmmModel,
    _indices,
    decode,
)
from harmonizer.ornament import _scale_tone_between, _upper_scale_tone


def _log(x: float) -> float:
    return math.log(x) if x > 0 else float("-inf")


def shifted(value, semitones: int):
    """A key, beat, melody, annotation or annotated piece moved by
    `semitones`. Each note is rebuilt through `BeatEvent`, so a pitch moved
    out of 0-127 raises its MusicError; a key is rebuilt from its tonic
    pitch class, not through `KeyLabel.transpose`; chords, relative to
    their key, stay as they are."""
    if isinstance(value, KeyLabel):
        return KeyLabel((value.tonic_pc + semitones) % 12, value.mode)
    if isinstance(value, BeatEvent):
        return BeatEvent(tuple((midi + semitones, ticks) for midi, ticks in value.notes))
    if isinstance(value, MelodyLine):
        return MelodyLine(tuple(shifted(beat, semitones) for beat in value.events))
    if isinstance(value, ProgressionAnnotation):
        return ProgressionAnnotation(
            tuple(shifted(key, semitones) for key in value.keys), value.chords)
    return AnnotatedChorale(value.id, value.mode,
                            tuple(shifted(beat, semitones) for beat in value.events),
                            shifted(value.annotation, semitones))


def reference_offset(chorale: AnnotatedChorale) -> int:
    """The semitones that move the chorale's opening key tonic to C (major)
    or A (minor): the smallest offset, ties broken downward, so -6..+5.
    Training moves only keys and pitch classes, mod 12, so any offset that
    reaches the reference tonic trains the same model."""
    target = 0 if chorale.mode == MAJOR else 9
    delta = (target - chorale.annotation.keys[0].tonic_pc) % 12
    return delta if delta < 6 else delta - 12


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


def counting_estimate(states, sequences, mask=None,
                      alpha: float = 0.01) -> HmmModel:
    """`estimate` with a literal counting loop: each sequence is checked
    and indexed in turn, and every initial, transition and emission cell
    it touches gains 1, one emission column per pitch class. The fast
    estimator must return equal arrays and raise the same errors. Argument
    checks that come before any counting are not repeated here."""
    states = tuple(states)
    s_index = {s: i for i, s in enumerate(states)}
    S, O = len(states), len(PITCH_CLASSES)
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
        o_idx = _indices(observed, PITCH_CLASSES, "observed label")
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
    return HmmModel(states, transition, emission, initial, mask=mask,
                    smoothing_alpha=alpha)


def brute_force_viterbi(model: HmmModel, observed) -> tuple[list, float]:
    """Argmax over every hidden sequence by direct enumeration. Returns the
    first maximizer in index order and its joint log probability."""
    obs = list(observed)
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
    obs = list(observed)
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
    obs = list(observed)
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


def _log_array(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def decode_chords_given_keys(chord_model: HmmModel, melody: MelodyLine,
                             keys, method: str = "viterbi") -> list[RomanChord]:
    """The chord stage of `hmm.decode_key_chord` alone, with the key
    sequence supplied by the caller."""
    return decode(chord_model, [transposed_degree(p, k)
                                for p, k in zip(melody.representatives(), keys)],
                  method)


def sequence_log_probability(model: HmmModel, hidden, observed) -> float:
    """Joint log probability of a hidden/observed label pair."""
    if len(hidden) != len(observed):
        raise HmmError(
            f"paired sequence lengths differ: {len(hidden)} vs {len(observed)}")
    if len(hidden) == 0:
        raise HmmError("empty sequence")
    obs = _indices(observed, range(model.emission.shape[1]), "observation")
    hid = _indices(hidden, model.state_index(), "hidden label")
    log_t = _log_array(model.transition)
    log_e = _log_array(model.emission)
    total = float(_log_array(model.initial)[hid[0]] + log_e[hid[0], obs[0]])
    for t in range(1, len(hid)):
        total += float(log_t[hid[t - 1], hid[t]] + log_e[hid[t], obs[t]])
    return total


def lattice_path_total(first, log_t_to, rows, path) -> float:
    """The total of one index path through a score lattice: first[s0] +
    rows[0][s0], plus log_t_to[s_t][s_(t-1)] + rows[t][s_t] for each later
    position t."""
    total = first[path[0]] + rows[0][path[0]]
    for t in range(1, len(path)):
        total += log_t_to[path[t]][path[t - 1]] + rows[t][path[t]]
    return total


def brute_force_prefix_best(first, log_t_to, rows) -> list[list[float]]:
    """For each position t and state s, the best total over every index
    path through positions 0..t that ends in s, by direct enumeration. The
    cells should be small integers or -inf, so that every total is exact
    and a tie is a real tie."""
    S = len(first)
    prefix_best = []
    for t in range(len(rows)):
        best = [float("-inf")] * S
        for prefix in itertools.product(range(S), repeat=t + 1):
            total = lattice_path_total(first, log_t_to, rows, prefix)
            best[prefix[-1]] = max(best[prefix[-1]], total)
        prefix_best.append(best)
    return prefix_best


def stepwise_viterbi(model: HmmModel, observed) -> list:
    """Viterbi with one plain step per position: each step slices the
    emission column it needs and picks the best predecessor by fancy
    indexing. The fast kernel must return the same labels and raise the
    same errors."""
    obs = list(observed)
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
    obs = list(observed)
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


def ornament_reference(h, cfg) -> tuple[list, list, list]:
    """The alto, tenor and bass lines of `h` ornamented beat by beat, one
    RNG draw per allowed site, with nothing cached. Each voice tries a
    passing tone, then an auxiliary, then an appoggiatura; each type writes
    its own notes and moves on to the next beat, so a beat takes at most
    one ornament. A site whose inserted pitch leaves the voice range, rises
    above the skeleton voice above or falls below the one under it takes no
    draw."""
    rng = random.Random(cfg.rng_seed)
    half = PPQ // 2
    sopranos = [ev.notes[0][0] for ev in h.soprano.events]
    skeleton = [list(a) for a in h.arrangements]
    lines = [list(line) for line in (h.alto_line, h.tenor_line, h.bass_line)]
    for v, (low, high) in enumerate((ALTO_RANGE, TENOR_RANGE, BASS_RANGE)):
        for t in range(len(sopranos)):
            stack = [sopranos[t]] + skeleton[t]
            cur = stack[v + 1]
            above = stack[v]
            below = stack[v + 2] if v < 2 else low

            def fits(pitch):
                return max(low, below) <= pitch <= min(high, above)

            pcs = diatonic_pcs(h.annotation.keys[t])
            nxt = skeleton[t + 1][v] if t + 1 < len(sopranos) else None
            if nxt is not None and abs(nxt - cur) in (3, 4):
                mid = _scale_tone_between(cur, nxt, pcs)
                if mid is not None and fits(mid):
                    if rng.random() < cfg.p_passing:
                        lines[v][t] = ((cur, half), (mid, half))
                        continue
            if nxt is not None and nxt == cur:
                neighbour = _upper_scale_tone(cur, pcs)
                if fits(neighbour):
                    if rng.random() < cfg.p_auxiliary:
                        lines[v][t] = ((cur, half), (neighbour, half))
                        continue
            if t % BEATS_PER_BAR in (0, 2):
                neighbour = _upper_scale_tone(cur, pcs)
                if fits(neighbour):
                    if rng.random() < cfg.p_appoggiatura:
                        lines[v][t] = ((neighbour, half), (cur, half))
    return lines


def ornament_rate_reference(pieces) -> dict[str, float]:
    """The ornament rates of pieces given as lists of beats, each beat the
    MIDI pitches of its notes in onset order. A passing site is a beat
    whose first pitch is a third (3 or 4 semitones) from the next beat's;
    it is filled when a later note of the beat lies strictly inside the
    third. An auxiliary site is a beat whose first pitch the next beat
    repeats; it is filled when a later note lies one or two semitones from
    it. An appoggiatura site is a strong beat (0 or 2 of the bar); it is
    filled when the second note lies one or two semitones below the first.
    Each rate is filled sites over sites, 0.0 without sites."""
    sites = {"p_passing": [], "p_auxiliary": [], "p_appoggiatura": []}
    for beats in pieces:
        for t, (first, *later) in enumerate(beats):
            if t + 1 < len(beats):
                after = beats[t + 1][0]
                if abs(after - first) in (3, 4):
                    inside = range(min(first, after) + 1, max(first, after))
                    sites["p_passing"].append(any(m in inside for m in later))
                if after == first:
                    sites["p_auxiliary"].append(
                        any(abs(m - first) in (1, 2) for m in later))
            if t % 4 in (0, 2):
                sites["p_appoggiatura"].append(
                    len(later) > 0 and later[0] in (first - 1, first - 2))
    return {name: sum(filled) / len(filled) if filled else 0.0
            for name, filled in sites.items()}


def parse_chorale_text(text: str, source: str = "<text>") -> AnnotatedChorale:
    """One chorale file's text; CorpusError at the first bad line."""
    return _parse_chorale(text, source, {}, functools.cache(_beat), None)


def parse_rock_text(text: str, source: str = "<text>") -> AnnotatedChorale:
    """One rock file's text; CorpusError at the first bad line."""
    return _parse_rock(text, source, {}, {})


# --- the text readers with no memo ----------------------------------------

def reference_records(lines, source: str, unit: str, required: tuple[str, ...] = ()
             ) -> list[tuple[int, dict[str, str]]]:
    """Read the record grammar shared by every text file from the lines
    that `_header` leaves after a file's `name: value` header lines:
    `index | name=value | ...` records whose indices, ASCII decimal
    digits, run 0, 1, 2, ...
    Returns one (line, fields) pair per record, each record naming each
    field at most once and holding every field named in `required`."""
    records = []
    for lineno, line in lines:
        head, *parts = line.split("|")
        head = head.strip()
        if not re.fullmatch(r"[0-9]+", head):
            raise CorpusError(f"record must start with an integer index:"
                              f" {head!r}", source, lineno)
        index = int(head)
        if index != len(records):
            raise CorpusError(f"{unit} index {index} out of order,"
                              f" expected {len(records)}", source, lineno)
        fields = {}
        for part in parts:
            name, equals, value = part.partition("=")
            if not equals:
                raise CorpusError(f"expected field=value, got {part.strip()!r}",
                                  source, lineno)
            name = name.strip()
            if name in fields:
                raise CorpusError(f"field named twice: {name!r}", source, lineno)
            fields[name] = value.strip()
        missing = [name for name in required if name not in fields]
        if missing:
            raise CorpusError(f"missing fields: {sorted(missing)}", source, lineno)
        records.append((lineno, fields))
    if not records:
        raise CorpusError("file has no records", source)
    return records


def reference_chorale(text: str, source: str, mode=None):
    """`corpus._parse_chorale` with no memo: each record's grammar, notes,
    key and chord are read from its own line."""
    header, lines = _header(text, source)
    named = header.get("mode", "")
    if mode is not None and named in MODES and named != mode:
        return None
    records = reference_records(lines, source, "beat", ("notes", "key", "roman"))
    if named not in MODES:
        raise CorpusError(f"missing or invalid mode header: {named!r}", source)
    events, keys, chords = [], [], []
    for lineno, fields in records:
        try:
            events.append(_beat(fields["notes"]))
            keys.append(KeyLabel.from_string(fields["key"]))
            chords.append(RomanChord.from_string(fields["roman"]))
        except MusicError as exc:
            raise CorpusError(str(exc), source, lineno)
    try:
        return AnnotatedChorale(header.get("id", source), named, tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


def reference_rock(text: str, source: str = "<text>"):
    """`corpus.parse_rock_text` with no memo."""
    names = ("key_pc", "roman_root_pc", "melody_degree_pc")
    header, lines = _header(text, source)
    records = reference_records(lines, source, "measure", names)
    events, keys, chords = [], [], []
    for lineno, fields in records:
        key_pc, root_pc, melody_pc = (_pitch_class(fields, name, source, lineno)
                                      for name in names)
        events.append(_MEASURE_EVENTS[melody_pc])
        keys.append(KeyLabel(key_pc, MAJOR))
        chords.append(_ROCK_CHORDS[(root_pc - key_pc) % 12])
    try:
        return AnnotatedChorale(header.get("id", source), "major", tuple(events),
                                ProgressionAnnotation(tuple(keys), tuple(chords)))
    except MusicError as exc:
        raise CorpusError(str(exc), source)


def reference_corpus(directory, genre: str, mode=None) -> Corpus:
    """`corpus.parse_corpus` of a directory that holds only files, each
    read alone by `reference_chorale` or `reference_rock`."""
    pieces, problems = [], []
    for path in sorted(map(str, Path(directory).iterdir())):
        try:
            text = read_text(path)
            piece = (reference_chorale(text, path, mode) if genre == "chorale"
                     else reference_rock(text, path))
        except CorpusError as exc:
            problems.append(str(exc))
            continue
        if piece is not None and mode in (None, piece.mode):
            pieces.append(piece)
    if problems:
        raise CorpusError("corpus parse failed:\n" + "\n".join(problems))
    return Corpus(tuple(pieces), genre)


def reference_melody(text: str, source: str = "<text>") -> MelodyLine:
    """`corpus.parse_melody_text` with no memo."""
    records = reference_records(_header(text, source)[1], source, "beat", ("notes",))
    events = []
    for lineno, fields in records:
        try:
            events.append(_beat(fields["notes"]))
        except MusicError as exc:
            raise CorpusError(str(exc), source, lineno)
    return MelodyLine(tuple(events))


def reference_rock_melody(text: str, source: str = "<text>") -> MelodyLine:
    """`corpus.parse_rock_melody_text` with no memo."""
    records = reference_records(_header(text, source)[1], source, "measure",
                                ("melody_degree_pc",))
    return MelodyLine(tuple(
        _MEASURE_EVENTS[_pitch_class(fields, "melody_degree_pc", source, lineno)]
        for lineno, fields in records))


def _format_records(header, records) -> str:
    """Inverse of `corpus._header` and `corpus._records`: `header` is
    (name, value) pairs and each record a sequence of (name, value) string
    pairs; records are numbered from 0. The reference for both text
    writers, `corpus.format_progression` and `harmonize.to_score_document`."""
    lines = [f"{name}: {value}" for name, value in header]
    lines += [" | ".join([str(index), *map("=".join, fields)])
              for index, fields in enumerate(records)]
    return "\n".join(lines) + "\n"


def score_document_reference(h, title: str = "harmonization") -> str:
    """`harmonize.to_score_document` as a list of (name, value) fields per
    beat, handed to `_format_records` for the joining."""
    by_beat = {}
    for v in h.violation_log:
        by_beat.setdefault(v.beat_index, []).append(v)
    voices = h.voice_lines()
    # each distinct key, chord and beat is formatted once
    label = functools.cache(str)
    notes = functools.cache(_format_note_list)
    records = []
    for t in range(len(h.soprano)):
        fields = [("soprano", notes(voices["soprano"][t])),
                  ("alto", notes(voices["alto"][t])),
                  ("tenor", notes(voices["tenor"][t])),
                  ("bass", notes(voices["bass"][t])),
                  ("key", label(h.annotation.keys[t])),
                  ("roman", label(h.annotation.chords[t]))]
        if t in by_beat:
            fields.append(("violations", ";".join(
                f"{v.rule}:{v.weight}" for v in by_beat[t])))
        records.append(fields)
    return _format_records(
        (("id", title), ("penalty", str(h.penalty))), records)


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
