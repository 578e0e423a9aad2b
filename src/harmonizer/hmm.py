"""First-order hidden Markov models over labeled hidden states.

Provides masked maximum-likelihood estimation from fully annotated
sequences, Viterbi decoding in log space on `_best_path`, the best-path
kernel over any lattice of log score rows, posterior decoding via the
scaled forward-backward algorithm, the labeled-CSV matrix format read by
transition-matrix overrides and written by the matrix export, and the
two-stage key-then-chord decode used for harmonization.

The key and chord models' states are `KeyLabel` and `RomanChord` values,
which both decoders return as they are; label text exists only in the
model file and the CSV matrices. An observation is the index of an
emission column, so a model observes `range(emission.shape[1])`; the two
trained layers observe the 12 `PITCH_CLASSES`.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    MAJOR,
    MODES,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    all_keys,
    is_retrogressive,
    transposed_degree,
)
from .corpus import (
    GENRES,
    CorpusError,
    parse_json,
    read_text,
)

MASK_EPSILON = 1e-6
_SMALLEST_NORMAL = np.finfo(float).tiny
DEFAULT_ALPHA = 0.01

METHODS = ("viterbi", "posterior")

# what both layers observe: a pitch class, as such or as a degree in its key
PITCH_CLASSES = range(12)


class HmmError(ValueError):
    pass


class AlphabetError(HmmError):
    """A state label outside the model's states, or an observation that
    is not an emission column index."""


class DecodeInfeasibleError(HmmError):
    """No hidden state can emit some observation."""


@dataclass(frozen=True)
class HmmModel:
    """Trained model: hidden state labels, row-stochastic transition and
    emission matrices, an initial distribution, and optional boolean mask
    of forbidden transitions. An observation is the index of an emission
    column. A model read by `load_bundle` is shared by every load of
    the same file text, so its four arrays are read-only: writing a cell
    raises ValueError. To change a matrix, build a new model, as
    `apply_override` does."""

    states: tuple
    transition: np.ndarray
    emission: np.ndarray
    initial: np.ndarray
    mask: np.ndarray | None = None
    smoothing_alpha: float = 0.0

    def state_index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}


def _distribute(weights: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Turn non-negative weights, a row or a matrix of rows, into stochastic
    rows of the same shape. Masked cells are pinned to MASK_EPSILON and each
    row's allowed cells share the rest in proportion to their weights
    (uniformly when all are zero), so no masked cell exceeds MASK_EPSILON."""
    rows = np.atleast_2d(weights)
    mask = np.zeros(rows.shape, dtype=bool) if mask is None else np.atleast_2d(mask)
    n_masked = mask.sum(axis=1)
    if np.any(n_masked >= rows.shape[1]):
        raise HmmError("a row has every transition masked")
    budget = 1.0 - MASK_EPSILON * n_masked
    # a masked row sums its allowed cells only: zero-filling rounds differently
    totals = rows.sum(axis=1)
    for i in np.flatnonzero(n_masked):
        totals[i] = rows[i, ~mask[i]].sum()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = rows / totals[:, None] * budget[:, None]
    empty = totals <= 0.0
    out[empty] = (budget[empty] / (rows.shape[1] - n_masked[empty]))[:, None]
    out[mask] = MASK_EPSILON
    return out.reshape(np.shape(weights))


def _check_alpha(alpha, name: str):
    """Training's and loading's one smoothing-alpha rule: 0 or a finite normal
    float, since a subnormal one fails posterior decoding on ordinary melodies."""
    if not (alpha == 0 or sys.float_info.min <= alpha <= sys.float_info.max):
        raise HmmError(f"{name} must be 0 or a finite number of at least"
                       f" {sys.float_info.min!r}: {alpha}")


def estimate(states, sequences, mask: np.ndarray | None = None,
             alpha: float = DEFAULT_ALPHA) -> HmmModel:
    """Maximum-likelihood estimation with additive smoothing from paired
    (hidden labels, observed pitch classes) sequences; the emission has one
    column per pitch class. The optional boolean mask forbids transitions;
    forbidden cells end up with probability exactly MASK_EPSILON regardless
    of their counts. `alpha` must pass `_check_alpha` and is stored as
    `alpha + 0.0`, so -0.0 as 0.0 and an int as a float."""
    states = tuple(states)
    if not sequences:
        raise HmmError("empty training set")
    _check_alpha(alpha, "smoothing alpha")
    s_index = {s: i for i, s in enumerate(states)}
    S, O = len(states), len(PITCH_CLASSES)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (S, S):
            raise HmmError(f"mask shape {mask.shape} does not match {S} states")
    hidden_idx, observed_idx, starts = [], [], []
    for hidden, observed in sequences:
        if len(hidden) != len(observed):
            raise HmmError(
                f"paired sequence lengths differ: {len(hidden)} vs {len(observed)}")
        if not hidden:
            raise HmmError("empty sequence in training set")
        starts.append(len(hidden_idx))
        hidden_idx += _indices(hidden, s_index, "hidden label")
        observed_idx += _indices(observed, PITCH_CLASSES, "observed label")
    # one flat run of every sequence; a transition ends at each position
    # that does not start a sequence
    h = np.array(hidden_idx, dtype=np.intp)
    o = np.array(observed_idx, dtype=np.intp)
    follows = np.ones(len(h), dtype=bool)
    follows[starts] = False
    ends = np.flatnonzero(follows)
    init_counts = np.bincount(h[starts], minlength=S).astype(float)
    trans_counts = np.bincount(h[ends - 1] * S + h[ends],
                               minlength=S * S).astype(float).reshape(S, S)
    emit_counts = np.bincount(h * O + o, minlength=S * O).astype(float).reshape(S, O)
    # no smoothed row total, at most every count plus alpha per cell, may overflow
    if alpha > (np.finfo(float).max - emit_counts.sum()) / max(S, O):
        raise HmmError(f"smoothing alpha {alpha} is too large:"
                       " a smoothed row total would not be finite")
    transition = _distribute(trans_counts + alpha, mask)
    emission = _distribute(emit_counts + alpha)
    initial = _distribute(init_counts + alpha)
    return HmmModel(states, transition, emission, initial, mask=mask,
                    smoothing_alpha=alpha + 0.0)


def _indices(labels, index: dict | range, what: str) -> list[int]:
    """The position of every label in `index`, a dict from state label to
    row or a range of emission columns; AlphabetError naming `what` for the
    first label outside it."""
    position = index.index if isinstance(index, range) else index.__getitem__
    try:
        return list(map(position, labels))
    except (KeyError, ValueError):
        bad = next(label for label in labels if label not in index)
        raise AlphabetError(f"{what} not in alphabet: {bad!r}")


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def _best_path(first: np.ndarray, log_t_to: np.ndarray, rows: np.ndarray) -> list[int]:
    """Index path of the highest total score through an n-by-S lattice.

    `first[s]` scores starting in state s, `log_t_to[next, s]` scores a step
    from s to next, and `rows[t, s]` scores state s at position t; a path's
    total is the sum of the cells it uses, and -inf forbids a cell. Ties go
    to the lowest state index at the last position and at every backtrack
    step. DecodeInfeasibleError names the first position that leaves no
    path with a finite total.

    Each step writes its scores and backpointers into preallocated rows. A
    step's candidates are laid out one row per next state, so the best
    predecessor is an argmax along a contiguous row, and its score is taken
    from the candidate it picked."""
    n, S = rows.shape
    scores = np.empty((n, S))
    back = np.empty((n, S), dtype=np.intp)
    candidate = np.empty((S, S))
    flat_candidate = candidate.reshape(-1)
    row_starts = np.arange(0, S * S, S)
    picked = np.empty(S, dtype=np.intp)
    np.add(first, rows[0], out=scores[0])
    for t in range(1, n):
        np.add(scores[t - 1], log_t_to, out=candidate)
        best = candidate.argmax(axis=1, out=back[t])
        np.add(row_starts, best, out=picked)
        # every index is in range; "clip" only spares take a buffered copy
        score = flat_candidate.take(picked, out=scores[t], mode="clip")
        score += rows[t]
    # a row of all -inf stays all -inf, so the first dead row is the
    # position that left no state alive
    dead = np.isneginf(scores).all(axis=1)
    if dead.any():
        raise DecodeInfeasibleError(
            "no hidden state can generate observation at position"
            f" {int(dead.argmax())}")
    state = int(scores[-1].argmax())
    path = [state]
    for pointers in back.tolist()[:0:-1]:
        state = pointers[state]
        path.append(state)
    path.reverse()
    return path


def viterbi(model: HmmModel, observed) -> list:
    """Most probable hidden label sequence. The log emission rows of the
    observations are gathered once and handed to `_best_path`, which owns
    the preallocated buffers and the tie rule: the lowest state index at
    every backtrack step."""
    if len(observed) == 0:
        raise HmmError("empty observation sequence")
    obs = _indices(observed, range(model.emission.shape[1]), "observation")
    path = _best_path(_log(model.initial), _log(model.transition).T.copy(),
                      _log(model.emission.T)[obs])
    return [model.states[i] for i in path]


def posterior_decode(model: HmmModel, observed) -> tuple[list, np.ndarray]:
    """Per-position argmax of the marginal posterior, plus the full n-by-S
    marginal matrix. Uses the scaled forward-backward recursion over the
    emission rows of the observations, gathered once, writing each step
    into preallocated rows. A forward scale below the smallest normal float
    or a backward row that overflows raises DecodeInfeasibleError."""
    if len(observed) == 0:
        raise HmmError("empty observation sequence")
    obs = _indices(observed, range(model.emission.shape[1]), "observation")
    transition = model.transition
    rows = model.emission.T[obs]
    n, S = rows.shape
    alpha = np.empty((n, S))
    scale = np.empty(n)
    np.multiply(model.initial, rows[0], out=alpha[0])
    for t in range(n):
        row = alpha[t]
        if t:
            np.matmul(alpha[t - 1], transition, out=row)
            row *= rows[t]
        total = scale[t] = row.sum()
        if total < _SMALLEST_NORMAL:
            raise DecodeInfeasibleError(
                f"no hidden state can generate observation at position {t}"
                if total == 0.0 else _too_improbable(t))
        row /= total
    beta = np.empty((n, S))
    beta[n - 1] = 1.0
    weighted = np.empty(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n - 2, -1, -1):
            np.multiply(beta[t + 1], rows[t + 1], out=weighted)
            row = np.matmul(transition, weighted, out=beta[t])
            row /= scale[t + 1]
    # an overflowing row spoils every row before it; name the scale it divided by
    broken = np.flatnonzero(~np.isfinite(beta).all(axis=1))
    if broken.size:
        raise DecodeInfeasibleError(_too_improbable(int(broken[-1]) + 1))
    marginals = alpha
    marginals *= beta
    marginals /= marginals.sum(axis=1, keepdims=True)
    labels = [model.states[i] for i in marginals.argmax(axis=1).tolist()]
    return labels, marginals


def _too_improbable(t: int) -> str:
    return (f"observation at position {t} is too improbable for posterior"
            " decoding; use --method viterbi")


def decode(model: HmmModel, observed, method: str = "viterbi") -> list:
    if method == "viterbi":
        return viterbi(model, observed)
    if method == "posterior":
        return posterior_decode(model, observed)[0]
    raise HmmError(f"unknown decode method: {method!r}")


def masked_pairs(model: HmmModel, hidden) -> list[tuple[int, object, object]]:
    """Consecutive pairs in a decoded sequence that cross a masked
    transition. Posterior decoding can produce these; they are reported,
    never repaired."""
    if model.mask is None:
        return []
    hid = _indices(hidden, model.state_index(), "hidden label")
    return [(t, hidden[t - 1], hidden[t]) for t in range(1, len(hid))
            if model.mask[hid[t - 1], hid[t]]]


def build_phrase_mask(chords) -> np.ndarray:
    """Boolean matrix forbidding retrogressive moves between the given
    chords."""
    return np.array([[is_retrogressive(a, b) for b in chords] for a in chords],
                    dtype=bool)


def decode_key_chord(key_model: HmmModel, chord_model: HmmModel,
                     melody: MelodyLine, method: str = "viterbi") -> ProgressionAnnotation:
    """Two-stage decode: keys from the melody pitch classes, then chords
    from the melody's degrees in the decoded keys."""
    pitches = melody.representatives()
    keys = tuple(decode(key_model, [p % 12 for p in pitches], method))
    degrees = [transposed_degree(p, k) for p, k in zip(pitches, keys)]
    return ProgressionAnnotation(keys, tuple(decode(chord_model, degrees, method)))


def train_key_chord_models(corpus, mask_enabled: bool = True,
                           alpha: float = DEFAULT_ALPHA) -> "ModelBundle":
    """Estimate the paired key and chord models from an annotated corpus.

    Each layer observes what it does in `decode_key_chord`: the key layer
    each beat's melody pitch class, the chord layer that pitch against the
    beat's key. Chorale pieces are counted as if moved to their reference
    keys, C major or A minor, without copying them: the key layer sees
    every pitch class and key moved by the semitones from the piece's
    opening tonic to its reference tonic, mod 12, and the chord layer the
    piece as written, since a common shift leaves each pitch's degree in
    its key unchanged. No note is moved, so none can leave the MIDI range.
    Rock pieces are taken as they are.
    The retrogression mask is built for a chorale corpus with `mask_enabled`
    set, never for rock: it forbids IV -> I, the plagal move rock uses all
    the time. Key states are the full 24-key alphabet; chord states are the
    chords observed in the corpus, sorted by their text.
    """
    key_states = all_keys()
    key_sequences, chord_sequences = [], []
    for ch in corpus.chorales:
        pitches = [beat.representative for beat in ch.events]
        keys, chords = ch.annotation.keys, ch.annotation.chords
        chord_sequences.append((chords, [transposed_degree(p, k)
                                         for p, k in zip(pitches, keys)]))
        shift = ((0 if ch.mode == MAJOR else 9) - keys[0].tonic_pc
                 if corpus.genre == "chorale" else 0)
        if shift:
            keys = [key.transpose(shift) for key in keys]
        key_sequences.append((keys, [(p + shift) % 12 for p in pitches]))
    counts = Counter(chord for hidden, _ in chord_sequences for chord in hidden)
    chord_states = tuple(sorted(counts, key=str))
    mask = (build_phrase_mask(chord_states)
            if mask_enabled and corpus.genre == "chorale" else None)
    key_model = estimate(key_states, key_sequences, alpha=alpha)
    chord_model = estimate(chord_states, chord_sequences, mask=mask, alpha=alpha)
    modes = {ch.mode for ch in corpus.chorales}
    mode = modes.pop() if len(modes) == 1 else "mixed"
    return ModelBundle(genre=corpus.genre, mode=mode, key_model=key_model,
                       chord_model=chord_model,
                       chord_counts=dict(counts))


@dataclass
class ModelBundle:
    """A trained key/chord model pair plus training metadata."""

    genre: str
    mode: str
    key_model: HmmModel
    chord_model: HmmModel
    chord_counts: dict[RomanChord, int]     # training occurrences per chord state
    ornament_rates: dict | None = None


def _model_to_dict(model: HmmModel) -> dict:
    return {
        "states": [str(s) for s in model.states],
        "observations": list(range(model.emission.shape[1])),
        "transition": model.transition.tolist(),
        "emission": model.emission.tolist(),
        "initial": model.initial.tolist(),
        "mask": None if model.mask is None else model.mask.astype(int).tolist(),
        "smoothing_alpha": model.smoothing_alpha,
    }


def _checked_array(doc: dict, layer: str, name: str, shape: tuple,
                   dtype=float) -> np.ndarray:
    try:
        value = np.asarray(doc[name], dtype=dtype)
    except (TypeError, ValueError):
        raise HmmError(f"{layer}.{name} is not a numeric array")
    except OverflowError:
        raise HmmError(f"{layer}.{name} has a cell too large for a float")
    if value.shape != shape:
        raise HmmError(f"{layer}.{name} has shape {value.shape}, expected {shape}")
    return value


def _stochastic(doc: dict, layer: str, name: str, shape: tuple) -> np.ndarray:
    """A probability vector or row-stochastic matrix of the given shape:
    finite, non-negative cells, each row summing to 1 within 1e-6."""
    value = _checked_array(doc, layer, name, shape)
    if not np.all(np.isfinite(value)) or np.any(value < 0):
        raise HmmError(f"{layer}.{name} has a negative or non-finite cell")
    if np.any(np.abs(value.sum(axis=-1) - 1.0) > 1e-6):
        raise HmmError(f"{layer}.{name} has a row that does not sum to 1")
    return value


def _labels(texts, where: str, parse) -> tuple:
    """The saved labels at `where`, each read with `parse`; two texts that
    read as one label are duplicates."""
    try:
        labels = tuple(map(parse, texts))
    except MusicError as exc:
        raise HmmError(f"{where}: {exc}")
    if len(set(labels)) != len(labels):
        raise HmmError(f"{where} has duplicate labels")
    return labels


def _states(doc: dict, layer: str, parse) -> tuple:
    """The saved state labels, each read with `parse`."""
    labels = doc["states"]
    if (not isinstance(labels, list) or not labels
            or not all(isinstance(x, (str, int)) for x in labels)):
        raise HmmError(f"{layer}.states is not a non-empty list of labels")
    return _labels(labels, f"{layer}.states", parse)


def _mask(doc: dict, layer: str, S: int) -> np.ndarray:
    """The saved mask: S by S cells, each 0, 1, false or true."""
    value = _checked_array(doc, layer, "mask", (S, S), None)
    # a cell that is not a bool or an int makes the array another kind
    if value.dtype.kind not in "bi" or np.any((value != 0) & (value != 1)):
        raise HmmError(f"{layer}.mask has a cell that is not 0, 1, false or true")
    return value.astype(bool)


def _model_from_dict(doc, layer: str, state_label) -> HmmModel:
    """One saved model layer, checked so that a malformed file fails at load
    time, naming the field, not inside a decode: states as `state_label`
    reads them, observations the pitch classes 0-11 in order, and an alpha
    that passes training's `_check_alpha`, stored as training stores it."""
    if not isinstance(doc, dict):
        raise HmmError(f"{layer} is not an object")
    states = _states(doc, layer, state_label)
    observations = doc["observations"]
    if observations != list(PITCH_CLASSES) or not all(
            type(o) is int for o in observations):
        raise HmmError(f"{layer}.observations is not the pitch classes 0-11 in order")
    S, O = len(states), len(PITCH_CLASSES)
    alpha = doc["smoothing_alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise HmmError(f"{layer}.smoothing_alpha is not a number")
    _check_alpha(alpha, f"{layer}.smoothing_alpha")
    model = HmmModel(
        states=states,
        transition=_stochastic(doc, layer, "transition", (S, S)),
        emission=_stochastic(doc, layer, "emission", (S, O)),
        initial=_stochastic(doc, layer, "initial", (S,)),
        mask=None if doc.get("mask") is None else _mask(doc, layer, S),
        smoothing_alpha=alpha + 0.0,
    )
    for array in (model.transition, model.emission, model.initial, model.mask):
        if array is not None:
            array.flags.writeable = False
    return model


def save_bundle(bundle: ModelBundle, path: str | Path) -> Path:
    doc = {
        "format": "key-chord-models",
        "version": 1,
        "genre": bundle.genre,
        "mode": bundle.mode,
        "key_model": _model_to_dict(bundle.key_model),
        "chord_model": _model_to_dict(bundle.chord_model),
        "chord_counts": {str(c): n for c, n in bundle.chord_counts.items()},
        "ornament_rates": bundle.ornament_rates,
    }
    out = Path(path)
    out.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return out


def _check_bundle_fields(doc: dict):
    """The bundle fields beside the two layers, checked like the layers."""
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise HmmError(f"version is not 1: {doc['version']!r}")
    if doc["genre"] not in GENRES:
        raise HmmError(f"genre is not one of {list(GENRES)}: {doc['genre']!r}")
    modes = MODES + ("mixed",)
    if doc["mode"] not in modes:
        raise HmmError(f"mode is not one of {list(modes)}: {doc['mode']!r}")
    rates = doc.get("ornament_rates")
    if rates is not None and (not isinstance(rates, dict) or not all(
            type(p) in (int, float) and 0 <= p <= 1 for p in rates.values())):
        raise HmmError("ornament_rates is not an object of probabilities in [0, 1]")
    accepted = ["p_passing", "p_auxiliary", "p_appoggiatura"]
    stray = sorted(set(rates or ()) - set(accepted))
    if stray:
        raise HmmError(f"ornament_rates has unknown key {stray[0]!r};"
                       f" accepted: {accepted}")


def _chord_counts(counts, states: set) -> dict[RomanChord, int]:
    """The saved chord counts, as training writes them: one positive count
    below 2**63 for each of `states`, keyed by a text that reads as it."""
    if not isinstance(counts, dict) or not all(
            type(n) is int and 0 < n < 2 ** 63 for n in counts.values()):
        raise HmmError("chord_counts is not an object of positive counts below 2**63")
    chords = _labels(counts, "chord_counts", RomanChord.from_string)
    if set(chords) != states:
        odd = min(set(chords) ^ states, key=str)
        raise HmmError("chord_counts keys must be the chord states, one each:"
                       f" {'extra' if odd in chords else 'missing'} {str(odd)!r}")
    return dict(zip(chords, counts.values()))


def load_bundle(path: str | Path) -> ModelBundle:
    """The model file at `path`. Its text is parsed and checked once per
    process by `_parse_bundle`, keyed on the whole text, so a file rewritten
    with other bytes is read again whatever its timestamp. Each call gets a
    new bundle with its own `chord_counts` and `ornament_rates` over the
    shared read-only models, and an error names the path of its own call."""
    text = read_text(path)
    try:
        shared = _parse_bundle(text)
    except CorpusError as exc:
        raise CorpusError(str(exc), str(path))
    except HmmError as exc:
        raise HmmError(f"{path}: {exc}")
    rates = shared.ornament_rates
    return replace(shared, chord_counts=dict(shared.chord_counts),
                   ornament_rates=None if rates is None else dict(rates))


@functools.lru_cache(maxsize=8)
def _parse_bundle(text: str) -> ModelBundle:
    """The checked bundle in a model file's text; its errors do not name the
    file. The result is cached and shared, so only `load_bundle` calls this."""
    doc = parse_json(text)
    if not isinstance(doc, dict) or doc.get("format") != "key-chord-models":
        raise HmmError("not a model file")
    try:
        _check_bundle_fields(doc)
        chord_model = _model_from_dict(doc["chord_model"], "chord_model",
                                       RomanChord.from_string)
        return ModelBundle(
            genre=doc["genre"],
            mode=doc["mode"],
            key_model=_model_from_dict(doc["key_model"], "key_model",
                                       KeyLabel.from_string),
            chord_model=chord_model,
            chord_counts=_chord_counts(doc["chord_counts"], set(chord_model.states)),
            ornament_rates=doc.get("ornament_rates"),
        )
    except KeyError as exc:
        raise HmmError(f"model file lacks field {exc.args[0]!r}")


def _write_labeled_matrix(path: Path, row_labels, col_labels, matrix: np.ndarray):
    """Labeled matrix as CSV: a header row of column labels, then one row
    per label with full-precision decimal values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + [str(c) for c in col_labels])
        for label, row in zip(row_labels, matrix):
            writer.writerow([str(label)] + [repr(float(v)) for v in row])


def read_transition_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Labeled square matrix from a CSV file with a header row and a label
    column, as produced by the matrix export."""
    try:
        rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:
        raise HmmError(f"{path}: not a CSV matrix: {exc}")
    if not rows:
        raise HmmError(f"{path}: empty matrix file")
    for line, row in enumerate(rows, start=1):
        if not row:
            raise HmmError(f"{path}: line {line}: blank row")
    labels = [cell.strip() for cell in rows[0][1:]]
    matrix = np.zeros((len(rows) - 1, len(labels)))
    row_labels = []
    for i, row in enumerate(rows[1:]):
        row_labels.append(row[0].strip())
        if len(row) - 1 != len(labels):
            raise HmmError(f"{path}: row {row[0]!r} has {len(row) - 1} cells,"
                           f" expected {len(labels)}")
        try:
            matrix[i] = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise HmmError(f"{path}: row {row[0]!r} has a non-numeric cell: {exc}")
    if row_labels != labels:
        raise HmmError(f"{path}: row and column labels disagree")
    return labels, matrix


def apply_override(model: HmmModel, matrix_file: str | Path) -> HmmModel:
    """Replace the transition matrix with one loaded from a labeled CSV.

    Rows already summing to 1 (within 1e-9) are taken as-is; rows with sums
    in [0.5, 1.5] are renormalized; anything else is rejected, as are
    negative entries and label mismatches. The mask is not re-applied; an
    override is sovereign over the trained structure.
    """
    labels, matrix = read_transition_csv(matrix_file)
    expected = [str(s) for s in model.states]
    if labels != expected:
        detail = f" ({len(labels)} labels vs {len(expected)} states)"
        if len(labels) == len(expected):
            label, state = next(p for p in zip(labels, expected) if p[0] != p[1])
            detail = f": label {label!r} where the model has {state!r}"
        raise HmmError(f"{matrix_file}: override labels do not match model"
                       f" states{detail}")
    totals = matrix.sum(axis=1)
    negative = np.any(matrix < 0, axis=1)
    refused = negative | ~((0.5 <= totals) & (totals <= 1.5))
    if refused.any():
        i = int(np.argmax(refused))
        if negative[i]:
            raise HmmError(f"{matrix_file}: override row {labels[i]!r} has negative entries")
        raise HmmError(f"{matrix_file}: override row {labels[i]!r} sums to"
                       f" {totals[i]:.6g}, outside [0.5, 1.5]")
    off = np.abs(totals - 1.0) > 1e-9
    matrix[off] = _distribute(matrix[off])
    return replace(model, transition=matrix, mask=None)
