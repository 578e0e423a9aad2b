"""Realize a decoded key/chord progression as alto/tenor/bass lines.

Candidate voicings for each beat are enumerated under hard vertical
constraints (SATB order, vocal ranges, spacing limits, inversion bass,
doubling rules). Full harmonizations grow greedily from each first-beat
voicing by minimizing the Euclidean step between consecutive voicings,
and the winner is the chain with the lowest total penalty under the
horizontal rules (parallels, overlaps, leaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    KeyLabel,
    MelodyLine,
    MusicError,
    Pitch,
    ProgressionAnnotation,
    RomanChord,
    chord_bass_pc,
    chord_tone_pcs,
    leading_tone_pc,
)
from .corpus import _format_duration, _format_note_list, _format_records
from .hmm import HmmModel, decode_key_chord

ALTO_RANGE = (53, 74)    # F3-D5
TENOR_RANGE = (47, 67)   # B2-G4
BASS_RANGE = (40, 60)    # E2-C4
MAX_SPACING = 12         # soprano-alto and alto-tenor

PENALTY_WEIGHTS = {
    "parallel_fifths": 4.0,
    "parallel_octaves": 4.0,
    "voice_overlap": 2.0,
    "inner_voice_leap": 1.0,
    "leap_over_octave": 3.0,
}

INNER_LEAP_LIMIT = 7     # semitones, alto and tenor
OCTAVE_LEAP_LIMIT = 12   # semitones, any generated voice


class InfeasibleHarmonizationError(ValueError):
    def __init__(self, beat_index: int, chord: str | None = None):
        self.beat_index = beat_index
        self.chord = chord
        detail = f" for chord {chord}" if chord else ""
        super().__init__(f"no feasible arrangement at beat {beat_index}{detail}")


class Violation(NamedTuple):
    beat_index: int
    rule: str
    weight: float


@dataclass(frozen=True)
class Arrangement:
    """Alto, tenor and bass pitches realizing one chord under a fixed
    soprano note."""

    alto: Pitch
    tenor: Pitch
    bass: Pitch

    def triple(self) -> tuple[int, int, int]:
        return (self.alto.midi, self.tenor.midi, self.bass.midi)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.bass.midi, self.tenor.midi, self.alto.midi)


VoiceLine = list[list[tuple[Pitch, float]]]


@dataclass
class Harmonization:
    """Four aligned voices plus the decoded annotation and penalty audit.

    The alto/tenor/bass lines start as one quarter note per beat taken from
    the arrangements; ornamentation may later subdivide them.
    """

    soprano: MelodyLine
    arrangements: list[Arrangement]
    annotation: ProgressionAnnotation
    penalty: float
    violation_log: list[Violation]
    alto_line: VoiceLine = field(default_factory=list)
    tenor_line: VoiceLine = field(default_factory=list)
    bass_line: VoiceLine = field(default_factory=list)

    def __post_init__(self):
        if not self.alto_line:
            self.alto_line = [[(a.alto, 1.0)] for a in self.arrangements]
        if not self.tenor_line:
            self.tenor_line = [[(a.tenor, 1.0)] for a in self.arrangements]
        if not self.bass_line:
            self.bass_line = [[(a.bass, 1.0)] for a in self.arrangements]

    def voice_lines(self) -> dict[str, VoiceLine]:
        soprano = [list(ev.notes) for ev in self.soprano.events]
        return {"soprano": soprano, "alto": self.alto_line,
                "tenor": self.tenor_line, "bass": self.bass_line}


def _pitches_in_range(pc: int, lo: int, hi: int) -> list[int]:
    return [m for m in range(lo, hi + 1) if m % 12 == pc]


def _upper_spellings(chord: RomanChord, key: KeyLabel,
                     soprano_pc: int) -> list[tuple[int, int]]:
    """Pitch-class pairs available to (alto, tenor) above the fixed bass.

    Triads prefer complete spelling; when that is infeasible the caller
    retries with the fallback (fifth omitted, root doubled, third doubled
    instead when the root is the leading tone). Seventh chords keep the
    seventh, then the third, then the root. When the soprano already sounds
    the leading tone, the upper voices swap it out for the first of third,
    root, fifth that is not the leading tone, so the leading tone is never
    doubled.

    Returns the spelling stages in order of preference; each stage is one
    unordered (pc, pc) pair for the upper voices.
    """
    tones = chord_tone_pcs(chord, key)
    bass_pc = chord_bass_pc(chord, key)
    lt = leading_tone_pc(key)
    root, third, fifth = tones[0], tones[1], tones[2]

    def drop_one(multiset: list[int], pc: int) -> list[int]:
        out = list(multiset)
        out.remove(pc)
        return out

    def substitute_lt(uppers: list[int]) -> list[int]:
        if soprano_pc != lt or lt not in uppers:
            return uppers
        for replacement in (third, root, fifth):
            if replacement != lt:
                return drop_one(uppers, lt) + [replacement]
        return uppers

    if chord.seventh:
        seventh = tones[3]
        uppers = []
        for tone in (seventh, third, root, fifth):
            if tone != bass_pc and len(uppers) < 2:
                uppers.append(tone)
        uppers = substitute_lt(uppers)
        return [tuple(sorted(uppers))]

    complete = substitute_lt(drop_one([root, third, fifth], bass_pc))
    doubled = root if root != lt else third
    fallback_set = [doubled, doubled, third if doubled == root else root]
    # the fallback omits the fifth; unavailable when the fifth is the bass
    stages = [tuple(sorted(complete))]
    if bass_pc != fifth:
        fallback = substitute_lt(drop_one(fallback_set, bass_pc))
        stages.append(tuple(sorted(fallback)))
    return stages


def enumerate_arrangements(key: KeyLabel, chord: RomanChord,
                           soprano: Pitch) -> list[Arrangement]:
    """Every arrangement satisfying the vertical constraints, sorted
    lexicographically by (bass, tenor, alto). May be empty."""
    bass_pc = chord_bass_pc(chord, key)
    lt = leading_tone_pc(key)
    soprano_pc = soprano.pitch_class
    for first, second in _upper_spellings(chord, key, soprano_pc):
        found = []
        for alto_pc, tenor_pc in {(first, second), (second, first)}:
            lt_count = sum(pc == lt for pc in (soprano_pc, alto_pc, tenor_pc, bass_pc))
            if lt_count > 1:
                continue
            for bass in _pitches_in_range(bass_pc, *BASS_RANGE):
                if bass > soprano.midi:
                    continue
                for tenor in _pitches_in_range(tenor_pc, *TENOR_RANGE):
                    if tenor < bass:
                        continue
                    for alto in _pitches_in_range(alto_pc, *ALTO_RANGE):
                        if alto < tenor or alto > soprano.midi:
                            continue
                        if alto - tenor > MAX_SPACING:
                            continue
                        if soprano.midi - alto > MAX_SPACING:
                            continue
                        found.append(Arrangement(Pitch(alto), Pitch(tenor), Pitch(bass)))
        if found:
            return sorted(found, key=Arrangement.sort_key)
    return []


def _squared_distance(a: Arrangement, b: Arrangement) -> int:
    da = a.alto.midi - b.alto.midi
    dt = a.tenor.midi - b.tenor.midi
    db = a.bass.midi - b.bass.midi
    return da * da + dt * dt + db * db


def _pair_rule_hits(prev: tuple[int, ...], cur: tuple[int, ...],
                    leap_specs: list[tuple[int, bool]]) -> list[str]:
    """Horizontal-rule violations between two same-length voice stacks,
    ordered high to low. leap_specs gives (voice position, is_inner) for
    voices whose melodic motion is audited."""
    hits = []
    n = len(prev)
    for i in range(n):
        for j in range(i + 1, n):
            moved = prev[i] != cur[i] and prev[j] != cur[j]
            if not moved:
                continue
            before = (prev[i] - prev[j]) % 12
            after = (cur[i] - cur[j]) % 12
            if before == 7 and after == 7:
                hits.append("parallel_fifths")
            elif before == 0 and after == 0:
                hits.append("parallel_octaves")
    for i in range(n - 1):
        if cur[i + 1] > prev[i] or cur[i] < prev[i + 1]:
            hits.append("voice_overlap")
    for position, is_inner in leap_specs:
        leap = abs(cur[position] - prev[position])
        if leap > OCTAVE_LEAP_LIMIT:
            hits.append("leap_over_octave")
        elif is_inner and leap > INNER_LEAP_LIMIT:
            hits.append("inner_voice_leap")
    return hits


def _atb_violation_count(prev: Arrangement, cur: Arrangement) -> int:
    hits = _pair_rule_hits(prev.triple(), cur.triple(),
                           [(0, True), (1, True), (2, False)])
    return len(hits)


def chain_arrangements(candidates_per_beat, seed: Arrangement) -> list[Arrangement]:
    """Greedy left-to-right chaining from a first-beat arrangement: each
    step takes the candidate nearest in Euclidean distance, breaking ties
    by fewest horizontal-rule violations against the predecessor, then by
    lexicographic order. Violations are counted only for the candidates
    tied at the least distance."""
    chain = [seed]
    prev = seed
    for t in range(1, len(candidates_per_beat)):
        candidates = candidates_per_beat[t]
        if not candidates:
            raise InfeasibleHarmonizationError(t)
        distances = [_squared_distance(prev, c) for c in candidates]
        nearest = min(distances)
        tied = [c for c, d in zip(candidates, distances) if d == nearest]
        if len(tied) == 1:
            best = tied[0]
        else:
            best = min(tied, key=lambda c: (_atb_violation_count(prev, c),
                                            c.sort_key()))
        chain.append(best)
        prev = best
    return chain


def score_arrangements(melody: MelodyLine,
                       arrangements) -> tuple[float, list[Violation]]:
    """Scan consecutive beats over all four voices and total the weighted
    rule violations. Violations are logged at the arrival beat."""
    stacks = [(ev.representative.midi, arr.alto.midi, arr.tenor.midi, arr.bass.midi)
              for ev, arr in zip(melody.events, arrangements)]
    log: list[Violation] = []
    for t in range(1, len(stacks)):
        hits = _pair_rule_hits(stacks[t - 1], stacks[t],
                               [(1, True), (2, True), (3, False)])
        for rule in hits:
            log.append(Violation(t, rule, PENALTY_WEIGHTS[rule]))
    return sum(v.weight for v in log), log


def harmonize_melody(key_model: HmmModel, chord_model: HmmModel,
                     melody: MelodyLine, method: str = "viterbi",
                     max_seeds: int | None = None) -> Harmonization:
    """Decode keys and chords, then voice the progression. Every feasible
    first-beat arrangement, or the first max_seeds of them, seeds one
    greedy chain; the lowest-penalty chain wins, earlier seeds winning
    ties."""
    annotation = decode_key_chord(key_model, chord_model, melody, method)
    return voice_progression(melody, annotation, max_seeds)


def voice_progression(melody: MelodyLine, annotation: ProgressionAnnotation,
                      max_seeds: int | None = None) -> Harmonization:
    if len(annotation) != len(melody):
        raise MusicError("annotation length does not match melody length")
    if max_seeds is not None and max_seeds < 1:
        raise MusicError(f"max_seeds must be positive: {max_seeds}")
    # enumeration depends only on (key, chord, soprano); the candidate
    # lists are never mutated, so equal inputs share one list
    enumerated = {}
    candidates_per_beat = []
    for t, ev in enumerate(melody.events):
        chord = annotation.chords[t]
        inputs = (annotation.keys[t], chord, ev.representative)
        candidates = enumerated.get(inputs)
        if candidates is None:
            candidates = enumerated[inputs] = enumerate_arrangements(*inputs)
        if not candidates:
            raise InfeasibleHarmonizationError(t, chord.to_string())
        candidates_per_beat.append(candidates)
    best = None
    for index, seed in enumerate(candidates_per_beat[0][:max_seeds]):
        chain = chain_arrangements(candidates_per_beat, seed)
        penalty, log = score_arrangements(melody, chain)
        if best is None or (penalty, index) < (best[0], best[1]):
            best = (penalty, index, chain, log)
    penalty, _, chain, log = best
    return Harmonization(soprano=melody, arrangements=chain,
                         annotation=annotation, penalty=penalty,
                         violation_log=log)


def to_score_document(h: Harmonization, title: str = "harmonization") -> str:
    """Structured-text score: per beat, the four voices, the decoded key and
    numeral, and any violations charged at that beat."""
    by_beat: dict[int, list[Violation]] = {}
    for v in h.violation_log:
        by_beat.setdefault(v.beat_index, []).append(v)
    voices = h.voice_lines()
    records = []
    for t in range(len(h.soprano)):
        fields = [("soprano", _format_note_list(voices["soprano"][t])),
                  ("alto", _format_note_list(voices["alto"][t])),
                  ("tenor", _format_note_list(voices["tenor"][t])),
                  ("bass", _format_note_list(voices["bass"][t])),
                  ("key", h.annotation.keys[t].to_string()),
                  ("roman", h.annotation.chords[t].to_string())]
        if t in by_beat:
            fields.append(("violations", ";".join(
                f"{v.rule}:{_format_duration(v.weight)}" for v in by_beat[t])))
        records.append(fields)
    return _format_records(
        (("id", title), ("penalty", _format_duration(h.penalty))), records)
