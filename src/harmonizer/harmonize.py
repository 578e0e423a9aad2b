"""Realize a decoded key/chord progression as alto/tenor/bass lines.

Candidate voicings for each beat are enumerated under hard vertical
constraints (SATB order, vocal ranges, spacing limits, inversion bass,
doubling rules). Full harmonizations grow greedily from each first-beat
voicing by minimizing the Euclidean step between consecutive voicings,
and the winner is the chain with the lowest total penalty under the
horizontal rules (parallels, overlaps, leaps).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .core import (
    PPQ,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    chord_bass_pc,
    chord_tone_pcs,
    leading_tone_pc,
)
from .corpus import _format_note_list
from .hmm import HmmModel, decode_key_chord

ALTO_RANGE = (53, 74)    # F3-D5
TENOR_RANGE = (47, 67)   # B2-G4
BASS_RANGE = (40, 60)    # E2-C4
MAX_SPACING = 12         # soprano-alto and alto-tenor

PENALTY_WEIGHTS = {
    "parallel_fifths": 4,
    "parallel_octaves": 4,
    "voice_overlap": 2,
    "inner_voice_leap": 1,
    "leap_over_octave": 3,
}

INNER_LEAP_LIMIT = 7     # semitones, alto and tenor
OCTAVE_LEAP_LIMIT = 12   # semitones, any generated voice


class InfeasibleHarmonizationError(ValueError):
    def __init__(self, beat_index: int, chord: str):
        self.beat_index = beat_index
        super().__init__(f"no feasible arrangement at beat {beat_index} for chord {chord}")


class Violation(NamedTuple):
    beat_index: int
    rule: str
    weight: int


class Arrangement(NamedTuple):
    """Alto, tenor and bass MIDI numbers realizing one chord under a fixed
    soprano note."""

    alto: int
    tenor: int
    bass: int


# the (bass, tenor, alto) order of enumeration and of the last tie-break
_BASS_TENOR_ALTO = itemgetter(2, 1, 0)

# per beat, the (MIDI number, ticks) notes of one voice, the form of
# `BeatEvent.notes`
VoiceLine = list[tuple[tuple[int, int], ...]]


@dataclass
class Harmonization:
    """Four aligned voices plus the decoded annotation and penalty audit.

    The alto/tenor/bass lines start as one quarter note per beat taken from
    the arrangements; ornamentation may later subdivide them.
    """

    soprano: MelodyLine
    arrangements: list[Arrangement]
    annotation: ProgressionAnnotation
    violation_log: list[Violation]
    alto_line: VoiceLine = field(default_factory=list)
    tenor_line: VoiceLine = field(default_factory=list)
    bass_line: VoiceLine = field(default_factory=list)

    def __post_init__(self):
        if not self.alto_line:
            self.alto_line = [((a.alto, PPQ),) for a in self.arrangements]
        if not self.tenor_line:
            self.tenor_line = [((a.tenor, PPQ),) for a in self.arrangements]
        if not self.bass_line:
            self.bass_line = [((a.bass, PPQ),) for a in self.arrangements]

    @property
    def penalty(self) -> int:
        """The total weight of the violation log."""
        return _total_weight(self.violation_log)

    def voice_lines(self) -> dict[str, VoiceLine]:
        soprano = [ev.notes for ev in self.soprano.events]
        return {"soprano": soprano, "alto": self.alto_line,
                "tenor": self.tenor_line, "bass": self.bass_line}


def _total_weight(log: list[Violation]) -> int:
    return sum(v.weight for v in log)


def _pitches_in_range(pc: int, lo: int, hi: int) -> list[int]:
    return list(range(lo + (pc - lo) % 12, hi + 1, 12))


def _upper_spellings(chord: RomanChord, key: KeyLabel,
                     soprano_pc: int) -> list[tuple[int, int]]:
    """Pitch-class pairs available to (alto, tenor) above the fixed bass.

    Seventh chords take the first two of seventh, third, root, fifth that
    are not the bass. Triads prefer the complete spelling, the two tones
    other than the bass; when that is infeasible the caller retries with
    the fallback, which omits the fifth and doubles the root (the third
    when the root is the leading tone), and which does not exist when the
    fifth is the bass.

    The leading tone is never doubled, and this is the one place that
    rule is kept: when the soprano sounds it, the upper voices swap it for
    the third, or for the root when the third is the leading tone, and
    when the bass sounds it too nothing is available.

    Returns the spelling stages in order of preference; each stage is one
    unordered (pc, pc) pair for the upper voices.
    """
    tones = chord_tone_pcs(chord, key)
    bass_pc = chord_bass_pc(chord, key)
    lt = leading_tone_pc(key)
    root, third, fifth = tones[:3]
    if chord.seventh:
        stages = [[pc for pc in (tones[3], third, root, fifth) if pc != bass_pc][:2]]
    else:
        stages = [[pc for pc in tones if pc != bass_pc]]
        if bass_pc != fifth:
            doubled, other = (root, third) if root != lt else (third, root)
            stages.append([doubled, doubled if bass_pc == other else other])
    if soprano_pc == lt:
        if bass_pc == lt:
            return []
        swap = third if third != lt else root
        stages = [[swap if pc == lt else pc for pc in stage] for stage in stages]
    return [tuple(stage) for stage in stages]


def enumerate_arrangements(key: KeyLabel, chord: RomanChord,
                           soprano: int) -> list[Arrangement]:
    """Every arrangement satisfying the vertical constraints, sorted
    lexicographically by (bass, tenor, alto). May be empty."""
    bass_pc = chord_bass_pc(chord, key)
    basses = _pitches_in_range(bass_pc, *BASS_RANGE)
    for first, second in _upper_spellings(chord, key, soprano % 12):
        found = []
        for alto_pc, tenor_pc in {(first, second), (second, first)}:
            tenors = _pitches_in_range(tenor_pc, *TENOR_RANGE)
            altos = [a for a in _pitches_in_range(alto_pc, *ALTO_RANGE)
                     if soprano - MAX_SPACING <= a <= soprano]
            for bass in basses:
                for tenor in tenors:
                    # with tenor <= alto <= soprano below, this keeps the
                    # bass under the soprano too
                    if tenor < bass:
                        continue
                    for alto in altos:
                        if tenor <= alto <= tenor + MAX_SPACING:
                            found.append(Arrangement(alto, tenor, bass))
        if found:
            return sorted(found, key=_BASS_TENOR_ALTO)
    return []


def _pair_rule_hits(prev: tuple[int, ...], cur: tuple[int, ...]) -> list[str]:
    """Horizontal-rule violations between two same-length voice stacks,
    ordered high to low. Melodic leaps are audited on the last three
    positions: two inner voices, then the bass as the outer voice."""
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
    for position in range(n - 3, n):
        leap = abs(cur[position] - prev[position])
        if leap > OCTAVE_LEAP_LIMIT:
            hits.append("leap_over_octave")
        elif position < n - 1 and leap > INNER_LEAP_LIMIT:
            hits.append("inner_voice_leap")
    return hits


def _greedy_step(prev: Arrangement, candidates: list[Arrangement]) -> int:
    """Position of the candidate nearest prev in Euclidean distance, ties
    broken by fewest horizontal-rule violations against prev, then by the
    least (bass, tenor, alto). Violations are counted only for the
    candidates tied at the least distance."""
    pa, pt, pb = prev
    distances = [(a - pa) ** 2 + (t - pt) ** 2 + (b - pb) ** 2
                 for a, t, b in candidates]
    nearest = min(distances)
    tied = [i for i, d in enumerate(distances) if d == nearest]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda i: (len(_pair_rule_hits(prev, candidates[i])),
                                    _BASS_TENOR_ALTO(candidates[i])))


def chain_arrangements(candidates_per_beat
                       ) -> list[tuple[list[Arrangement], tuple[int, int] | None]]:
    """Greedy left-to-right chaining over a lattice with at least one
    candidate per beat: each first-beat arrangement seeds one chain, and
    each step takes `_greedy_step` from the previous arrangement.

    A step depends only on the previous arrangement, so chains that reach
    the same candidate at some beat coincide from there on. Each seed walks
    in turn; a chain that reaches a candidate an earlier chain reached first
    takes that chain's remainder and stops. Returns (chain, joined) per
    seed, where joined is None or (beat, index of the earlier chain)."""
    reached = {}        # (beat, candidate position) -> first chain there
    chains = []
    for index, seed in enumerate(candidates_per_beat[0]):
        chain, joined = [seed], None
        for t in range(1, len(candidates_per_beat)):
            candidates = candidates_per_beat[t]
            position = _greedy_step(chain[-1], candidates)
            earlier = reached.setdefault((t, position), index)
            if earlier != index:
                chain += chains[earlier][0][t:]
                joined = (t, earlier)
                break
            chain.append(candidates[position])
        chains.append((chain, joined))
    return chains


def score_arrangements(melody: MelodyLine, arrangements) -> list[Violation]:
    """Scan consecutive beats over all four voices and log the weighted
    rule violations. Violations are logged at the arrival beat."""
    stacks = [(ev.representative, *arr)
              for ev, arr in zip(melody.events, arrangements)]
    log: list[Violation] = []
    for t in range(1, len(stacks)):
        for rule in _pair_rule_hits(stacks[t - 1], stacks[t]):
            log.append(Violation(t, rule, PENALTY_WEIGHTS[rule]))
    return log


def harmonize_melody(key_model: HmmModel, chord_model: HmmModel,
                     melody: MelodyLine, method: str = "viterbi") -> Harmonization:
    """Decode keys and chords, then voice the progression. Every feasible
    first-beat arrangement seeds one greedy chain; the lowest-penalty
    chain wins, earlier seeds winning ties."""
    annotation = decode_key_chord(key_model, chord_model, melody, method)
    return voice_progression(melody, annotation)


def _arrangement_lattice(melody: MelodyLine,
                         annotation: ProgressionAnnotation) -> list[list[Arrangement]]:
    """Each beat's arrangements, raising for the first beat with none. Equal
    (key, chord, soprano) inputs share one list, which no caller mutates."""
    if len(annotation) != len(melody):
        raise MusicError("annotation length does not match melody length")
    lattice = list(map(functools.cache(enumerate_arrangements), annotation.keys,
                       annotation.chords, melody.representatives()))
    for t, candidates in enumerate(lattice):
        if not candidates:
            raise InfeasibleHarmonizationError(t, str(annotation.chords[t]))
    return lattice


def voice_progression(melody: MelodyLine,
                      annotation: ProgressionAnnotation) -> Harmonization:
    chains = chain_arrangements(_arrangement_lattice(melody, annotation))
    # a chain that joins an earlier one is scored only up to the joining
    # beat and takes the earlier chain's later violations; a chain that
    # never joins is scored to its last beat
    logs = []
    for chain, joined in chains:
        beat, earlier = joined or (len(chain) - 1, None)
        log = score_arrangements(melody, chain[:beat + 1])
        if earlier is not None:
            log += [v for v in logs[earlier] if v.beat_index > beat]
        logs.append(log)
    # min keeps the first of equal totals: ties go to the earliest seed
    best = min(range(len(chains)), key=lambda i: _total_weight(logs[i]))
    return Harmonization(soprano=melody, arrangements=chains[best][0],
                         annotation=annotation, violation_log=logs[best])


def to_score_document(h: Harmonization, title: str = "harmonization") -> str:
    """Structured-text score: per beat, the four voices, the decoded key and
    numeral, and any violations charged at that beat. Each record is
    written as one string, in the grammar `corpus._records` reads."""
    by_beat: dict[int, list[Violation]] = {}
    for v in h.violation_log:
        by_beat.setdefault(v.beat_index, []).append(v)
    soprano, alto, tenor, bass = h.voice_lines().values()
    keys, chords = h.annotation.keys, h.annotation.chords
    # each distinct key, chord and beat is formatted once
    label = functools.cache(str)
    notes = functools.cache(_format_note_list)
    lines = [f"id: {title}", f"penalty: {h.penalty}"]
    for t in range(len(h.soprano)):
        record = (f"{t} | soprano={notes(soprano[t])} | alto={notes(alto[t])}"
                  f" | tenor={notes(tenor[t])} | bass={notes(bass[t])}"
                  f" | key={label(keys[t])} | roman={label(chords[t])}")
        if t in by_beat:
            record += " | violations=" + ";".join(
                f"{v.rule}:{v.weight}" for v in by_beat[t])
        lines.append(record)
    return "\n".join(lines) + "\n"
