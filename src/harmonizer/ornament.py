"""Probabilistic insertion of non-chord tones into generated voices.

Three ornament types are supported: passing notes filling a third between
consecutive pitches, auxiliary notes decorating a repeated pitch, and
appoggiaturas leaning on strong beats. Each fires independently per beat
with its configured probability, at most one ornament per voice per beat,
and the soprano is never touched. All randomness comes from the seed, so
a fixed seed reproduces output exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import BEATS_PER_BAR, PPQ, MusicError, diatonic_pcs
from .harmonize import ALTO_RANGE, BASS_RANGE, TENOR_RANGE, Harmonization

# strong beats are positions 0 and 2 of the bar
STRONG_BEAT_POSITIONS = (0, 2)


@dataclass(frozen=True)
class OrnamentConfig:
    p_passing: float = 0.3
    p_auxiliary: float = 0.15
    p_appoggiatura: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("p_passing", "p_auxiliary", "p_appoggiatura"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MusicError(f"{name} must be in [0, 1]: {value}")

    def as_dict(self) -> dict:
        return {"p_passing": self.p_passing, "p_auxiliary": self.p_auxiliary,
                "p_appoggiatura": self.p_appoggiatura}


def _scale_tone_between(low: int, high: int, pcs: frozenset[int]) -> int | None:
    """The scale tone strictly between two pitches, preferring the one
    nearest the midpoint (lower on ties); None when the gap has no scale
    tone."""
    if low > high:
        low, high = high, low
    inside = [m for m in range(low + 1, high) if m % 12 in pcs]
    if not inside:
        return None
    midpoint = (low + high) / 2
    return min(inside, key=lambda m: (abs(m - midpoint), m))


def _upper_scale_tone(pitch: int, pcs: frozenset[int]) -> int | None:
    """The first scale tone one to three semitones above pitch, or None."""
    for m in range(pitch + 1, pitch + 4):
        if m % 12 in pcs:
            return m
    return None


def estimate_ornament_rates(corpus) -> OrnamentConfig:
    """Empirical ornament rates from a corpus: for each type, the fraction
    of eligible sites in the melodies that exhibit its pattern. A type with
    no eligible sites gets rate 0. Every count is of an interval, an
    equality or a beat position, so the rates do not depend on the key a
    piece is written in."""
    eligible = {"passing": 0, "auxiliary": 0, "appoggiatura": 0}
    exhibited = {"passing": 0, "auxiliary": 0, "appoggiatura": 0}
    for ch in corpus.chorales:
        beats = ch.events
        reps = [ev.representative for ev in beats]
        for t in range(len(beats)):
            extra = [m for m, _ in beats[t].notes[1:]]
            if t + 1 < len(beats):
                gap = abs(reps[t + 1] - reps[t])
                if gap in (3, 4):
                    eligible["passing"] += 1
                    lo, hi = sorted((reps[t], reps[t + 1]))
                    if any(lo < m < hi for m in extra):
                        exhibited["passing"] += 1
                if reps[t + 1] == reps[t]:
                    eligible["auxiliary"] += 1
                    if any(m != reps[t] and abs(m - reps[t]) <= 2 for m in extra):
                        exhibited["auxiliary"] += 1
            if t % BEATS_PER_BAR in STRONG_BEAT_POSITIONS:
                eligible["appoggiatura"] += 1
                first = beats[t].notes[0][0]
                if len(beats[t].notes) >= 2:
                    second = beats[t].notes[1][0]
                    if 1 <= first - second <= 2:
                        exhibited["appoggiatura"] += 1
    def rate(name):
        return exhibited[name] / eligible[name] if eligible[name] else 0.0
    return OrnamentConfig(p_passing=rate("passing"),
                          p_auxiliary=rate("auxiliary"),
                          p_appoggiatura=rate("appoggiatura"))


def insert_ornaments(h: Harmonization, cfg: OrnamentConfig) -> Harmonization:
    """A copy of h with ornaments in its alto, tenor and bass lines. Sites
    whose inserted pitch would leave the voice range or break the vertical
    order against neighbouring voices are skipped silently. An ornament
    splits its beat into two eighths."""
    rng = random.Random(cfg.rng_seed)
    n = len(h.soprano)
    # one scale per distinct key, then per beat
    scale_of = {key: diatonic_pcs(key) for key in set(h.annotation.keys)}
    scales = [scale_of[key] for key in h.annotation.keys]
    passing_tones = {}      # one search per distinct (pitch, next pitch, scale)
    # per beat, the skeleton voices from the top down and a floor of 0: an
    # inserted pitch stays in its voice range, at or below the voice above
    # and at or above the voice below
    stacks = [(ev.representative, *a, 0)
              for ev, a in zip(h.soprano.events, h.arrangements)]
    lines = [list(line) for line in (h.alto_line, h.tenor_line, h.bass_line)]
    half = PPQ // 2

    for v, (lo, hi) in enumerate((ALTO_RANGE, TENOR_RANGE, BASS_RANGE), start=1):
        line = lines[v - 1]
        skel = [stack[v] for stack in stacks]
        ceilings = [min(hi, stack[v - 1]) for stack in stacks]
        floors = [max(lo, stack[v + 1]) for stack in stacks]
        for t in range(n):
            cur, ceiling, floor = skel[t], ceilings[t], floors[t]
            nxt = skel[t + 1] if t + 1 < n else None
            # passing tone filling a third on the way to the next beat
            if nxt is not None and abs(nxt - cur) in (3, 4):
                step = (cur, nxt, scales[t])
                if step not in passing_tones:
                    passing_tones[step] = _scale_tone_between(*step)
                mid = passing_tones[step]
                if mid is not None and floor <= mid <= ceiling:
                    if rng.random() < cfg.p_passing:
                        line[t] = ((cur, half), (mid, half))
                        continue
            # auxiliary tone decorating a repeated pitch
            if nxt is not None and nxt == cur:
                neighbor = _upper_scale_tone(cur, scales[t])
                if neighbor is not None and floor <= neighbor <= ceiling:
                    if rng.random() < cfg.p_auxiliary:
                        line[t] = ((cur, half), (neighbor, half))
                        continue
            # appoggiatura leaning onto a strong beat
            if t % BEATS_PER_BAR in STRONG_BEAT_POSITIONS:
                neighbor = _upper_scale_tone(cur, scales[t])
                if neighbor is not None and floor <= neighbor <= ceiling:
                    if rng.random() < cfg.p_appoggiatura:
                        line[t] = ((neighbor, half), (cur, half))

    alto, tenor, bass = lines
    return replace(h, alto_line=alto, tenor_line=tenor, bass_line=bass)
