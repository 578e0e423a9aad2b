"""Probabilistic insertion of non-chord tones into generated voices.

Three ornament types are supported: passing notes filling a third between
consecutive pitches, auxiliary notes decorating a repeated pitch, and
appoggiaturas leaning on strong beats. A voice's beat takes at most one
ornament: the first of these, in that order, whose site allows it and
whose draw against its configured probability succeeds. The soprano is
never touched. All randomness comes from the seed, so a fixed seed
reproduces output exactly.
"""

from __future__ import annotations

import functools
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


def _upper_scale_tone(pitch: int, pcs: frozenset[int]) -> int:
    """The first scale tone one to three semitones above pitch; no step of
    a major or harmonic-minor scale is wider than three semitones."""
    for m in range(pitch + 1, pitch + 4):
        if m % 12 in pcs:
            return m


def estimate_ornament_rates(corpus) -> OrnamentConfig:
    """Empirical ornament rates from a corpus: for each type, the fraction
    of eligible sites in the melodies that exhibit its pattern. A type with
    no eligible sites gets rate 0.0. Every count is of an interval, an
    equality or a beat position, so the rates do not depend on the key a
    piece is written in."""
    # [eligible, exhibited] per ornament, in OrnamentConfig's field order
    passing, auxiliary, appoggiatura = counts = [[0, 0], [0, 0], [0, 0]]
    for ch in corpus.chorales:
        reps = [ev.representative for ev in ch.events]
        for t, (cur, nxt) in enumerate(zip(reps, reps[1:] + [None])):
            extra = [m for m, _ in ch.events[t].notes[1:]]
            if nxt is not None and abs(nxt - cur) in (3, 4):
                lo, hi = sorted((cur, nxt))
                passing[0] += 1
                passing[1] += any(lo < m < hi for m in extra)
            if nxt == cur:
                auxiliary[0] += 1
                auxiliary[1] += any(m != cur and abs(m - cur) <= 2 for m in extra)
            if t % BEATS_PER_BAR in STRONG_BEAT_POSITIONS:
                appoggiatura[0] += 1
                appoggiatura[1] += bool(extra) and 1 <= cur - extra[0] <= 2
    return OrnamentConfig(*(found / sites if sites else 0.0 for sites, found in counts))


def insert_ornaments(h: Harmonization, cfg: OrnamentConfig) -> Harmonization:
    """A copy of h with ornaments in its alto, tenor and bass lines. Sites
    whose inserted pitch would leave the voice range or break the vertical
    order against neighbouring voices are skipped silently, without a draw.
    An ornament splits its beat into two eighths."""
    rng = random.Random(cfg.rng_seed)
    n = len(h.soprano)
    # one scale per distinct key, one search per distinct (pitch, next, scale)
    scales = list(map(functools.cache(diatonic_pcs), h.annotation.keys))
    passing_tone = functools.cache(_scale_tone_between)
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
            notes = None
            # passing tone filling a third on the way to the next beat
            if nxt is not None and abs(nxt - cur) in (3, 4):
                mid = passing_tone(cur, nxt, scales[t])
                if (mid is not None and floor <= mid <= ceiling
                        and rng.random() < cfg.p_passing):
                    notes = ((cur, half), (mid, half))
            # else an upper neighbour decorating a repeated pitch (auxiliary)
            # or leaning onto a strong beat (appoggiatura)
            strong = t % BEATS_PER_BAR in STRONG_BEAT_POSITIONS
            if notes is None and (nxt == cur or strong):
                neighbor = _upper_scale_tone(cur, scales[t])
                if floor <= neighbor <= ceiling:
                    if nxt == cur and rng.random() < cfg.p_auxiliary:
                        notes = ((cur, half), (neighbor, half))
                    elif strong and rng.random() < cfg.p_appoggiatura:
                        notes = ((neighbor, half), (cur, half))
            if notes is not None:
                line[t] = notes

    alto, tenor, bass = lines
    return replace(h, alto_line=alto, tenor_line=tenor, bass_line=bass)
