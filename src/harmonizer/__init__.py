"""Harmonization engine: key/chord transition models learned from annotated
corpora, two-stage sequence decoding, constraint-based four-part voicing,
probabilistic ornamentation, and MIDI output."""
