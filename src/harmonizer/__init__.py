"""Harmonization engine: key/chord transition models learned from annotated
corpora, two-stage sequence decoding, constraint-based four-part voicing,
probabilistic ornamentation, and MIDI output."""

from .core import (
    BeatEvent,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    all_keys,
    functional_group,
    is_retrogressive,
    transposed_degree,
)
from .corpus import (
    AnnotatedChorale,
    Corpus,
    CorpusError,
    parse_corpus,
    parse_melody_file,
)
from .harmonize import (
    Arrangement,
    Harmonization,
    InfeasibleHarmonizationError,
    chain_arrangements,
    enumerate_arrangements,
    harmonize_melody,
)
from .hmm import (
    HmmModel,
    ModelBundle,
    apply_override,
    decode_key_chord,
    estimate,
    load_bundle,
    posterior_decode,
    save_bundle,
    train_key_chord_models,
    viterbi,
)
from .midiout import export_functional_summary, export_matrices, write_midi
from .ornament import OrnamentConfig, estimate_ornament_rates, insert_ornaments
from .rock import AccompanimentScore, harmonize_rock, render_accompaniment

__version__ = "0.1.0"
