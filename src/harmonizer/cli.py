"""Command-line surface: train, harmonize, analyze, export, override.

Exit codes: 0 success, 2 input error, 3 infeasible harmonization,
4 I/O error. Every command is deterministic given its flags; the only
randomness is the ornament RNG behind --seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .core import MODES, MelodyLine, MusicError
from .corpus import (
    GENRES,
    CorpusError,
    format_progression,
    parse_corpus,
    parse_melody_file,
    parse_rock_melody_file,
    read_json,
)
from .harmonize import (
    InfeasibleHarmonizationError,
    harmonize_melody,
    to_score_document,
)
from .hmm import (
    METHODS,
    DecodeInfeasibleError,
    HmmError,
    ModelBundle,
    apply_override,
    decode_key_chord,
    load_bundle,
    masked_pairs,
    save_bundle,
    train_key_chord_models,
    DEFAULT_ALPHA,
)
from .midiout import export_functional_summary, export_matrices, write_midi
from .ornament import OrnamentConfig, estimate_ornament_rates, insert_ornaments
from .rock import PATTERNS, harmonize_rock

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    """Validated run options, merged from defaults, --config file and flags."""

    method: str = "viterbi"
    ornaments: bool = False
    p_passing: float | None = None
    p_auxiliary: float | None = None
    p_appoggiatura: float | None = None
    rng_seed: int = 0
    tempo_bpm: int | None = None
    pattern: str = "arpeggio"
    drums: bool = True

    def __post_init__(self):
        for name, hint in _RUN_CONFIG_TYPES.items():
            if not _type_ok(getattr(self, name), hint):
                raise MusicError(f"{name} has the wrong type: {getattr(self, name)!r}")
        if self.method not in METHODS:
            raise MusicError(f"unknown method: {self.method!r}")
        if self.pattern not in PATTERNS:
            raise MusicError(f"unknown pattern: {self.pattern!r}")
        if self.tempo_bpm is not None and not 20 <= self.tempo_bpm <= 400:
            raise MusicError(f"tempo out of range: {self.tempo_bpm}")
        # the rates given are checked whether or not ornaments are on
        OrnamentConfig(**{name: value for name, value in vars(self).items()
                          if name.startswith("p_") and value is not None})


_RUN_CONFIG_TYPES = get_type_hints(RunConfig)


def _type_ok(value, hint) -> bool:
    """isinstance against a field annotation; bool never counts as a
    number and an int is accepted where a float is."""
    allowed = get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (isinstance(value, int) and float in allowed)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags win over config-file values, which win over defaults. The
    config file is a JSON object whose keys are RunConfig fields; its
    values are checked as a RunConfig of their own, so an error in one
    names the file even when a flag replaces it."""
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = read_json(config_path)
        if not isinstance(file_values, dict):
            raise MusicError(f"{config_path}: config must be a JSON object")
        unknown = sorted(file_values.keys() - set(_RUN_CONFIG_TYPES))
        if unknown:
            raise MusicError(f"{config_path}: unknown config keys {unknown};"
                             f" accepted: {list(_RUN_CONFIG_TYPES)}")
        try:
            RunConfig(**file_values)
        except MusicError as exc:
            raise MusicError(f"{config_path}: {exc}")
    flags = {name: value for name, value in vars(args).items()
             if name in _RUN_CONFIG_TYPES and value is not None}
    return RunConfig(**(file_values | flags))


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {text!r}")
    return text == "on"


def _smoothing_alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}")
    return value


def cmd_train(args) -> int:
    started = time.perf_counter()
    corpus = parse_corpus(args.corpus, args.genre)
    if args.genre == "chorale":
        corpus = corpus.select_mode(args.mode)
        if not corpus.chorales:
            raise CorpusError(f"no {args.mode}-mode chorales in {args.corpus}")
    bundle = train_key_chord_models(corpus, alpha=args.alpha,
                                    mask_enabled=False if args.no_mask else None)
    if args.genre == "chorale":
        bundle.ornament_rates = estimate_ornament_rates(corpus).as_dict()
    save_bundle(bundle, args.out)
    elapsed = time.perf_counter() - started
    print(f"trained on {len(corpus.chorales)} pieces:"
          f" {len(bundle.key_model.states)} key states,"
          f" {len(bundle.chord_model.states)} chord states")
    print(f"model written to {args.out}")
    print(f"training time: {elapsed:.3f}s")
    return EXIT_OK


def _ornament_config(cfg: RunConfig, bundle: ModelBundle) -> OrnamentConfig:
    """Rate flags win over the model's trained rates, which win over the
    defaults; the model's rates are checked to be OrnamentConfig fields
    when it loads."""
    rates = dict(bundle.ornament_rates or {})
    rates.update((name, value) for name, value in vars(cfg).items()
                 if name.startswith("p_") and value is not None)
    return OrnamentConfig(**rates, rng_seed=cfg.rng_seed)


def _warn_masked_transitions(chord_model, chords) -> None:
    """One warning line per decoded chord pair that crosses a masked
    transition; posterior decoding can produce them."""
    for t, a, b in masked_pairs(chord_model, chords):
        print(f"# warning: masked transition {a} -> {b} at beat {t}")


def _read_melody(bundle: ModelBundle, path: str) -> MelodyLine:
    """The melody file, read with the reader of the model's genre."""
    parse = parse_rock_melody_file if bundle.genre == "rock" else parse_melody_file
    return parse(path)


def cmd_harmonize(args) -> int:
    cfg = _merge_config(args)
    bundle = load_bundle(args.model)
    started = time.perf_counter()
    melody = _read_melody(bundle, args.melody)
    if bundle.genre == "rock":
        annotation, score = harmonize_rock(bundle.key_model, bundle.chord_model,
                                           melody, cfg.method, cfg.pattern, cfg.drums)
        report = [f"harmonized {len(annotation)} measures"]
        score_text = functools.partial(format_progression, annotation, "rock",
                                       (("id", "rock-harmonization"),))
    else:
        score = harmonize_melody(bundle.key_model, bundle.chord_model, melody, cfg.method)
        if cfg.ornaments:
            score = insert_ornaments(score, _ornament_config(cfg, bundle))
        annotation = score.annotation
        report = [f"penalty: {score.penalty}"]
        report += [f"  beat {v.beat_index}: {v.rule} (weight {v.weight})"
                   for v in score.violation_log] or ["  no violations"]
        score_text = functools.partial(to_score_document, score,
                                       title=Path(args.melody).stem)
    if args.out_midi:
        write_midi(score, args.out_midi, tempo_bpm=cfg.tempo_bpm)
    if args.out_score:
        Path(args.out_score).write_text(score_text())
    elapsed = time.perf_counter() - started
    print("\n".join(report))
    _warn_masked_transitions(bundle.chord_model, annotation.chords)
    print(f"harmonization time: {elapsed:.3f}s")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _merge_config(args)
    bundle = load_bundle(args.model)
    annotation = decode_key_chord(bundle.key_model, bundle.chord_model,
                                  _read_melody(bundle, args.melody), cfg.method)
    print(format_progression(annotation, bundle.genre), end="")
    _warn_masked_transitions(bundle.chord_model, annotation.chords)
    return EXIT_OK


def cmd_export(args) -> int:
    bundle = load_bundle(args.model)
    out_dir = Path(args.out_dir)
    paths = export_matrices(bundle.key_model, out_dir, prefix="key_")
    paths += export_matrices(bundle.chord_model, out_dir, prefix="chord_")
    if bundle.chord_counts:
        paths.append(export_functional_summary(
            bundle.chord_model, bundle.chord_counts,
            out_dir / "functional_summary.csv"))
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_override(args) -> int:
    bundle = load_bundle(args.model)
    if args.layer == "key":
        bundle.key_model = apply_override(bundle.key_model, args.transitions)
    else:
        bundle.chord_model = apply_override(bundle.chord_model, args.transitions)
    save_bundle(bundle, args.out)
    print(f"override applied to {args.layer} layer; model written to {args.out}")
    return EXIT_OK


@functools.cache
def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonizer",
        description="Train key/chord transition models and harmonize melodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="estimate models from an annotated corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--genre", choices=GENRES, default="chorale")
    p.add_argument("--mode", choices=MODES, default="major")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--alpha", type=_smoothing_alpha, default=DEFAULT_ALPHA,
                   help="smoothing strength")
    p.add_argument("--no-mask", action="store_true",
                   help="disable the retrogression mask")

    p = sub.add_parser("harmonize", help="harmonize a melody file")
    p.add_argument("--model", required=True)
    p.add_argument("--melody", required=True)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--ornaments", type=_on_off, default=None, metavar="on|off")
    p.add_argument("--p-passing", dest="p_passing", type=float, default=None)
    p.add_argument("--p-auxiliary", dest="p_auxiliary", type=float, default=None)
    p.add_argument("--p-appoggiatura", dest="p_appoggiatura", type=float, default=None)
    p.add_argument("--seed", dest="rng_seed", type=int, default=None)
    p.add_argument("--tempo", dest="tempo_bpm", type=int, default=None)
    p.add_argument("--pattern", choices=PATTERNS, default=None)
    p.add_argument("--drums", type=_on_off, default=None, metavar="on|off")
    p.add_argument("--out-midi", default=None)
    p.add_argument("--out-score", default=None)
    p.add_argument("--config", default=None,
                   help="JSON object of run options (see README); flags win")

    p = sub.add_parser("analyze", help="print the decoded key/chord progression")
    p.add_argument("--model", required=True)
    p.add_argument("--melody", required=True)
    p.add_argument("--method", choices=METHODS, default=None)

    p = sub.add_parser("export", help="export transition/emission matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("override", help="replace a transition matrix from CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--transitions", required=True, help="labeled CSV matrix")
    p.add_argument("--layer", choices=("key", "chord"), required=True)
    p.add_argument("--out", required=True)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared by
    every later one, so callers must not change it. It names the command
    but holds no command function: ``main`` picks that when it is called,
    so a function replaced on this module takes effect."""
    return _new_parser()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "harmonize": cmd_harmonize,
                "analyze": cmd_analyze, "export": cmd_export,
                "override": cmd_override}
    try:
        return commands[args.command](args)
    except (InfeasibleHarmonizationError, DecodeInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CorpusError, MusicError, HmmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
