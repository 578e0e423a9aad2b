"""Spans and counters around the public functions of the program's modules,
installed from the benchmark's side without touching the program.

Each public function of the traced modules is replaced by a wrapper at its
module attribute and at every ``harmonizer`` namespace that imported it by
name (``cli`` imports ``harmonize_melody``, ``load_bundle``, ``write_midi``
and others directly). Wrappers pass arguments, results and exceptions
through unchanged. Spans stay in memory; aggregates are taken per phase.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "harmonizer"
TRACED_MODULES = ("corpus", "hmm", "harmonize", "ornament", "rock", "midiout", "cli")


def _ornament_notes(h) -> int:
    return sum(len(beat) for line in (h.alto_line, h.tenor_line, h.bass_line)
               for beat in line)


class Tracer:
    """Wraps the traced functions; ``install``/``uninstall`` swap the
    wrappers in and out so traced and untraced passes share one process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, root]
        self._stack: list[list] = []     # [span index, time covered by children]
        self._patches = []
        self._reset()
        modules = [sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES]
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        hooks = {
            "harmonize.enumerate_arrangements": self._on_enumerate,
            "harmonize.chain_arrangements": self._on_chain,
            "hmm.viterbi": self._on_decode,
            "hmm.posterior_decode": self._on_decode,
            "ornament.insert_ornaments": self._on_ornaments,
            "corpus.parse_corpus": self._on_parse_corpus,
            "midiout.write_midi": self._on_write_midi,
        }
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for ns_attr, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, ns_attr, fn, wrapper))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = set()

    def take(self) -> dict:
        """Aggregates since the last ``take``: self seconds and calls per
        function, counters, and the distinct enumeration inputs."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls),
               "counts": dict(self.counts), "distinct": self.distinct}
        self._reset()
        return out

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            # the root span (one CLI command) identifies the request
            root = stack[0][0] if stack else index
            frame = [index, 0.0]
            stack.append(frame)
            span = [name, perf_counter(), None, parent, root]
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                duration = end - span[1]
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _on_enumerate(self, args, result):
        self.counts["candidates"] += len(result)
        self.distinct.add(tuple(args[:3]))

    def _on_chain(self, args, result):
        self.counts["evaluations"] += sum(len(c) for c in args[0][1:])

    def _on_decode(self, args, result):
        self.counts["decode_cells"] += len(args[1]) * len(args[0].states) ** 2

    def _on_ornaments(self, args, result):
        self.counts["notes_added"] += _ornament_notes(result) - _ornament_notes(args[0])

    def _on_parse_corpus(self, args, result):
        self.counts["records"] += sum(len(ch.events) for ch in result.chorales)

    def _on_write_midi(self, args, result):
        self.counts["midi_bytes"] += Path(result).stat().st_size


SELF_MS = (
    "cli.main", "cli.build_parser", "cli.cmd_harmonize",
    "hmm.load_bundle", "corpus.parse_melody_file", "midiout.write_midi",
    "harmonize.to_score_document", "harmonize.enumerate_arrangements",
    "harmonize.chain_arrangements", "harmonize.score_arrangements",
    "harmonize.voice_progression", "hmm.viterbi", "hmm.posterior_decode",
    "hmm.decode_key_chord", "ornament.insert_ornaments", "rock.harmonize_rock",
    "rock.render_accompaniment", "corpus.parse_corpus",
    "corpus.transpose_to_reference", "hmm.estimate", "hmm.train_key_chord_models",
    "ornament.estimate_ornament_rates", "hmm.save_bundle",
    "midiout.export_matrices", "hmm.apply_override",
)


# Figures fixed by the workload's inputs and the program's output, not by
# its speed: a change in one means different work or different output, so
# they are checked for repeatability and printed, but no direction of
# change counts as better.
INVARIANTS = (
    "harmonize.enumerate_arrangements.distinct_ratio",
    "ornament.insert_ornaments.notes_added",
    "corpus.parse_corpus.records",
    "midiout.write_midi.bytes",
)


def layer_metrics(setup: dict, one_pass: dict) -> dict[str, float]:
    """Per-layer figures, INVARIANTS included, for set-up plus one pass.
    Set-up is the same for every workload and exercises every layer, so no
    figure is empty."""
    def total(part, key):
        return setup[part].get(key, 0) + one_pass[part].get(key, 0)

    out = {f"{name}.self_ms": 1000 * total("self_s", name) for name in SELF_MS}
    enum_calls = total("calls", "harmonize.enumerate_arrangements")
    chain_calls = total("calls", "harmonize.chain_arrangements")
    out.update({
        "harmonize.enumerate_arrangements.calls": enum_calls,
        "harmonize.enumerate_arrangements.candidates": total("counts", "candidates"),
        "harmonize.enumerate_arrangements.distinct_ratio":
            len(setup["distinct"] | one_pass["distinct"]) / enum_calls,
        "harmonize.chain_arrangements.calls": chain_calls,
        "harmonize.chain_arrangements.evaluations": total("counts", "evaluations"),
        "harmonize.chain_win_ratio":
            total("calls", "harmonize.voice_progression") / chain_calls,
        "hmm.decode.cells": total("counts", "decode_cells"),
        "ornament.insert_ornaments.notes_added": total("counts", "notes_added"),
        "corpus.parse_corpus.records": total("counts", "records"),
        "midiout.write_midi.bytes": total("counts", "midi_bytes"),
    })
    return out
