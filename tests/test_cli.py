import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer import cli
from harmonizer.cli import main
from harmonizer.corpus import _format_note_list
from harmonizer.harmonize import Violation

from oracles import _format_records
from smf_reader import read_midi
from test_harmonize import _concatenated


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("models") / "major.json"
    code = main(["train", "--corpus", str(data_dir / "chorales"),
                 "--genre", "chorale", "--mode", "major", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_rock_model(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("models") / "rock.json"
    code = main(["train", "--corpus", str(data_dir / "rock"),
                 "--genre", "rock", "--out", str(out)])
    assert code == 0
    return out


def test_train_reports_sizes(capsys, tmp_path, data_dir):
    out = tmp_path / "m.json"
    code = main(["train", "--corpus", str(data_dir / "chorales"),
                 "--mode", "major", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "24 key states" in captured
    assert "17 chord states" in captured
    assert "training time" in captured


def test_train_empty_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["train", "--corpus", str(empty), "--out",
                 str(tmp_path / "x.json")])
    assert code == 2


def test_train_is_byte_deterministic(tmp_path, data_dir):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["train", "--corpus", str(data_dir / "chorales"),
                     "--mode", "major", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_harmonize_same_seed_same_outputs(tmp_path, trained_model, data_dir):
    melody = data_dir / "melodies" / "m06.txt"
    outputs = []
    for tag in ("one", "two"):
        midi = tmp_path / f"{tag}.mid"
        score = tmp_path / f"{tag}.score"
        code = main(["harmonize", "--model", str(trained_model),
                     "--melody", str(melody), "--ornaments", "on",
                     "--seed", "11", "--out-midi", str(midi),
                     "--out-score", str(score)])
        assert code == 0
        outputs.append((midi.read_bytes(), score.read_bytes()))
    assert outputs[0] == outputs[1]


def test_ornaments_off_equals_zero_rates(tmp_path, trained_model, data_dir):
    melody = data_dir / "melodies" / "m01.txt"
    off = tmp_path / "off.mid"
    zeroed = tmp_path / "zero.mid"
    assert main(["harmonize", "--model", str(trained_model), "--melody",
                 str(melody), "--ornaments", "off",
                 "--out-midi", str(off)]) == 0
    assert main(["harmonize", "--model", str(trained_model), "--melody",
                 str(melody), "--ornaments", "on", "--p-passing", "0",
                 "--p-auxiliary", "0", "--p-appoggiatura", "0",
                 "--out-midi", str(zeroed)]) == 0
    assert off.read_bytes() == zeroed.read_bytes()


def test_harmonize_prints_penalty(capsys, tmp_path, trained_model, data_dir):
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m03.txt")])
    captured = capsys.readouterr().out
    assert code == 0
    assert "penalty:" in captured
    assert "harmonization time" in captured


def test_harmonize_prints_large_penalties_exactly(capsys, monkeypatch,
                                                  trained_model, data_dir):
    # the score file writes the int penalty and weights in full; so does stdout
    real = cli.harmonize_melody

    def heavy(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), violation_log=[
            Violation(0, "parallel fifths", 1000000),
            Violation(1, "voice overlap", 234567)])

    monkeypatch.setattr(cli, "harmonize_melody", heavy)
    assert main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m03.txt")]) == 0
    out = capsys.readouterr().out
    assert "penalty: 1234567\n" in out
    assert "  beat 0: parallel fifths (weight 1000000)\n" in out
    assert "  beat 1: voice overlap (weight 234567)\n" in out


def test_analyze_matches_harmonize_annotation(capsys, tmp_path, trained_model,
                                              data_dir):
    melody = data_dir / "melodies" / "m02.txt"
    score_path = tmp_path / "h.score"
    assert main(["harmonize", "--model", str(trained_model), "--melody",
                 str(melody), "--method", "viterbi",
                 "--out-score", str(score_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--model", str(trained_model), "--melody",
                 str(melody), "--method", "viterbi"]) == 0
    analyzed = capsys.readouterr().out.strip().splitlines()
    analyzed = [l for l in analyzed if not l.startswith("#")]
    score_lines = [l for l in score_path.read_text().splitlines() if " | " in l]
    assert len(analyzed) == len(score_lines)
    for printed, scored in zip(analyzed, score_lines):
        fields = dict(part.split("=", 1) for part in printed.split(" | ")[1:])
        assert f"key={fields['key']}" in scored
        assert f"roman={fields['roman']}" in scored


@pytest.mark.parametrize("genre", ["chorale", "rock"])
def test_analyze_decodes_with_viterbi_by_default(capsys, tmp_path, trained_model,
                                                 trained_rock_model, data_dir, genre):
    model, melody = trained_model, data_dir / "melodies" / "m01.txt"
    if genre == "rock":
        model, melody = trained_rock_model, tmp_path / "tune.txt"
        melody.write_text("".join(f"{i} | melody_degree_pc={pc}\n"
                                  for i, pc in enumerate([0, 4, 7, 5, 9, 0, 7, 0])))
    printed = []
    for extra in ([], ["--method", "viterbi"]):
        assert main(["analyze", "--model", str(model), "--melody", str(melody),
                     *extra]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_config_file_with_flag_precedence(tmp_path, trained_model, data_dir):
    melody = data_dir / "melodies" / "m04.txt"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ornaments": True, "rng_seed": 5,
                                  "p_passing": 1.0, "p_auxiliary": 0.0,
                                  "p_appoggiatura": 0.0}))
    from_config = tmp_path / "cfg.mid"
    assert main(["harmonize", "--model", str(trained_model), "--melody",
                 str(melody), "--config", str(config),
                 "--out-midi", str(from_config)]) == 0
    overridden = tmp_path / "flag.mid"
    assert main(["harmonize", "--model", str(trained_model), "--melody",
                 str(melody), "--config", str(config), "--p-passing", "0",
                 "--out-midi", str(overridden)]) == 0
    assert from_config.read_bytes() != overridden.read_bytes()


def test_rock_harmonize_writes_tracks(tmp_path, trained_rock_model):
    melody = tmp_path / "tune.txt"
    melody.write_text("id: tune\n" + "\n".join(
        f"{i} | melody_degree_pc={pc}"
        for i, pc in enumerate([0, 4, 7, 5, 9, 0, 7, 0])) + "\n")
    midi = tmp_path / "tune.mid"
    score = tmp_path / "tune.prog"
    code = main(["harmonize", "--model", str(trained_rock_model),
                 "--melody", str(melody), "--pattern", "block",
                 "--out-midi", str(midi), "--out-score", str(score)])
    assert code == 0
    parsed = read_midi(midi)
    assert len(parsed.tracks) == 5
    assert "key_pc=" in score.read_text()


@pytest.mark.parametrize("genre,flags,named", [
    ("rock", ["--ornaments", "on"], "--ornaments on"),
    ("rock", ["--p-passing", "1"], "--p-passing"),
    ("rock", ["--p-auxiliary", "0"], "--p-auxiliary"),
    ("rock", ["--p-appoggiatura", "0.5"], "--p-appoggiatura"),
    ("rock", ["--seed", "3"], "--seed"),
    ("rock", ["--ornaments", "on", "--p-passing", "1"], "--ornaments on"),
    ("chorale", ["--pattern", "arpeggio"], "--pattern"),
    ("chorale", ["--drums", "on"], "--drums"),
    ("chorale", ["--drums", "off"], "--drums"),
])
def test_flag_the_genre_never_reads_exits_2(capsys, tmp_path, trained_model,
                                            trained_rock_model, data_dir,
                                            genre, flags, named):
    if genre == "rock":
        model, melody = trained_rock_model, tmp_path / "tune.txt"
        melody.write_text("id: tune\n0 | melody_degree_pc=0\n")
    else:
        model, melody = trained_model, data_dir / "melodies" / "m01.txt"
    out = tmp_path / "unread.mid"
    code = main(["harmonize", "--model", str(model), "--melody", str(melody),
                 *flags, "--out-midi", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {named} is not read by a {genre} model\n"
    assert not out.exists()


def test_config_values_the_genre_never_reads_are_accepted(
        tmp_path, trained_model, trained_rock_model, data_dir):
    # one config file may serve both genres; `--ornaments off` is what a
    # rock model does anyway
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ornaments": True, "p_passing": 1.0,
                                  "rng_seed": 3, "pattern": "block",
                                  "drums": False}))
    tune = tmp_path / "tune.txt"
    tune.write_text("id: tune\n0 | melody_degree_pc=0\n1 | melody_degree_pc=7\n")
    for model, melody, extra in (
            (trained_rock_model, tune, ["--ornaments", "off"]),
            (trained_model, data_dir / "melodies" / "m01.txt", [])):
        assert main(["harmonize", "--model", str(model), "--melody", str(melody),
                     "--config", str(config), *extra,
                     "--out-midi", str(tmp_path / "ok.mid")]) == 0


def test_export_and_identity_override_decode_identical(capsys, tmp_path,
                                                       trained_model, data_dir):
    out_dir = tmp_path / "matrices"
    assert main(["export", "--model", str(trained_model),
                 "--out-dir", str(out_dir)]) == 0
    exported = sorted(p.name for p in out_dir.iterdir())
    assert exported == ["chord_emission.csv", "chord_transition.csv",
                        "functional_summary.csv", "key_emission.csv",
                        "key_transition.csv"]
    override_model = tmp_path / "override.json"
    assert main(["override", "--model", str(trained_model),
                 "--transitions", str(out_dir / "chord_transition.csv"),
                 "--layer", "chord", "--out", str(override_model)]) == 0
    melody = data_dir / "melodies" / "m05.txt"
    capsys.readouterr()
    assert main(["analyze", "--model", str(trained_model),
                 "--melody", str(melody)]) == 0
    before = capsys.readouterr().out
    assert main(["analyze", "--model", str(override_model),
                 "--melody", str(melody)]) == 0
    after = capsys.readouterr().out
    assert before == after


def test_respelled_count_key_reads_as_its_state(capsys, tmp_path, trained_model,
                                                data_dir):
    # a hand-edited model whose states and count keys are spelled with the
    # figure alias wherever one exists: I6 as I63, V42 as V2, and so on
    doc = json.loads(trained_model.read_text())
    states = doc["chord_model"]["states"]
    counts = doc["chord_counts"]
    for text, alias in (("I6", "I63"), ("IV6", "IV63"), ("V6", "V63"),
                        ("ii6", "ii63"), ("viio6", "viio63"), ("V42", "V2")):
        states[states.index(text)] = alias
        counts[alias] = counts.pop(text)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    melody = data_dir / "melodies" / "m02.txt"
    for method in ("viterbi", "posterior"):
        runs = []
        for model in (trained_model, edited):
            midi, score = tmp_path / "out.mid", tmp_path / "out.score"
            assert main(["harmonize", "--model", str(model), "--melody",
                         str(melody), "--method", method, "--out-midi",
                         str(midi), "--out-score", str(score)]) == 0
            stdout = [line for line in capsys.readouterr().out.splitlines()
                      if not line.startswith("harmonization time:")]
            runs.append((stdout, midi.read_bytes(), score.read_bytes()))
        assert runs[0] == runs[1]
        assert b"roman=I6" in runs[0][2] and b"roman=V6" in runs[0][2]
    for model, out_dir in ((trained_model, "plain"), (edited, "edited")):
        assert main(["export", "--model", str(model),
                     "--out-dir", str(tmp_path / out_dir)]) == 0
    exported = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "edited").iterdir()) == exported
    for name in exported:
        assert ((tmp_path / "edited" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name
    overridden = tmp_path / "overridden.json"
    assert main(["override", "--model", str(edited), "--transitions",
                 str(tmp_path / "plain" / "chord_transition.csv"),
                 "--layer", "chord", "--out", str(overridden)]) == 0
    saved = json.loads(overridden.read_text())
    assert "I6" in saved["chord_model"]["states"]
    assert saved["chord_counts"] == json.loads(trained_model.read_text())["chord_counts"]


def test_override_dimension_mismatch_exits_2(capsys, tmp_path, trained_model):
    out_dir = tmp_path / "m"
    assert main(["export", "--model", str(trained_model),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    csv_path = out_dir / "chord_transition.csv"
    code = main(["override", "--model", str(trained_model),
                 "--transitions", str(csv_path),
                 "--layer", "key", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert f"{csv_path}: override labels do not match" in capsys.readouterr().err


def test_override_with_blank_row_exits_2(capsys, tmp_path, trained_model):
    out_dir = tmp_path / "m"
    assert main(["export", "--model", str(trained_model),
                 "--out-dir", str(out_dir)]) == 0
    csv_path = out_dir / "chord_transition.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
    capsys.readouterr()
    code = main(["override", "--model", str(trained_model),
                 "--transitions", str(csv_path), "--layer", "chord",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{csv_path}: line 4: blank row" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_override_with_overlong_field_exits_2(capsys, tmp_path, trained_model):
    # the csv module refuses a field longer than its limit, 131,072 characters
    csv_path = tmp_path / "long.csv"
    csv_path.write_text("," + "1" * 200_000 + "\n")
    code = main(["override", "--model", str(trained_model),
                 "--transitions", str(csv_path), "--layer", "chord",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: not a CSV matrix: field larger")
    assert not (tmp_path / "x.json").exists()


def test_harmonize_missing_model_exits_4(tmp_path, data_dir):
    code = main(["harmonize", "--model", str(tmp_path / "nope.json"),
                 "--melody", str(data_dir / "melodies" / "m01.txt")])
    assert code == 4


def test_bad_melody_exits_2(tmp_path, trained_model):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 | notes=72:0.7\n")
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(bad)])
    assert code == 2


def test_infeasible_melody_exits_3(capsys, tmp_path, trained_model):
    # beat 1 sits below the alto range, so no arrangement can be voiced
    low = tmp_path / "low.txt"
    low.write_text("0 | notes=72:1\n1 | notes=45:1\n2 | notes=72:1\n")
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(low)])
    assert code == 3
    assert "beat 1" in capsys.readouterr().err


def test_invalid_run_config_exits_2(capsys, trained_model, data_dir):
    # the voicing seeds from every first-beat arrangement; there is no cap
    with pytest.raises(SystemExit) as exc:
        main(["harmonize", "--model", str(trained_model),
              "--melody", str(data_dir / "melodies" / "m01.txt"),
              "--max-seeds", "1"])
    assert exc.value.code == 2
    assert "--max-seeds" in capsys.readouterr().err


@pytest.mark.parametrize("document,message", [
    ({"tempo_bpm": "3"}, "tempo_bpm has the wrong type: '3'"),
    ({"tempo_bpm": True}, "tempo_bpm has the wrong type: True"),  # not an int
    ({"rng_seed": 1.5}, "rng_seed has the wrong type: 1.5"),
    ({"ornaments": "on"}, "ornaments has the wrong type: 'on'"),
    ({"p_passing": "0.5"}, "p_passing has the wrong type: '0.5'"),
    ({"method": 1}, "method has the wrong type: 1"),
    ({"seed": 5}, "unknown config keys ['seed']"),    # the flag name
    ({"genre": "rock"}, "unknown config keys ['genre']"),  # not a run option
    ({"max_seeds": 1}, "unknown config keys ['max_seeds']"),  # removed
    ([{"rng_seed": 5}], "config must be a JSON object"),
    ("viterbi", "config must be a JSON object"),
], ids=["tempo_bpm-str", "tempo_bpm-bool", "rng_seed-float", "ornaments-str",
        "p_passing-str", "method-int", "unknown-seed", "unknown-genre",
        "unknown-max_seeds", "list", "string"])
def test_invalid_config_file_exits_2(capsys, tmp_path, trained_model, data_dir,
                                     document, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m01.txt"),
                 "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: {message}")


@pytest.mark.parametrize("document,flag", [
    ({"tempo_bpm": "120"}, ["--tempo", "120"]),
    ({"method": "foo"}, ["--method", "viterbi"]),
    ({"pattern": "x"}, ["--pattern", "block"]),
    ({"tempo_bpm": 10}, ["--tempo", "120"]),
    ({"p_passing": 5}, ["--p-passing", "0.5"]),
    ({"p_auxiliary": -0.5}, ["--p-auxiliary", "0.5"]),
    ({"p_appoggiatura": 1.5}, ["--p-appoggiatura", "0.5"]),
], ids=["type", "method", "pattern", "tempo", "p_passing", "p_auxiliary",
        "p_appoggiatura"])
@pytest.mark.parametrize("replaced", [False, True], ids=["alone", "flag-given"])
def test_bad_config_value_exits_2_naming_the_file(
        capsys, tmp_path, trained_model, data_dir, document, flag, replaced):
    # a file is checked whole, as its unknown keys are, whatever the flags say
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "m.mid"
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m01.txt"),
                 "--config", str(config), *(flag if replaced else []),
                 "--out-midi", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: ")
    assert not out.exists()


@pytest.mark.parametrize("extra,message", [
    (["--p-passing", "5"], "p_passing must be in [0, 1]: 5.0"),
    (["--p-auxiliary", "-0.5"], "p_auxiliary must be in [0, 1]: -0.5"),
    (["--p-appoggiatura", "nan"], "p_appoggiatura must be in [0, 1]: nan"),
    ({"p_passing": 5}, "p_passing must be in [0, 1]: 5"),
    ({"p_appoggiatura": 1.5}, "p_appoggiatura must be in [0, 1]: 1.5"),
], ids=["flag-above", "flag-negative", "flag-nan", "config-above",
        "config-above-float"])
def test_ornament_rate_out_of_range_exits_2_with_ornaments_off(
        capsys, tmp_path, trained_model, data_dir, extra, message):
    if isinstance(extra, dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(extra))
        extra = ["--config", str(config)]
        message = f"{config}: {message}"
    code = main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m01.txt"), *extra])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_accepts_int_probability(tmp_path, trained_model, data_dir):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ornaments": True, "p_passing": 1,
                                  "p_auxiliary": 0, "p_appoggiatura": 0.0}))
    assert main(["harmonize", "--model", str(trained_model),
                 "--melody", str(data_dir / "melodies" / "m04.txt"),
                 "--config", str(config)]) == 0


@pytest.mark.parametrize("damage", ["drop-emission", "format-only"])
def test_model_missing_field_exits_2(capsys, tmp_path, trained_model, data_dir,
                                     damage):
    doc = json.loads(trained_model.read_text())
    if damage == "drop-emission":
        del doc["chord_model"]["emission"]
    else:
        doc = {"format": "key-chord-models"}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["harmonize", "--model", str(broken),
                 "--melody", str(data_dir / "melodies" / "m01.txt")])
    assert code == 2
    assert "lacks field" in capsys.readouterr().err

def _cut_last_row(layer, name):
    def damage(doc):
        del doc[layer][name][-1]
    return damage


def _set_cell(layer, name, row, col, value):
    def damage(doc):
        doc[layer][name][row][col] = value
    return damage


def _ragged_row(doc):
    del doc["chord_model"]["transition"][0][-1]


def _drop_last_column(doc):
    for row in doc["chord_model"]["emission"]:
        del row[-1]


def _negative_cell(doc):
    row = doc["chord_model"]["transition"][0]
    row[1] += row[0] + 0.5
    row[0] = -0.5


def _set_state(layer, label, index=0):
    def damage(doc):
        doc[layer]["states"][index] = label
    return damage


def _duplicate_state(doc):
    states = doc["key_model"]["states"]
    states[1] = states[0]


def _set_observations(layer, labels):
    def damage(doc):
        doc[layer]["observations"] = labels
    return damage


def _set_count(label, count=1):
    def damage(doc):
        doc["chord_counts"][label] = count
    return damage


@pytest.mark.parametrize("damage,field", [
    (lambda doc: doc.update(key_model=None), "key_model is not an object"),
    (lambda doc: doc.update(chord_model=[1, 2]), "chord_model is not an object"),
    (_cut_last_row("chord_model", "transition"), "chord_model.transition"),
    (_ragged_row, "chord_model.transition"),
    (_drop_last_column, "chord_model.emission"),
    (_cut_last_row("key_model", "initial"), "key_model.initial"),
    (_cut_last_row("key_model", "states"), "key_model.transition"),
    (_set_cell("chord_model", "transition", 2, 3, float("nan")),
     "chord_model.transition"),
    (_set_cell("key_model", "emission", 0, 0, float("inf")),
     "key_model.emission"),
    (_negative_cell, "chord_model.transition"),
    (_set_cell("key_model", "emission", 4, 0, 0.5), "key_model.emission"),
    (_set_cell("chord_model", "transition", 0, 0, "x"),
     "chord_model.transition"),
    (_cut_last_row("chord_model", "mask"), "chord_model.mask"),
    (_duplicate_state, "key_model.states"),
    (_set_state("chord_model", " I", 1), "chord_model.states has duplicate"),
    (_set_state("chord_model", "I63", 2), "chord_model.states has duplicate"),
    (lambda doc: doc["chord_model"].update(states=[]), "chord_model.states"),
    (lambda doc: doc["key_model"].update(smoothing_alpha=None),
     "key_model.smoothing_alpha"),
    (lambda doc: doc["key_model"].update(smoothing_alpha=float("nan")),
     "key_model.smoothing_alpha must be finite and non-negative: nan"),
    (lambda doc: doc["chord_model"].update(smoothing_alpha=float("inf")),
     "chord_model.smoothing_alpha must be finite and non-negative: inf"),
    (lambda doc: doc["key_model"].update(smoothing_alpha=-5),
     "key_model.smoothing_alpha must be finite and non-negative: -5"),
    (lambda doc: doc.update(chord_counts=5), "chord_counts"),
    (_set_count("X"), "chord_counts: unparseable Roman numeral: 'X'"),
    (_set_count("I63"), "chord_counts has duplicate labels"),
    (_set_count("bVII"), "chord_counts label 'bVII' is not a chord state"),
    (lambda doc: doc.update(ornament_rates=5), "ornament_rates"),
    (lambda doc: doc.update(ornament_rates={"p_passing": "x"}), "ornament_rates"),
    (lambda doc: doc.update(ornament_rates={"p_pasing": 1.0}),
     "ornament_rates has unknown key 'p_pasing'"),
    (lambda doc: doc.update(version=2), "version is not 1: 2"),
    (lambda doc: doc.update(version="one"), "version is not 1: 'one'"),
    (lambda doc: doc.update(version=None), "version is not 1: None"),
    (lambda doc: doc.update(version=True), "version is not 1: True"),
    (lambda doc: doc.update(version=1.0), "version is not 1: 1.0"),
    (lambda doc: doc.pop("version"), "lacks field 'version'"),
    (lambda doc: doc.update(genre=5), "genre"),
    (lambda doc: doc.update(mode="dorian"), "mode"),
    (_set_state("key_model", ""), "key_model.states"),
    (_set_state("key_model", 5), "key_model.states"),
    (_set_state("chord_model", "X"), "chord_model.states"),
    # observations other than the ints 0-11, which the decode looks up
    (_set_observations("key_model", [str(pc) for pc in range(12)]),
     "key_model.observations is not the pitch classes 0-11 in order"),
    (_set_observations("chord_model", list(range(11))), "chord_model.observations"),
    (_set_observations("chord_model", list(range(1, 13))), "chord_model.observations"),
    (_set_observations("chord_model", [float(pc) for pc in range(12)]),
     "chord_model.observations"),
    # mask cells other than 0, 1, false and true
    (_set_cell("chord_model", "mask", 0, 1, "x"),
     "chord_model.mask has a cell that is not 0, 1, false or true"),
    (_set_cell("chord_model", "mask", 0, 1, 0.5), "chord_model.mask has a cell"),
    (_set_cell("chord_model", "mask", 0, 1, 2), "chord_model.mask has a cell"),
    (_set_cell("chord_model", "mask", 0, 1, None), "chord_model.mask has a cell"),
    # integers too large for a float
    (_set_cell("chord_model", "transition", 2, 3, 10 ** 400),
     "chord_model.transition has a cell too large for a float"),
    (lambda doc: doc["key_model"].update(smoothing_alpha=10 ** 400),
     "key_model.smoothing_alpha must be finite and non-negative: 1000"),
    (_set_count("I", 10 ** 400),
     "chord_counts is not an object of non-negative 64-bit integer counts"),
], ids=["key-layer-null", "chord-layer-list", "transition-row-cut",
        "transition-ragged", "emission-column-cut", "initial-short",
        "states-short", "transition-nan", "emission-inf", "transition-negative",
        "emission-row-sum", "transition-string-cell", "mask-row-cut",
        "duplicate-state", "respelled-I", "respelled-I6", "no-states",
        "alpha-null", "alpha-nan", "alpha-infinity", "alpha-negative",
        "chord-counts-int", "chord-count-not-roman",
        "chord-count-respelled-I6", "chord-count-not-a-state",
        "ornament-rates-int", "ornament-rate-str", "ornament-rate-misspelt",
        "version-2", "version-str", "version-null", "version-true",
        "version-float", "version-missing", "genre-int", "mode-unknown",
        "key-state-empty", "key-state-int", "chord-state-not-roman",
        "observations-text", "observations-short", "observations-shifted",
        "observations-float", "mask-text", "mask-half", "mask-two", "mask-null",
        "transition-huge-int", "alpha-huge-int", "chord-count-huge-int"])
def test_malformed_model_exits_2(capsys, tmp_path, trained_model, data_dir,
                                 damage, field):
    doc = json.loads(trained_model.read_text())
    damage(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["harmonize", "--model", str(broken),
                 "--melody", str(data_dir / "melodies" / "m01.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and field in err


def _reader_inputs(tmp_path, trained_model, trained_rock_model, data_dir):
    """A good input for each of the six file readers, as (path, argv)."""
    melody = data_dir / "melodies" / "m01.txt"
    config = tmp_path / "run.json"
    config.write_text('{"method": "viterbi"}')
    rock_melody = tmp_path / "tune.txt"
    rock_melody.write_text("0 | melody_degree_pc=0\n1 | melody_degree_pc=7\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    chorale = corpus / "a.txt"
    chorale.write_bytes((data_dir / "chorales" / "fixture-01.txt").read_bytes())
    (corpus / "b.txt").write_text("id: b\n0 | notes=72:1 | key=C | roman=I\n")
    main(["export", "--model", str(trained_model),
          "--out-dir", str(tmp_path / "reports")])
    csv = tmp_path / "reports" / "chord_transition.csv"

    def harmonize(model=trained_model, melody=melody, config=config):
        return ["harmonize", "--model", str(model), "--melody", str(melody),
                "--config", str(config)]
    return {
        "melody": (melody, lambda bad: harmonize(melody=bad)),
        "config": (config, lambda bad: harmonize(config=bad)),
        "model": (trained_model, lambda bad: harmonize(model=bad)),
        "rock-melody": (rock_melody, lambda bad: harmonize(
            model=trained_rock_model, melody=bad)),
        "corpus": (chorale, lambda bad: ["train", "--corpus", str(bad.parent),
                                         "--out", str(tmp_path / "m.json")]),
        "override": (csv, lambda bad: ["override", "--model", str(trained_model),
                                       "--transitions", str(bad), "--layer",
                                       "chord", "--out", str(tmp_path / "o.json")]),
    }


@pytest.mark.parametrize("target,damage", [
    ("melody", "utf-8"), ("config", "utf-8"), ("model", "utf-8"),
    ("rock-melody", "utf-8"), ("corpus", "utf-8"), ("override", "utf-8"),
    ("model", "json"), ("config", "json"),
], ids=["melody", "config", "model", "rock-melody", "corpus", "override",
        "model-json", "config-json"])
def test_undecodable_text_file_exits_2(capsys, tmp_path, trained_model,
                                       trained_rock_model, data_dir, target,
                                       damage):
    good, argv = _reader_inputs(tmp_path, trained_model, trained_rock_model,
                                data_dir)[target]
    capsys.readouterr()
    # a bad corpus file sits beside the others; every other one stands alone
    bad = (good.parent if target == "corpus" else tmp_path) / f"bad-{good.name}"
    if damage == "utf-8":
        bad.write_bytes(b"\xff\xfe" + good.read_bytes())
    else:
        bad.write_bytes(good.read_bytes()[:-2])
    if target == "corpus":
        good.unlink()
    code = main(argv(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: " in err
    assert ("not UTF-8 text" if damage == "utf-8" else "not valid JSON") in err
    if target == "corpus":   # reported beside the other corpus problems
        assert f"{bad.parent / 'b.txt'}: missing or invalid mode" in err


def test_inputs_with_a_byte_order_mark_read_as_without_one(tmp_path, trained_model,
                                                           trained_rock_model,
                                                           data_dir):
    def marked(path, directory=tmp_path / "marked"):
        """A copy of the file under the same name, a UTF-8 BOM before it."""
        directory.mkdir(exist_ok=True)
        copy = directory / path.name
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def harmonize(tag, *inputs):
        model, melody, config = map(str, inputs)
        midi, score = tmp_path / f"{tag}.mid", tmp_path / f"{tag}.txt"
        assert main(["harmonize", "--model", model, "--melody", melody,
                     "--config", config, "--out-midi", str(midi),
                     "--out-score", str(score)]) == 0
        return midi.read_bytes(), score.read_bytes()

    config = tmp_path / "run.json"
    config.write_text('{"method": "posterior", "ornaments": true, "rng_seed": 7}')
    rock_config = tmp_path / "rock-run.json"
    rock_config.write_text('{"method": "posterior"}')
    melody = data_dir / "melodies" / "m01.txt"
    tune = tmp_path / "tune.txt"
    tune.write_text("0 | melody_degree_pc=0\n1 | melody_degree_pc=7\n")
    for inputs in [(trained_model, melody, config),
                   (trained_rock_model, tune, rock_config)]:
        assert harmonize("plain", *inputs) == harmonize("marked", *map(marked, inputs))
    # a corpus whose files open with the mode header trains the same model
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in sorted((data_dir / "chorales").iterdir()):
        lines = path.read_text().splitlines(keepends=True)
        (corpus / path.name).write_text("".join([lines[1], lines[0], *lines[2:]]))
        assert lines[1].startswith("mode: ")
        marked(corpus / path.name, tmp_path / "marked-corpus")
    retrained = tmp_path / "retrained.json"
    assert main(["train", "--corpus", str(tmp_path / "marked-corpus"), "--mode", "major",
                 "--out", str(retrained)]) == 0
    assert retrained.read_bytes() == trained_model.read_bytes()
    assert main(["export", "--model", str(trained_model),
                 "--out-dir", str(tmp_path / "reports")]) == 0
    csv = tmp_path / "reports" / "chord_transition.csv"
    overridden = []
    for transitions in (csv, marked(csv)):
        out = tmp_path / f"override-{len(overridden)}.json"
        assert main(["override", "--model", str(trained_model), "--transitions",
                     str(transitions), "--layer", "chord", "--out", str(out)]) == 0
        overridden.append(out.read_bytes())
    assert overridden[0] == overridden[1]


@pytest.mark.parametrize("text,problem", [
    ("[" * 100_000, "maximum recursion depth"),
    ("9" * 5_000, "Exceeds the limit"),
], ids=["deep-nesting", "long-integer"])
@pytest.mark.parametrize("target", ["model", "config"])
def test_json_the_parser_rejects_exits_2(capsys, tmp_path, trained_model,
                                         data_dir, target, text, problem):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    config = tmp_path / "run.json"
    config.write_text("{}")
    files = {"model": trained_model, "config": config, target: bad}
    code = main(["harmonize", "--model", str(files["model"]),
                 "--melody", str(data_dir / "melodies" / "m01.txt"),
                 "--config", str(files["config"])])
    _assert_input_error(capsys, code, f"{bad}: not valid JSON: {problem}")


def _assert_input_error(capsys, code, where):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err and "Traceback" not in err


def test_non_finite_duration_exits_2(capsys, tmp_path, trained_model):
    melody = tmp_path / "nan.txt"
    melody.write_text("0 | notes=72:1\n1 | notes=72:nan\n2 | notes=72:1\n")
    _assert_input_error(capsys, main(["harmonize", "--model", str(trained_model),
                                      "--melody", str(melody),
                                      "--out-midi", str(tmp_path / "nan.mid")]),
                        f"{melody}:2")
    _assert_input_error(capsys, main(["analyze", "--model", str(trained_model),
                                      "--melody", str(melody)]),
                        f"{melody}:2")


@pytest.mark.parametrize("notes,message", [
    ("72:0.001,74:0.999", "not a whole number of 1/480-beat ticks"),
    ("72:1e-300,74:1", "shorter than one 1/480-beat tick"),
    ("72:0.333333,74:0.333333,76:0.333334", "not a whole number of 1/480-beat ticks"),
], ids=["between-ticks", "below-one-tick", "rounded-triplet"])
def test_off_grid_duration_exits_2(capsys, tmp_path, trained_model, notes,
                                   message):
    melody = tmp_path / "grid.txt"
    melody.write_text(f"0 | notes=72:1\n1 | notes={notes}\n2 | notes=72:1\n")
    _assert_input_error(capsys, main(["harmonize", "--model", str(trained_model),
                                      "--melody", str(melody),
                                      "--out-midi", str(tmp_path / "grid.mid")]),
                        f"{melody}:2: bad note entry")
    _assert_input_error(capsys, main(["analyze", "--model", str(trained_model),
                                      "--melody", str(melody)]), message)


def test_durations_within_the_tick_tolerance_are_whole_ticks(tmp_path,
                                                             trained_model):
    # 0.500000002 beats is 240.00000096 ticks: within 1e-6 tick of 240
    melody = tmp_path / "near.txt"
    melody.write_text("0 | notes=72:1\n1 | notes=72:0.500000002,74:0.5\n"
                      "2 | notes=72:1.000000001\n")
    out = tmp_path / "near.mid"
    assert main(["harmonize", "--model", str(trained_model),
                 "--melody", str(melody), "--out-midi", str(out)]) == 0
    soprano = read_midi(out).tracks[1].notes
    assert [(pitch, onset, duration) for pitch, onset, duration, _ in soprano] == [
        (72, 0, 480), (72, 480, 240), (74, 720, 240), (72, 960, 480)]


def test_out_of_range_melody_pitch_exits_2(capsys, tmp_path, trained_model):
    melody = tmp_path / "high.txt"
    melody.write_text("0 | notes=72:1\n1 | notes=130:1\n2 | notes=72:1\n")
    assert main(["harmonize", "--model", str(trained_model),
                 "--melody", str(melody)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {melody}:2: ")
    assert "MIDI pitch out of range 0-127: 130" in err


def _input_error_case(case, tmp_path, model, data_dir):
    """(argv, the error text) for one bad input the other tests do not reach."""
    melody = data_dir / "melodies" / "m01.txt"
    harmonize = ["harmonize", "--model", str(model), "--melody", str(melody)]
    if case == "model-list":
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        return (["harmonize", "--model", str(bad), "--melody", str(melody)],
                f"{bad}: not a model file")
    if case == "override-empty":
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        return (["override", "--model", str(model), "--transitions", str(bad),
                  "--layer", "chord", "--out", str(tmp_path / "o.json")],
                f"{bad}: empty matrix file")
    if case == "melody-header-only":
        bad = tmp_path / "header.txt"
        bad.write_text("id: m\n# no beats follow\n")
        return ["harmonize", "--model", str(model), "--melody", str(bad)], \
            f"{bad}: file has no records"
    if case == "melody-empty-notes":
        bad = tmp_path / "comma.txt"
        bad.write_text("0 | notes=72:1\n1 | notes=,\n")
        return ["harmonize", "--model", str(model), "--melody", str(bad)], \
            f"{bad}:2: empty note list"
    if case == "melody-short-beat":
        bad = tmp_path / "m.txt"
        bad.write_text("0 | notes=72:0.5\n")
        return ["harmonize", "--model", str(model), "--melody", str(bad)], \
            f"{bad}:1: beat durations sum to 240 ticks (0.5 beats), expected 480"
    if case == "corpus-is-a-file":
        corpus = data_dir / "chorales" / "fixture-01.txt"
        return (["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json")],
                f"not a directory: {corpus}")
    if case == "corpus-lacks-mode":
        corpus = tmp_path / "major-only"
        corpus.mkdir()
        (corpus / "a.txt").write_bytes(
            (data_dir / "chorales" / "fixture-01.txt").read_bytes())
        return (["train", "--corpus", str(corpus), "--mode", "minor",
                 "--out", str(tmp_path / "m.json")],
                f"no minor-mode pieces in {corpus}")
    if case == "corpus-lacks-major":
        corpus = tmp_path / "minor-only"
        corpus.mkdir()
        (corpus / "a.txt").write_bytes(
            (data_dir / "chorales" / "fixture-09.txt").read_bytes())
        return (["train", "--corpus", str(corpus), "--mode", "major",
                 "--out", str(tmp_path / "m.json")],
                f"no major-mode pieces in {corpus}")
    if case == "rock-lacks-mode":
        corpus = data_dir / "rock"
        return (["train", "--corpus", str(corpus), "--genre", "rock",
                 "--mode", "minor", "--out", str(tmp_path / "m.json")],
                f"no minor-mode pieces in {corpus}")
    if case == "tempo":
        return [*harmonize, "--tempo", "10"], "tempo out of range: 10"
    config = tmp_path / "run.json"
    name, value = {"config-method": ("method", "foo"),
                   "config-pattern": ("pattern", "x")}[case]
    config.write_text(json.dumps({name: value}))
    return [*harmonize, "--config", str(config)], f"{config}: unknown {name}: {value!r}"


@pytest.mark.parametrize("case", [
    "model-list", "override-empty", "melody-header-only", "melody-empty-notes",
    "melody-short-beat", "corpus-is-a-file", "corpus-lacks-mode", "corpus-lacks-major",
    "rock-lacks-mode",
    "tempo", "config-method", "config-pattern"])
def test_input_error_exits_2_with_its_message(capsys, tmp_path, trained_model,
                                              data_dir, case):
    argv, message = _input_error_case(case, tmp_path, trained_model, data_dir)
    capsys.readouterr()
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "o.json").exists()


def test_blank_and_comment_lines_in_a_melody_are_skipped(tmp_path, trained_model,
                                                         data_dir):
    plain = data_dir / "melodies" / "m01.txt"
    lines = plain.read_text().splitlines()
    commented = tmp_path / "m01.txt"
    commented.write_text("\n".join(["# a comment before the header", "", lines[0],
                                    "   ", *lines[1:3], "  # between beats",
                                    "", *lines[3:], "#"]) + "\n")
    outputs = []
    for melody in (plain, commented):
        score = tmp_path / f"{melody.parent.name}.score"
        assert main(["harmonize", "--model", str(trained_model), "--melody",
                     str(melody), "--out-score", str(score)]) == 0
        outputs.append(score.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("edge, twin", [
    ("0 | notes=127:1 | key=B | roman=I\n1 | notes=123:1 | key=B | roman=I\n",
     "0 | notes=115:1 | key=B | roman=I\n1 | notes=111:1 | key=B | roman=I\n"),
    ("0 | notes=66:0.5,3:0.5 | key=F# | roman=I\n1 | notes=66:1 | key=F# | roman=I\n",
     "0 | notes=78:0.5,15:0.5 | key=F# | roman=I\n1 | notes=78:1 | key=F# | roman=I\n"),
], ids=("past-127", "below-0"))
def test_a_move_past_the_midi_range_trains_as_its_octave_twin(tmp_path, edge, twin):
    # moving B major up to C would lift the opening 127 to 128, and F#
    # major down to C would take 3 to -3; training moves only keys and
    # pitch classes, so each trains, as the piece an octave inside does
    models = []
    for name, records in (("edge", edge), ("twin", twin)):
        corpus = tmp_path / name
        corpus.mkdir()
        (corpus / "piece.txt").write_text(f"id: piece\nmode: major\n{records}")
        model = tmp_path / f"{name}.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(model)]) == 0
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_one_tick_duration_is_written(tmp_path, trained_model):
    melody = tmp_path / "tick.txt"
    melody.write_text(f"0 | notes=72:1\n1 | notes=72:{1 / 480!r},74:{479 / 480!r}\n"
                      "2 | notes=72:1\n")
    out = tmp_path / "tick.mid"
    assert main(["harmonize", "--model", str(trained_model),
                 "--melody", str(melody), "--out-midi", str(out)]) == 0
    soprano = read_midi(out).tracks[1].notes
    assert [(pitch, onset, duration) for pitch, onset, duration, _ in soprano] == [
        (72, 0, 480), (72, 480, 1), (74, 481, 479), (72, 960, 480)]


def test_empty_key_in_corpus_exits_2(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    piece = corpus / "piece.txt"
    piece.write_text("id: tiny\nmode: major\n0 | notes=72:1 | key=C | roman=I\n"
                     "1 | notes=74:1 | key= | roman=V\n"
                     "2 | notes=72:1 | key=C | roman=I\n")
    _assert_input_error(capsys, main(["train", "--corpus", str(corpus),
                                      "--out", str(tmp_path / "m.json")]),
                        f"{piece}:4: unknown key label")


def _corpus(directory, pieces):
    """A corpus directory holding each (name, text) piece."""
    directory.mkdir()
    for name, text in pieces:
        (directory / name).write_text(text)
    return directory


def test_train_leaves_the_other_modes_records_unparsed(capsys, tmp_path, data_dir):
    minor_text = (data_dir / "chorales" / "fixture-09.txt").read_text()
    major_text = (data_dir / "chorales" / "fixture-01.txt").read_text()
    bad_major = major_text.replace("key=C", "key=Q", 1)
    assert bad_major != major_text
    mixed = _corpus(tmp_path / "mixed", [("a.txt", minor_text), ("b.txt", bad_major)])
    alone = _corpus(tmp_path / "alone", [("a.txt", minor_text)])
    for corpus in (mixed, alone):
        assert main(["train", "--corpus", str(corpus), "--mode", "minor",
                     "--out", str(tmp_path / f"{corpus.name}.json")]) == 0
    assert ((tmp_path / "mixed.json").read_bytes()
            == (tmp_path / "alone.json").read_bytes())
    capsys.readouterr()
    out = tmp_path / "major.json"
    _assert_input_error(capsys, main(["train", "--corpus", str(mixed), "--mode",
                                      "major", "--out", str(out)]),
                        f"{mixed / 'b.txt'}:3: unknown key label")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["major", "minor"])
@pytest.mark.parametrize("opening,message", [
    ("id: x\n", "{piece}: missing or invalid mode header: ''"),
    ("id: x\nmode: dorian\n", "{piece}: missing or invalid mode header: 'dorian'"),
    ("mode minor\n", "{piece}:1: record must start with an integer index:"
                     " 'mode minor'"),
], ids=["no-header", "invalid-header", "garbage-first-line"])
def test_corpus_file_without_a_valid_mode_fails_under_each_mode(
        capsys, tmp_path, data_dir, mode, opening, message):
    pieces = [(p.name, p.read_text()) for p in (data_dir / "chorales").iterdir()]
    records = "0 | notes=72:1 | key=C | roman=I\n1 | notes=72:1 | key=C | roman=I\n"
    corpus = _corpus(tmp_path / "corpus", [*pieces, ("odd.txt", opening + records)])
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--mode", mode,
                 "--out", str(out)]) == 2
    piece = corpus / "odd.txt"
    assert capsys.readouterr().err == (
        f"error: corpus parse failed:\n{message.format(piece=piece)}\n")
    assert not out.exists()


@pytest.mark.parametrize("genre,record", [
    ("chorale", "0 | notes=72:1 | key=C | roman=I"),
    ("rock", "0 | key_pc=0 | roman_root_pc=0 | melody_degree_pc=4"),
], ids=["chorale", "rock"])
def test_one_record_corpus_file_exits_2(capsys, tmp_path, genre, record):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    piece = corpus / "a.txt"
    piece.write_text(f"id: r\nmode: major\n{record}\n")
    out = tmp_path / "m.json"
    _assert_input_error(capsys, main(["train", "--corpus", str(corpus), "--genre",
                                      genre, "--out", str(out)]),
                        f"{piece}: piece 'r' has fewer than 2 events")
    assert not out.exists()


@pytest.mark.parametrize("record,message", [
    ("1 | melody_degree_pc=12", "melody_degree_pc out of range 0-11: 12"),
    ("1 | melody_degree_pc=-1", "melody_degree_pc out of range 0-11: -1"),
    ("1 | melody_degree_pc=E", "melody_degree_pc must be an integer: 'E'"),
    ("2 | melody_degree_pc=4", "measure index 2 out of order, expected 1"),
    ("1 | key_pc=4", "missing fields: ['melody_degree_pc']"),
], ids=["above-11", "negative", "not-integer", "out-of-order", "missing"])
def test_bad_rock_melody_exits_2(capsys, tmp_path, trained_rock_model,
                                 record, message):
    melody = tmp_path / "tune.txt"
    melody.write_text(f"id: tune\n0 | melody_degree_pc=0\n{record}\n"
                      "2 | melody_degree_pc=7\n")
    _assert_input_error(capsys, main(["harmonize", "--model", str(trained_rock_model),
                                      "--melody", str(melody)]),
                        f"{melody}:3: {message}")


def test_alpha_flag_changes_model(tmp_path, data_dir):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["train", "--corpus", str(data_dir / "chorales"),
                 "--mode", "major", "--out", str(a)]) == 0
    assert main(["train", "--corpus", str(data_dir / "chorales"),
                 "--mode", "major", "--out", str(b), "--alpha", "1.0"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_negative_zero_alpha_trains_the_zero_alpha_model(tmp_path, data_dir):
    models = [tmp_path / "zero.json", tmp_path / "negative-zero.json"]
    for alpha, out in zip(("0", "-0.0"), models):
        assert main(["train", "--corpus", str(data_dir / "chorales"), "--mode",
                     "major", "--alpha", alpha, "--no-mask", "--out", str(out)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "x", "1e-320", "5e-324"])
def test_bad_alpha_flag_exits_2(capsys, tmp_path, data_dir, alpha):
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(data_dir / "chorales"), "--out", str(out),
              "--alpha", alpha])
    assert exc.value.code == 2
    assert "argument --alpha: expected a finite non-negative number" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_alpha_too_large_to_sum_exits_2(capsys, tmp_path, data_dir):
    out = tmp_path / "m.json"
    code = main(["train", "--corpus", str(data_dir / "chorales"), "--out", str(out),
                 "--alpha", "1e308"])
    _assert_input_error(capsys, code, "smoothing alpha 1e+308 is too large")
    assert not out.exists()


def test_subnormal_alpha_over_a_masked_retrogression_exits_2(capsys, tmp_path):
    # V -> IV is masked, so under this alpha its row's allowed cells would
    # share a subnormal total; the flag refuses the alpha before training
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "piece.txt").write_text(
        "id: retro\nmode: major\n" + "".join(
            f"{t} | notes=72:1 | key=C | roman={numeral}\n"
            for t, numeral in enumerate(("I", "V", "IV", "I"))))
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus), "--out", str(out),
              "--alpha", "1e-320"])
    assert exc.value.code == 2
    assert (f"argument --alpha: expected a finite non-negative number, 0 or at"
            f" least {sys.float_info.min!r}, got '1e-320'") in capsys.readouterr().err
    assert not out.exists()


def test_posterior_decode_too_improbable_exits_3(capsys, tmp_path, data_dir):
    # every key state emits pitch class 1 with the subnormal 1e-320, the
    # rest of each row rescaled to sum to 1: the key layer's forward scale
    # at beat 1 is subnormal
    model = tmp_path / "m.json"
    assert main(["train", "--corpus", str(data_dir / "chorales"), "--mode",
                 "major", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    for row in doc["key_model"]["emission"]:
        rest = sum(row) - row[1]
        row[:] = [1e-320 if pc == 1 else p / rest for pc, p in enumerate(row)]
    model.write_text(json.dumps(doc))
    melody = tmp_path / "tune.txt"
    melody.write_text("0 | notes=72:1\n1 | notes=73:1\n2 | notes=74:1\n"
                      "3 | notes=72:1\n")
    analyze = ["analyze", "--model", str(model), "--melody", str(melody)]
    capsys.readouterr()
    assert main(analyze + ["--method", "posterior"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: observation at position 1 is too improbable"
                            " for posterior decoding; use --method viterbi\n")
    assert main(analyze + ["--method", "viterbi"]) == 0
    assert capsys.readouterr().out.startswith("0 | key=C | roman=I\n")


def test_rejected_command_line_leaves_shared_parser_intact(capsys, trained_model,
                                                          data_dir):
    analyze = ["analyze", "--model", str(trained_model),
               "--melody", str(data_dir / "melodies" / "m03.txt")]
    assert main(analyze) == 0
    before = capsys.readouterr().out
    for bad in ([], ["nosuch"], analyze[:3], analyze + ["--method", "nope"],
                ["harmonize", "--model", "m", "--melody", "x", "--ornaments", "maybe"],
                ["train", "--corpus", "c", "--out", "o", "--alpha", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    # a flag given to one call does not stay behind for the next
    assert main(analyze + ["--method", "posterior"]) == 0
    capsys.readouterr()
    assert main(analyze) == 0
    assert capsys.readouterr().out == before
    assert cli.build_parser() is cli.build_parser()


def test_command_is_looked_up_when_main_is_called(monkeypatch, trained_model,
                                                  data_dir):
    melody = str(data_dir / "melodies" / "m03.txt")
    analyze = ["analyze", "--model", str(trained_model), "--melody", melody]
    assert main(analyze) == 0      # the parser exists before the patch
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or 7)
    assert main(analyze) == 7
    assert [args.melody for args in seen] == [melody]


@pytest.mark.parametrize("argv,code,stream,text", [
    ([], 2, "stderr", "usage: harmonizer"),
    (["--help"], 0, "stdout", "{train,harmonize,analyze,export,override}"),
])
def test_python_dash_m_entry_point(argv, code, stream, text):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "harmonizer", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code
    assert text in getattr(done, stream)


def test_harmonize_warns_on_masked_transitions_like_analyze(
        capsys, tmp_path, trained_model, fixture_melodies):
    # no posterior decode of a single fixture melody crosses the mask; the
    # 20 melodies as one line do
    melody = tmp_path / "all.txt"
    melody.write_text(_format_records((), [
        (("notes", _format_note_list(ev.notes)),)
        for ev in _concatenated(fixture_melodies).events]))
    warnings = []
    for command in ("analyze", "harmonize"):
        assert main([command, "--model", str(trained_model), "--melody",
                     str(melody), "--method", "posterior"]) == 0
        warnings.append([line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("# warning")])
    assert "# warning: masked transition IV -> I6 at beat 74" in warnings[0]
    assert warnings[1] == warnings[0]


def test_rock_commands_warn_on_masked_transitions_alike(capsys, tmp_path,
                                                       trained_rock_model):
    # a trained rock model has no mask; a hand-set one forbidding every
    # chord change is reported the same way by both commands
    doc = json.loads(trained_rock_model.read_text())
    n = len(doc["chord_model"]["states"])
    doc["chord_model"]["mask"] = [[int(i != j) for j in range(n)] for i in range(n)]
    masked = tmp_path / "masked.json"
    masked.write_text(json.dumps(doc))
    melody = tmp_path / "tune.txt"
    melody.write_text("".join(f"{i} | melody_degree_pc={pc}\n"
                              for i, pc in enumerate([0, 4, 7, 5, 9, 0, 7, 0])))
    warnings = {}
    for model in (trained_rock_model, masked):
        for command in ("analyze", "harmonize"):
            assert main([command, "--model", str(model),
                         "--melody", str(melody)]) == 0
            warnings[model, command] = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("# warning: masked transition")]
    assert warnings[trained_rock_model, "analyze"] == []
    assert warnings[trained_rock_model, "harmonize"] == []
    assert warnings[masked, "analyze"]
    assert warnings[masked, "harmonize"] == warnings[masked, "analyze"]


def test_no_mask_flag_drops_mask(tmp_path, data_dir):
    from harmonizer.hmm import load_bundle
    masked = tmp_path / "masked.json"
    unmasked = tmp_path / "unmasked.json"
    assert main(["train", "--corpus", str(data_dir / "chorales"),
                 "--mode", "major", "--out", str(masked)]) == 0
    assert main(["train", "--corpus", str(data_dir / "chorales"),
                 "--mode", "major", "--out", str(unmasked), "--no-mask"]) == 0
    assert load_bundle(masked).chord_model.mask is not None
    assert load_bundle(unmasked).chord_model.mask is None


def _boosted_chord_csv(tmp_path, model) -> Path:
    """The model's exported chord transitions with the minor and ii chords
    made likelier, written as a CSV for `override`."""
    import csv

    from harmonizer.hmm import read_transition_csv

    out_dir = tmp_path / "mx"
    assert main(["export", "--model", str(model),
                 "--out-dir", str(out_dir)]) == 0
    labels, matrix = read_transition_csv(out_dir / "chord_transition.csv")
    targets = [j for j, label in enumerate(labels)
               if label[0] in "bvi" or label.startswith("ii")]
    matrix[:, targets] += 0.5
    matrix /= matrix.sum(axis=1, keepdims=True)
    boost_path = tmp_path / "boost.csv"
    with open(boost_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + labels)
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])
    return boost_path


def test_boosted_override_changes_a_decode(capsys, tmp_path, trained_model,
                                           data_dir):
    boost_path = _boosted_chord_csv(tmp_path, trained_model)
    boosted_model = tmp_path / "boosted.json"
    assert main(["override", "--model", str(trained_model),
                 "--transitions", str(boost_path), "--layer", "chord",
                 "--out", str(boosted_model)]) == 0
    changed = 0
    for melody in sorted((data_dir / "melodies").iterdir()):
        capsys.readouterr()
        assert main(["analyze", "--model", str(trained_model),
                     "--melody", str(melody)]) == 0
        before = capsys.readouterr().out
        assert main(["analyze", "--model", str(boosted_model),
                     "--melody", str(melody)]) == 0
        after = capsys.readouterr().out
        changed += before != after
    assert changed >= 1


def test_override_onto_a_loaded_model_is_read_again(tmp_path, trained_model,
                                                    data_dir):
    # one process: harmonize, override the model in place, harmonize again;
    # the second run must match one made with no model parsed before it
    from harmonizer.hmm import _parse_bundle

    model = tmp_path / "model.json"
    model.write_bytes(trained_model.read_bytes())
    melodies = sorted((data_dir / "melodies").iterdir())

    def harmonize(tag):
        outputs = []
        for melody in melodies:
            midi = tmp_path / f"{tag}-{melody.stem}.mid"
            score = tmp_path / f"{tag}-{melody.stem}.score"
            assert main(["harmonize", "--model", str(model), "--melody",
                         str(melody), "--out-midi", str(midi),
                         "--out-score", str(score)]) == 0
            outputs.append((midi.read_bytes(), score.read_bytes()))
        return outputs

    before = harmonize("before")
    assert main(["override", "--model", str(model), "--transitions",
                 str(_boosted_chord_csv(tmp_path, model)), "--layer", "chord",
                 "--out", str(model)]) == 0
    after = harmonize("after")
    _parse_bundle.cache_clear()
    assert after == harmonize("cold")
    assert after != before


# --- fuzzing the files the CLI reads -----------------------------------------

FUZZ_BYTES = b"0123456789 |:=,.-+eE\n\r\t\"{}[]nNaxIV#b\x00\xff"
DELETE = object()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, trained_model, data_dir):
    """A working directory holding a valid copy of each file a command
    reads, and those files' bytes, both keyed by the flag that names it."""
    work = tmp_path_factory.mktemp("fuzz")
    assert main(["export", "--model", str(trained_model),
                 "--out-dir", str(work)]) == 0
    config = {"ornaments": True, "p_passing": 0.5, "rng_seed": 3, "tempo_bpm": 90}
    inputs = {
        "melody": (data_dir / "melodies" / "m06.txt").read_bytes(),
        "config": json.dumps(config).encode(),
        "model": trained_model.read_bytes(),
        "transitions": (work / "chord_transition.csv").read_bytes(),
    }
    paths = {flag: work / f"valid-{flag}" for flag in inputs}
    for flag, path in paths.items():
        path.write_bytes(inputs[flag])
    return work, inputs, paths


def _json_paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, path + (key,))


BAD_VALUES = (None, True, False, 0, 1, -1, 2, 0.5, 1e308, -1e-300, float("nan"),
              float("inf"), 10 ** 400, "", "x", "I", [], [0.5], {}, DELETE)


def _with_value(doc, path, value) -> bytes:
    """The JSON text of doc with the field at path set to value, or
    deleted; doc is changed in place."""
    if not path:
        return b"" if value is DELETE else json.dumps(value).encode()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


@st.composite
def _mutated_input(draw, inputs):
    """(flag, bytes): one input file with a few bytes replaced, inserted or
    deleted, or, for a JSON file, one field replaced or deleted. The field
    is drawn as a top-level field (or the whole document), then a path
    within it, so small fields such as a model's chord_counts are reached
    as often as its matrices."""
    flag = draw(st.sampled_from(sorted(inputs)))
    data = inputs[flag]
    if flag in ("config", "model") and draw(st.booleans()):
        doc = json.loads(data)
        top = draw(st.sampled_from([None, *doc]))
        paths = ([()] if top is None
                 else [(top, *path) for path in _json_paths(doc[top])])
        path = paths[draw(st.integers(0, len(paths) - 1))]
        return flag, _with_value(doc, path, draw(st.sampled_from(BAD_VALUES)))
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(FUZZ_BYTES), st.integers(0, 255)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "replace":
            data[at] = byte
        else:
            del data[at]
    return flag, bytes(data)


def _check_mutated(fuzz_inputs, flag, mutated):
    """Run the commands that read the mutated file; each must end with a
    documented exit code and no traceback."""
    work, inputs, valid = fuzz_inputs
    paths = dict(valid, **{flag: work / f"mutated-{flag}"})
    paths[flag].write_bytes(mutated)
    harmonize = ["harmonize", "--model", str(paths["model"]),
                 "--melody", str(paths["melody"]),
                 "--config", str(paths["config"]),
                 "--out-midi", str(work / "out.mid"),
                 "--out-score", str(work / "out.score")]
    if flag == "transitions":
        # an override the CSV check accepts must also decode and voice
        overridden = work / "overridden.json"
        runs = [["override", "--model", str(paths["model"]),
                 "--transitions", str(paths[flag]), "--layer", "chord",
                 "--out", str(overridden)],
                harmonize[:2] + [str(overridden)] + harmonize[3:]]
    else:
        runs = [harmonize]

    def exit_code(argv) -> int:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv[0], code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        return code

    for argv in runs:
        if exit_code(argv):
            break
    if flag == "model":
        # export reads fields harmonize never touches, such as chord_counts
        exit_code(["export", "--model", str(paths[flag]),
                   "--out-dir", str(work / "exported")])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_input_files_never_crash(data, fuzz_inputs):
    _check_mutated(fuzz_inputs, *data.draw(_mutated_input(fuzz_inputs[1])))


@pytest.mark.parametrize("flag", ["config", "model"])
def test_every_bad_value_in_each_top_level_field_never_crashes(fuzz_inputs, flag):
    # every bad value of the fuzz, in each top-level field and in its
    # first entry, so no small field depends on the fuzz's luck
    doc = json.loads(fuzz_inputs[1][flag])
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict) and value:
            paths.append((key, next(iter(value))))
        elif isinstance(value, list) and value:
            paths.append((key, 0))
    for path in paths:
        for value in BAD_VALUES:
            mutated = _with_value(json.loads(fuzz_inputs[1][flag]), path, value)
            _check_mutated(fuzz_inputs, flag, mutated)
