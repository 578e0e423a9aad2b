import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.core import (
    MAJOR,
    MODES,
    PPQ,
    KeyLabel,
    MelodyLine,
    MusicError,
    ProgressionAnnotation,
    RomanChord,
    all_keys,
    chord_root_pc,
)
from harmonizer import corpus
from harmonizer.corpus import (
    AnnotatedChorale,
    Corpus,
    CorpusError,
    parse_corpus,
    parse_melody_file,
    parse_json,
    parse_melody_text,
    parse_rock_melody_text,
    _beat,
    _format_note_list,
    _header,
    _records,
)

from oracles import (
    _format_records,
    parse_chorale_text,
    parse_rock_text,
    reference_corpus,
    reference_melody,
    reference_rock_melody,
)

VALID_CHORALE = """\
id: tiny
mode: major
0 | notes=72:1 | key=C | roman=I
1 | notes=74:0.5,76:0.5 | key=C | roman=V
2 | notes=72:1 | key=C | roman=I
"""


def test_parse_valid_chorale():
    ch = parse_chorale_text(VALID_CHORALE, "tiny.txt")
    assert ch.id == "tiny"
    assert ch.mode == "major"
    assert len(ch.events) == 3
    assert [midi for midi, _ in ch.events[1].notes] == [74, 76]
    assert ch.annotation.keys[1] == KeyLabel(0, MAJOR)
    assert str(ch.annotation.chords[1]) == "V"


def test_parse_reports_location_of_bad_duration():
    bad = VALID_CHORALE.replace("74:0.5,76:0.5", "74:0.5,76:0.4")
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(bad, "tiny.txt")
    assert "tiny.txt:4" in str(err.value)
    assert "0.9" in str(err.value)


def test_parse_reports_bad_key_and_numeral():
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(VALID_CHORALE.replace("key=C", "key=X", 1), "t.txt")
    assert "t.txt:3" in str(err.value)
    with pytest.raises(CorpusError) as err:
        parse_chorale_text(VALID_CHORALE.replace("roman=V", "roman=V99"), "t.txt")
    assert "t.txt:4" in str(err.value)


def test_parse_rejects_out_of_order_beats():
    shuffled = VALID_CHORALE.replace("1 | notes=74", "7 | notes=74")
    with pytest.raises(CorpusError):
        parse_chorale_text(shuffled, "t.txt")


def test_parse_corpus_fixture_counts(data_dir, chorale_corpus):
    # hand count of the fixture files committed under data/chorales
    expected = {
        "fixture-01": 16, "fixture-02": 20, "fixture-03": 16, "fixture-04": 16,
        "fixture-05": 16, "fixture-06": 16, "fixture-07": 12, "fixture-08": 18,
        "fixture-09": 12, "fixture-10": 12,
    }
    assert len(chorale_corpus.chorales) == len(expected)
    for ch in chorale_corpus.chorales:
        assert len(ch.events) == expected[ch.id], ch.id
    # deterministic lexicographic ordering
    assert [ch.id for ch in chorale_corpus.chorales] == sorted(expected)


def _shuffled_corpus(directory, data_dir):
    """Three copies of each fixture chorale under names drawn in a seeded
    shuffled order, so that name order interleaves the two modes."""
    sources = sorted((data_dir / "chorales").iterdir()) * 3
    names = list(range(len(sources)))
    random.Random(7).shuffle(names)
    directory.mkdir()
    for name, source in zip(names, sources):
        (directory / f"{name:02d}.txt").write_text(source.read_text())
    return directory


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,genre", [
    ("chorales", "chorale"), ("rock", "rock"), ("shuffled", "chorale")])
def test_parse_corpus_keeps_the_pieces_of_its_mode(tmp_path, data_dir, name, genre,
                                                   mode):
    if name == "shuffled":
        directory = _shuffled_corpus(tmp_path / name, data_dir)
        modes = [ch.mode for ch in parse_corpus(directory, genre).chorales]
        assert sum(a != b for a, b in zip(modes, modes[1:])) > 2
    else:
        directory = data_dir / name
    kept = parse_corpus(directory, genre, mode)
    assert kept == Corpus(tuple(ch for ch in parse_corpus(directory, genre).chorales
                                if ch.mode == mode), genre)
    # every rock piece is major
    assert bool(kept.chorales) == (genre == "chorale" or mode == MAJOR)


@pytest.mark.parametrize("mode", (None, *MODES))
@pytest.mark.parametrize("name,genre", [("chorales", "chorale"), ("rock", "rock")])
def test_parse_corpus_reads_each_header_once(monkeypatch, data_dir, name, genre,
                                             mode):
    # the mode skip and the records share one read of the header
    sources = []
    real = corpus._header
    monkeypatch.setattr(corpus, "_header",
                        lambda text, source: sources.append(source) or real(text, source))
    parse_corpus(data_dir / name, genre, mode)
    assert sources == sorted(str(p) for p in (data_dir / name).iterdir())


def test_parse_corpus_empty_directory(tmp_path):
    with pytest.raises(CorpusError):
        parse_corpus(tmp_path, "chorale")


def test_parse_corpus_collects_file_diagnostics(tmp_path):
    (tmp_path / "a.txt").write_text(VALID_CHORALE)
    (tmp_path / "b.txt").write_text(VALID_CHORALE.replace("key=C", "key=Q", 1))
    with pytest.raises(CorpusError) as err:
        parse_corpus(tmp_path, "chorale")
    assert "b.txt:3" in str(err.value)


# --- one beat memo per parse call ----------------------------------------

# splits of one beat into 1-3 notes; with three pitches, beat texts repeat
# across and within files, and distinct texts share a first entry
_SPLITS = (("1",), ("0.5", "0.5"), ("0.25", "0.75"), ("0.75", "0.25"),
           ("0.5", "0.25", "0.25"), ("0.3333333333",) * 3)


@st.composite
def _beat_texts(draw):
    split = draw(st.sampled_from(_SPLITS))
    pitches = draw(st.lists(st.sampled_from((60, 62, 64)), min_size=len(split),
                            max_size=len(split)))
    # the same beat under two spellings is two memo entries
    comma = draw(st.sampled_from((",", ", ")))
    return comma.join(f"{p}:{d}" for p, d in zip(pitches, split))


def _chorale_file(piece_id, mode, beats):
    key = "C" if mode == MAJOR else "a"
    return _format_records([("id", piece_id), ("mode", mode)],
                           [[("notes", b), ("key", key), ("roman", "I")]
                            for b in beats])


_CORPORA = st.lists(st.tuples(st.sampled_from(MODES),
                              st.lists(_beat_texts(), min_size=2, max_size=6)),
                    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(pieces=_CORPORA, mode=st.sampled_from((None, *MODES)))
def test_corpus_parse_equals_the_parse_of_each_file(pieces, mode):
    # two texts share a first entry in the first file
    pieces = [(MAJOR, ["60:0.5,62:0.5", "60:0.5,64:0.5"]), *pieces]
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        for index, (piece_mode, beats) in enumerate(pieces):
            text = _chorale_file(f"p{index}", piece_mode, beats)
            (directory / f"{index:02d}.txt").write_text(text)
        got = parse_corpus(directory, "chorale", mode).chorales
        want = [parse_chorale_text(path.read_text(), str(path))
                for path in sorted(directory.iterdir())]
    assert got == tuple(ch for ch in want if mode in (None, ch.mode))
    # one object per distinct beat text across the files of one call
    beats = {}
    for (_, texts), piece in zip((p for p in pieces if mode in (None, p[0])), got):
        for text, beat in zip(texts, piece.events):
            assert beats.setdefault(text.strip(), beat) is beat


@pytest.mark.parametrize("bad, message", [
    ("72:0.5,74:0.4", "beat durations sum to 432 ticks (0.9 beats), expected 480"),
    ("72:0.5,74:x", "bad note entry '74:x': could not convert string to float: 'x'"),
    ("72:0.5,128:0.5", "MIDI pitch out of range 0-127: 128"),
    (" , ", "empty note list"),
])
def test_a_bad_beat_is_reported_at_each_files_first_line(tmp_path, bad, message):
    good = "72:0.5,74:0.5"
    texts = {"a.txt": _chorale_file("a", MAJOR, [good, bad, good, bad]),
             "b.txt": _chorale_file("b", MAJOR, [bad, good, bad])}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    # records start on line 3: a's first bad beat is on line 4, b's on 3
    first = {"a.txt": 4, "b.txt": 3}
    expected = [f"{tmp_path / name}:{line}: {message}" for name, line in first.items()]
    for name, text in texts.items():
        with pytest.raises(CorpusError) as caught:
            parse_chorale_text(text, str(tmp_path / name))
        assert str(caught.value) in expected
    with pytest.raises(CorpusError) as caught:
        parse_corpus(tmp_path, "chorale")
    assert str(caught.value) == "\n".join(["corpus parse failed:", *expected])


def test_melody_parse_shares_beats_and_reports_each_bad_line():
    melody = parse_melody_text("0 | notes=72:0.5,74:0.5\n1 | notes=72:1\n"
                               "2 | notes=72:0.5,74:0.5\n", "m.txt")
    assert melody.events[0] is melody.events[2]
    for text, line in [("0 | notes=72:1\n1 | notes=72:2\n", 2),
                       ("0 | notes=72:2\n1 | notes=72:2\n", 1)]:
        with pytest.raises(CorpusError, match=f"^m.txt:{line}: beat durations sum"):
            parse_melody_text(text, "m.txt")


# --- one record memo per read call --------------------------------------

# record texts after the index: good ones, one of them under three
# spellings, then each grammar fault, then each value fault
_GOOD_CHORALE = (" | notes=72:1 | key=C | roman=I", " |  notes=72:1 |key=C|roman=I",
                 "|notes=72:1|key=C|roman=I", " | notes=74:0.5,76:0.5 | key=G | roman=V",
                 " | notes=69:1 | key=a | roman=i | extra=x")
_BAD_CHORALE = {
    " | notes | key=C | roman=I": "expected field=value, got 'notes'",
    " | notes=72:1 | key=C | roman=I | key=G": "field named twice: 'key'",
    " | notes=72:1 | key=C": "missing fields: ['roman']",
    "": "missing fields: ['key', 'notes', 'roman']",
    " |": "expected field=value, got ''",
    " | notes=72:x | key=C | roman=I":
        "bad note entry '72:x': could not convert string to float: 'x'",
    " | notes=72:1 | key=Q | roman=I": "unknown key label: 'Q'",
    " | notes=72:1 | key=C | roman=V99": "unparseable Roman numeral: 'V99'",
}
_GOOD_ROCK = (" | key_pc=0 | roman_root_pc=7 | melody_degree_pc=4",
              "|key_pc=0|roman_root_pc=7|melody_degree_pc=4",
              " | key_pc=2 | roman_root_pc=2 | melody_degree_pc=11 | extra=1",
              " | key_pc=9 | roman_root_pc=5 | melody_degree_pc=0")
_BAD_ROCK = {
    " | key_pc=0 | roman_root_pc | melody_degree_pc=4":
        "expected field=value, got 'roman_root_pc'",
    " | key_pc=0 | key_pc=1 | roman_root_pc=7 | melody_degree_pc=4":
        "field named twice: 'key_pc'",
    " | key_pc=0 | melody_degree_pc=4": "missing fields: ['roman_root_pc']",
    " |": "expected field=value, got ''",
    " | key_pc=12 | roman_root_pc=7 | melody_degree_pc=4": "key_pc out of range 0-11: 12",
    " | key_pc=0 | roman_root_pc=7 | melody_degree_pc=x":
        "melody_degree_pc must be an integer: 'x'",
}
_POOLS = {"chorale": (_GOOD_CHORALE, tuple(_BAD_CHORALE)),
          "rock": (_GOOD_ROCK, tuple(_BAD_ROCK))}
# each genre's melody reader and its memo-free reference
_MELODY_READERS = {"chorale": (parse_melody_text, reference_melody),
                   "rock": (parse_rock_melody_text, reference_rock_melody)}


def _record_lines(texts, skip=None):
    """Numbered records, the one at `skip` numbered one too high."""
    return "".join(f"{i + (i == skip)}{text}\n" for i, text in enumerate(texts))


@st.composite
def _record_files(draw, genre):
    good, bad = _POOLS[genre]
    # mostly good texts, so that some files read, drawn from a pool of a
    # few, so that texts repeat within and across files
    texts = st.sampled_from(draw(st.lists(
        st.one_of(st.sampled_from(good), st.sampled_from(good),
                  st.sampled_from(good), st.sampled_from(bad)),
        min_size=1, max_size=4)))
    files = []
    for index in range(draw(st.integers(1, 4))):
        mode = draw(st.sampled_from(MODES + ("dorian", None)) if genre == "chorale"
                    else st.just(MAJOR))
        header = f"id: p{index}\n" + ("" if mode is None else f"mode: {mode}\n")
        records = draw(st.lists(texts, min_size=1, max_size=6))
        skip = draw(st.sampled_from((None,) * 7 + tuple(range(len(records)))))
        files.append(header + _record_lines(records, skip))
    return files


def _outcome(read, *args):
    """What `read` returns, or the text of the error it raises."""
    try:
        return read(*args)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), genre=st.sampled_from(corpus.GENRES),
       mode=st.sampled_from((None, *MODES)))
def test_readers_equal_the_readers_with_no_memo(data, genre, mode):
    files = data.draw(_record_files(genre))
    with tempfile.TemporaryDirectory() as scratch:
        for index, text in enumerate(files):
            (Path(scratch) / f"{index:02d}.txt").write_text(text)
        assert _outcome(parse_corpus, scratch, genre, mode) == \
            _outcome(reference_corpus, scratch, genre, mode)
    melody, reference = _MELODY_READERS[genre]
    for text in [*files, "".join(files)]:
        assert _outcome(melody, text, "m.txt") == _outcome(reference, text, "m.txt")


@pytest.mark.parametrize("genre, bad", [
    *(("chorale", text) for text in _BAD_CHORALE),
    *(("rock", text) for text in _BAD_ROCK)])
def test_a_bad_record_is_reported_at_each_files_own_line(tmp_path, genre, bad):
    good = _POOLS[genre][0][0]
    message = {**_BAD_CHORALE, **_BAD_ROCK}[bad]
    # twice in a, once at its first record in b: a fails on its line 4, b on 3
    head = "id: x\nmode: major\n"
    (tmp_path / "a.txt").write_text(head + _record_lines([good, bad, good, bad]))
    (tmp_path / "b.txt").write_text(head + _record_lines([bad, good]))
    with pytest.raises(CorpusError) as caught:
        parse_corpus(tmp_path, genre)
    assert str(caught.value) == "\n".join([
        "corpus parse failed:", f"{tmp_path / 'a.txt'}:4: {message}",
        f"{tmp_path / 'b.txt'}:3: {message}"])
    # each melody read reports its own first bad line, where the melody
    # reader finds a fault: it reads no key or chord
    melody, reference = _MELODY_READERS[genre]
    for texts, line in ([good, bad, good, bad], 2), ([bad, good], 1):
        got = _outcome(melody, _record_lines(texts), "m.txt")
        assert got == _outcome(reference, _record_lines(texts), "m.txt")
        assert isinstance(got, MelodyLine) or got.startswith(f"CorpusError: m.txt:{line}: ")


def test_a_record_with_no_bar_is_not_the_record_ending_in_one():
    # both hold no field, but only the record ending in "|" names an empty one
    with pytest.raises(CorpusError) as caught:
        _records(_header("0\n1 |\n", "f.txt")[1], "f.txt", "beat", set(), {})
    assert str(caught.value) == "f.txt:2: expected field=value, got ''"
    records = _records(_header("0\n1\n", "f.txt")[1], "f.txt", "beat", set(), {})
    assert [fields for _, _, fields in records] == [{}, {}]


@pytest.mark.parametrize("genre", corpus.GENRES)
def test_equal_record_texts_share_one_fields_dict_within_a_call_only(
        monkeypatch, tmp_path, genre):
    read = []
    real = corpus._records

    def spy(lines, source, unit, required, memo):
        records = real(lines, source, unit, required, memo)
        read.append((memo, records))
        return records

    monkeypatch.setattr(corpus, "_records", spy)
    one, spaced = _POOLS[genre][0][:2]
    other = _POOLS[genre][0][3]
    head = "id: x\nmode: major\n"
    (tmp_path / "a.txt").write_text(head + _record_lines([one, other, one, spaced]))
    (tmp_path / "b.txt").write_text(head + _record_lines([other, one]))

    def fields_by_text():
        """The fields each record text read as in the calls since the
        last, each text with one dict, and the memo the calls shared."""
        memos = {id(memo) for memo, _ in read}
        assert len(memos) == 1
        texts = {}
        for _, records in read:
            for _, text, fields in records:
                assert texts.setdefault(text, fields) is fields
        memo = read[0][0]
        read.clear()
        return texts, memo

    parse_corpus(tmp_path, genre)
    first, first_memo = fields_by_text()
    # keyed on the text after the first "|": two spellings, two dicts
    one_key, spaced_key = (text.partition("|")[2] for text in (one, spaced))
    assert len(first) == 3 and first[one_key] == first[spaced_key]
    assert first[one_key] is not first[spaced_key]
    parse_corpus(tmp_path, genre)
    second, second_memo = fields_by_text()
    assert second_memo is not first_memo
    assert all(second[text] is not fields for text, fields in first.items())
    melody = _MELODY_READERS[genre][0]
    text = _record_lines([one, other, one])
    melody(text)
    once, _ = fields_by_text()
    melody(text)
    again, _ = fields_by_text()
    assert all(again[text] is not fields for text, fields in once.items())


def test_a_byte_order_mark_reads_as_if_absent(tmp_path, data_dir):
    for name in ("chorales", "rock"):
        plain, marked = tmp_path / f"{name}-plain", tmp_path / f"{name}-marked"
        plain.mkdir()
        marked.mkdir()
        for path in sorted((data_dir / name).iterdir()):
            # the mode header first, where the mark once hid it
            lines = path.read_text().splitlines(keepends=True)
            text = "".join(sorted(lines[:2], reverse=True) + lines[2:])
            assert text.startswith("mode: ")
            (plain / path.name).write_text(text)
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + text.encode())
        genre = "chorale" if name == "chorales" else "rock"
        for mode in (None, *MODES):
            assert parse_corpus(marked, genre, mode) == \
                Corpus(tuple(ch for ch in parse_corpus(plain, genre, mode).chorales), genre)
    melody = tmp_path / "m.txt"
    melody.write_bytes(b"\xef\xbb\xbf0 | notes=72:1\n1 | notes=74:1\n")
    assert parse_melody_file(melody) == parse_melody_text("0 | notes=72:1\n1 | notes=74:1\n")
    melody.write_bytes(b"\xef\xbb\xbf0 | melody_degree_pc=7\n")
    assert parse_melody_file(melody, "rock") == \
        parse_rock_melody_text("0 | melody_degree_pc=7\n")


_LINE_END_INPUTS = {
    "melody": "id: m\n0 | notes=72:1\n\n1 | notes=74:0.5,76:0.5\n",
    "model-with-json-fault": '{"genre": "chorale",\n  "mode": }\n',
    "override-csv": ",I,V\nI,0.5,0.5\nV,1,0\n",
    "mixed": "a\r\r\nb\n\rc\r\n\n",
}


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", _LINE_END_INPUTS)
def test_read_text_reads_line_ends_as_text_mode_does(tmp_path, kind, line_end):
    # each "\r\n" and lone "\r" is read as "\n", with or without a mark
    path = tmp_path / "input.txt"
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + _LINE_END_INPUTS[kind].replace("\n", line_end).encode())
        with open(path, encoding="utf-8-sig") as file:
            expected = file.read()
        assert corpus.read_text(path) == expected
    if kind == "melody":
        assert parse_melody_file(path) == parse_melody_text(expected)
    if kind == "model-with-json-fault":
        with pytest.raises(CorpusError) as err:
            parse_json(corpus.read_text(path), "m.json")
        assert str(err.value) == ("m.json: not valid JSON: Expecting value:"
                                  " line 2 column 11 (char 31)")


# a byte's position is counted from after a mark, and "\r\n" counts two
@pytest.mark.parametrize("data, position", [
    (b"ab\xffc", 2), (b"\xef\xbb\xbfab\xff", 2), (b"a\r\nb\xfe", 4)],
    ids=["bad-byte", "after-mark", "after-crlf"])
def test_read_text_names_a_byte_that_is_not_utf8_as_text_mode_does(tmp_path, data,
                                                                  position):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as text_mode:
        with open(path, encoding="utf-8-sig") as file:
            file.read()
    with pytest.raises(CorpusError) as err:
        corpus.read_text(path)
    assert str(err.value) == f"{path}: not UTF-8 text: {text_mode.value}"
    assert f"in position {position}:" in str(err.value)


# --- listing the corpus directory ----------------------------------------

def test_corpus_lists_files_and_file_links_only(tmp_path):
    (tmp_path / "a.txt").write_text(VALID_CHORALE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text(VALID_CHORALE)
    (tmp_path / "link.txt").symlink_to(tmp_path / "a.txt")
    (tmp_path / "sub-link").symlink_to(tmp_path / "sub")
    (tmp_path / "dangling.txt").symlink_to(tmp_path / "missing.txt")
    piece = parse_chorale_text(VALID_CHORALE)
    assert parse_corpus(tmp_path, "chorale") == Corpus((piece, piece), "chorale")
    (tmp_path / "a.txt").write_text(VALID_CHORALE.replace("key=C", "key=Q", 1))
    with pytest.raises(CorpusError) as caught:
        parse_corpus(tmp_path, "chorale")
    assert str(caught.value) == "\n".join([
        "corpus parse failed:", f"{tmp_path / 'a.txt'}:3: unknown key label: 'Q'",
        f"{tmp_path / 'link.txt'}:3: unknown key label: 'Q'"])


def test_corpus_pieces_come_in_name_order(tmp_path):
    names = ["b.txt", "B.txt", "a.txt", "a0.txt", "a.TXT", "_x", "10.txt",
             "9.txt", "\u00e9.txt", "z", "-1", "a b.txt"]
    for name in names:
        (tmp_path / name).write_text(VALID_CHORALE.replace("id: tiny", f"id: {name}"))
    assert [ch.id for ch in parse_corpus(tmp_path, "chorale").chorales] == sorted(names)
    assert sorted(names) == [p.name for p in sorted(tmp_path.iterdir())]


@pytest.mark.parametrize("arg, cwd, shown", [
    (".", "x", "b.txt"), ("./x", "", "x/b.txt"), ("x/", "", "x/b.txt"),
    ("x//", "", "x/b.txt"), ("./x/.", "", "x/b.txt"), ("", "", None)])
def test_corpus_errors_name_the_file_as_the_path_joins_it(tmp_path, monkeypatch,
                                                         arg, cwd, shown):
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / "b.txt").write_text(VALID_CHORALE.replace("key=C", "key=Q", 1))
    monkeypatch.chdir(tmp_path / cwd)
    if shown is None:  # absolute
        arg, shown = f"{tmp_path}/x", f"{tmp_path}/x/b.txt"
    assert shown == str(Path(arg) / "b.txt")
    with pytest.raises(CorpusError) as caught:
        parse_corpus(arg, "chorale")
    assert str(caught.value) == ("corpus parse failed:\n"
                                 f"{shown}:3: unknown key label: 'Q'")


def test_every_written_tick_count_reads_back():
    for ticks in range(1, PPQ + 1):
        notes = ((60, ticks), (62, PPQ - ticks))[:1 + (ticks < PPQ)]
        text = _format_note_list(notes)
        assert _beat(text).notes == notes, text


def test_triplet_chorale_survives_serialize_and_parse():
    triplets = "74:0.3333333333,76:0.3333333333,77:0.3333333333"
    ch = parse_chorale_text(VALID_CHORALE.replace("74:0.5,76:0.5", triplets))
    assert ch.events[1].notes == ((74, 160), (76, 160), (77, 160))
    assert _format_note_list(ch.events[1].notes) == triplets


_NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8)
# values may hold ":", "=" and "#", but not "|" or a line break; the reader
# strips the spaces around them
_VALUES = st.text(string.ascii_letters + string.digits + " #:=.,;-",
                  max_size=12).map(str.strip)


@given(header=st.dictionaries(_NAMES, _VALUES, max_size=3),
       records=st.lists(st.dictionaries(_NAMES, _VALUES, max_size=4),
                        min_size=1, max_size=5))
def test_written_records_read_back(header, records):
    text = _format_records(header.items(), [fields.items() for fields in records])
    got_header, lines = _header(text, "t.txt")
    got = _records(lines, "t.txt", "beat", set(), {})
    assert got_header == header
    assert [fields for _, _, fields in got] == records


_CHORDS = tuple(map(RomanChord.from_string, (
    "I", "ii6", "V7", "V65", "viio6", "bVII", "bIII", "IV64", "vi", "V42")))


@given(genre=st.sampled_from(corpus.GENRES),
       header=st.lists(st.tuples(_NAMES, _VALUES), max_size=3),
       labels=st.lists(st.tuples(st.sampled_from(all_keys()),
                                 st.sampled_from(_CHORDS)), max_size=8))
def test_progression_document_matches_record_writer(genre, header, labels):
    keys, chords = zip(*labels) if labels else ((), ())
    if genre == "rock":
        fields = [(("key_pc", str(key.tonic_pc)), ("roman", str(chord)))
                  for key, chord in labels]
    else:
        fields = [(("key", str(key)), ("roman", str(chord)))
                  for key, chord in labels]
    document = corpus.format_progression(ProgressionAnnotation(keys, chords),
                                         genre, header)
    assert document == _format_records(header, fields)


@pytest.mark.parametrize("line, message", [
    ("x | notes=72:1", "record must start with an integer index: 'x'"),
    ("|notes=72:1", "record must start with an integer index: ''"),
    ("0x\t| n=1", "record must start with an integer index: '0x'"),
    # int() reads each of these as 0; an index is ASCII decimal digits
    ("+0 | notes=72:1", "record must start with an integer index: '+0'"),
    ("-0 | notes=72:1", "record must start with an integer index: '-0'"),
    ("0_0 | notes=72:1", "record must start with an integer index: '0_0'"),
    ("\u0660 | notes=72:1", "record must start with an integer index: '\u0660'"),
    ("\uff10 | notes=72:1", "record must start with an integer index: '\uff10'"),
    ("0 | notes", "expected field=value, got 'notes'"),
    ("0\t|\tnotes\t| n=1", "expected field=value, got 'notes'"),
    ("0 || notes=1", "expected field=value, got ''"),
    ("1 | notes=72:1", "beat index 1 out of order, expected 0"),
    ("0 | notes=72:1 | key=C | roman=I | key=G", "field named twice: 'key'"),
    ("mode: minor", "header field named twice: 'mode'"),
])
def test_record_errors_name_the_stripped_part(line, message):
    with pytest.raises(CorpusError) as caught:
        _records(_header(f"mode: major\n{line}\n", "f.txt")[1], "f.txt", "beat",
                 set(), {})
    assert str(caught.value) == f"f.txt:2: {message}"


def test_record_fields_split_at_the_first_equals_sign():
    records = _records(_header(" 0  |  a  = b=c | d = |= 5\n", "f.txt")[1],
                       "f.txt", "beat", set(), {})
    assert records == [(1, "  a  = b=c | d = |= 5", {"a": "b=c", "d": "", "": "5"})]


def test_melody_schema_ignores_annotation_columns():
    melody = parse_melody_text(VALID_CHORALE, "t.txt")
    assert len(melody) == 3
    melody_only = parse_melody_text(
        "0 | notes=72:1\n1 | notes=74:1\n", "m.txt")
    assert melody_only.representatives() == [72, 74]


def test_rock_parse_and_range_check():
    text = """\
id: r
mode: major
0 | key_pc=7 | roman_root_pc=2 | melody_degree_pc=9
1 | key_pc=7 | roman_root_pc=7 | melody_degree_pc=11
"""
    song = parse_rock_text(text, "r.txt")
    assert song.annotation.keys[0] == KeyLabel(7, MAJOR)
    assert str(song.annotation.chords[0]) == "V"  # root a fifth above the key
    assert song.events[0].representative % 12 == 9
    with pytest.raises(CorpusError) as err:
        parse_rock_text(text.replace("melody_degree_pc=9", "melody_degree_pc=12"),
                        "r.txt")
    assert "r.txt:3" in str(err.value)


def test_rock_chords_are_root_position_triads_on_every_root():
    # every root above every key: the chord is read from the root's
    # distance above the tonic, wrapping past the octave
    pairs = [(k, r) for k in range(12) for r in range(12)]
    records = [f"{i} | key_pc={k} | roman_root_pc={(k + r) % 12} | melody_degree_pc=0"
               for i, (k, r) in enumerate(pairs)]
    song = parse_rock_text("id: r\nmode: major\n" + "\n".join(records) + "\n")
    assert len(song.events) == len(pairs)
    for (k, r), key, chord in zip(pairs, song.annotation.keys, song.annotation.chords):
        assert key == KeyLabel(k, MAJOR)
        assert chord.inversion == "root" and not chord.seventh
        assert chord_root_pc(chord, key) == (k + r) % 12
        # the diatonic triads of the major key; a chromatic root is major
        assert chord.quality == {2: "minor", 4: "minor", 9: "minor",
                                 11: "diminished"}.get(r, "major")


def test_piece_needs_one_label_per_beat():
    ch = parse_chorale_text(VALID_CHORALE, "tiny.txt")
    short = ProgressionAnnotation(ch.annotation.keys[:2], ch.annotation.chords[:2])
    with pytest.raises(MusicError, match="3 beats but 2 labels"):
        AnnotatedChorale(ch.id, ch.mode, ch.events, short)


@pytest.mark.parametrize("make, error, message", [
    (lambda: AnnotatedChorale("x", "dorian", (), ProgressionAnnotation((), ())),
     MusicError, "unknown mode: 'dorian'"),
    (lambda: parse_corpus(".", "jazz"), CorpusError, "unknown genre: 'jazz'"),
], ids=["chorale-mode", "corpus-genre"])
def test_unknown_mode_and_genre_are_refused(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
