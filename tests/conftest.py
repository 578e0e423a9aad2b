import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harmonizer.corpus import (
    Corpus,
    parse_corpus,
    parse_melody_file,
    reference_offset,
)
from harmonizer.hmm import train_key_chord_models

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def chorale_corpus():
    return parse_corpus(DATA / "chorales", "chorale")


@pytest.fixture(scope="session")
def major_corpus(chorale_corpus):
    major = chorale_corpus.select_mode("major")
    return Corpus(tuple(ch.transpose(reference_offset(ch)) for ch in major.chorales),
                  "chorale")


@pytest.fixture(scope="session")
def major_bundle(major_corpus):
    return train_key_chord_models(major_corpus)


@pytest.fixture(scope="session")
def rock_corpus():
    return parse_corpus(DATA / "rock", "rock")


@pytest.fixture(scope="session")
def rock_bundle(rock_corpus):
    return train_key_chord_models(rock_corpus)


@pytest.fixture(scope="session")
def fixture_melodies():
    paths = sorted((DATA / "melodies").iterdir())
    return [(p.stem, parse_melody_file(p)) for p in paths]
