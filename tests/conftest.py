import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def cli_env(**extra) -> dict:
    """The environment for ``python -m abcwb.cli`` in a child process:
    this checkout's ``src`` first on ``PYTHONPATH``, then ``extra``."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def load_corpus(name: str):
    # imported here, so ``python tests/test_golden.py`` needs no ``src`` on its path
    from abcwb.parser import parse_program

    return parse_program((CORPUS / name).read_text())


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def robotics():
    return load_corpus("robotics.abc")


@pytest.fixture(scope="session")
def groups():
    return load_corpus("groups.abc")


@pytest.fixture(scope="session")
def pubsub():
    return load_corpus("pubsub.abc")


@pytest.fixture(scope="session")
def channels():
    return load_corpus("channels.abc")


@pytest.fixture(scope="session")
def adaptation():
    return load_corpus("adaptation.abc")
