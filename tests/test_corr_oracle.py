"""``check_correspondence`` against the reference in ``corr_oracle``.

The check under test translates each source component once and shares
that translation among every successor that keeps the component; the
reference translates every successor from scratch.  Both must agree on
every verdict, count and failure message.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

import corr_oracle
from abcwb import bpi
from abcwb.bpi import BNu, BPar, check_correspondence, parse_bpi
from bpigen import gen_term

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fields(res):
    return res.ok, res.checked_pairs, res.truncated, res.failures


def _pinned_term():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return gen.PINNED_TERM


def test_corpus_terms_match_the_oracle(corpus_dir):
    files = sorted((corpus_dir / "bpi").glob("*.bpi"))
    assert len(files) == 22
    for f in files:
        term = parse_bpi(f.read_text())
        assert _fields(check_correspondence(term)) == _fields(
            corr_oracle.check_correspondence(term)), f.name


def test_pinned_benchmark_term_matches_the_oracle():
    term = parse_bpi(_pinned_term())
    assert _fields(check_correspondence(term)) == _fields(
        corr_oracle.check_correspondence(term))


def test_generated_terms_match_the_oracle():
    for seed in range(300):
        term = gen_term(random.Random(seed), 4)
        assert _fields(check_correspondence(term, depth=5)) == _fields(
            corr_oracle.check_correspondence(term, depth=5)), (seed, term)


@pytest.fixture
def cont_calls(monkeypatch):
    calls = []
    real = bpi._Encoder.cont

    def cont(self, p, scope):
        calls.append(p)
        return real(self, p, scope)

    monkeypatch.setattr(bpi._Encoder, "cont", cont)
    return calls


def test_each_component_is_translated_once_per_check(cont_calls):
    # translating every successor from scratch makes 2,396 calls here;
    # the amount of work is deterministic: a change to it is a reviewed re-pin
    for seed in range(30):
        check_correspondence(gen_term(random.Random(seed), 4), depth=5)
    assert len(cont_calls) == 358


def test_a_repeated_component_is_the_same_object(monkeypatch):
    comps = {}
    repeats = 0
    real = bpi._Encoder.proc

    def proc(self, p, hidden=frozenset()):
        nonlocal repeats
        out = real(self, p, hidden)
        if not isinstance(p, (BPar, BNu)):
            key = (p, hidden)
            if key in comps:
                repeats += 1
                assert out is comps[key], key
            comps[key] = out
        return out

    monkeypatch.setattr(bpi._Encoder, "proc", proc)
    for seed in range(30):
        comps.clear()
        check_correspondence(gen_term(random.Random(seed), 4), depth=5)
    assert repeats > 0


def test_shared_translations_are_keyed_by_the_restrictions_around_them():
    # define refuses a rec that mentions a restricted name, so a
    # translation made outside the restriction must not serve inside it,
    # and a translation that raised is not kept
    comps = {}
    loop = parse_bpi("rec A(). k<v>.A() @ ()")
    bpi._Encoder(loop, {}, comps).proc(loop)
    hidden = parse_bpi("nu k (rec A(). k<v>.A() @ ())")
    with pytest.raises(ValueError, match="mentions a name bound outside it"):
        bpi._Encoder(hidden, {}, comps).proc(hidden)
    assert list(comps) == [(loop, frozenset())]
