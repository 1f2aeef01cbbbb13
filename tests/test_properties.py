"""Property tests; random instances come from the seeded generator so
hypothesis shrinks over seeds rather than raw syntax trees."""

import itertools

import pytest

from hypothesis import given, settings, strategies as st

import stcheck.syntax as syntax
from stcheck.bench import GenConfig, gen_random, random_pair
from stcheck.subtyping import (
    ALGORITHMS, check, subtype_inductive, subtype_memoized, subtype_product,
)
from stcheck.syntax import is_closed, mu, parse, render, size, unfold

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

seeds = st.integers(min_value=0, max_value=10**9)


def from_seed(seed, max_size=30):
    return gen_random(GenConfig(seed=seed, max_size=max_size))


@given(seeds)
def test_parse_render_roundtrip(seed):
    t = from_seed(seed)
    assert parse(render(t)) is t


@given(seeds)
def test_generator_wellformed(seed):
    t = from_seed(seed)
    assert is_closed(t)
    assert t.contractive
    assert 1 <= size(t) <= 30


@given(seeds)
def test_unfold_idempotent_on_non_rec_heads(seed):
    t = from_seed(seed)
    u = unfold(t)
    assert unfold(u) is u


@given(seeds)
def test_reflexivity(seed):
    t = from_seed(seed)
    for algo in ALGORITHMS:
        assert check(t, t, algo).verdict


@given(seeds)
def test_algorithms_agree(seed):
    left, right = random_pair(seed, max_size=25)
    verdicts = {check(left, right, algo).verdict for algo in ALGORITHMS}
    assert len(verdicts) == 1


@given(seeds)
def test_unfold_invariance(seed):
    left, right = random_pair(seed, max_size=20)
    expected = subtype_product(left, right).verdict
    assert subtype_product(unfold(left), right).verdict is expected
    assert subtype_product(left, unfold(right)).verdict is expected


@given(seeds)
def test_alpha_invariance(seed):
    # rendering with a disjoint binder pool produces an alpha-variant
    # source string; parsing it must intern to the very same value
    t = from_seed(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "_binder_names",
                   lambda _t: (f"A{i}" for i in itertools.count()))
        renamed = render(t)
    assert parse(renamed) is t


@given(seeds)
def test_memo_never_exceeds_inductive_work(seed):
    left, right = random_pair(seed, max_size=20)
    memo = subtype_memoized(left, right).counters["memo_entries"]
    ind = subtype_inductive(left, right).counters["judgements_visited"]
    assert memo <= ind


@given(seeds)
def test_substitution_respects_binding(seed):
    # binding a name that does not occur free leaves the body as it is
    t = from_seed(seed)
    wrapped = mu("Q", t)
    assert wrapped.body is t
    assert unfold(wrapped) is unfold(t)
