"""The reference checker against the rules and the production algorithms."""

import pytest

from stcheck.bench import gen_blowup_family, random_pair
from stcheck.subtyping import ALGORITHMS, check
from stcheck.syntax import end, inp, parse

from oracle import is_subtype

T1 = "rec X . +{ respond: ?[end].X, exit: end }"
T2 = "rec X . +{ respond: ?[end].X, exit: end, replicate: ?[X].X }"

GOLDEN = [
    ("end", "end", True),
    ("end", "?[end].end", False),
    ("?[end].end", "![end].end", False),
    ("?[end, end].end", "?[end].end", False),
    ("![end, end].end", "![end].end", False),
    ("&{a: end}", "&{a: end, b: end}", True),
    ("&{a: end, b: end}", "&{a: end}", False),
    ("+{a: end, b: end}", "+{a: end}", True),
    ("+{a: end}", "+{a: end, b: end}", False),
    ("+{a: end}", "&{a: end}", False),
    ("?[&{a: end}].end", "?[&{a: end, b: end}].end", True),
    ("?[&{a: end, b: end}].end", "?[&{a: end}].end", False),
    # output payloads are contravariant
    ("![&{a: end, b: end}].end", "![&{a: end}].end", True),
    ("![&{a: end}].end", "![&{a: end, b: end}].end", False),
    # a type and its unfolding are the same type
    ("rec X . ?[end].X", "?[end].rec Y . ?[end].Y", True),
    ("?[end].rec Y . ?[end].Y", "rec X . ?[end].X", True),
    ("rec X . ?[end].X", "rec X . ?[end].?[end].X", True),
    ("rec X . &{a: X}", "rec X . &{a: X, b: end}", True),
    ("rec X . &{a: X, b: end}", "rec X . &{a: X}", False),
    (T2, T1, True),
    (T1, T2, False),
]


@pytest.mark.parametrize("left,right,expected", GOLDEN)
def test_golden(left, right, expected):
    assert is_subtype(parse(left), parse(right)) is expected


def test_blowup_family_is_true():
    for k in range(1, 9):
        left, right = gen_blowup_family(k)
        assert is_subtype(left, right)


def test_agrees_with_every_algorithm_on_random_pairs():
    verdicts = []
    for seed in range(1500):
        left, right = random_pair(seed, 40)
        expected = is_subtype(left, right)
        verdicts.append(expected)
        for algo in ALGORITHMS:
            assert check(left, right, algo).verdict is expected, (seed, algo)
    assert any(verdicts) and not all(verdicts)


def test_deep_chain_needs_no_recursion():
    t = end()
    for _ in range(20_000):
        t = inp([end()], t)
    assert is_subtype(t, t)
