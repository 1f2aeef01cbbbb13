import hashlib
import re

import pytest

from helpers import expected_edges
from stcheck.bench import GenConfig, gen_random, random_pair
from stcheck.errors import OpenTypeError
from stcheck.lts import (
    SKIP, act_end, act_in_cont, act_out_cont, build_lts, in_payload,
    lts_to_dot, out_payload, sel_label,
)
from stcheck.syntax import bvar, end, inp, parse, render, size, unfold, var


def moves(t):
    """The outgoing edges of *t* in its own LTS."""
    return build_lts(t).adjacency[t]


def test_transitions_end():
    assert moves(end()) == {act_end: SKIP}


def test_transitions_select(t1):
    assert moves(t1) == {
        sel_label("respond"): inp([end()], t1),
        sel_label("exit"): end(),
    }


def test_transitions_input(t1):
    node = inp([end()], t1)
    assert moves(node) == {act_in_cont: t1, in_payload(1): end()}


def test_transitions_output():
    node = parse("![end,end].?[end].end")
    succ = moves(node)
    assert set(succ) == {out_payload(1), out_payload(2), act_out_cont}
    assert succ[act_out_cont] == parse("?[end].end")


def test_build_lts_rejects_an_open_root():
    for t in (var("X"), inp([var("X")], end()), inp([end()], bvar(0))):
        with pytest.raises(OpenTypeError, match=re.escape(render(t))):
            build_lts(t)


def test_skip_has_no_transitions():
    assert build_lts(end()).adjacency[SKIP] == {}


def test_build_lts_end():
    lts = build_lts(end())
    assert lts.nodes == frozenset({end(), SKIP})
    assert lts.num_edges == 1


def test_build_lts_t1(t1):
    lts = build_lts(t1)
    assert len(lts.nodes) == 4
    assert lts.num_edges == 5


def test_build_lts_t2(t2):
    lts = build_lts(t2)
    assert len(lts.nodes) == 5
    assert lts.num_edges == 8


def test_out_degree_examples():
    assert len(moves(end())) == 1
    assert len(moves(parse("rec X . end"))) == 1  # its unfolding's moves
    assert len(moves(parse("?[end,end].end"))) == 3
    assert len(moves(parse("&{ a: end, b: end }"))) == 2


def test_lts_size_bounds_random():
    for seed in range(500):
        t = gen_random(GenConfig(seed=seed, max_size=60))
        lts = build_lts(t)
        assert lts.num_edges <= 2 * size(t) - 1
        assert len(lts.nodes) <= size(t) + 1


def test_unfold_invariance_of_lts(t2):
    a = build_lts(t2)
    b = build_lts(unfold(t2))
    assert a.nodes | {unfold(t2)} == b.nodes | {t2}
    # transitions agree on every shared node
    for node in a.nodes & b.nodes:
        assert a.adjacency[node] == b.adjacency[node]


def test_lts_owns_its_adjacency(t2):
    lts = build_lts(t2)
    expected = dict(lts.adjacency[t2])
    lts.adjacency[t2].clear()
    lts.adjacency[t2][act_end] = SKIP
    assert build_lts(t2).adjacency[t2] == expected == expected_edges(t2)


def test_lts_fields_cannot_be_rebound(t2):
    lts = build_lts(t2)
    with pytest.raises(AttributeError):
        lts.root = t2
    with pytest.raises(AttributeError):
        lts.adjacency = {}


def test_determinism_property(t2):
    # adjacency maps are action-keyed, so determinism holds by construction;
    # check every node's map against its unfolding, which reads no head
    # table, and that it stays in the LTS
    types = [t2, parse("rec X . +{ a: ?[end].X, b: end }")]
    types += [side for i in range(300) for side in random_pair(i, 40)]
    for t in types:
        lts = build_lts(t)
        for node, succ in lts.adjacency.items():
            assert succ == expected_edges(node)
            assert set(succ.values()) <= lts.nodes


def test_dot_export(t1):
    dot = lts_to_dot(build_lts(t1))
    assert dot.startswith("digraph lts {")
    assert dot.count("->") == 5
    assert 'label="+respond"' in dot and 'label="?p1"' in dot


# SHA-256 of the concatenated DOT of both sides of random_pair(i, 40) for
# i < 300, left side first: the export's exact bytes, node order, shapes
# and edge labels included.
LTS_DOT_SHA256 = (
    "7b7e09f3fdbc3ab7bfe3799417e7df7ed0142fc8fe43a531d84ac7c28acc12ea")


def test_lts_dot_is_pinned():
    sides = [side for i in range(300) for side in random_pair(i, 40)]
    dot = "".join(lts_to_dot(build_lts(side)) for side in sides)
    assert hashlib.sha256(dot.encode()).hexdigest() == LTS_DOT_SHA256
