import hashlib
import re

import pytest

from stcheck.bench import GenConfig, gen_random, random_pair
from stcheck.errors import OpenTypeError
from stcheck.lts import (
    SKIP, act_end, act_in_cont, act_out_cont, build_lts, in_payload,
    lts_to_dot, out_degree, out_payload, sel_label, transitions,
)
from stcheck.syntax import bvar, end, inp, parse, render, size, unfold, var


def test_transitions_end():
    assert transitions(end()) == {act_end: SKIP}


def test_transitions_select(t1):
    assert transitions(t1) == {
        sel_label("respond"): inp([end()], t1),
        sel_label("exit"): end(),
    }


def test_transitions_input(t1):
    node = inp([end()], t1)
    assert transitions(node) == {act_in_cont: t1, in_payload(1): end()}


def test_transitions_output():
    node = parse("![end,end].?[end].end")
    succ = transitions(node)
    assert set(succ) == {out_payload(1), out_payload(2), act_out_cont}
    assert succ[act_out_cont] == parse("?[end].end")


def test_transitions_open_type_rejected():
    with pytest.raises(OpenTypeError):
        transitions(var("X"))
    with pytest.raises(OpenTypeError):
        transitions(inp([var("X")], end()))


def test_build_lts_rejects_an_open_root():
    for t in (var("X"), inp([var("X")], end()), inp([end()], bvar(0))):
        with pytest.raises(OpenTypeError, match=re.escape(render(t))):
            build_lts(t)


def test_skip_has_no_transitions():
    assert transitions(SKIP) == {}


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
    assert out_degree(end()) == 1
    assert out_degree(parse("rec X . end")) == 0
    assert out_degree(parse("?[end,end].end")) == 3
    assert out_degree(var("X")) == 0
    assert out_degree(parse("&{ a: end, b: end }")) == 2


def test_lts_size_bounds_random():
    for seed in range(500):
        t = gen_random(GenConfig(seed=seed, max_size=60))
        lts = build_lts(t)
        assert lts.num_edges <= 2 * size(t) - 1
        assert len(lts.nodes) <= size(t) + 1


def test_out_degree_matches_edges(t2):
    lts = build_lts(t2)
    for node in lts.nodes:
        if node is SKIP:
            assert not lts.adjacency[node]
        else:
            assert len(lts.adjacency[node]) == out_degree(unfold(node))


def test_unfold_invariance_of_lts(t2):
    a = build_lts(t2)
    b = build_lts(unfold(t2))
    assert a.nodes | {unfold(t2)} == b.nodes | {t2}
    # transitions agree on every shared node
    for node in a.nodes & b.nodes:
        assert a.adjacency[node] == b.adjacency[node]


def test_lts_owns_its_adjacency(t2):
    lts = build_lts(t2)
    expected = dict(transitions(t2))
    lts.adjacency[t2].clear()
    lts.adjacency[t2][act_end] = SKIP
    assert transitions(t2) == expected
    assert build_lts(t2).adjacency[t2] == expected


def test_lts_fields_cannot_be_rebound(t2):
    lts = build_lts(t2)
    with pytest.raises(AttributeError):
        lts.root = t2
    with pytest.raises(AttributeError):
        lts.adjacency = {}


def test_determinism_property():
    # adjacency maps are action-keyed, so determinism holds by construction;
    # check every node's map agrees with transitions and stays in the LTS
    t = parse("rec X . +{ a: ?[end].X, b: end }")
    lts = build_lts(t)
    for node, succ in lts.adjacency.items():
        assert succ == transitions(node)
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
