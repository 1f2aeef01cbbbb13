from stcheck.bench import GenConfig, gen_random
from stcheck.lts import SKIP, build_lts
from stcheck.subterms import sub_bottom_up, sub_pair, sub_top_down
from stcheck.syntax import end, free_names, inp, parse, select, size, unfold, var


def test_sub_bottom_up_atomic():
    assert sub_bottom_up(end()) == frozenset({end()})
    assert sub_bottom_up(var("X")) == frozenset({var("X")})


def test_sub_bottom_up_t1(t1):
    expected = frozenset({
        t1,
        select([("respond", inp([end()], t1)), ("exit", end())]),
        inp([end()], t1),
        end(),
    })
    assert sub_bottom_up(t1) == expected


def test_sub_top_down_atomic():
    assert sub_top_down(end()) == frozenset({end()})


def test_sub_top_down_t1(t1):
    expected = frozenset({
        t1,
        select([("respond", inp([end()], t1)), ("exit", end())]),
        inp([end()], t1),
        end(),
    })
    assert sub_top_down(t1) == expected


def test_sub_top_down_t2_count(t2):
    subs = sub_top_down(t2)
    assert len(subs) == 5
    assert subs == frozenset({
        t2, unfold(t2), inp([end()], t2), inp([t2], t2), end(),
    })


def test_sub_pair(t1, t2, t3):
    assert sub_pair(end(), end()) == frozenset({end()})
    assert sub_pair(t2, t3) >= sub_top_down(t2)
    assert len(sub_pair(t1, t1)) == len(sub_top_down(t1)) == 4


def test_subterm_sets_contain_root_and_are_linear():
    for seed in range(300):
        t = gen_random(GenConfig(seed=seed, max_size=50))
        subs = sub_top_down(t)
        assert t in subs
        assert len(subs) <= size(t)


def test_top_down_closed_under_successors():
    for seed in range(100):
        t = gen_random(GenConfig(seed=seed, max_size=30))
        subs = sub_top_down(t)
        for u in subs:
            for succ in build_lts(u).adjacency[u].values():
                assert succ is SKIP or succ in subs


def test_independent_of_bound_names():
    a = parse("rec X . ?[end].X")
    b = parse("rec Loop . ?[end].Loop")
    assert sub_top_down(a) == sub_top_down(b)


def test_shared_dag_is_walked_once_per_node():
    # 41 distinct nodes whose tree has about 3**40 nodes: a walk of the
    # tree would not finish
    b = var("X")
    for _ in range(40):
        b = inp([b, b], b)
    assert free_names(b) == frozenset({"X"})
    subterms = sub_bottom_up(b)
    assert len(subterms) == 41 and var("X") in subterms
