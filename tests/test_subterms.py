from helpers import top_down_reference
from stcheck import clear_caches
from stcheck.bench import GenConfig, gen_blowup_family, gen_random, random_pair
from stcheck.lts import SKIP, build_lts
from stcheck.subterms import sub_bottom_up, sub_pair, sub_top_down
from stcheck.subtyping import ALGORITHMS, check
from stcheck.syntax import (
    bvar, end, free_names, inp, parse, rec, select, size, unfold, var,
)


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


def test_sub_top_down_of_binders_without_a_closed_head():
    # the walk takes a binder's unfolding from its head table only when the
    # binder is contractive and its body no binder: a binder over itself or
    # a variable has no table, and one with a dangling index or a free
    # variable in its payloads unfolds to its head all the same
    loop, free = rec(bvar(0)), rec(var("Y"))
    open_payload = parse("rec X . ?[Y].X")
    dangling = rec(inp([bvar(1)], bvar(0)))
    expected = {
        loop: {loop},
        free: {free, var("Y")},
        open_payload: {open_payload, inp([var("Y")], open_payload), var("Y")},
        dangling: {dangling, inp([bvar(0)], dangling), bvar(0)},
    }
    for t, members in expected.items():
        clear_caches()
        assert sub_top_down(t) == frozenset(members)
        assert list(sub_pair(t, t)) == top_down_reference(t)


def subterm_pairs():
    yield from (random_pair(i, 40) for i in range(500))
    yield from (gen_blowup_family(k) for k in range(1, 9))
    yield parse("rec X . rec Y . ?[X].Y"), parse("rec X . rec Y . ?[X].Y")


def test_sub_pair_matches_the_substituting_walk():
    # the same members in the same order, whether the binders' head tables
    # are cold or every algorithm has compiled them
    for t, u in subterm_pairs():
        clear_caches()
        assert list(sub_pair(t, u)) == top_down_reference(t, u)
        for algorithm in ALGORITHMS:
            check(t, u, algorithm)
        assert list(sub_pair(t, u)) == top_down_reference(t, u)
