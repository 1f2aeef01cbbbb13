import gc
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

import stcheck
from helpers import dag, inductive_walk, set_walks, weaken
from stcheck import cache_sizes, clear_caches, subtyping, syntax
from stcheck.bench import GenConfig, gen_blowup_family, gen_random, random_pair
from stcheck.errors import NotContractiveError, OpenTypeError, StcheckError
from stcheck.lts import (
    CONT_FIRST, HEAD, RULE, SKIP, _END_ACTS, _table, act_end, act_in_cont,
    act_out_cont, build_lts, in_payload, out_payload, sel_label,
)
from stcheck.subtyping import (
    ALGORITHMS, COUNTER_KEYS, DeadlineExceeded, ProductNode,
    check, export_product_dot, is_inconsistent, product_successors,
    subtype_inductive, subtype_memoized, subtype_product,
)
from stcheck.subterms import sub_pair, sub_top_down
from stcheck.syntax import (
    bvar, end, inp, out, parse, rec, select, size, unfold, var,
)


def relation_nodes(t1, t2, t3):
    """The witnessing relation for (t2, t3), plus the terminal pair."""
    return frozenset({
        ProductNode(t2, t3),
        ProductNode(inp([end()], t2), inp([end()], t3)),
        ProductNode(end(), end()),
        ProductNode(t2, t1),
        ProductNode(inp([t2], t2), inp([t1], t3)),
        ProductNode(inp([end()], t2), inp([end()], t1)),
        ProductNode(SKIP, SKIP),
    })


def test_inconsistent_examples(t1, t2):
    assert not is_inconsistent(ProductNode(end(), end()))
    assert is_inconsistent(ProductNode(t1, t2))
    assert is_inconsistent(ProductNode(end(), parse("rec X . ?[end].X")))
    # an inconsistent pair has no moves, even where some labels match
    assert product_successors(ProductNode(t1, t2)) == []


def test_select_vs_branch_heads_are_inconsistent():
    # neither side enables a required action here; only the head check
    # separates an internal from an external choice
    sel = parse("+{ a: end }")
    bra = parse("&{ a: end }")
    assert is_inconsistent(ProductNode(sel, bra))
    assert is_inconsistent(ProductNode(bra, sel))
    assert not subtype_product(sel, bra).verdict
    assert not subtype_inductive(sel, bra).verdict


def test_skip_only_pairs_with_skip():
    assert not is_inconsistent(ProductNode(SKIP, SKIP))
    assert is_inconsistent(ProductNode(end(), SKIP))
    assert is_inconsistent(ProductNode(SKIP, end()))


def test_product_successors_end():
    assert product_successors(ProductNode(end(), end())) == [
        (act_end, ProductNode(SKIP, SKIP))]
    # in rule order end/end is the axiom: its one action, no premise
    assert stepped(end(), end(), RULE) == (_END_ACTS, ())


def test_a_rule_order_step_returns_the_action_order_tuple():
    # a head keeps one action tuple, in Action order, whatever the order of
    # the successor pairs
    node = parse("?[end].end")
    acts = (act_in_cont, in_payload(1))
    assert stepped(node, node, RULE) == (acts, ((end(), end()),) * 2)
    assert subtyping._step(node, node, RULE)[0] is _table(node)[1]


# product_successors lists the moves in action order: the continuation
# first, then payloads by index, choice labels by name


def test_product_successors_t2_t3(t1, t2, t3):
    assert product_successors(ProductNode(t2, t3)) == [
        (sel_label("exit"), ProductNode(end(), end())),
        (sel_label("replicate"), ProductNode(inp([t2], t2), inp([t1], t3))),
        (sel_label("respond"), ProductNode(inp([end()], t2), inp([end()], t3))),
    ]


def test_product_successors_input_pair(t1, t2):
    assert product_successors(
            ProductNode(inp([end()], t2), inp([end()], t1))) == [
        (act_in_cont, ProductNode(t2, t1)),
        (in_payload(1), ProductNode(end(), end())),
    ]


def test_output_payloads_flip(t1, t2, t3):
    left = parse("![?[end].end].end")
    right = parse("![end].end")
    # arity matches, so the payload pair flips sides
    succs = dict(product_successors(ProductNode(left, right)))
    flipped = succs[[a for a in succs if a.arg == 1][0]]
    assert flipped == ProductNode(parse("end"), parse("?[end].end"))
    assert product_successors(
            ProductNode(out([t1, end()], t2), out([t2, end()], t3))) == [
        (act_out_cont, ProductNode(t2, t3)),
        (out_payload(1), ProductNode(t2, t1)),
        (out_payload(2), ProductNode(end(), end())),
    ]


def test_golden_verdicts_all_algorithms(t1, t2, t3):
    for algo in ALGORITHMS:
        assert check(t2, t1, algo).verdict
        assert check(t2, t3, algo).verdict
        assert not check(t1, t2, algo).verdict


def test_contravariance_of_output_payloads(t1, t2):
    # t2 <= t1, so sending t1 is more permissive than sending t2
    send_t1 = parse("![rec X . +{ respond: ?[end].X, exit: end }].end")
    send_t2 = parse("![rec X . +{ respond: ?[end].X, exit: end, "
                    "replicate: ?[X].X }].end")
    assert subtype_product(send_t1, send_t2).verdict
    assert not subtype_product(send_t2, send_t1).verdict


def test_product_reachable_counts(t2, t3):
    report = subtype_product(t2, t3)
    assert report.verdict
    assert report.counters["product_nodes"] == 7

    report = subtype_product(end(), end())
    assert report.verdict
    assert report.counters["product_nodes"] == 2


def test_figure_graph_node_set(t1, t2, t3):
    # reachable pair set equals the witnessing relation plus (Skip, Skip)
    seen = {ProductNode(t2, t3)}
    stack = [ProductNode(t2, t3)]
    while stack:
        p = stack.pop()
        assert not is_inconsistent(p)
        for _, q in product_successors(p):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    assert seen == relation_nodes(t1, t2, t3)


def all_pairs(t, u):
    """The relation allpairs decides: every cell of its grid that holds."""
    universe, holds, _ = subtyping._sweep(t, u, math.inf)
    return {ProductNode(l, r)
            for l in universe for r in universe if holds(l, r)}


def test_all_pairs_contains_relation(t1, t2, t3):
    good = all_pairs(t2, t3)
    assert relation_nodes(t1, t2, t3) <= good
    assert ProductNode(t1, t2) not in all_pairs(t1, t2)
    both = all_pairs(end(), end())
    assert ProductNode(end(), end()) in both
    assert ProductNode(SKIP, SKIP) in both


def _relation_by_product(t, u):
    """Every cell of the universe grid that subtype_product accepts, with
    (SKIP, SKIP) in and SKIP against a type out."""
    def holds(l, r):
        if l is SKIP or r is SKIP:
            return l is r
        return subtype_product(l, r).verdict

    universe = list(sub_pair(t, u)) + [SKIP]
    return {ProductNode(l, r)
            for l in universe for r in universe if holds(l, r)}


def test_all_pairs_matches_product_on_grid(t2, t3):
    pairs = [(t2, t3)] + [random_pair(i, 40) for i in range(200)]
    pairs += [gen_blowup_family(k) for k in range(1, 7)]
    # several members of this universe share one unfolded head
    pairs.append((parse("rec X . ?[end].X"),
                  parse("?[end].rec X . ?[end].X")))
    for t, u in pairs:
        assert all_pairs(t, u) == _relation_by_product(t, u)


# allpairs (product_nodes, product_edges) on true pairs.  product_edges
# counts the matched moves of every cell of the subterm grid, so a head
# shared by several subterms counts once for each of them.
ALLPAIRS_COUNTERS_ON_BLOWUP = {
    1: (49, 108), 2: (121, 300), 3: (225, 588), 4: (361, 972),
    5: (529, 1452), 6: (729, 2028), 7: (961, 2700), 8: (1225, 3468),
    9: (1521, 4332), 10: (1849, 5292),
}
ALLPAIRS_COUNTERS_ON_TRUE_RANDOM_PAIRS = {69: (4, 1), 89: (9, 4), 167: (4, 1)}


def test_allpairs_counters_on_true_pairs():
    def counters(t, u):
        report = check(t, u, "allpairs")
        assert report.verdict
        return report.counters["product_nodes"], report.counters["product_edges"]

    assert {k: counters(*gen_blowup_family(k)) for k in range(1, 11)} \
        == ALLPAIRS_COUNTERS_ON_BLOWUP
    true_pairs = {i: random_pair(i, 40) for i in range(300)}
    true_pairs = {i: p for i, p in true_pairs.items()
                  if subtype_product(*p).verdict}
    assert {i: counters(*p) for i, p in true_pairs.items()} \
        == ALLPAIRS_COUNTERS_ON_TRUE_RANDOM_PAIRS


def sub_pair_listings(prelude):
    """The rendered members of sub_pair, in its order, on 100 random pairs,
    from a fresh interpreter that runs *prelude* first."""
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    code = (f"{prelude}\n"
            "import json\n"
            "from stcheck.bench import random_pair\n"
            "from stcheck.subterms import sub_pair\n"
            "from stcheck.syntax import render\n"
            "pairs = [random_pair(i, 40) for i in range(100)]\n"
            "listings = [list(map(render, sub_pair(*p))) for p in pairs]\n"
            "print(json.dumps(listings))\n")
    return json.loads(subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True).stdout)


def test_sub_pair_order_does_not_hang_on_object_addresses():
    # the allpairs grid is laid out in this order, and with it which cells
    # are stepped twice: throwaway objects allocated first shift every
    # node's address, and must not change the order
    assert sub_pair_listings("") \
        == sub_pair_listings("junk = [[n] * (n % 7) for n in range(50000)]")


def test_allpairs_builds_no_predecessor_lists_without_a_doomed_cell():
    # No cell of an exp grid is doomed, so the sweep has nothing to
    # propagate.  A map of every cell's predecessors peaked at 3.4 MB on
    # k=60; the bound counts traced bytes, not time.
    import tracemalloc

    pair = gen_blowup_family(60)
    check(*pair, "allpairs")  # compile the tables first
    tracemalloc.start()
    try:
        assert check(*pair, "allpairs").verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_allpairs_refutes_through_a_cell_stepped_before_any_is_doomed(
        monkeypatch):
    # With the root first in the grid, the root cell is stepped before the
    # payload cell (+{ b }, +{ a }) is found doomed, so the sweep must
    # record the root's edges afterwards.
    t = parse("![+{ a: end }].end")
    u = parse("![+{ b: end }].end")
    rest = sub_pair(t, u) - {t, u}
    monkeypatch.setattr(subtyping, "sub_pair", lambda l, r: [t, u, *rest])
    assert not check(t, u, "allpairs").verdict
    assert ProductNode(t, u) not in all_pairs(t, u)


def test_a_grid_member_s_kind_is_its_head_constructor():
    # before the first doomed cell, the sweep tests successor pairs on
    # their nodes' _kind: every grid member's table is compiled, so it is
    # closed and contractive, and its _kind is its head's constructor
    pairs = [random_pair(i, 40) for i in range(500)]
    pairs += [gen_blowup_family(k) for k in range(1, 9)]
    for t, u in pairs:
        for v in [*sub_pair(t, u), SKIP]:
            assert v._kind is type(_table(v)[HEAD]), v


def test_allpairs_unfolds_each_binder_once(monkeypatch):
    # exp k has 2k + 1 binders to unfold, as product does: the subterm
    # walk compiles the tables the grid then reads, and a warm check
    # unfolds nothing
    rewrite = syntax._rewrite
    calls = 0

    def counting_rewrite(*args):
        nonlocal calls
        calls += 1
        return rewrite(*args)

    monkeypatch.setattr(syntax, "_rewrite", counting_rewrite)
    pair = gen_blowup_family(20)
    clear_caches()
    assert check(*pair, "allpairs").verdict
    assert calls == 41
    calls = 0
    assert check(*pair, "allpairs").verdict
    assert calls == 0


def test_allpairs_deadline_overshoot_is_bounded():
    # the sweep must outlast the deadline: on 2 vCPUs k = 200 takes about
    # 90 ms, and a faster machine may take under 50 ms, so the deadline is
    # the 10 ms of the other searches' overshoot test
    left, right = gen_blowup_family(200)
    # a full collection of the objects earlier tests left behind takes as
    # long as the bound: collect them before the timed check, not in it
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        check(left, right, "allpairs", deadline=start + 0.01)
    assert time.perf_counter() - start - 0.01 < 0.5


def test_search_deadline_overshoot_is_bounded():
    for algo, k in (("product", 200), ("memoized", 200), ("inductive", 16)):
        left, right = gen_blowup_family(k)
        gc.collect()  # as in the test above
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            check(left, right, algo, deadline=start + 0.01)
        assert time.perf_counter() - start - 0.01 < 0.5, algo


def test_a_shared_dag_meets_the_deadline():
    # each cold check unfolds the binder, in time linear in its 41
    # distinct nodes, not in its 3^40 leaves
    t = rec(dag(bvar(0)))
    for algo in ALGORITHMS:
        clear_caches()
        gc.collect()  # as in the tests above
        start = time.perf_counter()
        try:
            check(t, t, algo, deadline=start + 0.05)
        except DeadlineExceeded:
            pass
        assert time.perf_counter() - start < 0.5, algo


def test_walks_read_the_clock_once_per_64_units(monkeypatch):
    """``product`` reads the clock per 64 dequeued pairs, ``memoized`` and
    ``inductive`` per 64 entered pairs, plus the first read and the two of
    ``check``; a deadline already passed raises before any step."""
    clock = time.perf_counter
    reads = steps = 0

    def counting_clock():
        nonlocal reads
        reads += 1
        return clock()

    step = subtyping._step

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    cases = (("product", 50, "product_nodes"),
             ("memoized", 50, "memo_entries"),
             ("inductive", 10, "judgements_visited"))
    for algo, k, unit in cases:
        left, right = gen_blowup_family(k)
        far = clock() + 3600
        with monkeypatch.context() as patch:
            patch.setattr(time, "perf_counter", counting_clock)
            reads = 0
            report = check(left, right, algo, deadline=far)
        assert report.verdict, algo
        assert reads <= math.ceil(report.counters[unit] / 64) + 3, algo
        with monkeypatch.context() as patch:
            patch.setattr(subtyping, "_step", counting_step)
            steps = 0
            with pytest.raises(DeadlineExceeded):
                check(left, right, algo, deadline=clock() - 1)
        assert steps == 0, algo


def test_allpairs_reads_the_deadline_in_its_second_pass(monkeypatch):
    """The sweep's first pass reads the clock once per row, one row per
    distinct head, up to the row of the first doomed cell; a refuted grid
    has one, so a second pass steps every row and reads it per row too:
    wherever that cell is, the eighth read falls in the second pass."""
    left, right = random_pair(0, 40)
    universe = [*sub_pair(left, right), SKIP]
    assert len({_table(v)[HEAD] for v in universe}) == 6
    assert not check(left, right, "allpairs").verdict
    reads = 0

    def clock():  # check's start read and the 6 rows of pass 1, then late
        nonlocal reads
        reads += 1
        return 0.0 if reads <= 7 else 2.0

    monkeypatch.setattr(time, "perf_counter", clock)
    with pytest.raises(DeadlineExceeded):
        check(left, right, "allpairs", deadline=1.0)
    assert reads == 8


def test_deadline_exceeded_is_a_public_stcheck_error(t2, t3):
    for algo in ALGORITHMS:
        with pytest.raises(StcheckError) as exc:
            check(t2, t3, algo, deadline=time.perf_counter() - 1)
        assert type(exc.value) is stcheck.DeadlineExceeded is DeadlineExceeded
        assert str(exc.value), algo


# Past every recursion limit the searches ever set (200,000 frames).
DEEP_SEARCH = 3 * 10**5


@pytest.fixture(scope="module")
def deep_chains():
    """A DEEP_SEARCH-deep ``?[end].`` chain, and the same chain with
    ``+{ a: end }`` in place of the final ``end``."""
    t, u = end(), select([("a", end())])
    for _ in range(DEEP_SEARCH):
        t, u = inp([end()], t), inp([end()], u)
    return t, u


# On (t, u) each level pair and its payload pair (end, end) are visited,
# and the search stops at the bottom pair (end, +{ a: end }).
DEEP_REFUTED_COUNTERS = {
    "inductive": {"judgements_visited": 2 * DEEP_SEARCH + 1,
                  "max_context_depth": DEEP_SEARCH + 1},
    "memoized": {"judgements_visited": 2 * DEEP_SEARCH + 1,
                 "memo_entries": DEEP_SEARCH + 2},
    "product": {"product_nodes": DEEP_SEARCH + 3,
                "product_edges": 2 * DEEP_SEARCH + 1},
}


@pytest.mark.parametrize("algo", sorted(DEEP_REFUTED_COUNTERS))
def test_deep_chains_end_in_verdicts(deep_chains, algo):
    t, u = deep_chains
    limit = sys.getrecursionlimit()
    assert check(t, t, algo).verdict is True
    report = check(t, u, algo)
    assert report.verdict is False
    for key, value in DEEP_REFUTED_COUNTERS[algo].items():
        assert report.counters[key] == value, key
    assert sys.getrecursionlimit() == limit


# Counters of the three searches, in SEARCH_COUNTER_KEYS order, taken from
# the commit before the head tables.  On a true pair each search visits all
# it reaches, whatever the order of the moves; the weakened pairs are also
# taken the other way round, where about a quarter are refuted and the
# counters depend on the order in which each search visits the moves.
SEARCH_COUNTER_KEYS = {
    "product": ("product_nodes", "product_edges"),
    "memoized": ("memo_entries", "judgements_visited"),
    "inductive": ("judgements_visited", "max_context_depth"),
}
SEARCH_COUNTERS_ON_BLOWUP = {
    1: ((2, 6), (2, 7), (7, 2)), 2: ((6, 18), (6, 19), (25, 6)),
    3: ((12, 36), (12, 37), (79, 12)), 4: ((20, 60), (20, 61), (223, 20)),
    5: ((30, 90), (30, 91), (577, 30)), 6: ((42, 126), (42, 127), (1405, 42)),
    7: ((56, 168), (56, 169), (3283, 56)), 8: ((72, 216), (72, 217), (7459, 72)),
}
SEARCH_COUNTERS_ON_TRUE_RANDOM_PAIRS = {
    69: ((2, 1), (1, 1), (1, 1)), 89: ((2, 1), (1, 1), (1, 1)),
    167: ((2, 1), (1, 1), (1, 1)),
}
# Over (t, weaken(t)) and (weaken(t), t) for 300 random t, by verdict:
# the number of pairs and the counter sums.
SEARCH_COUNTER_SUMS_ON_WEAKENED = {
    True: (453, ((2370, 3217), (1927, 3125), (3222, 1415))),
    False: (147, ((724, 753), (530, 641), (655, 412))),
}


def search_counters(t, u):
    return tuple(tuple(check(t, u, algo).counters[key] for key in keys)
                 for algo, keys in SEARCH_COUNTER_KEYS.items())


def test_search_counters_on_true_pairs():
    assert {k: search_counters(*gen_blowup_family(k)) for k in range(1, 9)} \
        == SEARCH_COUNTERS_ON_BLOWUP
    true_pairs = {i: random_pair(i, 40) for i in range(300)}
    assert {i: search_counters(*p) for i, p in true_pairs.items()
            if subtype_product(*p).verdict} \
        == SEARCH_COUNTERS_ON_TRUE_RANDOM_PAIRS
    rng = random.Random(5)
    sums = {True: [0, [[0, 0] for _ in SEARCH_COUNTER_KEYS]],
            False: [0, [[0, 0] for _ in SEARCH_COUNTER_KEYS]]}
    for seed in range(300):
        t = gen_random(GenConfig(seed=seed, max_size=25))
        u = weaken(t, rng)
        for left, right in ((t, u), (u, t)):
            entry = sums[subtype_product(left, right).verdict]
            entry[0] += 1
            for acc, values in zip(entry[1], search_counters(left, right)):
                acc[0] += values[0]
                acc[1] += values[1]
    assert {verdict: (n, tuple(map(tuple, acc)))
            for verdict, (n, acc) in sums.items()} \
        == SEARCH_COUNTER_SUMS_ON_WEAKENED


def test_inductive_steps_each_distinct_pair_once(monkeypatch):
    """The visits of ``inductive`` stay exponential, but it applies the
    rules once per distinct pair: as often as ``memoized``, which holds
    each of the k*(k+1) pairs once."""
    steps = 0
    step = subtyping._step

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(subtyping, "_step", counting_step)
    visited = {k: row[2][0] for k, row in SEARCH_COUNTERS_ON_BLOWUP.items()}
    visited.update({9: 16621, 10: 36529})
    for k, expected in visited.items():
        left, right = gen_blowup_family(k)
        steps = 0
        report = subtype_inductive(left, right)
        assert report.counters["judgements_visited"] == expected, k
        stepped = steps
        entries = subtype_memoized(left, right).counters["memo_entries"]
        assert stepped == entries == k * (k + 1), k


# Counter sums over the refuted pairs among random_pair(i, 40), i < 300
# (297 pairs), in COUNTER_KEYS order.  A refuted search stops early, so
# these sums pin the order in which each algorithm visits the moves.
REFUTED_COUNTER_SUMS = {
    "inductive": (329, 0, 0, 0, 327),
    "memoized": (329, 328, 0, 0, 0),
    "product": (0, 0, 379, 83, 0),
    "allpairs": (0, 0, 90736, 24855, 0),
}


def test_counter_sums_on_refuted_random_pairs():
    sums = {algo: [0] * len(COUNTER_KEYS) for algo in ALGORITHMS}
    refuted = 0
    for seed in range(300):
        left, right = random_pair(seed, 40)
        if subtype_product(left, right).verdict:
            continue
        refuted += 1
        for algo in ALGORITHMS:
            counters = check(left, right, algo).counters
            for i, key in enumerate(COUNTER_KEYS):
                sums[algo][i] += counters[key]
    assert refuted == 297
    assert {algo: tuple(v) for algo, v in sums.items()} == REFUTED_COUNTER_SUMS


def test_inductive_examples(t1, t2):
    assert subtype_inductive(t2, t1).verdict
    assert not subtype_inductive(end(), t1).verdict
    report = subtype_inductive(t2, t1)
    assert report.counters["judgements_visited"] >= 1
    assert report.counters["max_context_depth"] >= 1


def test_memoized_examples(t1, t2, t3):
    assert subtype_memoized(t2, t3).verdict
    assert not subtype_memoized(t1, t2).verdict
    assert subtype_memoized(t2, t3).counters["memo_entries"] <= 7


def test_equal_coinductive(t1, t2):
    # equality is subtyping both ways, as `stcheck equal` decides it
    def equal(t, u):
        return check(t, u).verdict and check(u, t).verdict

    assert equal(t1, t1)
    assert equal(t1, unfold(t1))
    assert not equal(t1, t2)


def test_report_sets_the_counters_a_search_does_not_keep(t1, monkeypatch):
    # check fills every COUNTER_KEYS entry a search leaves out with 0
    kept = dict(SEARCH_COUNTER_KEYS, allpairs=SEARCH_COUNTER_KEYS["product"])
    for algo in ALGORITHMS:
        counters = check(t1, t1, algo).counters
        assert list(counters) == [*kept[algo], *(
            key for key in COUNTER_KEYS if key not in kept[algo])], algo
        assert all(counters[key] > 0 for key in kept[algo]), algo
        assert all(counters[key] == 0 for key in COUNTER_KEYS
                   if key not in kept[algo]), algo
    monkeypatch.setitem(subtyping._SEARCHES, "product",
                        lambda t, u, deadline: (True, {"memo_entries": 7}))
    report = check(t1, t1)
    assert report.counters == {**dict.fromkeys(COUNTER_KEYS, 0),
                               "memo_entries": 7}
    assert report.verdict and report.algorithm == "product"


def test_open_types_rejected(t1):
    for algo in ALGORITHMS:
        with pytest.raises(OpenTypeError):
            check(var("X"), t1, algo)
        with pytest.raises(OpenTypeError):
            check(t1, inp([var("X")], end()), algo)
    # a free variable at a head, named or an index dangling under binders,
    # has no table to step, even facing a head it could be refuted against
    for pair in ((var("X"), var("X")), (var("X"), end()), (end(), var("X")),
                 (rec(bvar(1)), end()), (end(), rec(var("X")))):
        with pytest.raises(OpenTypeError):
            is_inconsistent(ProductNode(*pair))


def test_non_contractive_head_raises_before_refutation():
    # the head is an input, but unfolding it must raise: a cold pair is
    # refuted on the constructors only when both sides are contractive
    t = rec(inp([rec(bvar(0))], bvar(0)))
    # a closed chain of binders whose index points back into the chain
    cycle = rec(rec(bvar(1)))
    for left, right in ((t, end()), (cycle, end()),
                        (cycle, inp([end()], end()))):
        for algo in ALGORITHMS:
            with pytest.raises(NotContractiveError):
                check(left, right, algo)
            with pytest.raises(NotContractiveError):
                check(right, left, algo)


def stepped(left, right, order):
    """_step's verdict with the successor pairs listed."""
    moves = subtyping._step(left, right, order)
    return None if moves is None else (moves[0], tuple(moves[1]))


def test_cold_step_matches_warm_step():
    # a step from empty caches (refuted on the constructors where they
    # differ) and a step over two compiled tables give one result
    refuted = 0
    for i in range(300):
        universe = list(sub_pair(*random_pair(i, 40))) + [SKIP]
        cold = {}
        for left in universe:
            for right in universe:
                for order in (RULE, CONT_FIRST):
                    clear_caches()
                    cold[left, right, order] = stepped(left, right, order)
        clear_caches()
        for node in universe:
            _table(node)
        # the constructor the cold step read off a node is its table's,
        # and the table holds the node's unfolded head
        for node in universe:
            table = _table(node)
            assert node._kind is type(table[HEAD]), node
            assert table[HEAD] is unfold(node), node
        compiled = cache_sizes()["head_tables"]
        for (left, right, order), moves in cold.items():
            assert stepped(left, right, order) == moves, (left, right, order)
            refuted += moves is None
        assert cache_sizes()["head_tables"] == compiled
    assert refuted > 10000


def test_a_binder_chain_shares_one_table():
    # compiling a binder strips its chain one binder at a time: the binder,
    # its one-step unfolding and the head all map to one table
    clear_caches()
    t = parse("rec X . rec Y . ?[X].Y")
    inner = parse("rec Y . ?[rec X . rec Y . ?[X].Y].Y")
    head = unfold(t)
    table = _table(t)
    assert table[HEAD] is head
    assert t._table is inner._table is head._table is table
    assert cache_sizes()["head_tables"] == 3


@pytest.mark.parametrize("bad", ["x", None, SKIP])
def test_an_argument_that_is_not_a_type_is_rejected(bad):
    message = re.escape(f"not a type: {bad!r}")
    for left, right in ((bad, end()), (end(), bad)):
        for algo in ALGORITHMS:
            with pytest.raises(ValueError, match=message):
                check(left, right, algo)
        with pytest.raises(ValueError, match=message):
            export_product_dot(left, right)
    with pytest.raises(ValueError, match=message):
        build_lts(bad)


def test_unknown_algorithm_rejected_before_closedness(t1):
    with pytest.raises(ValueError, match="unknown algorithm: 'bogus'"):
        check(t1, t1, "bogus")
    # the name is checked first: an open type does not raise OpenTypeError
    with pytest.raises(ValueError, match="unknown algorithm: 'bogus'"):
        check(var("X"), t1, "bogus")


def test_export_product_dot(t1, t2, t3):
    dot = export_product_dot(t2, t3)
    assert dot.count("[label=\"(") == 7
    assert "fillcolor" not in dot

    dot = export_product_dot(end(), end())
    assert dot.count("[label=\"(") == 2

    dot = export_product_dot(t1, t2)
    assert "doubleoctagon" in dot
    root_line = next(l for l in dot.splitlines() if "doubleoctagon" in l)
    assert "fillcolor" in root_line


# SHA-256 of the concatenated DOT of (t2, t3), (t1, t2), random_pair(i, 40)
# for i < 300 and gen_blowup_family(k) for k <= 4, in that order: the
# export's exact bytes, node order, styles and edge labels included.
PRODUCT_DOT_SHA256 = (
    "f7ef1d57c68abad2682b71a7f15865fe57f62be3770c9ba14bd1d5b85748dccf")


def test_export_product_dot_is_pinned(t1, t2, t3):
    pairs = [(t2, t3), (t1, t2)]
    pairs += [random_pair(i, 40) for i in range(300)]
    pairs += [gen_blowup_family(k) for k in range(1, 5)]
    dot = "".join(export_product_dot(t, u) for t, u in pairs)
    assert hashlib.sha256(dot.encode()).hexdigest() == PRODUCT_DOT_SHA256


def test_agreement_on_random_pairs():
    for seed in range(400):
        left, right = random_pair(seed, max_size=30)
        verdicts = {check(left, right, algo).verdict for algo in ALGORITHMS}
        assert len(verdicts) == 1, (seed, verdicts)


def load_oracle():
    """``perfbench/oracle.py``, loaded by path: the syntactic rules read
    through ``syntax.unfold`` alone, independent of ``lts`` and
    ``subtyping``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "oracle.py")
    spec = importlib.util.spec_from_file_location("stcheck_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_near_miss_pairs_agree_with_the_oracle():
    # a random type against a weakening of it, both ways: most pairs are
    # true and deep, and the refuted ones fail far from the root, so every
    # walk and every rule of _step is reached on both verdicts
    is_subtype = load_oracle().is_subtype
    pairs = []
    for s in range(1500):
        t = gen_random(GenConfig(seed=s, max_size=30))
        w = weaken(t, random.Random(s))
        pairs += [(t, w), (w, t)]
    true = 0
    for t, u in pairs:
        expected = is_subtype(t, u)
        true += expected
        for algo in ALGORITHMS:
            assert check(t, u, algo).verdict == expected, (t, u, algo)
    assert (len(pairs), true) == (3000, 2118)


def test_the_per_left_store_matches_a_set_of_pair_tuples():
    # product and memoized keep a left node's one right node, or the set
    # of them from its second: random pairs reach nearly one right node per
    # left node, exp k up to k + 1, and the near-miss pairs are deep; the
    # export's labels outgrow the pairs on exp, so it is compared to k = 8.
    # inductive keeps its open path in one dict, each pair's premises and
    # no end/end premise: it is compared with a set, a list and a stack,
    # stepping each entered pair, to k = 10, past which its visits explode
    pairs = [random_pair(i, 40) for i in range(2000)]
    for s in range(1500):
        t = gen_random(GenConfig(seed=s, max_size=30))
        pairs.append((t, weaken(t, random.Random(s))))
    cases = [(pair, True, True) for pair in pairs]
    cases += [(gen_blowup_family(k), k <= 8, k <= 10) for k in range(1, 21)]
    for (left, right), export, inductive in cases:
        for t, u in ((left, right), (right, left)):
            if inductive:
                ind = check(t, u, "inductive")
                assert (ind.verdict, ind.counters["judgements_visited"],
                        ind.counters["max_context_depth"]) \
                    == inductive_walk(t, u), (t, u)
            want = set_walks(t, u, export)
            product = check(t, u, "product")
            memo = check(t, u, "memoized")
            assert (product.verdict, product.counters["product_nodes"],
                    product.counters["product_edges"]) == want["product"]
            assert (memo.verdict, memo.counters["memo_entries"],
                    memo.counters["judgements_visited"]) == want["memoized"]
            if want["dot"]:
                assert export_product_dot(t, u) == want["dot"], (t, u)
    # on exp the left nodes meet several right nodes each: the sets are used
    left, right = gen_blowup_family(20)
    assert (check(left, right, "product").counters["product_nodes"]
            > len(sub_top_down(left)))


def test_reflexivity_random():
    for seed in range(200):
        t = gen_random(GenConfig(seed=seed, max_size=30))
        assert subtype_product(t, t).verdict


def test_transitivity_on_constructed_chains():
    rng = random.Random(7)
    found = 0
    for seed in range(400):
        t = gen_random(GenConfig(seed=seed, max_size=25))
        u = weaken(t, rng)
        v = weaken(u, rng)
        if subtype_product(t, u).verdict and subtype_product(u, v).verdict:
            found += 1
            assert subtype_product(t, v).verdict
    assert found >= 100


def test_unfold_invariance_random():
    for seed in range(200):
        left, right = random_pair(seed, max_size=25)
        expected = subtype_product(left, right).verdict
        assert subtype_product(unfold(left), right).verdict == expected
        assert subtype_product(left, unfold(right)).verdict == expected


def test_counter_monotonicity_random():
    for seed in range(200):
        left, right = random_pair(seed, max_size=25)
        memo = subtype_memoized(left, right)
        ind = subtype_inductive(left, right)
        assert (memo.counters["memo_entries"]
                <= ind.counters["judgements_visited"])


def test_memoized_assumes_at_most_one_pair_per_subterm_pair():
    # memoized is quadratic: its assumptions never outnumber the pairs of
    # a left and a right top-down subterm
    pairs = [random_pair(i, 40) for i in range(2000)]
    pairs += [gen_blowup_family(k) for k in range(1, 31)]
    for left, right in pairs:
        entries = subtype_memoized(left, right).counters["memo_entries"]
        assert entries <= len(sub_top_down(left)) * len(sub_top_down(right))


def test_product_node_bound_random():
    for seed in range(200):
        left, right = random_pair(seed, max_size=30)
        report = subtype_product(left, right)
        bound = (size(left) + size(right) + 2) ** 2
        assert report.counters["product_nodes"] <= bound


def test_soundness_reachable_consistent_set_is_a_simulation(t2, t3):
    # when the verdict is true, the reachable pair set itself satisfies
    # every matched-move clause: each pair is consistent and all its
    # required successors stay inside the set
    report = subtype_product(t2, t3)
    assert report.verdict
    seen = {ProductNode(t2, t3)}
    stack = [ProductNode(t2, t3)]
    while stack:
        p = stack.pop()
        assert not is_inconsistent(p)
        for _, q in product_successors(p):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    for p in seen:
        for _, q in product_successors(p):
            assert q in seen
