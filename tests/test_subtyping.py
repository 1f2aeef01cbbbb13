import hashlib
import random
import time

import pytest

from helpers import weaken
from stcheck.bench import GenConfig, gen_blowup_family, gen_random, random_pair
from stcheck.errors import OpenTypeError
from stcheck.lts import (
    SKIP, act_end, act_in_cont, act_out_cont, in_payload, out_payload,
    sel_label,
)
from stcheck.subtyping import (
    ALGORITHMS, COUNTER_KEYS, DeadlineExceeded, ProductNode,
    check, equal_coinductive, export_product_dot, is_inconsistent,
    product_successors, subtype_all_pairs, subtype_inductive,
    subtype_memoized, subtype_product,
)
from stcheck.subterms import sub_pair
from stcheck.syntax import end, inp, out, parse, size, unfold, var


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


def test_all_pairs_contains_relation(t1, t2, t3):
    good = subtype_all_pairs(t2, t3)
    assert relation_nodes(t1, t2, t3) <= good
    assert ProductNode(t1, t2) not in subtype_all_pairs(t1, t2)
    both = subtype_all_pairs(end(), end())
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
        assert subtype_all_pairs(t, u) == _relation_by_product(t, u)


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


def test_allpairs_deadline_overshoot_is_bounded():
    left, right = gen_blowup_family(120)
    start = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        check(left, right, "allpairs", deadline=start + 0.05)
    assert time.perf_counter() - start - 0.05 < 0.5


def test_search_deadline_overshoot_is_bounded():
    for algo, k in (("product", 200), ("memoized", 200), ("inductive", 16)):
        left, right = gen_blowup_family(k)
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            check(left, right, algo, deadline=start + 0.01)
        assert time.perf_counter() - start - 0.01 < 0.5, algo


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
    assert equal_coinductive(t1, t1)
    assert equal_coinductive(t1, unfold(t1))
    assert not equal_coinductive(t1, t2)


def test_open_types_rejected(t1):
    for algo in ALGORITHMS:
        with pytest.raises(OpenTypeError):
            check(var("X"), t1, algo)
        with pytest.raises(OpenTypeError):
            check(t1, inp([var("X")], end()), algo)
    # a free variable at a head has no table to step
    with pytest.raises(OpenTypeError):
        is_inconsistent(ProductNode(var("X"), var("X")))


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
