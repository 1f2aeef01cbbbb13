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


def test_all_pairs_matches_product_on_grid(t2, t3):
    good = subtype_all_pairs(t2, t3)
    for p in good:
        if p.left is SKIP or p.right is SKIP:
            continue
        assert subtype_product(p.left, p.right).verdict


def test_allpairs_deadline_overshoot_is_bounded():
    left, right = gen_blowup_family(120)
    start = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        check(left, right, "allpairs", deadline=start + 0.05)
    assert time.perf_counter() - start - 0.05 < 0.5


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
