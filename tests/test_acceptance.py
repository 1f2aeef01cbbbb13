"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line so the whole gate can be read
off a plain ``pytest -v`` run.  Tolerances and sample sizes are fixed here,
not configurable.
"""

import random
import time

import stcheck.syntax as syntax
from helpers import weaken
from stcheck.bench import (
    GenConfig, fit_quadratic, gen_blowup_family, gen_random, random_pair,
)
from stcheck.lts import SKIP, build_lts
from stcheck.subtyping import (
    ALGORITHMS, ProductNode, check, is_inconsistent, product_successors,
    subtype_inductive, subtype_memoized, subtype_product,
)
from stcheck.syntax import end, inp, parse, render, size, unfold

import itertools

import pytest


def _verdict(ok: bool, name: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_golden_verdicts(t1, t2, t3):
    start = time.perf_counter()
    ok = True
    for algo in ALGORITHMS:
        ok &= check(t2, t1, algo).verdict
        ok &= check(t2, t3, algo).verdict
        ok &= not check(t1, t2, algo).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(ok, "criterion-1",
             f"golden verdicts, 4 algorithms, {elapsed:.3f}s (< 1s)")


def test_criterion_2_pair_graph_reproduction(t1, t2, t3):
    expected = frozenset({
        ProductNode(t2, t3),
        ProductNode(inp([end()], t2), inp([end()], t3)),
        ProductNode(end(), end()),
        ProductNode(t2, t1),
        ProductNode(inp([t2], t2), inp([t1], t3)),
        ProductNode(inp([end()], t2), inp([end()], t1)),
        ProductNode(SKIP, SKIP),
    })
    seen = {ProductNode(t2, t3)}
    stack = [ProductNode(t2, t3)]
    bad = 0
    while stack:
        p = stack.pop()
        bad += is_inconsistent(p)
        for _, q in product_successors(p):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    ok = len(seen) == 7 and bad == 0 and seen == expected
    _verdict(ok, "criterion-2",
             f"reachable pair graph: {len(seen)} nodes (=7), "
             f"{bad} inconsistent (=0), exact node-set match={seen == expected}")


def test_criterion_3_lts_size_bounds():
    violations = 0
    n = 10_000
    for seed in range(n):
        t = gen_random(GenConfig(seed=seed, max_size=60))
        lts = build_lts(t)
        if lts.num_edges > 2 * size(t) - 1:
            violations += 1
        elif len(lts.nodes) > size(t) + 1:
            violations += 1
    _verdict(violations == 0, "criterion-3",
             f"LTS bounds on {n} random types of size <= 60: "
             f"{violations} violations")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    n_pairs, n_triples = 10_000, 1_000
    disagreements = irreflexive = intransitive = 0
    for seed in range(n_pairs):
        left, right = random_pair(seed, max_size=40)
        verdicts = {check(left, right, algo).verdict for algo in ALGORITHMS}
        if len(verdicts) != 1:
            disagreements += 1
        if not subtype_product(left, left).verdict:
            irreflexive += 1
    rng = random.Random(2026)
    triples = 0
    seed = 0
    while triples < n_triples:
        t = gen_random(GenConfig(seed=seed, max_size=30))
        seed += 1
        u = weaken(t, rng)
        v = weaken(u, rng)
        if subtype_product(t, u).verdict and subtype_product(u, v).verdict:
            triples += 1
            if not subtype_product(t, v).verdict:
                intransitive += 1
    elapsed = time.perf_counter() - start
    ok = (disagreements == irreflexive == intransitive == 0
          and elapsed < 60.0)
    _verdict(ok, "criterion-4",
             f"{n_pairs} pairs agree across 4 algorithms "
             f"({disagreements} disagreements, {irreflexive} reflexivity "
             f"violations), {triples} transitivity triples "
             f"({intransitive} violations), {elapsed:.1f}s (< 60s)")


def test_criterion_5_complexity_separation():
    judgements, memo_leq = {}, True
    for k in range(1, 12):
        left, right = gen_blowup_family(k)
        ind = subtype_inductive(left, right)
        memo = subtype_memoized(left, right)
        judgements[k] = ind.counters["judgements_visited"]
        memo_leq &= (memo.counters["memo_entries"]
                     <= ind.counters["judgements_visited"])
    ratios = {k: judgements[k + 1] / judgements[k] for k in range(3, 11)}
    growth_ok = all(r >= 1.5 for r in ratios.values())

    ks = list(range(3, 13))
    pnodes = []
    for k in ks:
        left, right = gen_blowup_family(k)
        pnodes.append(subtype_product(left, right).counters["product_nodes"])
    c, resid = fit_quadratic(ks, pnodes)
    fit_ok = resid <= 0.25

    left, right = gen_blowup_family(50)
    start = time.perf_counter()
    big = subtype_product(left, right)
    big_elapsed = time.perf_counter() - start
    big_ok = big.verdict and big_elapsed < 1.0

    ok = growth_ok and memo_leq and fit_ok and big_ok
    _verdict(ok, "criterion-5",
             f"inductive growth min ratio {min(ratios.values()):.2f} "
             f"(>= 1.5 for k=3..10), memo <= inductive at every k: "
             f"{memo_leq}, product_nodes ~ {c:.2f}*k^2 with max residual "
             f"{resid:.1%} (<= 25%), product k=50 in {big_elapsed:.3f}s (< 1s)")


def test_criterion_6_quadratic_bound():
    violations = 0
    n = 2_000
    for seed in range(n):
        left, right = random_pair(seed, max_size=40)
        got = subtype_product(left, right).counters["product_nodes"]
        if got > (size(left) + size(right) + 2) ** 2:
            violations += 1
    for k in range(1, 13):
        left, right = gen_blowup_family(k)
        got = subtype_product(left, right).counters["product_nodes"]
        if got > (size(left) + size(right) + 2) ** 2:
            violations += 1
    _verdict(violations == 0, "criterion-6",
             f"product_nodes <= (|T|+|U|+2)^2 on {n} random pairs plus the "
             f"blow-up family: {violations} violations")


def test_criterion_7_unfold_alpha_invariance():
    violations = 0
    n = 1_000
    for seed in range(n):
        left, right = random_pair(seed, max_size=30)
        expected = subtype_product(left, right).verdict

        if subtype_product(unfold(left), right).verdict is not expected:
            violations += 1
        if subtype_product(left, unfold(right)).verdict is not expected:
            violations += 1

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(syntax, "_binder_names",
                       lambda _t: (f"R{i}" for i in itertools.count()))
            renamed_left = parse(render(left))
            renamed_right = parse(render(right))
        if subtype_product(renamed_left, renamed_right).verdict is not expected:
            violations += 1
    _verdict(violations == 0, "criterion-7",
             f"unfold and binder-renaming invariance on {n} random pairs: "
             f"{violations} violations")
