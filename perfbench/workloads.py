"""Seeded inputs of the three workloads, rendered to text.

A workload gives each algorithm a list of ops.  An op is a pair
``(left, right)`` of type texts; ``None`` on either side stands for the
workload's interface, which a worker parses once during set-up.  Beside
the texts the benchmark keeps, per op, the verdict it must see and any
count it must see; workers receive only the texts.

Why each workload (also in BENCHMARK.json):

* ``exp-tower`` -- the paper's headline.  ``gen_blowup_family(k)`` pairs:
  ``inductive`` grows exponentially in k while ``product`` visits exactly
  k*(k+1) pair nodes.  Search is almost all of the work.  The family has
  no randomness, so the seed does not change these inputs.
* ``random-pairs`` -- 2,000 small independent random pairs, mostly refuted
  after a few pairs: parsing and cold lazy LTS building dominate every
  algorithm except ``allpairs``, whose full grid dominates it (it gets
  every 2nd pair).  A fixed cost added to every check shows here.
* ``interface-variants`` -- one fixed interface checked, in both
  directions, against seeded variants that each widen it at one choice
  site, every site once.  Variants share most subterms with the
  interface, so interning and the LTS caches are reused across ops, and
  about a quarter of the verdicts are true, so the whole pair graph is
  explored.  ``allpairs`` gets the variants of every 16th site only: its
  grid is quadratic in the subterm union on every op.

Passes are kept short (about half a second each) so that a run holds many
rounds; see ``run.py`` for why that matters.
"""

from __future__ import annotations

import hashlib
import json
from random import Random
from typing import Dict, List, Optional, Tuple

from stcheck.bench import GenConfig, gen_blowup_family, gen_random, random_pair
from stcheck.syntax import (
    Branch, Input, Output, Rec, Select, TypeExpr, branch, inp, out, rec,
    render, select,
)

import oracle

ALGORITHMS = ("product", "memoized", "inductive", "allpairs")
WORKLOADS = ("exp-tower", "random-pairs", "interface-variants")

EXP_KS = {
    "product": (50, 100, 200),
    "memoized": (50, 100, 200),
    "inductive": (11, 12, 13),
    "allpairs": (50, 100),
}

RANDOM_PAIRS = 2000
RANDOM_MAX_SIZE = 40
RANDOM_ALLPAIRS_EVERY = 2

# The interface is fixed, not drawn from the seed: how much a variant check
# costs depends far more on the interface than on the variant (over the
# first 12 seeded interfaces of this size, 200 inductive checks took from
# 0.05 s to 8.6 s), so a seeded interface would make the pass times differ
# between seeds by more than any bound.  This one has size 501 and 102
# choice sites; its inductive checks still have a 10-30x tail over their
# median.  For the same reason every site is widened in exactly one
# variant, and at no other site: the seed picks the label dropped or
# added at each site, and the order of the ops.
INTERFACE = GenConfig(seed=7003, max_size=900, max_labels=6)
VARIANT_ALLPAIRS_EVERY = 16
FRESH_LABELS = "abcdefgh"

Op = Tuple[Optional[str], Optional[str]]


class Workload:
    """Inputs of one workload for one seed."""

    def __init__(self, name: str, interface: Optional[str],
                 ops: Dict[str, List[Op]], expect: Dict[str, List[bool]],
                 product_nodes: Optional[List[int]] = None):
        self.name = name
        self.interface = interface
        self.ops = ops
        self.expect = expect
        # exact pair-node count each product op must report, where known
        self.product_nodes = product_nodes

    def digest(self) -> str:
        """SHA-256 of the input texts, independent of the known answers."""
        blob = json.dumps({"interface": self.interface, "ops": self.ops},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def build(name: str, seed: int) -> Workload:
    if name == "exp-tower":
        return _exp_tower()
    if name == "random-pairs":
        return _random_pairs(seed)
    if name == "interface-variants":
        return _interface_variants(seed)
    raise ValueError(f"unknown workload: {name!r}")


def _exp_tower() -> Workload:
    texts = {}
    for k in sorted({k for ks in EXP_KS.values() for k in ks}):
        left, right = gen_blowup_family(k)
        texts[k] = (render(left), render(right))
    ops = {algo: [texts[k] for k in ks] for algo, ks in EXP_KS.items()}
    expect = {algo: [True] * len(ks) for algo, ks in EXP_KS.items()}
    nodes = [k * (k + 1) for k in EXP_KS["product"]]
    return Workload("exp-tower", None, ops, expect, product_nodes=nodes)


def _random_pairs(seed: int) -> Workload:
    texts = []
    expect = []
    for i in range(RANDOM_PAIRS):
        left, right = random_pair(seed * RANDOM_PAIRS + i, RANDOM_MAX_SIZE)
        texts.append((render(left), render(right)))
        expect.append(oracle.is_subtype(left, right))
    return _shared_ops("random-pairs", None, texts, expect,
                       range(0, RANDOM_PAIRS, RANDOM_ALLPAIRS_EVERY))


def _interface_variants(seed: int) -> Workload:
    interface = gen_random(INTERFACE)
    sites = _count_sites(interface, 0)
    rng = Random(seed)
    order = list(range(sites))
    rng.shuffle(order)
    texts: List[Op] = []
    expect: List[bool] = []
    for site in order:
        variant = _widen(interface, 1, site, rng, [0])
        # the variant is checked as a supertype at even sites, as a
        # subtype at odd ones
        if site % 2 == 0:
            texts.append((None, render(variant)))
            expect.append(oracle.is_subtype(interface, variant))
        else:
            texts.append((render(variant), None))
            expect.append(oracle.is_subtype(variant, interface))
    allpairs = [i for i, site in enumerate(order)
                if site % VARIANT_ALLPAIRS_EVERY == 0]
    return _shared_ops("interface-variants", render(interface), texts,
                       expect, allpairs)


def _shared_ops(name, interface, texts, expect, allpairs):
    """Every algorithm gets all ops, except allpairs: the ops at the
    indices in *allpairs*."""
    ops = {algo: texts for algo in ALGORITHMS}
    answers = {algo: expect for algo in ALGORITHMS}
    ops["allpairs"] = [texts[i] for i in allpairs]
    answers["allpairs"] = [expect[i] for i in allpairs]
    return Workload(name, interface, ops, answers)


def _count_sites(t: TypeExpr, n: int) -> int:
    """Number of choice constructors in the syntax tree of *t*."""
    if isinstance(t, Rec):
        return _count_sites(t.body, n)
    if isinstance(t, (Input, Output)):
        for part in (*t.payloads, t.cont):
            n = _count_sites(part, n)
        return n
    if isinstance(t, (Select, Branch)):
        n += 1
        for _, b in t.branches:
            n = _count_sites(b, n)
    return n


def _widen(t: TypeExpr, polarity: int, chosen: int, rng: Random,
           counter: List[int]) -> TypeExpr:
    """Copy *t*, widening the choice site whose pre-order number is
    *chosen*: at positive polarity a selection loses a label and a
    branching gains one, at negative polarity (inside output payloads) the
    reverse.  The copy is then a supertype of *t* unless a recursion
    variable occurs at both polarities; the oracle decides either way.  A
    choice with a single label gains one instead of losing it, so that
    every copy differs from *t*."""
    if isinstance(t, Rec):
        return rec(_widen(t.body, polarity, chosen, rng, counter))
    if isinstance(t, Input):
        return inp([_widen(p, polarity, chosen, rng, counter) for p in t.payloads],
                   _widen(t.cont, polarity, chosen, rng, counter))
    if isinstance(t, Output):
        return out([_widen(p, -polarity, chosen, rng, counter) for p in t.payloads],
                   _widen(t.cont, polarity, chosen, rng, counter))
    if isinstance(t, (Select, Branch)):
        site = counter[0]
        counter[0] += 1
        items = [(label, _widen(b, polarity, chosen, rng, counter))
                 for label, b in t.branches]
        if site == chosen:
            drop = isinstance(t, Select) == (polarity > 0)
            if drop and len(items) > 1:
                items.pop(rng.randrange(len(items)))
            else:
                taken = {label for label, _ in items}
                fresh = [label for label in FRESH_LABELS if label not in taken]
                items.append((rng.choice(fresh), rng.choice(items)[1]))
        return (select if isinstance(t, Select) else branch)(items)
    return t
