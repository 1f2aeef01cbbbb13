"""Instance generation and cost measurement for the subtyping algorithms.

Two instance families ship by default:

* ``random`` -- seeded random closed contractive types, for agreement and
  invariant checking.
* ``exp``    -- an adversarial pair family on which the judgement-search
  algorithm blows up exponentially while the pair-graph algorithms stay
  quadratic: two towers of recursion-bound inputs of depths k and k+1,
  where level i carries two payloads pointing back at distinct binders
  (the previous level and the root).  The depth mismatch desynchronises
  the two sides, so the reachable pair graph is a full k*(k+1) torus;
  the payload double-back gives every pair two extra distinct moves, so
  the number of context-distinct judgement paths doubles with every level.

:func:`run_bench` is the loop behind ``stcheck bench``: one CSV row per k
and algorithm, ordered by k and then by algorithm name.  On ``exp`` it
runs inductive only up to DEFAULT_KMAX_INDUCTIVE = 12, where it visits
171,559 judgements against product's 156 pair nodes.
"""

from __future__ import annotations

import csv
import time
from collections import namedtuple
from random import Random
from typing import Iterable, List, Mapping, Sequence, Tuple

from . import subtyping
from .subtyping import DeadlineExceeded
from .syntax import TypeExpr, bvar, end, inp, out, rec, select, branch, size

__all__ = [
    "GenConfig", "gen_random", "random_pair", "gen_blowup_family",
    "FAMILIES", "run_bench", "write_csv", "CSV_COLUMNS", "DEFAULT_TIMEOUT",
    "DEFAULT_KMAX_INDUCTIVE",
]

DEFAULT_TIMEOUT = 10.0  # seconds per run
DEFAULT_KMAX_INDUCTIVE = 12

# Relative draw weights of the constructors.
_WEIGHTS: Mapping[str, float] = {
    "end": 1.0, "var": 1.5, "rec": 2.0,
    "input": 3.0, "output": 3.0, "select": 2.0, "branch": 2.0,
}

_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")


class GenConfig(namedtuple("GenConfig", "seed max_size max_labels")):
    """The seed and size limits of :func:`gen_random`; checked when built."""

    __slots__ = ()

    def __new__(cls, seed: int, max_size: int = 40, max_labels: int = 3):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if max_labels < 1:
            raise ValueError("max_labels must be >= 1")
        return super().__new__(cls, seed, max_size, max_labels)


def gen_random(config: GenConfig) -> TypeExpr:
    """Seed-deterministic closed contractive type of size <= max_size.

    Contractivity is enforced structurally: a binder variable only becomes
    eligible once a communication constructor has been emitted below its
    binder, so no rejection sampling is needed.
    """
    rng = Random(config.seed)
    budget = rng.randint(1, config.max_size)
    return _gen(rng, config, budget, depth=0, unguarded=0)


def _gen(rng: Random, config: GenConfig, budget: int, depth: int,
         unguarded: int) -> TypeExpr:
    # of the depth enclosing binders, the innermost unguarded ones have no
    # communication constructor below them yet: only de Bruijn indices
    # unguarded .. depth - 1 may be referenced
    choices = ["end"]
    if unguarded < depth:
        choices.append("var")
    if budget >= 2:
        choices.append("rec")
    if budget >= 3:
        choices += ("input", "output")
    if budget >= 2:
        choices += ("select", "branch")
    kind = rng.choices(choices, [_WEIGHTS[c] for c in choices])[0]

    if kind == "end":
        return end()
    if kind == "var":
        return bvar(rng.choice(range(unguarded, depth)))
    if kind == "rec":  # the new binder starts unguarded
        return rec(_gen(rng, config, budget - 1, depth + 1, unguarded + 1))
    if kind in ("input", "output"):
        n = rng.randint(1, min(2, budget - 2))  # at most two payloads
        parts = _partition(rng, budget - 1, n + 1)
        payloads = [_gen(rng, config, b, depth, 0) for b in parts[:-1]]
        cont = _gen(rng, config, parts[-1], depth, 0)
        return (inp if kind == "input" else out)(payloads, cont)
    n = rng.randint(1, min(config.max_labels, budget - 1, len(_LABELS)))
    parts = _partition(rng, budget - 1, n)
    labels = rng.sample(_LABELS[:max(n, config.max_labels)], n)
    items = [(l, _gen(rng, config, b, depth, 0))
             for l, b in zip(sorted(labels), parts)]
    return (select if kind == "select" else branch)(items)


def _partition(rng: Random, total: int, parts: int) -> List[int]:
    """Split *total* into *parts* integers, each >= 1."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_pair(seed: int, max_size: int = 40) -> Tuple[TypeExpr, TypeExpr]:
    """Two independently generated closed contractive types."""
    left = gen_random(GenConfig(seed=seed * 2 + 1, max_size=max_size))
    right = gen_random(GenConfig(seed=seed * 2 + 2, max_size=max_size))
    return left, right


def _blowup_tower(depth: int) -> TypeExpr:
    """``rec X1 . ?[X1, X1]. rec X2 . ?[X1, X1]. ... rec Xi . ?[X(i-1), X1].
    ... X1``, built bottom-up in nameless form: at level i the binder Xj is
    ``bvar(i - j)``, and the innermost ``X1`` is ``bvar(depth - 1)``."""
    t = bvar(depth - 1)
    for i in range(depth, 0, -1):
        t = rec(inp([bvar(min(1, i - 1)), bvar(i - 1)], t))
    return t


def gen_blowup_family(k: int) -> Tuple[TypeExpr, TypeExpr]:
    """Adversarial pair (F_k, G_k) of sizes 4k+1 and 4k+5; the subtyping
    verdict is true for every k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _blowup_tower(k), _blowup_tower(k + 1)


FAMILIES = {
    "exp": gen_blowup_family,
    "random": lambda k: random_pair(seed=k, max_size=4 * k),
}


CSV_COLUMNS = ("family", "k", "size_left", "size_right", "algorithm",
               "verdict", "judgements_visited", "memo_entries",
               "product_nodes", "product_edges", "elapsed_ns", "timed_out")


def run_bench(family: str, kmax: int, algorithms: Sequence[str],
              timeout: float = DEFAULT_TIMEOUT) -> List[list]:
    """The CSV rows for k = 1 .. kmax, ordered by k and then by algorithm
    name, one per k and algorithm however often it is named; on ``exp``,
    inductive runs only up to DEFAULT_KMAX_INDUCTIVE.  A check that passes
    its deadline is a row with verdict 0, zero counters and timed_out 1,
    not an exception."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    rows = []
    for k in range(1, kmax + 1):
        left, right = FAMILIES[family](k)
        for algo in sorted(set(algorithms)):
            if algo == "inductive" and family == "exp" \
                    and k > DEFAULT_KMAX_INDUCTIVE:
                continue
            start = time.perf_counter()
            try:
                report = subtyping.check(
                    left, right, algo, deadline=start + timeout)
                outcome = [int(report.verdict),
                           *(report.counters[key] for key in CSV_COLUMNS[6:10])]
                timed_out = 0
            except DeadlineExceeded:
                outcome, timed_out = [0] * 5, 1  # verdict, four counters
            elapsed_ns = int((time.perf_counter() - start) * 1e9)
            rows.append([family, k, size(left), size(right), algo, *outcome,
                         elapsed_ns, timed_out])
    return rows


def write_csv(rows: Iterable[Sequence], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
