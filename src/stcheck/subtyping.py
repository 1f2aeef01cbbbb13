"""Four decision procedures for session subtyping.

All four decide the same relation:

* ``inductive``  -- recursive judgement search with a per-path assumption
  context; sibling premises do not share contexts (worst-case exponential).
* ``memoized``   -- the same search with one assumption set threaded
  through all premises in sequence; the first failing premise aborts.
* ``product``    -- lazy reachability on the pair graph of the two type
  LTSs: the left type is a subtype iff no inconsistent pair is reachable
  from the root pair (quadratic).
* ``allpairs``   -- the full pair grid with a backward sweep from the
  inconsistent pairs; yields verdicts for every pair of subterms at once.

The subtyping rules are written once, in :func:`_step`.  It maps a pair
to ``None`` when the pair is inconsistent (different head constructors,
different payload arities, a branching label of the left or a selection
label of the right missing on the other side) and otherwise to the
matched moves, which are the premises of the rule.  Output payloads swap
the pair (contravariance); ``end``/``end`` steps to the terminal pair
``(SKIP, SKIP)``, which has no moves.

The searches visit the moves in two orders, and both are kept because the
counters they produce are pinned by the tests and the benchmark:

* ``inductive`` and ``memoized`` visit them in rule order, payloads
  before the continuation, and never visit the terminal pair: in the
  syntactic rules ``end``/``end`` is an axiom, not a move.
* ``product`` and the pair-graph export visit them in :class:`Action`
  order, the continuation first (:func:`_action_order`).

Choice labels come in label order on both paths.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import OpenTypeError, StcheckError
from .lts import (
    SKIP, Action, Node, Skip, act_end, act_in_cont, act_out_cont, action_name,
    bra_label, in_payload, out_payload, sel_label,
)
from .subterms import sub_pair
from .syntax import (
    Branch, End, Input, Output, Select, TypeExpr, is_closed, render, unfold,
)

__all__ = [
    "ProductNode", "SubtypeReport", "DeadlineExceeded", "ALGORITHMS",
    "is_inconsistent", "product_successors",
    "subtype_product", "subtype_all_pairs", "subtype_allpairs_report",
    "subtype_inductive", "subtype_memoized",
    "check", "is_subtype", "equal_coinductive", "export_product_dot",
]

COUNTER_KEYS = ("judgements_visited", "memo_entries", "product_nodes",
                "product_edges", "max_context_depth")

ALGORITHMS = ("inductive", "memoized", "product", "allpairs")


class DeadlineExceeded(StcheckError):
    """Raised internally when a cooperative deadline passes."""


class ProductNode(NamedTuple):
    left: Node
    right: Node


@dataclass
class SubtypeReport:
    verdict: bool
    algorithm: str
    counters: Dict[str, int]
    elapsed: float  # seconds

    def __post_init__(self):
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)


Move = Tuple[Action, Node, Node]

_END_MOVES: Tuple[Move, ...] = ((act_end, SKIP, SKIP),)


def _require_closed(t: TypeExpr, u: TypeExpr) -> None:
    for side in (t, u):
        if side is not SKIP and not is_closed(side):
            raise OpenTypeError(f"type has free variables: {render(side)}")


def _step(left: Node, right: Node) -> Optional[Sequence[Move]]:
    """The rules: ``None`` for an inconsistent pair, else its moves in rule
    order as (action, left successor, right successor)."""
    a = unfold(left)
    b = unfold(right)
    kind = type(a)
    if type(b) is not kind:
        return None
    if kind is Input or kind is Output:
        if len(a.payloads) != len(b.payloads):
            return None
        acts = _head_actions.get(a) or _actions(a)
        if kind is Input:
            moves = list(zip(acts, a.payloads, b.payloads))
        else:
            moves = list(zip(acts, b.payloads, a.payloads))
        moves.append((acts[-1], a.cont, b.cont))
        return moves
    if kind is Branch:  # the left's labels must all exist on the right
        rights = dict(b.branches)
        moves = []
        for act, (label, x) in zip(_head_actions.get(a) or _actions(a),
                                   a.branches):
            y = rights.get(label)
            if y is None:
                return None
            moves.append((act, x, y))
        return moves
    if kind is Select:  # the right's labels must all exist on the left
        lefts = dict(a.branches)
        moves = []
        for act, (label, y) in zip(_head_actions.get(b) or _actions(b),
                                   b.branches):
            x = lefts.get(label)
            if x is None:
                return None
            moves.append((act, x, y))
        return moves
    if kind is End:
        return _END_MOVES
    if kind is Skip:
        return ()
    return None  # a free variable at the head


# Actions of each unfolded head in rule order, built once per head:
# building an Action costs more than the rest of a step.
_head_actions: Dict[TypeExpr, Tuple[Action, ...]] = {}


def _actions(head: TypeExpr) -> Tuple[Action, ...]:
    kind = type(head)
    if kind is Input:
        acts = (*map(in_payload, range(1, len(head.payloads) + 1)), act_in_cont)
    elif kind is Output:
        acts = (*map(out_payload, range(1, len(head.payloads) + 1)), act_out_cont)
    elif kind is Branch:
        acts = tuple(bra_label(label) for label, _ in head.branches)
    else:
        acts = tuple(sel_label(label) for label, _ in head.branches)
    _head_actions[head] = acts
    return acts


def _action_order(moves: Sequence[Move]) -> Sequence[Move]:
    """Moves in :class:`Action` order: the continuation, last in rule
    order, goes first."""
    if moves and moves[-1][0] in (act_in_cont, act_out_cont):
        return [moves[-1], *moves[:-1]]
    return moves


def is_inconsistent(p: ProductNode) -> bool:
    """True when no rule applies to the pair: the unfolded heads are
    different constructors, or one side has a move the other must match
    but cannot (a selection facing a branching is inconsistent too)."""
    return _step(*p) is None


def product_successors(p: ProductNode) -> List[Tuple[Action, ProductNode]]:
    """Matched moves of a pair in action order; output-payload moves yield
    the swapped pair.  An inconsistent pair has no moves: the list is
    empty, as it is for the terminal pair."""
    return [(a, ProductNode(x, y)) for a, x, y in _action_order(_step(*p) or ())]


def subtype_product(t: TypeExpr, u: TypeExpr,
                    deadline: Optional[float] = None) -> SubtypeReport:
    """Lazy breadth-first search of the reachable pair graph; refutes as
    soon as an inconsistent pair is dequeued."""
    _require_closed(t, u)
    start = time.perf_counter()
    root = (t, u)
    seen = {root}
    queue = deque((root,))
    edges = 0
    verdict = True
    while queue:
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        moves = _step(*queue.popleft())
        if moves is None:
            verdict = False
            break
        edges += len(moves)
        for _, x, y in _action_order(moves):
            q = (x, y)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return SubtypeReport(
        verdict=verdict,
        algorithm="product",
        counters={"product_nodes": len(seen), "product_edges": edges},
        elapsed=time.perf_counter() - start,
    )


def _sweep(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """Every pair over the joint subterm universe plus the terminal, and
    the backward closure of the inconsistent ones: returns the universe,
    that doomed set and the number of matched moves in the grid."""
    universe = list(sub_pair(t, u)) + [SKIP]
    doomed: Set[Tuple[Node, Node]] = set()
    reverse: Dict[Tuple[Node, Node], List[Tuple[Node, Node]]] = {}
    edges = 0
    for lv in universe:
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        for rv in universe:
            node = (lv, rv)
            moves = _step(lv, rv)
            if moves is None:
                doomed.add(node)
                continue
            edges += len(moves)
            for _, x, y in moves:
                reverse.setdefault((x, y), []).append(node)
    stack = list(doomed)
    while stack:
        for pred in reverse.get(stack.pop(), ()):
            if pred not in doomed:
                doomed.add(pred)
                stack.append(pred)
    return universe, doomed, edges


def subtype_all_pairs(t: TypeExpr, u: TypeExpr) -> FrozenSet[ProductNode]:
    """Exactly the pairs (T', U') over the joint subterm universe (plus
    the terminal) with T' a subtype of U': the complement of the backward
    closure of the inconsistent pairs."""
    _require_closed(t, u)
    universe, doomed, _ = _sweep(t, u, None)
    return frozenset(
        ProductNode(lv, rv)
        for lv in universe for rv in universe
        if (lv, rv) not in doomed)


def subtype_allpairs_report(t: TypeExpr, u: TypeExpr,
                            deadline: Optional[float] = None) -> SubtypeReport:
    """Verdict for the root pair via the all-pairs backward sweep."""
    _require_closed(t, u)
    start = time.perf_counter()
    universe, doomed, edges = _sweep(t, u, deadline)
    return SubtypeReport(
        verdict=(t, u) not in doomed,
        algorithm="allpairs",
        counters={"product_nodes": len(universe) ** 2, "product_edges": edges},
        elapsed=time.perf_counter() - start,
    )


def subtype_inductive(t: TypeExpr, u: TypeExpr,
                      deadline: Optional[float] = None) -> SubtypeReport:
    """Judgement search with path-local assumption contexts.

    A pair already assumed on the current path succeeds immediately; each
    premise restarts from the same extended context, so work done in one
    sibling is never reused in the next.
    """
    _require_closed(t, u)
    start = time.perf_counter()
    ctx: Set[Tuple[TypeExpr, TypeExpr]] = set()
    visited = 0
    max_depth = 0

    def go(a: TypeExpr, b: TypeExpr) -> bool:
        nonlocal visited, max_depth
        visited += 1
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        pair = (a, b)
        if pair in ctx:
            return True
        ctx.add(pair)
        if len(ctx) > max_depth:
            max_depth = len(ctx)
        try:
            moves = _step(a, b)
            if moves is None:
                return False
            # end/end is an axiom here: the terminal pair is no premise
            for _, x, y in moves:
                if x is not SKIP and not go(x, y):
                    return False
            return True
        finally:
            ctx.discard(pair)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 200_000))
    try:
        verdict = go(t, u)
    finally:
        sys.setrecursionlimit(limit)
    return SubtypeReport(
        verdict=verdict,
        algorithm="inductive",
        counters={"judgements_visited": visited,
                  "max_context_depth": max_depth},
        elapsed=time.perf_counter() - start,
    )


def subtype_memoized(t: TypeExpr, u: TypeExpr,
                     deadline: Optional[float] = None) -> SubtypeReport:
    """The same search with a single assumption set threaded through all
    premises; any failing premise aborts the whole run (no negative
    caching, assumptions are never retracted)."""
    _require_closed(t, u)
    start = time.perf_counter()
    seen: Set[Tuple[TypeExpr, TypeExpr]] = set()
    visited = 0

    def go(a: TypeExpr, b: TypeExpr) -> bool:
        nonlocal visited
        visited += 1
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        pair = (a, b)
        if pair in seen:
            return True
        seen.add(pair)
        moves = _step(a, b)
        if moves is None:
            return False
        # end/end is an axiom here: the terminal pair is no premise
        for _, x, y in moves:
            if x is not SKIP and not go(x, y):
                return False
        return True

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 200_000))
    try:
        verdict = go(t, u)
    finally:
        sys.setrecursionlimit(limit)
    return SubtypeReport(
        verdict=verdict,
        algorithm="memoized",
        counters={"memo_entries": len(seen), "judgements_visited": visited},
        elapsed=time.perf_counter() - start,
    )


_DISPATCH = {
    "inductive": subtype_inductive,
    "memoized": subtype_memoized,
    "product": subtype_product,
    "allpairs": subtype_allpairs_report,
}


def check(t: TypeExpr, u: TypeExpr, algorithm: str = "product",
          deadline: Optional[float] = None) -> SubtypeReport:
    try:
        impl = _DISPATCH[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm: {algorithm!r}") from None
    return impl(t, u, deadline=deadline)


def is_subtype(t: TypeExpr, u: TypeExpr) -> bool:
    return subtype_product(t, u).verdict


def equal_coinductive(t: TypeExpr, u: TypeExpr) -> bool:
    return subtype_product(t, u).verdict and subtype_product(u, t).verdict


def _pair_label(p: ProductNode) -> str:
    left = "Skip" if p.left is SKIP else render(p.left)
    right = "Skip" if p.right is SKIP else render(p.right)
    return f"({left}, {right})"


def export_product_dot(t: TypeExpr, u: TypeExpr) -> str:
    """DOT digraph of the reachable pair graph; inconsistent pairs are
    filled red and not expanded further."""
    _require_closed(t, u)
    root = ProductNode(t, u)
    adjacency: Dict[ProductNode, List[Tuple[Action, ProductNode]]] = {}
    bad: Set[ProductNode] = set()
    queue = deque((root,))
    seen = {root}
    while queue:
        p = queue.popleft()
        if is_inconsistent(p):
            bad.add(p)
        succs = adjacency[p] = product_successors(p)
        for _, q in succs:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    nodes = sorted(seen, key=_pair_label)
    index = {p: i for i, p in enumerate(nodes)}
    lines = ["digraph product {"]
    for p in nodes:
        label = _pair_label(p).replace('"', '\\"')
        style = ', style=filled, fillcolor="#ffbbbb"' if p in bad else ""
        shape = "doubleoctagon" if p == root else "box"
        lines.append(f'  n{index[p]} [label="{label}", shape={shape}{style}];')
    for p in nodes:
        for a, q in adjacency[p]:
            lines.append(
                f'  n{index[p]} -> n{index[q]} [label="{action_name(a)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
