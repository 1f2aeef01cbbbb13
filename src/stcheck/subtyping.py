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
  Only same-constructor pairs of unfolded heads are stepped, each once;
  ``product_edges`` still counts the moves of every cell of the grid.

The subtyping rules are written once, in :func:`_step`.  It maps a pair
to ``None`` when the pair is inconsistent (different head constructors,
different payload arities, a branching label of the left or a selection
label of the right missing on the other side) and otherwise to the
matched moves, which are the premises of the rule.  Output payloads swap
the pair (contravariance); ``end``/``end`` steps to the terminal pair
``(SKIP, SKIP)``, which has no moves.

Each unfolded head is compiled once, on its first step, into a table: its
kind, its payload arity or label tuple, and its actions and successors in
both orders below.  Every node maps to its head's table, so a step costs
two lookups, not two unfoldings, and it zips the two tables' successors.
The action tuples are shared by all heads of one kind with one arity or
one label tuple, so one identity test matches two heads.

The searches visit the moves in two orders, and both are kept because the
counters they produce are pinned by the tests and the benchmark.  Each
reads its order from the tables (``RULE`` or ``CONT_FIRST``):

* ``inductive`` and ``memoized`` visit them in rule order, payloads
  before the continuation, and never visit the terminal pair: in the
  syntactic rules ``end``/``end`` is an axiom, not a move.
* ``product`` and the pair-graph export visit them in :class:`Action`
  order, the continuation first.

Choice labels come in label order in both.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .errors import OpenTypeError, StcheckError
from .lts import (
    SKIP, Action, Node, Skip, act_end, act_in_cont, act_out_cont, action_name,
    bra_label, in_payload, out_payload, sel_label,
)
from .subterms import sub_pair
from .syntax import (
    Branch, End, Input, Output, Rec, Select, TypeExpr, is_closed, render,
    unfold,
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


def _require_closed(t: TypeExpr, u: TypeExpr) -> None:
    for side in (t, u):
        if side is not SKIP and not is_closed(side):
            raise OpenTypeError(f"type has free variables: {render(side)}")


# A compiled head: (kind, arity or label tuple, actions and successors in
# rule order, actions and successors in Action order).
Table = Tuple[type, object, Tuple[Action, ...], Tuple[Node, ...],
              Tuple[Action, ...], Tuple[Node, ...]]

# Index of an order's action tuple in a table; its successors follow.
RULE = 2
CONT_FIRST = 4

# Each stepped node's head table: a binder and its unfolding share one.
_tables: Dict[Node, Table] = {}
# (kind, arity or label tuple) -> (rule-order actions, Action-order
# actions, the key): two heads with the same action tuple, by identity,
# have the same kind and the same arity or labels.
_action_tuples: Dict[tuple, tuple] = {}

_END_TABLE: Table = (End, None, (act_end,), (SKIP,), (act_end,), (SKIP,))
_SKIP_TABLE: Table = (Skip, None, (), (), (), ())


def _table(node: Node) -> Table:
    """Compile the unfolded head of *node* and map *node* to its table."""
    kind = type(node)
    if kind is Rec:
        head = unfold(node)
        table = _tables.get(head) or _table(head)
    elif kind is Input or kind is Output:
        payloads = node.payloads
        arity = len(payloads)
        acts = _action_tuples.get((kind, arity)) or _share_actions(kind, arity)
        table = (kind, arity, acts[0], payloads + (node.cont,),
                 acts[1], (node.cont,) + payloads)
    elif kind is Branch or kind is Select:
        labels, succ = zip(*node.branches)
        acts, _, labels = (_action_tuples.get((kind, labels))
                           or _share_actions(kind, labels))
        table = (kind, labels, acts, succ, acts, succ)
    elif kind is End:
        table = _END_TABLE
    elif kind is Skip:
        table = _SKIP_TABLE
    else:
        raise OpenTypeError(f"type has free variables: {render(node)}")
    _tables[node] = table
    return table


def _share_actions(kind: type, key):
    """The action tuples in both orders and the key, shared by every head
    of one kind with one arity or one label tuple."""
    if kind is Input or kind is Output:
        payload, cont = ((in_payload, act_in_cont) if kind is Input
                         else (out_payload, act_out_cont))
        payloads = tuple(map(payload, range(1, key + 1)))
        acts = (payloads + (cont,), (cont,) + payloads, key)
    else:
        acts = tuple(map(bra_label if kind is Branch else sel_label, key))
        acts = (acts, acts, key)
    # setdefault is atomic under the GIL: threads that build the same
    # tuples at once all get the first one stored.
    return _action_tuples.setdefault((kind, key), acts)


def _step(left: Node, right: Node, order: int = RULE):
    """The rules: ``None`` for an inconsistent pair, else its moves as the
    action tuple and the matched (left, right) successor pairs, both in
    *order* (``RULE`` or ``CONT_FIRST``).  The pairs are an iterable to be
    read once.

    Two heads with the same action tuple zip their successors; output
    payloads swap the pair (contravariance), the continuation does not.
    Otherwise only choices can match: the left's branching labels must all
    exist on the right, the right's selection labels on the left.
    ``end``/``end`` moves to the terminal pair ``(SKIP, SKIP)``, which
    has none."""
    a = _tables.get(left) or _table(left)
    b = _tables.get(right) or _table(right)
    acts = a[order]
    if acts is b[order]:
        if a[0] is Output:
            moves = list(zip(b[order + 1], a[order + 1]))
            cont = -1 if order == RULE else 0
            moves[cont] = moves[cont][::-1]
            return acts, moves
        return acts, zip(a[order + 1], b[order + 1])
    kind = a[0]
    if kind is Branch and b[0] is Branch:  # each left label on the right
        found = _successors(a[1], b)
        return None if found is None else (a[2], zip(a[3], found))
    if kind is Select and b[0] is Select:  # each right label on the left
        found = _successors(b[1], a)
        return None if found is None else (b[2], zip(found, b[3]))
    return None


def _successors(labels: Tuple[str, ...], table: Table) -> Optional[List[Node]]:
    """The successors of *table* under *labels*, or ``None`` if it lacks
    one of them.  Label tuples are sorted."""
    have, succ = table[1], table[3]
    found = []
    for label in labels:
        i = bisect_left(have, label)
        if i == len(have) or have[i] != label:
            return None
        found.append(succ[i])
    return found


def is_inconsistent(p: ProductNode) -> bool:
    """True when no rule applies to the pair: the unfolded heads are
    different constructors, or one side has a move the other must match
    but cannot (a selection facing a branching is inconsistent too).
    Raises :class:`OpenTypeError` on a free variable at a head."""
    return _step(*p) is None


def product_successors(p: ProductNode) -> List[Tuple[Action, ProductNode]]:
    """Matched moves of a pair in action order; output-payload moves yield
    the swapped pair.  An inconsistent pair has no moves: the list is
    empty, as it is for the terminal pair."""
    acts, pairs = _step(*p, CONT_FIRST) or ((), ())
    return [(a, ProductNode(*q)) for a, q in zip(acts, pairs)]


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
        moves = _step(*queue.popleft(), CONT_FIRST)
        if moves is None:
            verdict = False
            break
        acts, pairs = moves
        edges += len(acts)
        for q in pairs:
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
    """The grid over the joint subterm universe plus the terminal and the
    backward closure of its inconsistent pairs, kept on distinct unfolded
    heads: only pairs of heads with one constructor are stepped.  Returns
    the universe, the test ``holds(l, r)`` on its members and the moves
    summed over every universe cell (a head pair's moves times the
    multiplicities of its two heads)."""
    universe = list(sub_pair(t, u)) + [SKIP]
    head = {v: unfold(v) for v in universe}
    count = Counter(head.values())
    groups: Dict[type, List[Node]] = {}
    for a in count:
        groups.setdefault(type(a), []).append(a)
    doomed: Set[Tuple[Node, Node]] = set()
    reverse: Dict[Tuple[Node, Node], List[Tuple[Node, Node]]] = {}
    edges = 0
    for a in count:
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        for b in groups[type(a)]:
            node = (a, b)
            moves = _step(a, b)
            if moves is None:
                doomed.add(node)
                continue
            acts, pairs = moves
            edges += len(acts) * count[a] * count[b]
            for x, y in pairs:
                x, y = head[x], head[y]
                if type(x) is type(y):
                    reverse.setdefault((x, y), []).append(node)
                else:
                    doomed.add(node)
    stack = list(doomed)
    while stack:
        for pred in reverse.get(stack.pop(), ()):
            if pred not in doomed:
                doomed.add(pred)
                stack.append(pred)

    def holds(left: Node, right: Node) -> bool:
        a, b = head[left], head[right]
        return type(a) is type(b) and (a, b) not in doomed

    return universe, holds, edges


def subtype_all_pairs(t: TypeExpr, u: TypeExpr) -> FrozenSet[ProductNode]:
    """Exactly the pairs (T', U') over the joint subterm universe (plus
    the terminal) with T' a subtype of U': the complement of the backward
    closure of the inconsistent pairs."""
    _require_closed(t, u)
    universe, holds, _ = _sweep(t, u, None)
    return frozenset(
        ProductNode(lv, rv)
        for lv in universe for rv in universe if holds(lv, rv))


def subtype_allpairs_report(t: TypeExpr, u: TypeExpr,
                            deadline: Optional[float] = None) -> SubtypeReport:
    """Verdict for the root pair via the all-pairs backward sweep."""
    _require_closed(t, u)
    start = time.perf_counter()
    universe, holds, edges = _sweep(t, u, deadline)
    return SubtypeReport(
        verdict=holds(t, u),
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
            for x, y in moves[1]:
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
        for x, y in moves[1]:
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
        moves = _step(*p, CONT_FIRST)
        if moves is None:
            bad.add(p)
        acts, pairs = moves or ((), ())
        succs = adjacency[p] = [(a, ProductNode(*q))
                                for a, q in zip(acts, pairs)]
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
