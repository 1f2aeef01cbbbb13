"""Four decision procedures for session subtyping.

:func:`check` is the one entry: it looks the algorithm up in
``_SEARCHES``, checks that both types are closed, times the search and
builds the :class:`SubtypeReport`.  ``subtype_product``,
``subtype_inductive`` and ``subtype_memoized`` are shorthands for it.
The searches differ only in how they decide; all four decide the same
relation:

* ``inductive``  -- depth-first judgement search with a per-path
  assumption context; sibling premises do not share contexts, so it
  visits worst-case exponentially many judgements.  The rules are applied
  once per distinct pair: the premises of each stepped pair are kept for
  the search and read back when the pair is met again off the path.
* ``memoized``   -- the same search with one assumption set threaded
  through all premises in sequence; the first failing premise aborts.
  Both run in :func:`_dfs`, one loop over an explicit stack of premise
  iterators, so depth is bounded by memory, not the recursion limit; it
  reads the deadline once per stepped pair, not per visit.
* ``product``    -- lazy reachability on the pair graph of the two type
  LTSs: the left type is a subtype iff no inconsistent pair is reachable
  from the root pair (quadratic).  :func:`_pairs` is the one walk of the
  pair graph; the search stops at its first inconsistent pair and the DOT
  export runs it to the end.  It records which pairs it reached, not how:
  there are no parent pointers yet.
* ``allpairs``   -- the full pair grid with a backward sweep from the
  inconsistent pairs; yields verdicts for every pair of subterms at once.
  Only same-constructor pairs of unfolded heads are stepped: each once,
  and the cells before the first doomed one once more, since predecessor
  lists are kept only from that cell on (a grid with no doomed cell, such
  as every ``exp`` pair's, builds none).  ``product_edges`` still counts
  the moves of every cell of the grid.

The subtyping rules are written once, in :func:`_step`.  It maps a pair
to ``None`` when the pair is inconsistent (different head constructors,
different payload arities, a branching label of the left or a selection
label of the right missing on the other side) and otherwise to the
matched moves, which are the premises of the rule.  Output payloads swap
the pair (contravariance); ``end``/``end`` steps to the terminal pair
``(SKIP, SKIP)``, which has no moves.

A step reads the two heads' tables, which :mod:`stcheck.lts` compiles
once per unfolded head, so it costs two lookups, not two unfoldings, and
it zips the two tables' successors.  A table is compiled on the first
step that is not refuted by its constructors: while either table is
missing, two heads of different constructors, read off the nodes'
``_kind``, are refuted before either side is unfolded or compiled.

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

import time
from bisect import bisect_left
from collections import Counter, deque
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from . import lts
from .errors import DeadlineExceeded
from .lts import (
    CONT_FIRST, HEAD, RULE, SKIP, Action, Node, Table, _END_ACTS, _dot,
    _node_label, _require_closed, _table,
)
from .subterms import sub_pair
from .syntax import Branch, Output, Select, TypeExpr

__all__ = [
    "ALGORITHMS", "COUNTER_KEYS", "SubtypeReport", "DeadlineExceeded",
    "check", "subtype_product", "subtype_inductive", "subtype_memoized",
    "export_product_dot", "ProductNode", "is_inconsistent",
    "product_successors",
]

# Bound by assignment, not imported: CPython 3.11 compiles a call on an
# attribute of an imported name, ``_tables.get(..)`` in :func:`_step`, as an
# attribute load that builds a bound method on every step.
_tables = lts._tables

COUNTER_KEYS = ("judgements_visited", "memo_entries", "product_nodes",
                "product_edges", "max_context_depth")


class ProductNode(NamedTuple):
    left: Node
    right: Node


class SubtypeReport(NamedTuple):
    verdict: bool
    algorithm: str
    counters: Dict[str, int]  # every key of COUNTER_KEYS
    elapsed: float  # seconds


def _step(left: Node, right: Node, order: int = RULE):
    """The rules: ``None`` for an inconsistent pair, else its moves as the
    action tuple and the matched (left, right) successor pairs, both in
    *order* (``RULE`` or ``CONT_FIRST``).  The pairs are an iterator.

    Two heads with the same action tuple zip their successors; output
    payloads swap the pair (contravariance), the continuation does not.
    Otherwise only choices can match: the left's branching labels must all
    exist on the right, the right's selection labels on the left.
    ``end``/``end`` moves to the terminal pair ``(SKIP, SKIP)``, which
    has none."""
    a = _tables.get(left)
    b = _tables.get(right)
    if not (a and b):
        # A cold pair is refuted on its heads' constructors before either
        # side is unfolded or compiled.  A _kind that is not a class (an
        # index or None) is left to _table, which raises on it.
        ka, kb = left._kind, right._kind
        if ka is not kb and type(ka) is type is type(kb):
            return None
        a = a or _table(left)
        b = _tables.get(right) or _table(right)  # left may have compiled it
    acts = a[order]
    if acts is b[order]:
        if a[0] is Output:
            moves = list(zip(b[order + 1], a[order + 1]))
            cont = -1 if order == RULE else 0
            moves[cont] = moves[cont][::-1]
            return acts, iter(moves)
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


def _pairs(t: TypeExpr, u: TypeExpr, seen: Set[Tuple[Node, Node]],
           deadline: Optional[float]):
    """The breadth-first walk of the pair graph from ``(t, u)``, moves in
    Action order.  Every pair reached is added to *seen*.  Yields each
    inconsistent pair when it is dequeued, without expanding it, and
    ``None`` at the end, each with the moves of the pairs expanded so
    far."""
    root = (t, u)
    seen.add(root)
    queue = deque((root,))
    edges = 0
    while queue:
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded
        pair = queue.popleft()
        moves = _step(*pair, CONT_FIRST)
        if moves is None:
            yield pair, edges
            continue
        acts, pairs = moves
        edges += len(acts)
        for q in pairs:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    yield None, edges


def _product(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """Lazy breadth-first search of the reachable pair graph; refutes as
    soon as an inconsistent pair is dequeued."""
    seen: Set[Tuple[Node, Node]] = set()
    bad, edges = next(_pairs(t, u, seen, deadline))
    return bad is None, {"product_nodes": len(seen), "product_edges": edges}


def _sweep(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """The grid over the joint subterm universe plus the terminal and the
    backward closure of its inconsistent pairs, kept on distinct unfolded
    heads (``HEAD`` in each member's table): only pairs of heads with one
    constructor are stepped.  Returns the universe, the test ``holds(l, r)``
    on its members and the moves summed over every universe cell (a head
    pair's moves times the multiplicities of its two heads).

    Predecessor lists are kept only from the first doomed cell on, in
    grid order: before it there is nothing to propagate.  If the grid has
    a doomed cell, the cells before the first one are stepped again, once,
    to record their edges; if it has none, no list is built at all."""
    universe = list(sub_pair(t, u)) + [SKIP]
    # every member's table is compiled here: no grid step is a cold one
    head = {v: (_tables.get(v) or _table(v))[HEAD] for v in universe}
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
                if type(x) is not type(y):
                    doomed.add(node)
                elif doomed:  # before the first doomed cell, keep nothing
                    reverse.setdefault((x, y), []).append(node)
    if doomed:  # step the cells before the first doomed one again
        for a in count:
            if deadline is not None and time.perf_counter() > deadline:
                raise DeadlineExceeded
            for b in groups[type(a)]:
                node = (a, b)
                if node in doomed:
                    break
                # not doomed: stepped, with heads of one kind in each pair
                for x, y in _step(a, b)[1]:
                    reverse.setdefault((head[x], head[y]), []).append(node)
            if node in doomed:
                break
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


def _allpairs(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """Verdict for the root pair via the all-pairs backward sweep."""
    universe, holds, edges = _sweep(t, u, deadline)
    return holds(t, u), {"product_nodes": len(universe) ** 2,
                         "product_edges": edges}


def _dfs(t: TypeExpr, u: TypeExpr, retract: bool,
         deadline: Optional[float]) -> Tuple[bool, int, int, int]:
    """The search of ``inductive`` (*retract*: an assumption ends when its
    premises hold) and ``memoized`` (kept for the run), depth first in rule
    order: the verdict, the visits, the assumptions held at the end and
    the most held at once.  A pair is assumed before its step and holds
    when met again.  When the search retracts, each stepped pair's
    premises are kept for the search, so a pair met again after its
    assumption ended reads them back: :func:`_step` runs once per distinct
    pair, while the visit count stays exponential.  A hit costs O(1) and
    a step adds at most its move count of hits, so reading the deadline
    per step bounds the overshoot."""
    clock = time.perf_counter
    assumed: Set[Tuple[Node, Node]] = set()
    # Each stepped pair's premises, kept for the search when it retracts:
    # only then can a pair be stepped again, and a refuted pair ends it.
    premises: Dict[Tuple[Node, Node], tuple] = {}
    path: List[Tuple[Node, Node]] = []  # the open pairs, root first
    stack: list = []  # the premise iterator each open pair was taken from
    it = iter(((t, u),))
    visited = depth = 0
    while True:
        for pair in it:
            visited += 1
            if pair in assumed:
                continue
            if deadline is not None and clock() > deadline:
                raise DeadlineExceeded
            assumed.add(pair)
            if len(assumed) > depth:
                depth = len(assumed)
            stack.append(it)
            path.append(pair)
            if retract and pair in premises:
                it = iter(premises[pair])
                break
            moves = _step(*pair)
            if moves is None:
                return False, visited, len(assumed), depth
            # end/end is an axiom here: the terminal pair is no premise
            it = () if moves[0] is _END_ACTS else moves[1]
            if retract:
                premises[pair] = it = tuple(it)
                it = iter(it)
            break
        else:  # every premise of the last open pair holds
            if not path:
                return True, visited, len(assumed), depth
            pair = path.pop()
            if retract:
                assumed.discard(pair)
            it = stack.pop()


def _inductive(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """Judgement search with path-local assumption contexts.

    A pair already assumed on the current path succeeds immediately; each
    premise restarts from the same extended context, so work done in one
    sibling is never reused in the next.
    """
    verdict, visited, _, depth = _dfs(t, u, True, deadline)
    return verdict, {"judgements_visited": visited, "max_context_depth": depth}


def _memoized(t: TypeExpr, u: TypeExpr, deadline: Optional[float]):
    """The same search with a single assumption set threaded through all
    premises; any failing premise aborts the whole run (no negative
    caching, assumptions are never retracted)."""
    verdict, visited, entries, _ = _dfs(t, u, False, deadline)
    return verdict, {"memo_entries": entries, "judgements_visited": visited}


# Each search maps (t, u, deadline) to (verdict, counters).
_SEARCHES = {
    "inductive": _inductive,
    "memoized": _memoized,
    "product": _product,
    "allpairs": _allpairs,
}

ALGORITHMS = tuple(_SEARCHES)


def check(t: TypeExpr, u: TypeExpr, algorithm: str = "product",
          deadline: Optional[float] = None) -> SubtypeReport:
    """Decide whether *t* is a subtype of *u* with *algorithm*: the name is
    checked first (``ValueError``), then that both types are closed; the
    elapsed time covers the search alone."""
    try:
        search = _SEARCHES[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm: {algorithm!r}") from None
    _require_closed(t, u)
    start = time.perf_counter()
    verdict, counters = search(t, u, deadline)
    elapsed = time.perf_counter() - start
    for key in COUNTER_KEYS:  # a search returns only the counters it keeps
        counters.setdefault(key, 0)
    return SubtypeReport(verdict, algorithm, counters, elapsed)


def subtype_product(t: TypeExpr, u: TypeExpr,
                    deadline: Optional[float] = None) -> SubtypeReport:
    return check(t, u, "product", deadline)


def subtype_inductive(t: TypeExpr, u: TypeExpr,
                      deadline: Optional[float] = None) -> SubtypeReport:
    return check(t, u, "inductive", deadline)


def subtype_memoized(t: TypeExpr, u: TypeExpr,
                     deadline: Optional[float] = None) -> SubtypeReport:
    return check(t, u, "memoized", deadline)


def _pair_label(p: Tuple[Node, Node]) -> str:
    return f"({_node_label(p[0])}, {_node_label(p[1])})"


def export_product_dot(t: TypeExpr, u: TypeExpr) -> str:
    """DOT digraph of the reachable pair graph; inconsistent pairs are
    filled red and not expanded further."""
    _require_closed(t, u)
    seen: Set[Tuple[Node, Node]] = set()
    bad = {pair for pair, _ in _pairs(t, u, seen, None)}
    graph = {p: product_successors(p) for p in seen}
    return _dot("product", (t, u), graph, _pair_label,
                ("doubleoctagon", "box"), bad)
