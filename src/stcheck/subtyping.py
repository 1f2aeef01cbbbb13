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
  Each runs in a loop over the premise iterators of its open pairs, so
  depth is bounded by memory, not the recursion limit: ``inductive`` in
  :func:`_inductive`, which keeps the open path to retract it, and
  ``memoized`` in :func:`_memoized`, which keeps every assumption.
* ``product``    -- lazy reachability on the pair graph of the two type
  LTSs: the left type is a subtype iff no inconsistent pair is reachable
  from the root pair (quadratic).  :func:`_pairs` is the one walk of the
  pair graph; the search stops at its first inconsistent pair and the DOT
  export runs it to the end.  It records which pairs it reached, not how:
  there are no parent pointers yet.
* ``allpairs``   -- the full pair grid with a backward sweep from the
  inconsistent pairs; yields verdicts for every pair of subterms at once.
  Only same-constructor pairs of unfolded heads are stepped.  A first
  pass keeps nothing and stops at the first doomed cell; only a grid with
  one is stepped again in full, keeping predecessor lists (a grid with no
  doomed cell, such as every ``exp`` pair's, builds none).
  ``product_edges`` still counts the moves of every cell of the grid.

``product`` and ``memoized`` keep every pair they reach, quadratically
many, in one pair store: a dict from each left node to its one right
node, or to the set of its right nodes once it has a second.  A pair
then costs a slot, not a 2-tuple of its own that the cyclic garbage
collector tracks and rescans, and under half the memory (see the
README).  Both walks insert into it inline, since they do so once per
met pair, and test a left node's entry in the order ``None``, ``is``,
set, which costs least where nearly every left node has one right node.
``inductive`` keeps a plain dict of pair tuples: it only ever holds the
open path, and its exponentially many visits test it faster than they
would the store.

The three walks, :func:`_pairs`, :func:`_inductive` and :func:`_memoized`,
read the deadline (``math.inf`` if :func:`check` got none) before their
first unit and then once per ``_CLOCK_EVERY`` units: a dequeued pair in
:func:`_pairs`, an entered pair in the other two (one not assumed when
met, whether it is stepped or reads its kept premises back).  A unit is
at most one step, and a cold step compiles at most its two heads' tables,
so a search runs at most ``_CLOCK_EVERY`` units past its deadline.  Met
pairs that are already assumed cost O(1) and are no units: each entered
pair adds at most its move count of them.

The subtyping rules are written once, in :func:`_step`.  It maps a pair
to ``None`` when the pair is inconsistent (different head constructors,
different payload arities, a branching label of the left or a selection
label of the right missing on the other side) and otherwise to the
matched moves, which are the premises of the rule.  Output payloads swap
the pair (contravariance).  ``end``/``end`` is the axiom: in rule order it
has its one action and no premise, and in Action order it moves to the
terminal pair ``(SKIP, SKIP)``, which has no moves.

A step reads the two heads' tables, which :mod:`stcheck.lts` compiles
once per unfolded head and keeps in each node's ``_table`` slot, so it
costs two attribute reads, not two unfoldings or dict lookups, and it
zips the two tables' successors.  A table is compiled on the first
step that is not refuted by its constructors: while either table is
missing, two heads of different constructors, read off the nodes'
``_kind``, are refuted before either side is unfolded or compiled.

The searches visit the moves in two orders, and both are kept because the
counters they produce are pinned by the tests and the benchmark.  Each
reads its order's successors from the tables (``RULE`` or ``CONT_FIRST``):

* ``inductive`` and ``memoized`` visit them in rule order, payloads
  before the continuation.  Rule order lists a head's premises, of which
  ``end`` has none, so neither search meets the terminal pair.
* ``product`` and the pair-graph export visit them in :class:`Action`
  order, the continuation first.

Choice labels come in label order in both.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter, deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import DeadlineExceeded
from .lts import (
    CONT_FIRST, HEAD, RULE, SKIP, Action, Node, Table, _dot,
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

# The pair walks read the clock once per this many units (a dequeued pair
# in _pairs, an entered pair in _inductive and _memoized), not once per
# unit: on CPython a read is a sizeable share of the cost of a warm step.
_CLOCK_EVERY = 64

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
    action tuple, in Action order, and the matched (left, right) successor
    pairs, in *order* (``RULE`` or ``CONT_FIRST``), as an iterator.

    Two heads with the same action tuple zip their successors; output
    payloads swap the pair (contravariance), the continuation does not.
    Otherwise only choices can match: the left's branching labels must all
    exist on the right, the right's selection labels on the left.
    ``end``/``end`` is the axiom: in rule order it has no pair, in Action
    order the terminal pair ``(SKIP, SKIP)``, which has no moves."""
    a = left._table
    b = right._table
    if not (a and b):
        # A cold pair is refuted on its heads' constructors before either
        # side is unfolded or compiled.  A _kind that is not a class (an
        # index or None) is left to _table, which raises on it.
        ka, kb = left._kind, right._kind
        if ka is not kb and type(ka) is type is type(kb):
            return None
        a = a or _table(left)
        b = right._table or _table(right)  # left may have compiled it
    acts = a[1]
    if acts is b[1]:
        if left._kind is Output:
            moves = list(zip(b[order], a[order]))
            cont = -1 if order == RULE else 0
            moves[cont] = moves[cont][::-1]
            return acts, iter(moves)
        return acts, zip(a[order], b[order])
    if left._kind is Branch is right._kind:  # each left label on the right
        found = _successors(a[0], b)
        return None if found is None else (acts, zip(a[RULE], found))
    if left._kind is Select is right._kind:  # each right label on the left
        found = _successors(b[0], a)
        return None if found is None else (b[1], zip(found, b[RULE]))
    return None


def _successors(labels: Tuple[str, ...], table: Table) -> Optional[List[Node]]:
    """The successors of *table* under *labels*, or ``None`` if it lacks
    one of them.  Label tuples are sorted."""
    have, succ = table[0], table[RULE]
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


def _pairs(t: TypeExpr, u: TypeExpr, reached: Dict[Node, object],
           deadline: float):
    """The breadth-first walk of the pair graph from ``(t, u)``, moves in
    Action order.  Every pair reached is kept in *reached*, the pair store
    of the module docstring.  Yields each inconsistent pair when it is
    dequeued, without expanding it, and ``None`` at the end, each with the
    pairs reached and the moves of the pairs expanded so far.  The deadline
    is read before the first dequeued pair and then once per
    ``_CLOCK_EVERY`` of them."""
    reached[t] = u
    queue = deque(((t, u),))
    nodes = 1
    edges = tick = 0  # tick: dequeued pairs left before the next clock read
    while queue:
        if not tick:
            if time.perf_counter() > deadline:
                raise DeadlineExceeded
            tick = _CLOCK_EVERY
        tick -= 1
        pair = queue.popleft()
        moves = _step(pair[0], pair[1], CONT_FIRST)
        if moves is None:
            yield pair, nodes, edges
            continue
        acts, pairs = moves
        edges += len(acts)
        for q in pairs:
            x, y = q
            got = reached.get(x)
            if got is None:
                reached[x] = y
            elif got is y:
                continue
            elif type(got) is set:
                if y in got:
                    continue
                got.add(y)
            else:
                reached[x] = {got, y}
            nodes += 1
            queue.append(q)
    yield None, nodes, edges


def _product(t: TypeExpr, u: TypeExpr, deadline: float):
    """Lazy breadth-first search of the reachable pair graph; refutes as
    soon as an inconsistent pair is dequeued."""
    bad, nodes, edges = next(_pairs(t, u, {}, deadline))
    return bad is None, {"product_nodes": nodes, "product_edges": edges}


def _sweep(t: TypeExpr, u: TypeExpr, deadline: float):
    """The grid over the joint subterm universe plus the terminal and the
    backward closure of its inconsistent pairs, kept on distinct unfolded
    heads (``HEAD`` in each member's table): only pairs of heads with one
    constructor are stepped.  Returns the universe, the test ``holds(l, r)``
    on its members and the moves summed over every universe cell (a head
    pair's moves times the multiplicities of its two heads).

    Every member's table is compiled first, so its ``_kind`` is its
    head's constructor.  :func:`_grid_moves` is the first pass; only a grid
    with a doomed cell gets a second, which keeps predecessor lists."""
    universe = list(sub_pair(t, u)) + [SKIP]
    head = {v: (v._table or _table(v))[HEAD] for v in universe}
    count = Counter(head.values())
    groups: Dict[type, List[Tuple[Node, int]]] = {}
    for a, n in count.items():
        groups.setdefault(a._kind, []).append((a, n))
    edges = _grid_moves(count, groups, deadline)
    doomed: Set[Tuple[Node, Node]] = set()
    reverse: Dict[Tuple[Node, Node], List[Tuple[Node, Node]]] = {}
    if edges is None:
        edges = 0
        for a, m in count.items():
            if time.perf_counter() > deadline:
                raise DeadlineExceeded
            for b, n in groups[a._kind]:
                node = (a, b)
                moves = _step(a, b)
                if moves is None:
                    doomed.add(node)
                    continue
                edges += len(moves[0]) * m * n
                for x, y in moves[1]:
                    if x._kind is not y._kind:
                        doomed.add(node)
                    else:
                        reverse.setdefault((head[x], head[y]), []).append(node)
    stack = list(doomed)
    while stack:
        for pred in reverse.get(stack.pop(), ()):
            if pred not in doomed:
                doomed.add(pred)
                stack.append(pred)

    def holds(left: Node, right: Node) -> bool:
        a, b = head[left], head[right]
        return a._kind is b._kind and (a, b) not in doomed

    return universe, holds, edges


def _grid_moves(count: Counter, groups: dict, deadline: float):
    """The first pass of :func:`_sweep`, which keeps nothing: the moves
    summed over the grid, or ``None`` at its first doomed cell (one that
    is inconsistent or has a successor pair of two constructors).  The
    deadline is read once per row."""
    edges = 0
    for a, m in count.items():
        if time.perf_counter() > deadline:
            raise DeadlineExceeded
        for b, n in groups[a._kind]:
            moves = _step(a, b)
            if moves is None:
                return None
            for x, y in moves[1]:
                if x._kind is not y._kind:
                    return None
            edges += len(moves[0]) * m * n
    return edges


def _allpairs(t: TypeExpr, u: TypeExpr, deadline: float):
    """Verdict for the root pair via the all-pairs backward sweep."""
    universe, holds, edges = _sweep(t, u, deadline)
    return holds(t, u), {"product_nodes": len(universe) ** 2,
                         "product_edges": edges}


def _inductive(t: TypeExpr, u: TypeExpr, deadline: float):
    """The search of ``inductive``, depth first in rule order.  A pair is
    assumed before its step, holds when met again on its path, and its
    assumption ends when its premises hold, so the assumed pairs are
    exactly the open path.  They are one dict of pair tuples in path
    order, from each open pair to the premise iterator it was taken from:
    ``popitem`` closes the innermost pair and returns the iterator to
    resume.  Each stepped pair's premises are kept for the search, so a
    pair met again after its assumption ended reads them back: :func:`_step`
    runs once per distinct pair, while the visit count stays exponential.
    The deadline is read before the first entered pair (one not assumed
    when met, re-entries of kept premises included) and then once per
    ``_CLOCK_EVERY`` of them."""
    assumed: Dict[Tuple[Node, Node], Iterator] = {}  # the open path
    premises: Dict[Tuple[Node, Node], tuple] = {}  # a refuted pair ends it
    it = iter(((t, u),))
    visited = depth = tick = 0  # tick: entries left before the next read
    while True:
        for pair in it:
            visited += 1
            if pair in assumed:
                continue
            if not tick:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded
                tick = _CLOCK_EVERY
            tick -= 1
            assumed[pair] = it
            if len(assumed) > depth:
                depth = len(assumed)
            again = premises.get(pair)
            if again is None:
                moves = _step(pair[0], pair[1])
                if moves is None:
                    return False, {"judgements_visited": visited,
                                   "max_context_depth": depth}
                again = premises[pair] = tuple(moves[1])
            it = iter(again)
            break
        else:  # every premise of the innermost open pair holds
            if not assumed:
                return True, {"judgements_visited": visited,
                              "max_context_depth": depth}
            it = assumed.popitem()[1]


def _memoized(t: TypeExpr, u: TypeExpr, deadline: float):
    """The same search with a single assumption set threaded through all
    premises; any failing premise aborts the whole run (no negative
    caching, assumptions are never retracted).

    The loop of :func:`_inductive` without retraction: the assumptions
    are kept for the run, in the pair store of the module docstring.  The
    deadline is read before the first entered pair (one not assumed when
    met) and then once per ``_CLOCK_EVERY`` of them."""
    assumed: Dict[Node, object] = {}
    stack: list = []  # the premise iterator each open pair was taken from
    it = iter(((t, u),))
    visited = entries = tick = 0  # tick: entries left before the next read
    while True:
        for x, y in it:
            visited += 1
            got = assumed.get(x)
            if got is None:
                assumed[x] = y
            elif got is y:
                continue
            elif type(got) is set:
                if y in got:
                    continue
                got.add(y)
            else:
                assumed[x] = {got, y}
            entries += 1
            if not tick:
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded
                tick = _CLOCK_EVERY
            tick -= 1
            stack.append(it)
            moves = _step(x, y)
            if moves is None:
                return False, {"memo_entries": entries,
                               "judgements_visited": visited}
            it = moves[1]
            break
        else:  # every premise of the last open pair holds
            if not stack:
                return True, {"memo_entries": entries,
                              "judgements_visited": visited}
            it = stack.pop()


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
    deadline = math.inf if deadline is None else deadline  # no None below
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
    reached: Dict[Node, object] = {}
    bad = {pair for pair, _, _ in _pairs(t, u, reached, math.inf)}
    graph = {(x, y): product_successors((x, y))
             for x, right in reached.items()
             for y in (right if type(right) is set else (right,))}
    return _dot("product", (t, u), graph, _pair_label,
                ("doubleoctagon", "box"), bad)
