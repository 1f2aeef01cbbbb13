"""Shared test data and references: the paper's three example types, a
syntactic widening used to build likely subtype chains, the moves of an
LTS node read off its unfolding, the top-down subterms read off
substitution alone, the pair walks over a plain set of pair tuples, the
``inductive`` search over a set, a list and a stack, a type whose tree
is exponentially larger than its DAG, and the quadratic fit of the
acceptance gate.  A plain module, not part of ``conftest.py``, so that
test files can import it by name while other test directories bring
their own ``conftest``."""

import random
from collections import deque
from typing import Sequence, Tuple

from stcheck.lts import (
    CONT_FIRST, SKIP, _END_ACTS, _dot, act_end, act_in_cont, act_out_cont,
    bra_label, in_payload, out_payload, sel_label,
)
from stcheck.subtyping import _pair_label, _step, product_successors
from stcheck.syntax import (
    TypeExpr, Branch, End, Input, Output, Rec, Select,
    _children, branch, end, inp, out, rec, select, subst_top, unfold,
)

T1_TEXT = "rec X . +{ respond: ?[end].X, exit: end }"
T2_TEXT = "rec X . +{ respond: ?[end].X, exit: end, replicate: ?[X].X }"
T3_TEXT = ("rec Y . +{ respond: ?[end].Y, exit: end, "
           "replicate: ?[rec X . +{ respond: ?[end].X, exit: end }].Y }")


def dag(leaf: TypeExpr, n: int = 40) -> TypeExpr:
    """``?[b, b].b`` nested *n* times over *leaf* as ``b``: n + 1 distinct
    nodes, and 3^n leaves were it unshared.  Its text is as long as the
    tree, so a test must not let a failure report print it."""
    for _ in range(n):
        leaf = inp([leaf, leaf], leaf)
    return leaf


def weaken(t: TypeExpr, rng: random.Random, sign: int = 1) -> TypeExpr:
    """Syntactic widening: with positive polarity, drop selection labels and
    add branching labels; negative polarity does the reverse.  Produces a
    likely supertype of *t* (callers verify; recursion binders occurring at
    mixed polarity can defeat the construction)."""
    if isinstance(t, Rec):
        return rec(weaken(t.body, rng, sign))
    if isinstance(t, Input):
        return inp([weaken(p, rng, sign) for p in t.payloads],
                   weaken(t.cont, rng, sign))
    if isinstance(t, Output):
        return out([weaken(p, rng, -sign) for p in t.payloads],
                   weaken(t.cont, rng, sign))
    if isinstance(t, (Select, Branch)):
        items = [(l, weaken(b, rng, sign)) for l, b in t.branches]
        shrink = isinstance(t, Select) if sign > 0 else isinstance(t, Branch)
        if shrink:
            if len(items) > 1 and rng.random() < 0.5:
                items.pop(rng.randrange(len(items)))
        elif rng.random() < 0.5:
            labels = {l for l, _ in items}
            fresh = next((l for l in "pqrstuvw" if l not in labels), None)
            if fresh is not None:
                items.append((fresh, end()))
        return select(items) if isinstance(t, Select) else branch(items)
    return t


def expected_edges(node) -> dict:
    """The action-keyed moves of an LTS node, read off its unfolding alone:
    a reference for ``build_lts``, which reads the compiled head tables."""
    if node is SKIP:
        return {}
    head = unfold(node)
    if isinstance(head, End):
        return {act_end: SKIP}
    if isinstance(head, (Input, Output)):
        payload, cont = ((in_payload, act_in_cont) if isinstance(head, Input)
                         else (out_payload, act_out_cont))
        edges = {payload(i): p for i, p in enumerate(head.payloads, 1)}
        edges[cont] = head.cont
        return edges
    label = sel_label if isinstance(head, Select) else bra_label
    return {label(l): b for l, b in head.branches}


def top_down_reference(*roots: TypeExpr) -> list:
    """The top-down subterms of *roots* in ``sub_pair``'s walk order, each
    binder unfolded by ``subst_top`` alone: a reference for the walk, which
    takes a binder's unfolding from its head table where it can."""
    seen = {}
    stack = list(reversed(roots))
    while stack:
        u = stack.pop()
        if u not in seen:
            seen[u] = None
            stack.extend([subst_top(u.body, u)] if type(u) is Rec
                         else _children(u))
    return list(seen)


def set_walks(t: TypeExpr, u: TypeExpr, export: bool = True) -> dict:
    """The ``product`` walk, its DOT export and the ``memoized`` search of
    ``(t, u)``, each keeping the pairs it reaches as a plain set of pair
    tuples: a reference for ``subtyping``, which keeps them per left node.
    Both step with ``subtyping._step`` and visit in the searches' orders;
    returns the verdicts, the counters and, if *export*, the export's
    text (else ``None``: its labels grow fast with the types' size)."""
    seen = {(t, u)}
    queue = deque(seen)
    bad = set()
    edges = 0
    stop = None  # the counters when the first inconsistent pair is dequeued
    while queue:
        pair = queue.popleft()
        moves = _step(*pair, CONT_FIRST)
        if moves is None:
            bad.add(pair)
            stop = stop or (len(seen), edges)
            continue
        edges += len(moves[0])
        for q in moves[1]:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    nodes, edges = stop or (len(seen), edges)
    dot = _dot("product", (t, u), {p: product_successors(p) for p in seen},
               _pair_label, ("doubleoctagon", "box"), bad) if export else None
    assumed = set()
    stack = [iter(((t, u),))]
    visited, holds = 0, True
    while stack and holds:
        for pair in stack[-1]:
            visited += 1
            if pair not in assumed:
                assumed.add(pair)
                moves = _step(*pair)
                holds = moves is not None
                if holds:  # end/end is an axiom: it has no premises
                    stack.append(iter(() if moves[0] is _END_ACTS
                                      else moves[1]))
                break
        else:
            stack.pop()
    return {"product": (stop is None, nodes, edges),
            "memoized": (holds, len(assumed), visited), "dot": dot}


def inductive_walk(t: TypeExpr, u: TypeExpr) -> Tuple[bool, int, int]:
    """The ``inductive`` search of ``(t, u)`` as the textbook states it:
    the pairs on the path as a set and as a list, a stack of premise
    iterators, and a step each time a pair is entered, with ``end``/``end``
    an axiom by its action.  A reference for ``subtyping``, which keeps the
    path in one dict and each stepped pair's premises; returns the
    verdict, the visits and the most pairs assumed at once."""
    assumed = set()
    path = []
    stack = [iter(((t, u),))]
    visited = depth = 0
    while stack:
        for pair in stack[-1]:
            visited += 1
            if pair not in assumed:
                assumed.add(pair)
                path.append(pair)
                depth = max(depth, len(path))
                moves = _step(*pair)
                if moves is None:
                    return False, visited, depth
                # end/end is an axiom: it has no premises
                stack.append(iter(() if moves[0] is _END_ACTS
                                  else moves[1]))
                break
        else:
            stack.pop()
            if path:  # the root iterator has no pair
                assumed.discard(path.pop())
    return True, visited, depth


def fit_quadratic(ks: Sequence[int], ys: Sequence[int]) -> Tuple[float, float]:
    """Least-squares fit y = c*k^2; returns (c, max relative residual)."""
    if len(ks) != len(ys) or not ks:
        raise ValueError("ks and ys must be nonempty and the same length")
    num = sum(y * k * k for k, y in zip(ks, ys))
    den = sum(k ** 4 for k in ks)
    c = num / den
    worst = max(abs(y - c * k * k) / y for k, y in zip(ks, ys) if y > 0)
    return c, worst
