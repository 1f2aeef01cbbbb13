"""Bottom-up and top-down subterm sets.

Top-down subterms treat recursion by unfolding: the subterms of a binder
are the binder itself plus the subterms of its one-step unfolding, which
is read from the binder's head table (:mod:`stcheck.lts`, compiled if
missing) when it is the head.  On contractive input the set is finite
because repeated unfoldings are recognised as already-interned values.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, KeysView

from .lts import HEAD, _table
from .syntax import Rec, TypeExpr, _children, subst_top

__all__ = ["sub_bottom_up", "sub_top_down", "sub_pair"]


def sub_bottom_up(t: TypeExpr) -> FrozenSet[TypeExpr]:
    """Purely structural subterm set; the binder case substitutes the
    binder into each subterm of its body.  Each scope's accumulator is
    closed under subterms, so a node already in it is skipped: a shared
    subterm is walked once per binder scope."""
    acc = set()     # subterms of the innermost open binder's body so far
    opened = []     # (binder, the accumulator outside it), innermost last
    todo = [t]      # nodes to visit, or None once a binder's body is done
    while todo:
        u = todo.pop()
        if u is None:
            r, outside = opened.pop()
            outside.add(r)
            outside.update([subst_top(s, r) for s in acc])
            acc = outside
        elif u in acc:
            continue
        elif type(u) is Rec:
            opened.append((u, acc))
            acc = set()
            todo += [None, u.body]
        else:
            acc.add(u)
            todo.extend(_children(u))
    return frozenset(acc)


def _top_down(*roots: TypeExpr) -> Dict[TypeExpr, None]:
    """The top-down subterms of *roots* in depth-first walk order: the
    first root's walk, then the members each later root's walk adds."""
    seen: Dict[TypeExpr, None] = {}
    stack = list(reversed(roots))
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen[u] = None
        if type(u) is not Rec:
            stack.extend(_children(u))
        elif type(u.body) is u._kind:  # contractive: unfolds to its head
            stack.append((u._table or _table(u))[HEAD])
        else:  # a chain, not contractive, or over a variable
            stack.append(subst_top(u.body, u))
    return seen


def sub_top_down(t: TypeExpr) -> FrozenSet[TypeExpr]:
    """Least set containing *t* and closed under the unfolding-style
    subterm equations; the walk fills ``clear_caches``'s head tables."""
    return frozenset(_top_down(t))


def sub_pair(t: TypeExpr, u: TypeExpr) -> KeysView[TypeExpr]:
    """The union of both top-down subterm sets, in walk order, so that the
    allpairs grid built on it does not hang on object addresses; the grid
    finds the tables of the binders the walk unfolded already compiled."""
    return _top_down(t, u).keys()
