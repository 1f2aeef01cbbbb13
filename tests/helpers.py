"""Shared test data and references: the paper's three example types, a
syntactic widening used to build likely subtype chains, the moves of an
LTS node read off its unfolding, the top-down subterms read off
substitution alone, and the quadratic fit of the acceptance gate.  A
plain module, not part of ``conftest.py``, so that test files can import
it by name while other test directories bring their own ``conftest``."""

import random
from typing import Sequence, Tuple

from stcheck.lts import (
    SKIP, act_end, act_in_cont, act_out_cont, bra_label, in_payload,
    out_payload, sel_label,
)
from stcheck.syntax import (
    TypeExpr, Branch, End, Input, Output, Rec, Select,
    _children, branch, end, inp, out, rec, select, subst_top, unfold,
)

T1_TEXT = "rec X . +{ respond: ?[end].X, exit: end }"
T2_TEXT = "rec X . +{ respond: ?[end].X, exit: end, replicate: ?[X].X }"
T3_TEXT = ("rec Y . +{ respond: ?[end].Y, exit: end, "
           "replicate: ?[rec X . +{ respond: ?[end].X, exit: end }].Y }")


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


def fit_quadratic(ks: Sequence[int], ys: Sequence[int]) -> Tuple[float, float]:
    """Least-squares fit y = c*k^2; returns (c, max relative residual)."""
    if len(ks) != len(ys) or not ks:
        raise ValueError("ks and ys must be nonempty and the same length")
    num = sum(y * k * k for k, y in zip(ks, ys))
    den = sum(k ** 4 for k in ks)
    c = num / den
    worst = max(abs(y - c * k * k) / y for k, y in zip(ks, ys) if y > 0)
    return c, worst
