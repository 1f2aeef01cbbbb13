"""Shared test data: the paper's three example types and a syntactic
widening used to build likely subtype chains.  A plain module, not part of
``conftest.py``, so that test files can import it by name while other
test directories bring their own ``conftest``."""

import random

from stcheck.syntax import (
    TypeExpr, Branch, Input, Output, Rec, Select,
    branch, end, inp, out, rec, select,
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
