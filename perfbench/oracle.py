"""Reference verdicts for the benchmark, written from the syntactic rules.

The checker reads types only through ``stcheck.syntax`` (the AST classes
and ``unfold``).  It never touches ``stcheck.lts`` or ``stcheck.subtyping``,
so a bug in the shared transition relation that all four production
algorithms read cannot make it agree with them.

It is the coinductive (greatest-fixpoint) reading of the rules: ``T <= U``
holds iff no pair reachable from ``(T, U)`` through rule premises is
rejected by every rule.  The search keeps one visited set and an explicit
stack, so its depth is bounded by memory, not by the interpreter's
recursion limit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from stcheck.syntax import Branch, End, Input, Output, Select, TypeExpr, unfold

Premises = List[Tuple[TypeExpr, TypeExpr]]


def premises(t: TypeExpr, u: TypeExpr) -> Optional[Premises]:
    """The premises of the one rule that can conclude ``t <= u``, or None
    when no rule applies.  Both sides are unfolded first."""
    a = unfold(t)
    b = unfold(u)
    if isinstance(a, End):
        return [] if isinstance(b, End) else None
    if isinstance(a, Input) and isinstance(b, Input):
        if len(a.payloads) != len(b.payloads):
            return None
        return [*zip(a.payloads, b.payloads), (a.cont, b.cont)]
    if isinstance(a, Output) and isinstance(b, Output):
        if len(a.payloads) != len(b.payloads):
            return None
        # payloads of an output are contravariant
        return [*zip(b.payloads, a.payloads), (a.cont, b.cont)]
    if isinstance(a, Branch) and isinstance(b, Branch):
        # external choice: every label the subtype offers, the supertype offers
        offered = dict(b.branches)
        if any(label not in offered for label, _ in a.branches):
            return None
        return [(cont, offered[label]) for label, cont in a.branches]
    if isinstance(a, Select) and isinstance(b, Select):
        # internal choice: every label the supertype may select, the subtype may
        selectable = dict(a.branches)
        if any(label not in selectable for label, _ in b.branches):
            return None
        return [(selectable[label], cont) for label, cont in b.branches]
    return None


def is_subtype(t: TypeExpr, u: TypeExpr) -> bool:
    """Decide ``t <= u`` for closed contractive types."""
    seen = set()
    stack = [(t, u)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        prems = premises(*pair)
        if prems is None:
            return False
        stack.extend(prems)
    return True
