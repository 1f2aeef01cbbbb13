"""The labelled transition system of a session type.

Nodes are (top-down) subterms plus the distinguished terminal ``SKIP``;
actions mark termination, payloads, continuations and choice labels.

Each unfolded head is compiled once, on first use, into a table: its kind,
its payload arity or label tuple, its actions and successors in two
orders, rule order (``RULE``: payloads before the continuation) and
:class:`Action` order (``CONT_FIRST``: the continuation first), and the
head (``HEAD``).  The table sits in the node's ``_table`` slot, as it
does in every binder stripped on the way, so a type and its unfoldings
share one: the slots are the one map from a node to its head.  Each
compiled node is listed in ``_compiled``, whose slots ``clear_caches``
resets.  The action tuples are shared, for the life of the process, by
all heads of one kind with one arity or one label tuple, so one identity
test matches two heads.
:func:`build_lts` reads the tables in Action order and the subtyping
searches zip two tables; there is no other encoding of a head's moves.  A
step compiles a missing table only when the two heads may have one
constructor, which it reads off the nodes' ``_kind`` without unfolding;
``SKIP``'s is ``Skip``, and its table is built once, here.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import OpenTypeError
from .syntax import (
    Branch, End, Input, Output, Rec, Select, TypeExpr, _unfold_once,
    is_closed, render,
)

__all__ = ["SKIP", "Node", "Action", "TypeLts", "build_lts", "lts_to_dot"]


class Skip:
    """Terminal sink reached by the termination action; not a type."""

    _instance: Optional["Skip"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SKIP"


Skip._kind = Skip  # the constructor at its head, as a type node's _kind
SKIP = Skip()

Node = Union[TypeExpr, Skip]

# Action kinds, in the fixed total search order.
A_END = 0
A_IN_CONT = 1
A_OUT_CONT = 2
A_IN_PAYLOAD = 3
A_OUT_PAYLOAD = 4
A_BRA = 5
A_SEL = 6


class Action(NamedTuple):
    """Transition label; ``arg`` is a 1-based payload index or a choice
    label, depending on the kind.  Being a tuple, actions order exactly by
    (kind, arg)."""

    kind: int
    arg: Union[int, str, None] = None


act_end = Action(A_END)
act_in_cont = Action(A_IN_CONT)
act_out_cont = Action(A_OUT_CONT)


def in_payload(i: int) -> Action:
    return Action(A_IN_PAYLOAD, i)


def out_payload(i: int) -> Action:
    return Action(A_OUT_PAYLOAD, i)


def bra_label(label: str) -> Action:
    return Action(A_BRA, label)


def sel_label(label: str) -> Action:
    return Action(A_SEL, label)


# Each action kind's name, in the order of the kinds A_END to A_SEL.
_ACTION_FORMATS = ("end", "?c", "!c", "?p{}", "!p{}", "&{}", "+{}")


def action_name(a: Action) -> str:
    return _ACTION_FORMATS[a.kind].format(a.arg)


# A compiled head: (kind, arity or label tuple, actions and successors in
# rule order, actions and successors in Action order, the head).
Table = Tuple[type, object, Tuple[Action, ...], Tuple[Node, ...],
              Tuple[Action, ...], Tuple[Node, ...], Node]

# Index of an order's action tuple in a table; its successors follow.
RULE = 2
CONT_FIRST = 4
HEAD = 6  # index of the unfolded head

# Each node whose _table slot was set since the last clear_caches.
_compiled: List[Node] = []
# (kind, arity or label tuple) -> (rule-order actions, Action-order
# actions, the key), never cleared: two heads with the same action tuple,
# by identity, have the same kind and the same arity or labels.
_action_tuples: Dict[tuple, tuple] = {}

_END_ACTS = (act_end,)
SKIP._table = (Skip, None, (), (), (), (), SKIP)  # never listed or reset


def _table(node: Node) -> Table:
    """The table of *node*'s unfolded head.  Without one, strip binders up
    to a node that has one, or compile the head; each node on the way gets
    it in its slot and is then listed, so a clear meanwhile resets it."""
    stripped = []
    table = node._table  # read once: a clear may reset it meanwhile
    while table is None and type(node) is Rec:
        stripped.append(node)
        node = _unfold_once(node)
        table = node._table
    if table is None:
        table = _compile(node)
        stripped.append(node)
    for each in stripped:
        each._table = table
    _compiled.extend(stripped)
    return table


def _compile(head: TypeExpr) -> Table:
    """The table of *head*, a node that is no binder."""
    kind = type(head)
    if kind is Input or kind is Output:
        payloads = head.payloads
        arity = len(payloads)
        acts = _action_tuples.get((kind, arity)) or _share_actions(kind, arity)
        return (kind, arity, acts[0], payloads + (head.cont,),
                acts[1], (head.cont,) + payloads, head)
    if kind is Branch or kind is Select:
        labels, succ = zip(*head.branches)
        acts, _, labels = (_action_tuples.get((kind, labels))
                           or _share_actions(kind, labels))
        return (kind, labels, acts, succ, acts, succ, head)
    if kind is End:
        return (End, None, _END_ACTS, (SKIP,), _END_ACTS, (SKIP,), head)
    raise OpenTypeError(f"type has free variables: {render(head)}")


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


def _require_closed(t: TypeExpr, u: TypeExpr) -> None:
    """Raise on the first of *t* and *u* that is not a closed type:
    ``ValueError`` if it is not a type (``SKIP`` is none), else
    :class:`OpenTypeError`."""
    for node in (t, u):
        if not isinstance(node, TypeExpr):
            raise ValueError(f"not a type: {node!r}")
        if not is_closed(node):
            raise OpenTypeError(f"type has free variables: {render(node)}")


class TypeLts(NamedTuple):
    """Reachable part of the LTS from ``root``; immutable after build."""

    root: TypeExpr
    adjacency: Dict[Node, Dict[Action, Node]]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(succ) for succ in self.adjacency.values())


def build_lts(t: TypeExpr) -> TypeLts:
    """The reachable part of the LTS from *t*: each node's outgoing edges
    as an action-keyed map (the LTS is deterministic), read from its head's
    table in :class:`Action` order; a new dict per node and per call.
    Raises ``ValueError`` on an argument that is not a type and
    :class:`OpenTypeError` on a type with free variables; only the root is
    tested, since every node reachable from a closed root is closed."""
    _require_closed(t, t)
    adjacency: Dict[Node, Dict[Action, Node]] = {}
    queue = [t]
    while queue:
        node = queue.pop()
        if node in adjacency:
            continue
        table = node._table or _table(node)
        succ = table[CONT_FIRST + 1]
        adjacency[node] = dict(zip(table[CONT_FIRST], succ))
        for dst in succ:
            if dst not in adjacency:
                queue.append(dst)
    return TypeLts(root=t, adjacency=adjacency)


def _node_label(node: Node) -> str:
    return "Skip" if node is SKIP else render(node)


def _dot(name: str, root, graph: dict, label, shapes: Tuple[str, str],
         bad=()) -> str:
    """DOT digraph *name* of *graph*, a map from each node to its
    (action, successor) edges in listing order.  Nodes are listed by
    *label*; *root* has ``shapes[0]`` and the others ``shapes[1]``; the
    nodes in *bad* are filled red."""
    labels = {node: label(node) for node in graph}
    nodes = sorted(graph, key=labels.__getitem__)
    index = {node: i for i, node in enumerate(nodes)}
    lines = [f"digraph {name} {{"]
    for node in nodes:
        text = labels[node].replace('"', '\\"')
        shape = shapes[node != root]
        style = ', style=filled, fillcolor="#ffbbbb"' if node in bad else ""
        lines.append(f'  n{index[node]} [label="{text}", shape={shape}{style}];')
    for node in nodes:
        for a, dst in graph[node]:
            lines.append(
                f'  n{index[node]} -> n{index[dst]} [label="{action_name(a)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_dot(lts: TypeLts) -> str:
    """DOT rendering with type-labelled nodes and action-labelled edges."""
    graph = {node: sorted(succ.items())
             for node, succ in lts.adjacency.items()}
    return _dot("lts", lts.root, graph, _node_label,
                ("doublecircle", "ellipse"))
