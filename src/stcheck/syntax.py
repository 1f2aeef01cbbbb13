"""Abstract syntax, concrete text format and structural operations.

Types are stored in a canonical nameless form: recursion binders carry no
name and bound occurrences are de Bruijn indices (``BoundVar``).  Every
node is hash-consed through a module-level interning table, so two
alpha-equivalent types built in any order are the *same* Python object and
equality/hashing are identity-based and O(1).

Every node, of every kind, is made by one build step, ``_build(key)``: it
sets the node's fields from its interning key, works out ``size``,
``cutoff``, ``has_fvar``, ``contractive`` and ``_kind`` (the constructor
at the unfolded head; see :class:`TypeExpr`) in O(1) from the children,
leaves its head table ``_table`` empty and interns the node.  Library callers construct through the
factory functions (``end``, ``var``, ``bvar``, ``rec``, ``mu``, ``inp``,
``out``, ``select``, ``branch``), which look the key up and validate their
arguments only on a miss, before the build (a key that cannot be hashed,
or labels that cannot be sorted, count as a miss, so a bad argument gets
the check's ``ValueError``, not a ``TypeError``); calling the class
constructors directly bypasses interning and breaks the identity-equality
invariant.  ``parse`` and ``_rebuild`` form each key themselves, from a
grammar or a node that has already made the factories' checks, and only
look it up, building on a miss.

The structural operations walk a type with an explicit stack over one
child listing, ``_children`` (payloads, then the continuation; branches in
label order; a binder's body, one binder deeper), so nesting depth is
bounded by memory, not by the recursion limit.  ``mu``, ``shift`` and
``subst_top`` say only what a variable leaf becomes; ``_rewrite``
rebuilds the rest bottom-up through ``_rebuild`` and keeps every subtree
the operation cannot change: one whose dangling indices all lie below the
current binder depth for the index operations, one without named
variables for ``mu``.  ``free_names``, ``render`` and the subterm sets of
:mod:`stcheck.subterms` are loops over the same listing.  ``unfold`` is a
loop over ``_unfold_once`` and caches nothing: the head tables of
:mod:`stcheck.lts` strip binders with the same step and keep each head.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Tuple

from .errors import (
    DuplicateLabelError,
    EmptyArityError,
    NotContractiveError,
    ParseError,
)

__all__ = [
    "TypeExpr", "End", "Var", "BoundVar", "Rec", "Input", "Output",
    "Select", "Branch",
    "end", "var", "bvar", "rec", "mu", "inp", "out", "select", "branch",
    "parse", "render", "size", "is_closed", "unfold",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# Variables and labels as the concrete syntax reads them, so render re-parses.
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_KEYWORDS = ("end", "rec")
_BY_LABEL = itemgetter(0)  # sort key of choice items: never compares nodes


class TypeExpr:
    """Base class of the session-type AST.

    Instances are immutable and interned; ``a == b`` iff ``a is b`` iff a
    and b are alpha-equivalent (with label maps compared up to ordering).

    Shared precomputed attributes:

    ``size``
        the standard size measure (see :func:`size`).
    ``cutoff``
        number of enclosing binders required for all de Bruijn indices to
        resolve; 0 means no dangling indices.
    ``has_fvar``
        whether any named (free) variable occurs.
    ``contractive``
        whether every recursion binder is separated from its bound
        occurrences by at least one communication constructor.
    ``_kind``
        the constructor at the head once the binders are unfolded: a
        communication node's or ``End``'s own class, and a ``Rec``'s
        body's, since unfolding a contractive binder substitutes only at
        variable leaves.  An int ``i`` when the head is the de Bruijn
        index ``i`` seen from this node (a ``BoundVar``, or binders over
        one that points past them); ``None`` when unfolding would raise
        instead (a ``Var``, or a binder that is not contractive).
    ``_table``
        the head table of :mod:`stcheck.lts`, once compiled, else ``None``.
    """

    __slots__ = ("size", "cutoff", "has_fvar", "contractive", "_kind",
                 "_table")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)!r}>"

    def __str__(self) -> str:
        return render(self)


class End(TypeExpr):
    __slots__ = ()


class Var(TypeExpr):
    __slots__ = ("name",)


class BoundVar(TypeExpr):
    __slots__ = ("index",)


class Rec(TypeExpr):
    __slots__ = ("body",)


class Input(TypeExpr):
    __slots__ = ("payloads", "cont")


class Output(TypeExpr):
    __slots__ = ("payloads", "cont")


class Select(TypeExpr):
    __slots__ = ("branches",)


class Branch(TypeExpr):
    __slots__ = ("branches",)


# Every factory, parse and _rebuild looks its key up first and builds a node
# only on a miss: a hit is a node that passed the same checks under the same
# key.
# A miss still inserts with dict.setdefault, which is atomic under the GIL
# and gives lock-free concurrent interning: the first inserted node wins.
_interned: dict = {}
_END_KEY = (End,)


def end() -> End:
    return _interned.get(_END_KEY) or _build(_END_KEY)


def _lookup(key: tuple):
    """The node interned under *key*, or ``None``: also when *key* cannot
    be hashed, so that the factory's checks reject the argument."""
    try:
        return _interned.get(key)
    except TypeError:
        return None


def var(name: str) -> Var:
    key = (Var, name)
    node = _lookup(key)
    if node is not None:
        return node
    if not isinstance(name, str) or not _VAR_RE.match(name):
        raise ValueError(f"invalid variable name: {name!r}")
    return _build(key)


def bvar(index: int) -> BoundVar:
    key = (BoundVar, index)
    node = _lookup(key)
    if node is not None:
        return node
    # 1.0 and True are equal to 1 as keys: only an int may be interned
    if type(index) is not int or index < 0:
        raise ValueError(f"de Bruijn index must be an int >= 0: {index!r}")
    return _build(key)


def rec(body: TypeExpr) -> Rec:
    """Nameless recursion binder; ``bvar(0)`` in *body* refers to it."""
    key = (Rec, body)
    node = _lookup(key)
    if node is not None:
        return node
    _require_types((body,))
    return _build(key)


def mu(name: str, body: TypeExpr) -> Rec:
    """Named recursion: binds free occurrences of ``var(name)`` in *body*."""
    return rec(_rewrite(body, Var,
                        lambda u, d: bvar(d) if u.name == name else u))


def _payload_node(cls, payloads: Iterable[TypeExpr], cont: TypeExpr):
    payloads = tuple(payloads)
    key = (cls, payloads, cont)
    node = _lookup(key)
    if node is not None:
        return node
    if not payloads:
        raise EmptyArityError("payload list must be non-empty")
    _require_types(payloads + (cont,))
    return _build(key)


def inp(payloads: Iterable[TypeExpr], cont: TypeExpr) -> Input:
    return _payload_node(Input, payloads, cont)


def out(payloads: Iterable[TypeExpr], cont: TypeExpr) -> Output:
    return _payload_node(Output, payloads, cont)


def _branch_node(cls, branches):
    items = list(branches.items() if isinstance(branches, Mapping)
                 else branches)
    try:
        items.sort(key=_BY_LABEL)  # canonical order
        key = (cls, tuple(items))
        node = _interned.get(key)
    except TypeError:  # unsortable labels or an unhashable argument,
        node = None    # rejected below
    if node is not None:
        return node
    if not items:
        raise EmptyArityError("label map must be non-empty")
    labels = [l for l, _ in items]
    for l in labels:
        if not isinstance(l, str) or not _LABEL_RE.match(l) \
                or l in _KEYWORDS:
            raise ValueError(f"invalid label: {l!r}")
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise DuplicateLabelError(f"duplicate label {a!r}")
    _require_types([k for _, k in items])
    return _build(key)


def _require_types(kids) -> None:
    """Raise ``ValueError`` on the first of *kids* that is not a type."""
    for kid in kids:
        if not isinstance(kid, TypeExpr):
            raise ValueError(f"not a type: {kid!r}")


def _build(key: tuple):
    """Build, measure and intern the node of *key*: ``(End,)``, ``(Var,
    name)``, ``(BoundVar, index)``, ``(Rec, body)``, ``(cls, payloads,
    cont)`` or ``(cls, items in label order)``, whose factory checks hold."""
    cls = key[0]
    node = cls()
    size, cutoff, has_fvar, contractive, kind = 1, 0, False, True, cls
    if len(key) == 3:
        _, node.payloads, node.cont = key
    elif cls is Select or cls is Branch:
        _, node.branches = key
    elif cls is Rec:
        node.body = key[1]
    elif cls is BoundVar:
        node.index = kind = key[1]
        cutoff = kind + 1
    elif cls is Var:
        node.name = key[1]
        has_fvar, kind = True, None
    for kid in _children(node):
        size += kid.size
        if kid.cutoff > cutoff:
            cutoff = kid.cutoff
        has_fvar = has_fvar or kid.has_fvar
        contractive = contractive and kid.contractive
    if cls is Rec:
        cutoff = max(0, cutoff - 1)
        kind = node.body._kind
        if type(kind) is int:
            # the binder chain ends in an index: index 0 is this binder, a
            # cycle; any other points one binder further out from here
            contractive = contractive and kind > 0
            kind -= 1
        if not contractive:
            kind = None
    node.size = size
    node.cutoff = cutoff
    node.has_fvar = has_fvar
    node.contractive = contractive
    node._kind = kind
    node._table = None
    return _interned.setdefault(key, node)


def select(branches) -> Select:
    return _branch_node(Select, branches)


def branch(branches) -> Branch:
    return _branch_node(Branch, branches)


def size(t: TypeExpr) -> int:
    return t.size


def is_closed(t: TypeExpr) -> bool:
    return t.cutoff == 0 and not t.has_fvar


def _children(t: TypeExpr) -> tuple:
    """The children of *t* in listing order; a ``Rec``'s body is one binder
    deeper than the ``Rec``."""
    cls = type(t)
    if cls is Input or cls is Output:
        return t.payloads + (t.cont,)
    if cls is Select or cls is Branch:
        return tuple([b for _, b in t.branches])
    if cls is Rec:
        return (t.body,)
    return ()


def _rebuild(t: TypeExpr, kids: list) -> TypeExpr:
    """*t* with its children, listed as by :func:`_children`, replaced;
    *t*'s labels are already sorted and valid, so nothing is checked."""
    cls = type(t)
    if cls is Input or cls is Output:
        key = (cls, tuple(kids[:-1]), kids[-1])
    elif cls is Select or cls is Branch:
        key = (cls, tuple([(l, k) for (l, _), k in zip(t.branches, kids)]))
    else:
        key = (Rec, kids[0])
    return _interned.get(key) or _build(key)


def _rewrite(t: TypeExpr, cls: type, leaf) -> TypeExpr:
    """Rebuild *t* bottom-up.

    A leaf ``u`` of class *cls* (``BoundVar`` or ``Var``) at binder depth
    ``d`` within *t* becomes ``leaf(u, d)``.  A subtree without such a leaf
    to change (no index >= ``d``, or no named variable) is kept as it is.
    """
    indices = cls is BoundVar
    depth = 0
    done = []    # rebuilt subtrees, in listing order
    todo = [t]   # nodes to enter, or (node, child count, depth) to rebuild
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            u, n, depth = u
            done[-n:] = [_rebuild(u, done[-n:])]
        elif u.cutoff <= depth if indices else not u.has_fvar:
            done.append(u)
        else:
            kids = _children(u)
            if kids:
                todo.append((u, len(kids), depth))
                if type(u) is Rec:
                    depth += 1
                todo.extend(reversed(kids))
            else:
                done.append(leaf(u, depth))
    return done[0]


def free_names(t: TypeExpr) -> frozenset:
    """Set of named free variables (binder indices are never free names)."""
    names = set()
    seen = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        seen.add(u)
        if type(u) is Var:
            names.add(u.name)
        elif u.has_fvar:
            todo.extend(_children(u))
    return frozenset(names)


def shift(t: TypeExpr, by: int) -> TypeExpr:
    """Add *by* to every dangling de Bruijn index."""
    if by == 0 or t.cutoff == 0:
        return t
    return _rewrite(t, BoundVar, lambda u, d: bvar(u.index + by))


def subst_top(t: TypeExpr, s: TypeExpr) -> TypeExpr:
    """Replace index 0 in *t* by *s* and strip that binder level (the
    other dangling indices shift down by one)."""
    return _rewrite(t, BoundVar, lambda u, d:
                    shift(s, d) if u.index == d else bvar(u.index - 1))


def _unfold_once(t: Rec) -> TypeExpr:
    """The binder *t* unfolded once: its body with *t* for index 0."""
    if not t.contractive:
        raise NotContractiveError(f"cannot unfold {render(t)}")
    return subst_top(t.body, t)


def unfold(t: TypeExpr) -> TypeExpr:
    """Strip recursion binders from the head, one binder at a time.

    Terminates on contractive input; the result never has ``Rec`` at the
    head and is *t* when *t* is not a ``Rec``.  Nothing is cached.
    """
    while type(t) is Rec:
        t = _unfold_once(t)
    return t


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   T ::= end | X | rec X . T | ?[T, ...].T | ![T, ...].T
#       | +{ l: T, ... } | &{ l: T, ... }
#
# Variables start uppercase, labels lowercase; '#' starts a line comment.
#
# One findall over the text yields every token: an identifier, a
# punctuator or any other single character that is not a blank (a bad
# one); the parser appends the empty string as the end token.  Every '#'
# starts a comment, since no token takes one in, so a text with a '#' is
# first scanned with each comment blanked to spaces of its own length,
# which keeps every offset.  Both scans are linear on any input.  The
# parser is a loop over the token list with an explicit stack of open
# constructs, so nesting depth is bounded by memory, not by the recursion
# limit.  Offsets, lines and columns are worked out only when an error is
# raised.
#
# Errors are those of a one-token-lookahead reader: a bad character is
# reported as soon as the token before it is consumed.  So a syntax error
# at a token the grammar inspects before consuming it (a separator, a
# closer, the end) is reported before a bad character right after it;
# one at a token it consumes first (the start of a type, a binder name,
# a label) or a duplicate label at a closing '}' is reported after it.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[?!]\[|[+&]\{|[^ \t\r\n]")
_COMMENT = re.compile(r"#[^\n]*")
_PUNCT = frozenset(("?[", "![", "+{", "&{", "]", "}", ".", ",", ":"))

# Frames of the explicit stack; the node just parsed is handed to the
# innermost one.  [_PAYLOADS, cls, payloads] and then [_CONT, cls, payloads]
# for ?[..].T and ![..].T, [_ITEMS, cls, items, label] for +{..} and &{..},
# [_BINDER, name] for the body of rec.
_PAYLOADS, _CONT, _ITEMS, _BINDER = range(4)


def parse(text: str) -> TypeExpr:
    """Parse the concrete syntax; the result is closed under its binders,
    contractive and canonically interned.

    Raises :class:`ParseError`, :class:`NotContractiveError`,
    :class:`DuplicateLabelError` or :class:`EmptyArityError`.
    """
    toks = _TOKEN.findall(_blank(text))
    toks.append("")
    get = _interned.get
    end_node = end()
    stack = []
    scope: dict = {}  # binder name -> depths of its binders, innermost last
    depth = 0         # number of enclosing binders
    i = 0
    while True:
        # A type starts at toks[i].
        tok = toks[i]
        i += 1
        if tok == "end":
            node = end_node
        elif tok == "?[" or tok == "![":
            stack.append([_PAYLOADS, Input if tok == "?[" else Output, []])
            continue
        elif tok == "+{" or tok == "&{":
            label = toks[i]
            if not ("a" <= label[:1] <= "z" and label not in _KEYWORDS
                    and toks[i + 1] == ":"):
                _label(text, toks, i)
            i += 2
            cls = Select if tok == "+{" else Branch
            stack.append([_ITEMS, cls, [], label])
            continue
        elif tok == "rec":
            name = toks[i]
            if not "A" <= name[:1] <= "Z":
                _fail(text, toks, i, "expected recursion variable after 'rec'",
                      took=True)
            if toks[i + 1] != ".":
                _fail(text, toks, i + 1, _expected(".", toks[i + 1]))
            i += 2
            scope.setdefault(name, []).append(depth)
            depth += 1
            stack.append([_BINDER, name])
            continue
        elif "A" <= tok[:1] <= "Z":
            levels = scope.get(tok)
            if levels:
                index = depth - 1 - levels[-1]
                node = get((BoundVar, index)) or bvar(index)
            else:
                node = var(tok)
        elif _IDENT_RE.match(tok):
            _fail(text, toks, i - 1, f"unexpected identifier {tok!r} "
                  "(variables start uppercase)", took=True)
        else:
            _fail(text, toks, i - 1,
                  f"expected a type, found {tok or 'end of input'!r}",
                  took=True)

        # Hand the finished node to the open constructs, closing those it
        # completes, until one needs another type.  A closed construct is
        # looked up under the key its factory would build; on a miss it is
        # built without the factory's checks, which the grammar has made.
        while stack:
            frame = stack[-1]
            kind = frame[0]
            if kind == _CONT:
                stack.pop()
                key = (frame[1], tuple(frame[2]), node)
                node = get(key) or _build(key)
            elif kind == _PAYLOADS:
                frame[2].append(node)
                tok = toks[i]
                if tok == ",":
                    i += 1
                    break
                if tok != "]":
                    _fail(text, toks, i, _expected("]", tok))
                if toks[i + 1] != ".":
                    _fail(text, toks, i + 1, _expected(".", toks[i + 1]))
                i += 2
                frame[0] = _CONT
                break
            elif kind == _ITEMS:
                items = frame[2]
                items.append((frame[3], node))
                tok = toks[i]
                if tok == ",":
                    label = toks[i + 1]
                    if not ("a" <= label[:1] <= "z" and label not in _KEYWORDS
                            and toks[i + 2] == ":"):
                        _label(text, toks, i + 1)
                    frame[3] = label
                    i += 3
                    break
                if tok != "}":
                    _fail(text, toks, i, _expected("}", tok))
                i += 1
                stack.pop()
                # items keep text order: _duplicate names the first repeat
                key = (frame[1], tuple(sorted(items, key=_BY_LABEL)))
                node = get(key)
                if node is None:  # a hit was interned with distinct labels
                    if len({l for l, _ in items}) < len(items):
                        _duplicate(text, toks, i, items)
                    node = _build(key)
            else:
                stack.pop()
                scope[frame[1]].pop()
                depth -= 1
                key = (Rec, node)
                node = get(key) or _build(key)
        else:
            break

    if toks[i] != "":
        _fail(text, toks, i, f"trailing input starting at {toks[i]!r}")
    if not node.contractive:
        raise NotContractiveError(f"type is not contractive: {text.strip()}")
    return node


def _label(text: str, toks: list, i: int) -> None:
    """Raise the error for toks[i], which the parser read as a label that
    must be followed by ':'."""
    label = toks[i]
    if not _LABEL_RE.match(label) or label in _KEYWORDS:
        _fail(text, toks, i, "expected a label (lowercase identifier)",
              took=True)
    _fail(text, toks, i + 1, _expected(":", toks[i + 1]))


def _expected(punct: str, tok: str) -> str:
    return f"expected {punct!r}, found {tok or 'end of input'!r}"


def _is_bad(tok: str) -> bool:
    return tok != "" and tok not in _PUNCT and not _IDENT_RE.match(tok)


def _blank(text: str) -> str:
    """*text* with each comment blanked to spaces of its own length."""
    if "#" in text:
        return _COMMENT.sub(lambda m: " " * len(m.group()), text)
    return text


def _position(text: str, k: int) -> Tuple[int, int]:
    """Line and column (1-based) of token *k*; the end token is at the end
    of the text."""
    match = next(islice(_TOKEN.finditer(_blank(text)), k, None), None)
    off = len(text) if match is None else match.start()
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _fail(text: str, toks: list, k: int, message: str,
          took: bool = False) -> None:
    """Raise the error for token *k*.  A bad character is seen as soon as
    the token before it is consumed: at *k* itself, or at *k* + 1 when the
    grammar consumed token *k* before inspecting it (*took*)."""
    if not _is_bad(toks[k]) and took and k + 1 < len(toks) \
            and _is_bad(toks[k + 1]):
        k += 1
    if _is_bad(toks[k]):
        message = f"unexpected character {toks[k]!r}"
    raise ParseError(message, *_position(text, k))


def _duplicate(text: str, toks: list, k: int, items: list) -> None:
    """Raise for the first repeated label of *items*, closed before token
    *k*, unless token *k* is a bad character (seen when '}' was consumed)."""
    if _is_bad(toks[k]):
        _fail(text, toks, k, f"unexpected character {toks[k]!r}")
    seen = set()
    for l, _ in items:
        if l in seen:
            raise DuplicateLabelError(f"duplicate label {l!r}")
        seen.add(l)


def _binder_names(t: TypeExpr) -> Iterator[str]:
    taken = free_names(t)
    for name in ("X", "Y", "Z", "W", "S", "T", "U", "V"):
        if name not in taken:
            yield name
    i = 1
    while True:
        for base in ("X", "Y", "Z", "W"):
            name = f"{base}{i}"
            if name not in taken:
                yield name
        i += 1


def render(t: TypeExpr) -> str:
    """Deterministic concrete syntax; re-parses to the identical value."""
    names = _binder_names(t)
    env = []    # names of the binders on the current path, innermost last
    out = []
    todo = [t]  # nodes to render, text to emit, or None to leave a binder
    while todo:
        u = todo.pop()
        cls = type(u)
        if cls is str:
            out.append(u)
        elif u is None:
            env.pop()
        elif cls is End:
            out.append("end")
        elif cls is Var:
            out.append(u.name)
        elif cls is BoundVar:  # a dangling index gets a debug rendering
            i = u.index
            out.append(env[-1 - i] if i < len(env) else f"'{i - len(env)}")
        else:
            # Emit the text before the first child now, and push each child
            # over the text that follows it.
            kids = _children(u)
            if cls is Rec:
                env.append(next(names))
                out.append(f"rec {env[-1]} . ")
                after = [None]
            elif cls is Input or cls is Output:
                out.append("?[" if cls is Input else "![")
                after = [", "] * (len(kids) - 2) + ["].", ""]
            else:
                labels = [l for l, _ in u.branches]
                out.append(f"{'+' if cls is Select else '&'}{{ {labels[0]}: ")
                after = [f", {l}: " for l in labels[1:]] + [" }"]
            for text, kid in zip(reversed(after), reversed(kids)):
                todo.append(text)
                todo.append(kid)
    return "".join(out)
