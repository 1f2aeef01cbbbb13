"""Session-type subtyping: parsing, LTS construction and four decision
algorithms.  The instance generators and the complexity benchmark are in
:mod:`stcheck.bench`, which this package does not import."""

from . import lts as _lts, syntax as _syntax
from .errors import (
    DeadlineExceeded, DuplicateLabelError, EmptyArityError,
    NotContractiveError, OpenTypeError, ParseError, StcheckError,
)
from .syntax import (
    TypeExpr, parse, render, size, is_closed, unfold,
    end, var, mu, rec, bvar, inp, out, select, branch,
)
from .subterms import sub_bottom_up, sub_top_down, sub_pair
from .lts import SKIP, Action, TypeLts, build_lts
from .subtyping import (
    ALGORITHMS, SubtypeReport, check, export_product_dot,
    subtype_inductive, subtype_memoized, subtype_product,
)

__all__ = [
    "StcheckError", "ParseError", "NotContractiveError",
    "DuplicateLabelError", "EmptyArityError", "OpenTypeError",
    "DeadlineExceeded",
    "TypeExpr", "parse", "render", "size", "is_closed", "unfold",
    "end", "var", "mu", "rec", "bvar", "inp", "out", "select", "branch",
    "sub_bottom_up", "sub_top_down", "sub_pair",
    "SKIP", "Action", "TypeLts", "build_lts",
    "ALGORITHMS", "SubtypeReport", "check", "subtype_product",
    "subtype_inductive", "subtype_memoized", "export_product_dot",
    "cache_sizes", "clear_caches",
]

__version__ = "0.1.0"


def cache_sizes() -> dict:
    """Entries in each module-level cache: the interned types, the
    compiled head tables (one per node whose ``_table`` slot was set since
    the last clear) and the shared action tuples (one per head shape)."""
    return {
        "interned": len(_syntax._interned),
        "head_tables": len(_lts._compiled),
        "action_tuples": len(_lts._action_tuples),
    }


def clear_caches() -> None:
    """Reset the head tables, so a long-lived process can bound its
    memory; results are unchanged, the tables only rebuilt on demand.
    It empties the slot of each node compiled since the last clear.

    The interning table and the action tuples are kept, for one reason:
    they carry identity.  A type is its interned node, and equality is
    identity; two heads of one shape match by their shared action tuple.
    The action tuples are keyed by the shapes of interned heads, so they
    cannot outgrow the interning table.  A table compiled before a clear
    matches one compiled after it, and a node is listed after its slot is
    set, so this may be called while a check runs.
    """
    while _lts._compiled:
        _lts._compiled.pop()._table = None
