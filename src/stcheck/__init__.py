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
    unfolded heads, the compiled head tables and the shared action
    tuples."""
    return {
        "interned": len(_syntax._interned),
        "unfold": len(_syntax._unfold_cache),
        "head_tables": len(_lts._tables),
        "action_tuples": len(_lts._action_tuples),
    }


def clear_caches() -> None:
    """Empty every cache derived from the types, so a long-lived process
    can bound its memory; results are unchanged, only rebuilt on demand.

    The interning table is kept: a type is its interned node, and equality
    is identity, so dropping the table would let a later parse build a
    second node equal to a live one but not identical to it.  Call this
    between checks, not while one runs in another thread: a head compiled
    after the clear does not share its action tuple with one compiled
    before it.
    """
    _syntax._unfold_cache.clear()
    _lts._tables.clear()
    _lts._action_tuples.clear()
