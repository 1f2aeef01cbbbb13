"""Session-type subtyping: parsing, LTS construction and four decision
algorithms.  The instance generators and the complexity benchmark are in
:mod:`stcheck.bench`, which this package does not import."""

from . import lts as _lts, syntax as _syntax
from .errors import (
    DuplicateLabelError, EmptyArityError, NotContractiveError,
    OpenTypeError, ParseError, StcheckError,
)
from .syntax import (
    TypeExpr, parse, render, size, is_contractive, is_closed,
    substitute, unfold, end, var, mu, rec, bvar, inp, out, select, branch,
)
from .subterms import sub_bottom_up, sub_top_down, sub_pair
from .lts import SKIP, Action, TypeLts, build_lts, out_degree, transitions
from .subtyping import (
    ALGORITHMS, ProductNode, SubtypeReport, check, equal_coinductive,
    export_product_dot, is_inconsistent, product_successors,
    subtype_all_pairs, subtype_inductive, subtype_memoized, subtype_product,
)

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
