"""Session-type subtyping: parsing, LTS construction, four decision
algorithms and an empirical complexity benchmark."""

from . import lts as _lts, subtyping as _subtyping, syntax as _syntax
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
    export_product_dot, is_inconsistent, is_subtype, product_successors,
    subtype_all_pairs, subtype_inductive, subtype_memoized, subtype_product,
)
from .bench import GenConfig, BenchRecord, gen_random, gen_blowup_family, run_bench

__version__ = "0.1.0"


def cache_sizes() -> dict:
    """Entries in each module-level cache: the interned types, the
    unfolded heads, the compiled head tables, the shared action tuples and
    the transition maps."""
    return {
        "interned": len(_syntax._interned),
        "unfold": len(_syntax._unfold_cache),
        "head_tables": len(_subtyping._tables),
        "action_tuples": len(_subtyping._action_tuples),
        "transitions": len(_lts._transitions_cache),
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
    _subtyping._tables.clear()
    _subtyping._action_tuples.clear()
    _lts._transitions_cache.clear()
