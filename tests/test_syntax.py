import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import stcheck
from stcheck import syntax
from stcheck.errors import (
    DuplicateLabelError, EmptyArityError, NotContractiveError, ParseError,
    StcheckError,
)
from stcheck.bench import GenConfig, gen_random, random_pair
from stcheck.subterms import sub_bottom_up, sub_top_down
from stcheck.subtyping import check
from stcheck.syntax import (
    Branch, BoundVar, End, Input, Output, Rec, Select, Var, _children,
    branch, bvar, end, free_names, inp, is_closed, mu, out, parse, rec,
    render, select, shift, size, subst_top, unfold, var,
)
from helpers import T1_TEXT, T2_TEXT

DEEP = 10**5
DEEP_CHAIN = "?[end]." * DEEP + "end"


def chain(tail, n=DEEP):
    """``?[end].`` repeated *n* times in front of *tail*."""
    for _ in range(n):
        tail = inp([end()], tail)
    return tail


def test_parse_end():
    assert isinstance(parse("end"), End)
    assert parse("end") is end()


def test_parse_t1_structure(t1):
    assert isinstance(t1, Rec)
    unfolded = unfold(t1)
    assert isinstance(unfolded, Select)
    assert [l for l, _ in unfolded.branches] == ["exit", "respond"]


def test_parse_interns_alpha_equivalent_texts():
    a = parse("rec X . ?[end].X")
    b = parse("rec LoopVar . ?[end].LoopVar")
    assert a is b


def test_parse_rejects_noncontractive():
    with pytest.raises(NotContractiveError):
        parse("rec X . rec Y . X")
    with pytest.raises(NotContractiveError):
        parse("rec X . X")
    with pytest.raises(NotContractiveError):
        parse("?[end].rec X . rec Y . rec Z . Y")


def test_guarded_recursion_is_contractive():
    assert parse("rec X . ?[X].X").contractive
    # a chain ending at an outer binder is allowed
    assert parse("rec X . ?[end].rec Y . X").contractive


def test_parse_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabelError):
        parse("+{ a: end, a: end }")


def test_parse_rejects_syntax_errors_with_position():
    with pytest.raises(ParseError) as exc:
        parse("rec X .\n ?[end]. +{")
    assert exc.value.line == 2


def test_parse_rejects_free_lowercase_head():
    with pytest.raises(ParseError):
        parse("foo")


def test_factories_validate_on_an_intern_miss():
    # Valid look-alikes are interned first: a factory returns a hit without
    # validating, so each bad call below must miss and be checked.
    select([("a", end())])
    bvar(0)
    var("X")
    inp([end()], end())
    branch([("a", end())])
    with pytest.raises(EmptyArityError):
        inp([], end())
    with pytest.raises(EmptyArityError):
        select([])
    with pytest.raises(ValueError):
        select([("A", end())])
    with pytest.raises(ValueError):
        branch([("end", end())])
    with pytest.raises(ValueError):
        bvar(-1)
    # a variable is what parse reads as one: render must not print a
    # keyword or a label where a variable stands
    for name in ("end", "x", "rec"):
        with pytest.raises(ValueError):
            var(name)
    with pytest.raises(DuplicateLabelError):
        branch([("a", end()), ("a", end())])
    with pytest.raises(DuplicateLabelError):
        branch([("a", end()), ("a", var("X"))])


@pytest.mark.parametrize("build", [
    lambda: inp([1], end()),
    lambda: out([end()], 3),
    lambda: rec("x"),
    lambda: select([("a", None)]),
    lambda: branch({"a": "b"}),
    lambda: select([(1, end())]),
    lambda: var(1),
    lambda: rec([]),
    lambda: inp([end()], {}),
    lambda: select([(1, end()), ("a", end())]),
    lambda: var([]),
    lambda: bvar([]),
], ids=["inp", "out", "rec", "select", "branch", "label", "var",
        "rec-unhashable", "inp-unhashable", "labels-unsortable",
        "var-unhashable", "bvar-unhashable"])
def test_factories_reject_non_types(build):
    # each call misses: no key holding a non-type is ever interned.  An
    # argument that cannot be hashed or sorted fails the lookup with a
    # TypeError, which the factory turns into its own check's ValueError
    with pytest.raises(ValueError):
        build()


def test_parse_closes_a_binder_without_the_factory(monkeypatch):
    # parse forms the (Rec, body) key itself, as for every other construct
    def refuse(body):
        raise AssertionError("parse called rec")
    monkeypatch.setattr(stcheck.syntax, "rec", refuse)
    t = parse("rec X . ?[end].+{ a_binder_miss_r5: X }")
    assert type(t) is Rec and t.contractive


def test_bvar_interns_only_an_int_index():
    # 1.0 and True are equal to 1 as keys: interned, either would be every
    # later bvar(1).  A fresh process has no index 1 interned yet.
    code = """if True:
        from stcheck.syntax import bvar, parse, render
        for index in (1.0, True):
            try:
                bvar(index)
            except ValueError:
                continue
            raise SystemExit(f"bvar({index!r}) was interned")
        print(render(parse("rec X . rec Y . ?[X].Y")))
    """
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "rec X . rec Y . ?[X].Y\n"), \
        done.stderr


def test_parse_errors_match_golden_table():
    """Class, message, line and column of every malformed text in
    ``parse_errors.json``, as the recursive-descent parser with one token of
    lookahead reported them.  The texts are seeded insertions, deletions and
    truncations of rendered ``random_pair`` texts, chosen so that a bad
    character comes both before and after a syntax error, plus hand-written
    edge cases (a bad character right after a consumed token, after '}' and
    after a duplicate label)."""
    path = pathlib.Path(__file__).with_name("parse_errors.json")
    cases = json.loads(path.read_text(encoding="utf-8"))
    wrong = []
    for text, cls, message, line, col in cases:
        with pytest.raises(StcheckError) as exc:
            parse(text)
        err = exc.value
        got = [type(err).__name__, str(err),
               getattr(err, "line", None), getattr(err, "col", None)]
        if got != [cls, message, line, col]:
            wrong.append((text, got))
    assert len(cases) > 300
    assert wrong == []


@pytest.mark.parametrize("text", [
    "a" * 10**5 + "$",
    "?[" * 10**5,
    "#" * 10**5 + "\n$",
], ids=["long-ident", "open-payloads", "long-comment"])
def test_long_malformed_input_fails_fast(text):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse(text)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("text,expected_size", [
    (DEEP_CHAIN, 2 * 10**5 + 1),
    ("+{ a: " * 30000 + "end" + " }" * 30000, 30001),
    ("".join(f"rec X{i} . ?[X{i}]." for i in range(30000)) + "end", 90001),
], ids=["input-chain", "select-nest", "binder-nest"])
def test_parse_deep_input(text, expected_size):
    assert parse(text).size == expected_size


def test_deep_chain_gets_a_product_verdict():
    t = parse(DEEP_CHAIN)
    assert check(t, t, "product").verdict is True


def within(seconds, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    assert time.perf_counter() - start < seconds
    return result


def test_deep_chain_renders_and_reparses():
    t = chain(end())
    text = within(5.0, render, t)
    assert text == DEEP_CHAIN
    assert parse(text) is t


def test_deep_chain_name_operations():
    body = chain(var("X"))
    assert within(5.0, free_names, body) == frozenset({"X"})
    bound = within(5.0, mu, "X", body)
    assert bound is rec(chain(bvar(0)))
    assert within(5.0, shift, bound.body, 2) is chain(bvar(2))


def test_deep_chain_bottom_up_subterms():
    # every suffix of the chain, down to the final end
    assert len(within(5.0, sub_bottom_up, chain(end()))) == DEEP + 1


def test_deep_body_unfolds():
    t = rec(chain(bvar(0)))
    assert within(5.0, unfold, t) is chain(t)


def test_deep_binder_prefix_unfolds():
    # 10^4 binders in a row; the innermost payload names the outermost one
    n = 10**4
    t = inp([bvar(n - 1)], end())
    for _ in range(n):
        t = rec(t)
    assert within(5.0, unfold, t) is inp([t], end())


def test_traversal_results_are_pinned():
    """Subterm sets and unfoldings of 600 random types, pinned from the
    recursive implementation.  Listing the children in another order than
    the one nodes are rebuilt from, or losing count of the binder depth,
    changes the unfoldings."""
    s = var("S")
    subterms = 0
    unfolded = []
    for i in range(300):
        for t in random_pair(i, 40):
            subs = sub_bottom_up(t)
            subterms += len(subs)
            unfolded.append(render(unfold(t)))
            assert subst_top(shift(t, 1), s) is t
            for u in subs:
                if isinstance(u, Rec):  # a body has a dangling index
                    assert subst_top(shift(u.body, 1), s) is u.body
    digest = hashlib.sha256("\n".join(unfolded).encode()).hexdigest()
    assert subterms == 4894
    assert digest == ("e36dd62e1751089b3a03752a2484e1176f0e5f74e246e006d33856fe"
                      "5d04bb5d")


def test_shift_returns_a_closed_term_without_a_rewrite(monkeypatch):
    # unfolding a binder shifts the binder itself at every index it
    # replaces; a closed term has no dangling index to move
    rewrites = []
    rewrite = syntax._rewrite
    monkeypatch.setattr(syntax, "_rewrite",
                        lambda *args: rewrites.append(args) or rewrite(*args))
    closed = [t for i in range(50) for t in random_pair(i, 40)]
    closed += [parse(T1_TEXT), parse("rec X . ?[X].X"), end()]
    for t in closed:
        assert shift(t, 5) is t
    assert rewrites == []
    body = parse("rec X . ?[X].X").body  # dangling index 0
    assert shift(body, 5) is inp([bvar(5)], bvar(5))
    assert len(rewrites) == 1


def test_comments_and_whitespace():
    t = parse("# interface\nrec X .\n  +{ respond: ?[end].X, # loop\n     exit: end }")
    assert t is parse(T1_TEXT)


# The tokenizer before comments were blanked: one match per token skipped
# blanks and comments, then took a token or, only at the end, "".
_SKIPPING_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    ( [A-Za-z][A-Za-z0-9_]* | [?!]\[ | [+&]\{ | [\]\}.,:] | [\s\S] | )
""", re.VERBOSE)


def test_tokens_and_offsets_match_the_skipping_tokenizer():
    pieces = ["a", "Xy_1", "end", "rec", "?", "!", "[", "]", "+", "&", "{",
              "}", ".", ",", ":", "#", "# c", "\n", "\v", "\xa0", " ", "\t",
              "\r", "$", "9"]
    rng = random.Random(16)
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        old = [m.start(1) for m in _SKIPPING_TOKEN_RE.finditer(text)]
        old_toks = _SKIPPING_TOKEN_RE.findall(text)
        if len(old_toks) > 1 and old_toks[-2:] == ["", ""]:
            del old_toks[-1], old[-1]  # "" once more after trailing blanks
        toks = syntax._TOKEN.findall(syntax._blank(text)) + [""]
        assert toks == old_toks, text
        assert [syntax._position(text, k) for k in range(len(toks))] \
            == [(text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))
                for off in old], text


def test_render_end():
    assert render(end()) == "end"


def test_render_roundtrip_t1(t1):
    assert parse(render(t1)) is t1


def test_render_is_deterministic(t2):
    assert render(t2) == render(parse(T2_TEXT))


def test_size_examples(t1, t2):
    assert size(end()) == 1
    assert size(var("X")) == 1
    assert size(t1) == 6
    assert size(t2) == 9


def test_size_recurrences():
    assert size(parse("?[end,end].end")) == 4
    assert size(parse("&{ a: end, b: end }")) == 3
    assert size(parse("rec X . ?[X].X")) == 4


def test_is_closed(t3):
    assert is_closed(end())
    assert not is_closed(var("X"))
    assert is_closed(t3)
    assert not is_closed(inp([var("X")], end()))


def test_substitute_examples(t1):
    # unfolding substitutes the binder for its variable in the body
    assert unfold(mu("X", end())) is end()
    named_body = select([("respond", inp([end()], var("X"))), ("exit", end())])
    assert mu("X", named_body) is t1
    assert unfold(mu("X", named_body)) is unfold(t1)


def test_substitute_free_name_accounting():
    t = inp([var("X")], out([var("Y")], var("X")))
    bound = mu("X", t)
    assert free_names(bound) == frozenset({"Y"})
    assert free_names(unfold(bound)) == frozenset({"Y"})
    assert free_names(t) == frozenset({"X", "Y"})


def test_substitute_untargeted_name_is_noop():
    t = inp([var("Y")], end())
    assert mu("X", t).body is t
    assert unfold(mu("X", t)) is t


def test_unfold_examples(t1):
    assert unfold(end()) is end()
    expected = select([("respond", inp([end()], t1)), ("exit", end())])
    assert unfold(t1) is expected

    nested = parse("rec X . rec Y . ?[end].X")
    assert unfold(nested) is inp([end()], nested)


def test_unfold_is_idempotent(t2):
    assert unfold(unfold(t2)) is unfold(t2)
    assert not isinstance(unfold(t2), Rec)


def test_mu_binds_named_variable():
    assert mu("X", inp([end()], var("X"))) is parse("rec X . ?[end].X")
    # unrelated names stay free
    t = mu("X", inp([var("Y")], var("X")))
    assert free_names(t) == frozenset({"Y"})


def test_branch_order_is_canonical():
    a = parse("&{ b: end, a: ?[end].end }")
    b = parse("&{ a: ?[end].end, b: end }")
    assert a is b
    assert render(a) == render(b)


def shuffled_text(t, rng, suffix="", depth=0):
    """Concrete syntax of the closed type *t*, each choice's items in a
    random order and each label followed by *suffix*; the binder at depth
    d is named R{d}."""
    if type(t) is End:
        return "end"
    if type(t) is BoundVar:
        return f"R{depth - 1 - t.index}"
    if type(t) is Rec:
        return f"rec R{depth} . {shuffled_text(t.body, rng, suffix, depth + 1)}"
    if type(t) in (Input, Output):
        payloads = ", ".join(shuffled_text(p, rng, suffix, depth)
                             for p in t.payloads)
        cont = shuffled_text(t.cont, rng, suffix, depth)
        return f"{'?' if type(t) is Input else '!'}[{payloads}].{cont}"
    items = list(t.branches)
    rng.shuffle(items)
    body = ", ".join(f"{l}{suffix}: {shuffled_text(b, rng, suffix, depth)}"
                     for l, b in items)
    return f"{'+' if type(t) is Select else '&'}{{ {body} }}"


def relabelled(t, suffix):
    """*t* rebuilt through the factories with *suffix* after every label."""
    if type(t) is Rec:
        return rec(relabelled(t.body, suffix))
    if type(t) in (Input, Output):
        return (inp if type(t) is Input else out)(
            [relabelled(p, suffix) for p in t.payloads],
            relabelled(t.cont, suffix))
    if type(t) in (Select, Branch):
        return (select if type(t) is Select else branch)(
            [(l + suffix, relabelled(b, suffix)) for l, b in t.branches])
    return t


def recomputed(t):
    """(size, cutoff, has_fvar, contractive, _kind) of *t* from their
    definitions, over ``_children`` and without reading an attribute."""
    kids = [recomputed(k) for k in _children(t)]
    cls = type(t)
    size = 1 + sum(k[0] for k in kids)
    if cls is BoundVar:
        cutoff = t.index + 1
    elif cls is Rec:
        cutoff = max(0, kids[0][1] - 1)
    else:
        cutoff = max([k[1] for k in kids], default=0)
    has_fvar = cls is Var or any(k[2] for k in kids)
    contractive = all(k[3] for k in kids)
    kind = t.index if cls is BoundVar else None if cls is Var else cls
    if cls is Rec:
        # Rec^m(u), u not a Rec: a cycle iff u is one of these m binders;
        # unfolding substitutes at the leaves, so u's constructor is the head
        m, u = 0, t
        while type(u) is Rec:
            m, u = m + 1, u.body
        if type(u) is BoundVar:
            contractive = contractive and u.index >= m
        if not contractive or type(u) is Var:
            kind = None
        elif type(u) is BoundVar:
            kind = u.index - m
        else:
            kind = type(u)
    return size, cutoff, has_fvar, contractive, kind


def random_types(n=2000):
    return [gen_random(GenConfig(seed=i, max_labels=6)) for i in range(n)]


def test_parse_returns_the_factory_built_node():
    rng = random.Random(0)
    reordered = 0
    for t in random_types():
        text = shuffled_text(t, rng)
        reordered += text != render(t)
        assert parse(text) is t, text
    assert reordered > 500


def test_parse_misses_build_the_factory_node_and_attributes():
    # Labels unique to this test make every choice node, and every node
    # above one, a miss that parse builds itself.
    suffix = "_parse_miss_q7"
    rng = random.Random(1)
    misses = 0
    for t in random_types():
        u = parse(shuffled_text(t, rng, suffix))
        todo = [u]
        while todo:
            v = todo.pop()
            assert (v.size, v.cutoff, v.has_fvar, v.contractive,
                    v._kind) == recomputed(v), render(v)
            todo.extend(_children(v))
        misses += u is not t
        assert render(u).replace(suffix, "") == render(t)
        assert relabelled(t, suffix) is u
    assert misses > 500
    # a cycle in any child, not only in the last one, is not contractive
    for text in ("?[rec X . X, end].end", "![end].rec X . X",
                 f"+{{ a{suffix}: rec X . X, b{suffix}: end }}"):
        with pytest.raises(NotContractiveError):
            parse(text)


def test_rewrite_misses_build_the_factory_node_and_attributes():
    # Labels unique to this test make every node that unfold and
    # sub_top_down rebuild above a choice a miss, which the rewrite path
    # builds before relabelled asks the factories for the same key.
    suffix = "_rewrite_miss_k3"
    rng = random.Random(2)
    rebuilt = 0
    for t in random_types():
        u = parse(shuffled_text(t, rng, suffix))
        before = stcheck.cache_sizes()["interned"]
        unfolded = unfold(u)
        subterms = sub_top_down(u)
        rebuilt += stcheck.cache_sizes()["interned"] - before
        for v in subterms:
            assert (v.size, v.cutoff, v.has_fvar, v.contractive,
                    v._kind) == recomputed(v), render(v)
        assert unfolded is relabelled(unfold(t), suffix)
        assert subterms == {relabelled(v, suffix) for v in sub_top_down(t)}
    assert rebuilt > 2000


@pytest.mark.parametrize("text, line, col, message", [
    ("&{ rec: end }", 1, 4, "expected a label (lowercase identifier)"),
    ("+{ a: end, end: end }", 1, 12, "expected a label (lowercase identifier)"),
    ("+{ a: end, B: end }", 1, 12, "expected a label (lowercase identifier)"),
    ("+{ a end }", 1, 6, "expected ':', found 'end'"),
    ("+{ a: end, b end }", 1, 14, "expected ':', found 'end'"),
])
def test_labels_are_checked_first_and_later(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"{line}:{col}: {message}"
