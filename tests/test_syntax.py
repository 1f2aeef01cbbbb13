import pytest

from stcheck.errors import (
    DuplicateLabelError, EmptyArityError, NotContractiveError, ParseError,
)
from stcheck.syntax import (
    End, Rec, Select,
    branch, end, free_names, inp, is_closed, is_contractive, mu, out, parse,
    render, select, size, substitute, unfold, var,
)
from helpers import T1_TEXT, T2_TEXT


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
    assert is_contractive(parse("rec X . ?[X].X"))
    # a chain ending at an outer binder is allowed
    assert is_contractive(parse("rec X . ?[end].rec Y . X"))


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


def test_empty_arity_rejected_in_factories():
    with pytest.raises(EmptyArityError):
        inp([], end())
    with pytest.raises(EmptyArityError):
        select([])


def test_comments_and_whitespace():
    t = parse("# interface\nrec X .\n  +{ respond: ?[end].X, # loop\n     exit: end }")
    assert t is parse(T1_TEXT)


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
    assert substitute(var("X"), "X", end()) is end()
    assert substitute(end(), "X", t1) is end()
    named_body = select([("respond", inp([end()], var("X"))), ("exit", end())])
    assert substitute(named_body, "X", t1) is unfold(t1)


def test_substitute_free_name_accounting():
    t = inp([var("X")], out([var("Y")], var("X")))
    s = parse("rec Z . ?[end].Z")
    result = substitute(t, "X", s)
    assert free_names(result) == frozenset({"Y"})
    assert free_names(t) == frozenset({"X", "Y"})


def test_substitute_untargeted_name_is_noop():
    t = inp([var("Y")], end())
    assert substitute(t, "X", end()) is t


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
