import pytest

from helpers import T1_TEXT, T2_TEXT, T3_TEXT
from stcheck.syntax import TypeExpr, parse


@pytest.fixture
def t1() -> TypeExpr:
    return parse(T1_TEXT)


@pytest.fixture
def t2() -> TypeExpr:
    return parse(T2_TEXT)


@pytest.fixture
def t3() -> TypeExpr:
    return parse(T3_TEXT)
