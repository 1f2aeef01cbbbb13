"""Seeded inputs are reproducible and match their pinned digests."""

import json
from pathlib import Path

import pytest

import workloads
from oracle import is_subtype
from stcheck.syntax import parse

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pinned_inputs(name):
    built = workloads.build(name, 0)
    assert built.digest() == PINS["inputs_sha256"][name]


def test_same_seed_same_inputs_other_seed_other_inputs():
    a = workloads.build("interface-variants", 5)
    b = workloads.build("interface-variants", 5)
    c = workloads.build("interface-variants", 6)
    assert a.digest() == b.digest() != c.digest()


def test_interface_variants_expectations():
    built = workloads.build("interface-variants", 1)
    interface = parse(built.interface)
    ops = built.ops["product"]
    truths = built.expect["product"]
    # one variant per choice site, half checked in each direction; the
    # interface itself is never rendered into an op
    assert len(ops) == 102
    assert sum(left is None for left, _ in ops) == 51
    for (left, right), expected in zip(ops, truths):
        left = interface if left is None else parse(left)
        right = interface if right is None else parse(right)
        assert is_subtype(left, right) is expected
    assert 0.2 < sum(truths) / len(truths) < 0.6
    assert len(built.ops["allpairs"]) == 7
    assert all(op in ops for op in built.ops["allpairs"])
