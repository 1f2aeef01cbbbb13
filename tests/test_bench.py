import csv

import pytest

from helpers import fit_quadratic
from stcheck.bench import (
    CSV_COLUMNS, DEFAULT_KMAX_INDUCTIVE, FAMILIES, GenConfig,
    gen_blowup_family, gen_random, random_pair, run_bench, write_csv,
)
from stcheck.subtyping import subtype_inductive, subtype_product
from stcheck.syntax import is_closed, parse, render, size


# frozen baseline: judgements visited by the inductive algorithm on the
# blow-up family, k = 1..5
BLOWUP_J = {1: 7, 2: 25, 3: 79, 4: 223, 5: 577}


def test_gen_random_deterministic():
    a = gen_random(GenConfig(seed=11))
    b = gen_random(GenConfig(seed=11))
    assert a is b
    assert render(a) == render(b)


def test_gen_random_wellformed():
    for seed in range(500):
        t = gen_random(GenConfig(seed=seed, max_size=40))
        assert is_closed(t)
        assert t.contractive
        assert size(t) <= 40


def test_gen_random_tiny_budget():
    t = gen_random(GenConfig(seed=0, max_size=1))
    assert render(t) == "end"


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_size=0)
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_labels=0)


def test_random_pair_distinct_streams():
    left, right = random_pair(3, max_size=30)
    assert render(left) != render(right) or left is right


def test_blowup_sizes():
    for k in (*range(1, 8), 10**5):
        left, right = gen_blowup_family(k)
        assert size(left) == 4 * k + 1
        assert size(right) == 4 * (k + 1) + 1


def blowup_text(depth, name):
    return "".join(f"rec {name}{i} . ?[{name}{max(1, i - 1)}, {name}1]."
                   for i in range(1, depth + 1)) + f"{name}1"


def test_blowup_family_is_the_named_towers():
    for k in range(1, 201):
        left, right = gen_blowup_family(k)
        assert left is parse(blowup_text(k, "X"))
        assert right is parse(blowup_text(k + 1, "Y"))


def test_blowup_verdict_true():
    for k in range(1, 8):
        left, right = gen_blowup_family(k)
        assert subtype_product(left, right).verdict


def test_blowup_judgement_counts():
    for k, expected in BLOWUP_J.items():
        left, right = gen_blowup_family(k)
        report = subtype_inductive(left, right)
        assert report.verdict
        assert report.counters["judgements_visited"] == expected


def test_blowup_product_nodes_quadratic():
    for k in range(1, 10):
        left, right = gen_blowup_family(k)
        report = subtype_product(left, right)
        assert report.counters["product_nodes"] == k * (k + 1)


def test_families_registry():
    assert set(FAMILIES) == {"exp", "random"}
    for fam in FAMILIES.values():
        left, right = fam(3)
        assert is_closed(left) and is_closed(right)


def test_fit_quadratic_exact():
    ks = list(range(1, 11))
    c, resid = fit_quadratic(ks, [3.5 * k * k for k in ks])
    assert abs(c - 3.5) < 1e-9
    assert resid < 1e-9


def test_fit_quadratic_rejects_mismatch():
    with pytest.raises(ValueError):
        fit_quadratic([1, 2], [1.0])


def test_run_bench_cardinality():
    records = run_bench(["exp"], range(1, 4), ("product", "memoized"))
    assert len(records) == 6
    assert {r.k for r in records} == {1, 2, 3}
    assert all(r.family == "exp" for r in records)
    assert all(r.verdict for r in records)
    assert not any(r.timed_out for r in records)


def test_run_bench_validates():
    with pytest.raises(ValueError):
        run_bench(["nope"], range(1, 3), ("product",))
    with pytest.raises(ValueError):
        run_bench(["exp"], range(1, 3), ("bogus",))
    with pytest.raises(ValueError):
        run_bench(["exp"], [], ("product",))


def test_run_bench_timeout_marks_row():
    records = run_bench(["exp"], range(1, 9), ("inductive",), timeout=1e-9)
    assert any(r.timed_out for r in records)
    for r in records:
        if r.timed_out:
            assert not r.verdict


def test_csv_roundtrip(tmp_path):
    records = run_bench(["exp"], range(1, 4), ("product",))
    path = tmp_path / "bench.csv"
    with open(path, "w", newline="") as fh:
        write_csv(records, fh)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    counters = CSV_COLUMNS[6:10]
    assert rows[1:] == [
        [str(v) for v in (r.family, r.k, r.size_left, r.size_right,
                          r.algorithm, int(r.verdict),
                          *(r.counters[key] for key in counters),
                          r.elapsed_ns, int(r.timed_out))]
        for r in records]


def test_inductive_cap_constant():
    assert DEFAULT_KMAX_INDUCTIVE == 12
