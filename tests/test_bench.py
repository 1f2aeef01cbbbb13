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


def records(rows):
    """Each row as a dict keyed by the CSV columns."""
    return [dict(zip(CSV_COLUMNS, row)) for row in rows]


def test_run_bench_cardinality():
    rows = records(run_bench("exp", 3, ("product", "memoized")))
    assert len(rows) == 6
    # by k, then by algorithm name
    assert [(r["k"], r["algorithm"]) for r in rows] == [
        (k, algo) for k in (1, 2, 3) for algo in ("memoized", "product")]
    assert all(r["family"] == "exp" for r in rows)
    assert all(r["verdict"] == 1 for r in rows)
    assert not any(r["timed_out"] for r in rows)


def test_run_bench_caps_inductive_on_exp():
    top = DEFAULT_KMAX_INDUCTIVE + 1
    rows = records(run_bench("exp", top, ("inductive", "product")))
    assert [r["k"] for r in rows if r["algorithm"] == "inductive"] \
        == list(range(1, top))
    assert [r["k"] for r in rows if r["algorithm"] == "product"] \
        == list(range(1, top + 1))
    # the cap is the exp family's: random runs inductive to kmax
    rows = records(run_bench("random", top, ("inductive",)))
    assert [r["k"] for r in rows] == list(range(1, top + 1))


def test_run_bench_validates():
    with pytest.raises(ValueError):
        run_bench("nope", 2, ("product",))
    with pytest.raises(ValueError):
        run_bench("exp", 2, ("bogus",))
    with pytest.raises(ValueError):
        run_bench("exp", 0, ("product",))


def test_run_bench_timeout_marks_row():
    rows = records(run_bench("exp", 8, ("inductive",), timeout=1e-9))
    assert any(r["timed_out"] for r in rows)
    for r in rows:
        if r["timed_out"]:
            assert r["timed_out"] == 1
            assert r["verdict"] == 0
            assert [r[key] for key in CSV_COLUMNS[6:10]] == [0] * 4


def test_csv_roundtrip(tmp_path):
    rows = run_bench("exp", 3, ("product",))
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)
    path = tmp_path / "bench.csv"
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert tuple(read[0]) == CSV_COLUMNS
    assert read[1:] == [[str(v) for v in row] for row in rows]


def test_inductive_cap_constant():
    assert DEFAULT_KMAX_INDUCTIVE == 12
