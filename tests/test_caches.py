import json
import os
import subprocess
import sys

import stcheck
from stcheck import cache_sizes, clear_caches
from stcheck.bench import gen_blowup_family, random_pair
from stcheck.subtyping import ALGORITHMS, check
from stcheck.syntax import parse

DERIVED = ("head_tables", "action_tuples")


def import_time_sizes():
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, stcheck; print(json.dumps(stcheck.cache_sizes()))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_clear_caches_restores_import_time_sizes():
    fresh = import_time_sizes()
    assert set(fresh) == {"interned", *DERIVED}
    for i in range(3000):
        left, right = random_pair(i, 40)
        for algo in ALGORITHMS:
            check(left, right, algo)
    grown = cache_sizes()
    assert all(grown[name] > fresh[name] for name in DERIVED), grown
    clear_caches()
    cleared = cache_sizes()
    assert {name: cleared[name] for name in DERIVED} \
        == {name: fresh[name] for name in DERIVED}
    # interned nodes stay: equality of types is identity
    assert cleared["interned"] == grown["interned"]


def run_stream(clear_between):
    ops = [random_pair(i, 40) for i in range(200)]
    ops += [gen_blowup_family(k) for k in range(1, 5)]
    results = []
    for left, right in ops:
        for algo in ALGORITHMS:
            if clear_between:
                clear_caches()
            report = check(left, right, algo)
            results.append((report.verdict, report.counters))
    return results


def test_clearing_between_ops_changes_no_result():
    assert run_stream(True) == run_stream(False)


def test_checks_reuse_the_tables_the_lts_compiled():
    # build_lts and the searches read one table per head: once both LTSs
    # are built, no check compiles another
    ops = [gen_blowup_family(k) for k in range(1, 6)]
    ops += [random_pair(i, 40) for i in range(200)]
    for left, right in ops:
        stcheck.build_lts(left)
        stcheck.build_lts(right)
        before = cache_sizes()["head_tables"]
        for algo in ALGORITHMS:
            check(left, right, algo)
            assert cache_sizes()["head_tables"] == before, (left, right, algo)


def test_a_check_refuted_at_the_root_compiles_nothing():
    # the heads' constructors differ, so no side is unfolded or compiled
    left, right = parse("rec X . ?[end].X"), parse("end")
    for algo in ("product", "memoized", "inductive"):
        for t, u in ((left, right), (right, left)):
            clear_caches()
            assert not check(t, u, algo).verdict
            assert cache_sizes()["head_tables"] == 0, algo
