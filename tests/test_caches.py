import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import stcheck
from stcheck import cache_sizes, clear_caches, lts, syntax
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
    assert cleared["head_tables"] == fresh["head_tables"]
    # interned nodes and action tuples stay: both carry identity
    assert cleared["interned"] == grown["interned"]
    assert cleared["action_tuples"] == grown["action_tuples"]


def test_a_table_compiled_before_a_clear_matches_one_compiled_after():
    # a step that read a table before a clear still holds it after: the
    # heads compiled later must share its action tuples, or no rule matches
    left, right = parse("?[end].end"), parse("?[end].rec X . end")
    for algo in ALGORITHMS:
        clear_caches()
        table = lts._table(left)
        clear_caches()
        left._table = table
        assert check(left, right, algo).verdict, algo


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


def holding_tables():
    """The interned nodes whose head-table slot is set."""
    return [node for node in syntax._interned.values()
            if node._table is not None]


def clear_all_slots():
    """clear_caches, and empty a slot a test set by hand: such a table was
    never listed, so no clear resets it."""
    clear_caches()
    for node in holding_tables():
        node._table = None


def check_random_pairs():
    results = []
    for i in range(300):
        left, right = random_pair(i, 40)
        for algo in ALGORITHMS:
            report = check(left, right, algo)
            results.append((report.verdict, report.counters))
    return results


def test_head_tables_counts_the_nodes_holding_a_table():
    clear_all_slots()
    check_random_pairs()
    assert cache_sizes()["head_tables"] == len(holding_tables()) > 0
    clear_caches()
    assert cache_sizes()["head_tables"] == 0
    assert holding_tables() == []


def test_a_compiled_node_returns_its_table_and_lists_nothing():
    clear_all_slots()
    left, right = parse("rec X . ?[X].X"), parse("?[end].rec Y . ?[Y].Y")
    tables = [lts._table(node) for node in (left, right)]
    listed = cache_sizes()["head_tables"]
    for node, table in zip((left, right), tables):
        assert lts._table(node) is table is node._table
    assert cache_sizes()["head_tables"] == listed


def test_clearing_in_another_thread_changes_no_result():
    # every node compiled while the other thread clears is listed after its
    # slot is set, so the last clear still finds it
    clear_all_slots()
    serial = check_random_pairs()
    clear_caches()
    done = threading.Event()

    def clear_until_done():
        while not done.is_set():
            clear_caches()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    clearer = threading.Thread(target=clear_until_done)
    clearer.start()
    try:
        assert check_random_pairs() == serial
    finally:
        done.set()
        clearer.join()
        sys.setswitchinterval(interval)
    clear_caches()
    assert holding_tables() == []


def test_a_warm_check_traces_at_most_64_bytes_per_reached_pair():
    # product and memoized keep a reached pair in a slot of its left node's
    # entry, not as a 2-tuple in a set (over 100 B a pair); the bound
    # counts bytes allocated, not time
    left, right = gen_blowup_family(200)
    for algo, unit in (("product", "product_nodes"),
                       ("memoized", "memo_entries")):
        check(left, right, algo)  # warm: every head table is compiled
        gc.collect()
        tracemalloc.start()
        try:
            report = check(left, right, algo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = report.counters[unit]
        assert pairs == 200 * 201, algo
        assert peak <= 64 * pairs, (algo, peak / pairs)
