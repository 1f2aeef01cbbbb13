import json
import os
import subprocess
import sys

import stcheck
from stcheck import cache_sizes, clear_caches
from stcheck.bench import gen_blowup_family, random_pair
from stcheck.subtyping import ALGORITHMS, check

DERIVED = ("unfold", "head_tables", "action_tuples", "transitions")


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
    stcheck.build_lts(left)  # the transition maps fill only through the LTS
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
