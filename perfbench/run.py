"""Layered text-to-verdict benchmark for stcheck.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exp-tower --seed 0 --seconds 40 --trace 0

Every op goes from input text to a verdict: ``syntax.parse`` on each side,
then ``subtyping.check(..., algo, deadline=...)``.  Each pass of one
algorithm over the workload's ops runs in its own fresh worker process
(``worker.py``), one process at a time, so the global caches start empty
for every pass.  A round is one pass of every algorithm; rounds repeat
while the next one still fits in ``--seconds``.

On a shared virtual machine (measured on 2 KVM vCPUs of a Xeon host) the
speed switches between levels up to 1.7x apart, at times for a second and
at times for minutes, so raw times are not steady across runs.  Two
measures remove most of that:

* Before each worker starts and after the last one ends,
  ``reference.py`` times fixed work that uses no stcheck code, so every
  pass lies between two reference timings.  Each op's time is divided by
  the mean of the two: the op's cost in units of the reference work.
  ``reference.py`` is a separate process that never imports stcheck, so
  a change to stcheck cannot change the reference time, and the division
  cannot hide a change in the program's cost.
* Every pass of an algorithm runs the same ops in the same order from the
  same empty caches, so op i does the same work in every pass.  An op's
  cost is the median of its divided times over the run's passes, which
  neither a rare fast moment nor a rare slow one can move.

End-to-end times are these costs times ``REFERENCE_S``: they read as
seconds on a machine where the reference work takes ``REFERENCE_S``.  A
pass time is the sum of its ops' costs; set-up time is the median over
the run's workers of their divided start times.  Per-layer times are
raw.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` each round also runs a traced pass of every algorithm
and the last line holds the per-layer metrics, which are also written,
with the spans of the first traced round, to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

Every verdict is checked against a known answer (``oracle.py``, or true
on ``exp-tower``), and the deterministic counters must repeat exactly in
every pass.  ``pins.json`` holds the SHA-256 of the seed-0 inputs, checked
on every run, and the counter sums of every seed from 0 to 99
(``exp-tower`` has the same inputs for every seed), checked whenever a
run's seed is among them.  A change that alters a workload on purpose
edits ``pins.json`` by hand, from the digest that the exit-3 message
prints and from the counter lines of runs.

Exit status: 0 with a result line; 1 without one when no round completed;
2 without one when the checkout holds no ``src/stcheck``; 3 without one
when the inputs no longer match their pinned digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
TRACE_DIR = ROOT / ".perfbench_out"

# Per-op deadline.  The slowest op at the time of writing (allpairs on
# exp-tower k=100) takes under 1 s on 2 cores.
DEADLINE_S = 5.0
# Workers are stopped so that a run ends well within 180 s.
RUN_LIMIT_S = 170.0
# Time of reference.reference_loop on the 2-vCPU Xeon VM the benchmark was
# calibrated on, at its faster speed level; end-to-end times are scaled to
# it.
REFERENCE_S = 0.025

# The counters every report carries; workers send them in this order.
COUNTER_KEYS = ("judgements_visited", "memo_entries", "product_nodes",
                "product_edges", "max_context_depth")
GATED = {
    "product": ("product_nodes", "product_edges"),
    "memoized": ("memo_entries", "judgements_visited"),
    "inductive": ("judgements_visited", "max_context_depth"),
    "allpairs": ("product_nodes", "product_edges"),
}


class WorkerFailed(Exception):
    pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stcheck" / "__init__.py").is_file():
        print(f"perfbench: no stcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    started = time.monotonic()
    pins = json.loads(PINS.read_text())
    workload = workloads.build(args.workload, args.seed)
    digest = workload.digest()
    # exp-tower has no randomness: every seed has the seed-0 inputs
    pin_seed = 0 if args.workload == "exp-tower" else args.seed
    pinned = digest if pin_seed == 0 else workloads.build(
        args.workload, 0).digest()
    if pinned != pins["inputs_sha256"][args.workload]:
        print(f"perfbench: the {args.workload} inputs for seed 0 no longer "
              f"match {PINS.name} (sha256 now {pinned}); a change to the "
              "generators or to render changed the workload",
              file=sys.stderr)
        return 3
    pin = pins["counters"][args.workload].get(str(pin_seed))

    rounds, crash = run_rounds(workload, args.seconds, args.trace, started)
    if not rounds:
        print(f"perfbench: no round completed: {crash[1]}", file=sys.stderr)
        return 1
    attempted, failed, problems = verify(workload, rounds)
    if crash:
        # every op of the pass that did not finish counts as failed
        attempted += len(workload.ops[crash[0]])
        failed += len(workload.ops[crash[0]])
        problems.append(crash[1])
    counters = counter_sums(rounds)
    if pin is not None:
        for algo, sums in counters.items():
            for key in GATED[algo]:
                if sums[key] != pin[algo][key]:
                    problems.append(f"{algo} {key}={sums[key]}, pinned "
                                    f"{pin[algo][key]} for seed {pin_seed}")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"inputs sha256 {digest}  counters "
          + ("pinned" if pin is not None else
             "not pinned for this seed, checked between passes only"))
    for algo, sums in counters.items():
        print(f"counters {algo}: " + " ".join(
            f"{key}={sums[key]}" for key in GATED[algo]))
    if args.trace:
        metrics = per_layer(workload, rounds)
        write_trace(args, metrics, rounds)
    else:
        metrics = end_to_end(workload, rounds)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:8s} {note}")
    print(f"{'failed_share':40s} {failed / attempted:14.6g} {'share':8s} "
          f"{failed} of {attempted} ops raised, passed the {DEADLINE_S:g} s "
          "deadline or gave a wrong verdict")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exp-tower", "random-pairs",
                                 "interface-variants"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- running --------------------------------------------------------------

def run_rounds(workload, seconds, trace, started):
    """Rounds of fresh-process passes for as long as the next round still
    fits in *seconds* (at least one round).  Returns the rounds and, if a
    worker failed, which pass and why."""
    rounds = []
    reference = subprocess.Popen(
        [sys.executable, str(HERE / "reference.py")], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reference_s():
        reference.stdin.write("\n")
        reference.stdin.flush()
        return float(reference.stdout.readline())

    try:
        before = reference_s()
        measuring = time.monotonic()
        while not rounds or (time.monotonic() - measuring) \
                * (len(rounds) + 1) / len(rounds) <= seconds:
            current = {"plain": {}, "traced": {}}
            for algo in workload.ops:
                for mode in ("plain", "traced") if trace else ("plain",):
                    budget = RUN_LIMIT_S - (time.monotonic() - started)
                    try:
                        result = spawn(workload, algo, mode == "traced",
                                       budget)
                    except WorkerFailed as exc:
                        return rounds, (algo, f"{mode} {algo} worker: {exc}")
                    after = reference_s()
                    result["reference_s"] = (before + after) / 2
                    before = after
                    current[mode][algo] = result
            rounds.append(current)
    finally:
        reference.stdin.close()
        reference.wait()
    return rounds, None


def spawn(workload, algo, traced, budget):
    job = json.dumps({"algo": algo, "interface": workload.interface,
                      "ops": workload.ops[algo], "trace": traced,
                      "deadline_s": DEADLINE_S,
                      "counter_keys": COUNTER_KEYS}).encode()
    if budget <= 0:
        raise WorkerFailed("no time left in the run")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(job, timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("stopped at the run's time limit") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        raise WorkerFailed(f"exit {proc.returncode}: {' '.join(tail)}")
    result = json.loads(out)
    # time.monotonic() reads CLOCK_MONOTONIC, which is system-wide on Linux
    result["setup_s"] = result["ready"] - spawned
    return result


# -- checking -------------------------------------------------------------

def passes(rounds):
    for current in rounds:
        for mode, results in current.items():
            for algo, result in results.items():
                yield mode, algo, result


def verify(workload, rounds):
    """Count attempted and failed ops over every pass, and list the
    problems: wrong verdicts, wrong pair-node counts on exp-tower and
    counters that differ between passes."""
    attempted = failed = 0
    problems = []
    first = {}
    nodes = COUNTER_KEYS.index("product_nodes")
    for mode, algo, result in passes(rounds):
        expect = workload.expect[algo]
        attempted += len(expect)
        slow = {i for i, s in enumerate(result["op_s"]) if s > DEADLINE_S}
        broken = {i for i, _ in result["errors"]}
        for i, verdict in enumerate(result["verdicts"]):
            wrong = verdict is not None and verdict != expect[i]
            if wrong:
                problems.append(f"{mode} {algo} op {i}: verdict {verdict}, "
                                f"expected {expect[i]}")
            failed += wrong or i in slow or i in broken
        for i, error in result["errors"]:
            problems.append(f"{mode} {algo} op {i}: {error}")
        if algo == "product" and workload.product_nodes is not None:
            for i, want in enumerate(workload.product_nodes):
                got = result["counters"][i]
                if got is not None and got[nodes] != want:
                    problems.append(f"{mode} product op {i}: product_nodes "
                                    f"{got[nodes]}, expected {want}")
        if algo not in first:
            first[algo] = result["counters"]
        elif result["counters"] != first[algo]:
            problems.append(f"{mode} {algo}: counters differ between passes")
    return attempted, failed, problems


def aggregate(rows):
    """Counters of a pass: sums over its ops, but the deepest context."""
    rows = [row for row in rows if row is not None]
    return {key: (max if key == "max_context_depth" else sum)(
                [0] + [row[j] for row in rows])
            for j, key in enumerate(COUNTER_KEYS)}


def counter_sums(rounds):
    """Per algorithm, the counters of its first untraced pass."""
    return {algo: aggregate(result["counters"])
            for algo, result in rounds[0]["plain"].items()}


# -- metrics --------------------------------------------------------------

def end_to_end(workload, rounds):
    """name -> (value, unit, note), measured without tracing."""
    plain = [current["plain"] for current in rounds]
    workers = [r for results in plain for r in results.values()]
    reference = statistics.median(r["reference_s"] for r in workers)
    setups = [r["setup_s"] / r["reference_s"] * REFERENCE_S for r in workers]
    metrics = {"setup_s": (statistics.median(setups), "s",
                           f"median of {len(setups)} worker starts; "
                           f"reference work took {reference * 1e3:.3f} ms "
                           f"(median), scaled to {REFERENCE_S * 1e3:g} ms")}
    costs = {algo: op_costs(rounds, "plain", algo) for algo in workload.ops}
    for algo, per_op in costs.items():
        metrics[f"{algo}_s"] = (
            sum(per_op), "s", f"{len(per_op)} ops, each the median of "
            f"{len(plain)} passes")
    ms = [s * 1e3 for s in costs["product"]]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] \
        if len(ms) > 1 else ms[0]
    beyond = sum(1 for x in ms if x > p99)
    metrics["product_ms_p50"] = (statistics.median(ms), "ms",
                                 f"median over {len(ms)} ops")
    metrics["product_ms_p99"] = (p99, "ms",
                                 f"{len(ms)} ops, {beyond} beyond it")
    rss = max(r["maxrss_kb"] for results in plain for r in results.values())
    metrics["peak_rss_mb"] = (rss / 1024, "MB", "max over workers")
    return metrics


def op_costs(rounds, mode, algo):
    """Per op of *algo*, the median over the run's passes in *mode* of its
    time over the pass's reference time, times ``REFERENCE_S``."""
    results = [current[mode][algo] for current in rounds]
    return [statistics.median(s / r["reference_s"]
                              for s, r in zip(op, results)) * REFERENCE_S
            for op in zip(*(r["op_s"] for r in results))]


def span_seconds(result, name):
    return sum(end - start for _, span, _, start, end in result["spans"]
               if span == name) / 1e9


def per_layer(workload, rounds):
    """name -> (value, unit, note) from the traced passes.  Times are per
    round (one traced pass of every algorithm), fastest over rounds; counts
    are deterministic and come from the first round."""
    traced = [current["traced"] for current in rounds]
    first = traced[0]

    def fastest(fn):
        return min(fn(results) for results in traced)

    parse_s = fastest(lambda results: sum(
        span_seconds(r, "syntax.parse") for r in results.values()))
    calls = sum(1 for r in first.values() for span in r["spans"]
                if span[1] == "syntax.parse")
    chars = sum(r["parse_chars"] for r in first.values())
    metrics = {
        "syntax.parse_s": (parse_s, "s", "per round"),
        "syntax.parse_calls": (calls, "count", "per round"),
        "syntax.parse_chars_per_s": (chars / parse_s, "char/s", "per round"),
        "lts.build_s": (fastest(lambda results: sum(
            span_seconds(r, "lts.build_lts") for r in results.values())),
            "s", "per round"),
        "lts.nodes": (sum(n for r in first.values() for n, _ in r["lts_sizes"]),
                      "count", "per round, both sides of every op"),
        "lts.edges": (sum(e for r in first.values() for _, e in r["lts_sizes"]),
                      "count", "per round, both sides of every op"),
        "subterms.sub_pair_s": (fastest(lambda results: sum(
            span_seconds(r, "subterms.sub_pair") for r in results.values())),
            "s", "inside allpairs, per round"),
    }
    sums = {algo: aggregate(r["counters"]) for algo, r in first.items()}
    search = {}
    for algo in workload.ops:
        search[algo] = fastest(lambda results: span_seconds(
            results[algo], "subtyping.check") - span_seconds(
            results[algo], "subterms.sub_pair"))
        metrics[f"subtyping.{algo}.search_s"] = (search[algo], "s",
                                                 "fastest round")
        metrics[f"subtyping.{algo}.verdicts_true"] = (
            sum(1 for v in first[algo]["verdicts"] if v), "count", "per pass")
    product, memoized = sums["product"], sums["memoized"]
    inductive, allpairs = sums["inductive"], sums["allpairs"]
    # product's reachable nodes on exactly the ops allpairs ran
    nodes_by_op = {tuple(op): row[COUNTER_KEYS.index("product_nodes")]
                   for op, row in zip(workload.ops["product"],
                                      first["product"]["counters"]) if row}
    useful = sum(nodes_by_op.get(tuple(op), 0) for op in workload.ops["allpairs"])
    metrics.update({
        "subtyping.product.product_nodes": (
            product["product_nodes"], "count", "per pass"),
        "subtyping.product.product_edges": (
            product["product_edges"], "count", "per pass"),
        "subtyping.product.ns_per_node": (
            search["product"] * 1e9 / product["product_nodes"], "ns",
            "search time per reachable pair node"),
        "subtyping.memoized.memo_entries": (
            memoized["memo_entries"], "count", "per pass"),
        "subtyping.memoized.judgements_visited": (
            memoized["judgements_visited"], "count", "per pass"),
        "subtyping.inductive.judgements_visited": (
            inductive["judgements_visited"], "count", "per pass"),
        "subtyping.inductive.max_context_depth": (
            inductive["max_context_depth"], "count", "max over ops"),
        "subtyping.inductive.revisit_ratio": (
            inductive["judgements_visited"] / first["inductive"]["memo_entries"],
            "ratio", "judgements / memoized memo entries, same ops"),
        "subtyping.allpairs.product_nodes": (
            allpairs["product_nodes"], "count", "grid cells per pass"),
        "subtyping.allpairs.product_edges": (
            allpairs["product_edges"], "count", "per pass"),
        "subtyping.allpairs.ns_per_cell": (
            search["allpairs"] * 1e9 / allpairs["product_nodes"], "ns",
            "search time per grid cell"),
        "subtyping.allpairs.useful_share": (
            useful / allpairs["product_nodes"], "share",
            "product's reachable nodes / grid cells, same ops"),
    })
    traced_s, plain_s = (sum(sum(op_costs(rounds, mode, algo))
                             for algo in workload.ops)
                         for mode in ("traced", "plain"))
    metrics["trace.overhead_share"] = (
        traced_s / plain_s - 1, "share",
        "traced / untraced sum of op costs - 1, eager build_lts included")
    return metrics


def write_trace(args, metrics, rounds):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans = {algo: r["spans"] for algo, r in rounds[0]["traced"].items()}
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "span_fields": ["op", "name", "parent", "start_ns", "end_ns"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _) in metrics.items()},
        "spans": spans}))


if __name__ == "__main__":
    sys.exit(main())
