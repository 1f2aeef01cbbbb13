"""One pass of one algorithm over one workload, in a fresh process.

Reads a job (JSON) on stdin and writes the result (JSON) on stdout.  The
job holds only type texts.  Run by ``run.py``; never imported by it, so
stcheck's global caches start empty in every pass, as they do for a
command-line user.

Untraced, an op is ``parse`` on the sides that are not the interface, then
``subtyping.check``.  Traced, the op also calls ``lts.build_lts`` on both
sides between the two, so the check span is search alone, and spans are
recorded around each call, from outside the program.  ``subtyping`` looks
``sub_pair`` up in its own namespace, so the traced pass wraps that name
to time the subterm universe that ``allpairs`` builds.

A worker times nothing but its ops; the reference work that ``run.py``
divides op times by is timed in a separate process (``reference.py``)
that never imports stcheck.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stcheck import lts, subtyping, syntax  # noqa: E402
from stcheck.subtyping import DeadlineExceeded  # noqa: E402


def main() -> None:
    job = json.load(sys.stdin)
    interface = (syntax.parse(job["interface"])
                 if job["interface"] is not None else None)
    ready = time.monotonic()
    run = traced_pass if job["trace"] else plain_pass
    result = run(job["algo"], job["ops"], interface, job["deadline_s"],
                 job["counter_keys"])
    result["ready"] = ready
    result["maxrss_kb"] = peak_rss_kb()
    json.dump(result, sys.stdout)


def peak_rss_kb():
    """This process's own peak resident set.  ``ru_maxrss`` is not used
    where /proc is available: after fork and exec it still counts the
    parent's resident set at the fork."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def plain_pass(algo, ops, interface, deadline_s, keys):
    parse = syntax.parse
    check = subtyping.check
    op_s, verdicts, counters, errors = [], [], [], []
    start = time.perf_counter()
    for left_text, right_text in ops:
        t0 = time.perf_counter()
        try:
            left = interface if left_text is None else parse(left_text)
            right = interface if right_text is None else parse(right_text)
            report = check(left, right, algo, deadline=t0 + deadline_s)
        except DeadlineExceeded:
            report = None
            errors.append([len(verdicts), "deadline"])
        except Exception as exc:  # an op that raises is counted as failed
            report = None
            errors.append([len(verdicts), repr(exc)])
        op_s.append(time.perf_counter() - t0)
        verdicts.append(None if report is None else report.verdict)
        counters.append(None if report is None
                        else [report.counters[key] for key in keys])
    pass_s = time.perf_counter() - start
    return {"pass_s": pass_s, "op_s": op_s, "verdicts": verdicts,
            "counters": counters, "errors": errors}


class Tracer:
    """Spans kept in memory as [op, name, parent, start_ns, end_ns]."""

    def __init__(self):
        self.spans = []
        self.op = -1

    def call(self, name, parent, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                [self.op, name, parent, t0, time.perf_counter_ns()])


def traced_pass(algo, ops, interface, deadline_s, keys):
    tracer = Tracer()
    sub_pair = subtyping.sub_pair

    def traced_sub_pair(t, u):
        return tracer.call("subterms.sub_pair", "subtyping.check",
                           sub_pair, t, u)

    subtyping.sub_pair = traced_sub_pair
    op_s, verdicts, counters, errors, lts_sizes, parsed = [], [], [], [], [], []
    chars = 0
    start = time.perf_counter()
    for i, (left_text, right_text) in enumerate(ops):
        tracer.op = i
        t0 = time.perf_counter()
        op_start = time.perf_counter_ns()
        try:
            sides = []
            for text in (left_text, right_text):
                if text is None:
                    sides.append(interface)
                else:
                    chars += len(text)
                    sides.append(tracer.call("syntax.parse", "op",
                                             syntax.parse, text))
            left, right = sides
            machines = [tracer.call("lts.build_lts", "op", lts.build_lts, side)
                        for side in sides]
            lts_sizes.append([sum(len(m.adjacency) for m in machines),
                              sum(m.num_edges for m in machines)])
            report = tracer.call("subtyping.check", "op", subtyping.check,
                                 left, right, algo, deadline=t0 + deadline_s)
            parsed.append((left, right))
        except DeadlineExceeded:
            report = None
            errors.append([i, "deadline"])
        except Exception as exc:  # an op that raises is counted as failed
            report = None
            errors.append([i, repr(exc)])
        tracer.spans.append([i, "op", None, op_start, time.perf_counter_ns()])
        op_s.append(time.perf_counter() - t0)
        verdicts.append(None if report is None else report.verdict)
        counters.append(None if report is None
                        else [report.counters[key] for key in keys])
    pass_s = time.perf_counter() - start
    result = {"pass_s": pass_s, "op_s": op_s, "verdicts": verdicts,
              "counters": counters, "errors": errors, "spans": tracer.spans,
              "lts_sizes": lts_sizes, "parse_chars": chars}
    if algo == "inductive":
        # memo entries of the same ops, for the revisit ratio; after the
        # pass, so its time is not in any span
        result["memo_entries"] = sum(
            subtyping.check(left, right, "memoized").counters["memo_entries"]
            for left, right in parsed)
    return result


if __name__ == "__main__":
    main()
