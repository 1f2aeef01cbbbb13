"""Times fixed work that uses no stcheck code, on request.

``run.py`` starts this helper once per run and writes a line to its stdin
before the first worker and after each worker; the helper answers with
the fastest of ``REPEATS`` timings of ``reference_loop``, in seconds, on
one line.  It never imports stcheck, so nothing stcheck does to an
interpreter or to its heap can change the timings, and its own memory
does not count in any worker's peak resident set.  It exits when its
stdin closes.
"""

import sys
import time

REPEATS = 2


def reference_loop():
    """Interpreter- and memory-bound work of the same kind as a check:
    building and walking a dict of 100,000 entries keyed by tuples, a
    working set of the size a pass has."""
    table = {}
    for i in range(100000):
        table[(i, i * 7)] = i
    return sum(table.values())


def reference_s():
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    main()
