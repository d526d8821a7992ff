"""Row-sliced worker pool.

CFSTEREO_THREADS sets the worker count: 0 or unset means min(8, cpu count),
and an explicit count is capped at max(8, cpu count). Workers write disjoint
row ranges of preallocated outputs, so results are identical no matter how
the rows are split.
"""

import os
from concurrent.futures import ThreadPoolExecutor

_AUTO_CAP = 8


def thread_count() -> int:
    raw = os.environ.get("CFSTEREO_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CFSTEREO_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("CFSTEREO_THREADS must be >= 0")
    cpus = os.cpu_count() or 1
    if n == 0:
        return min(_AUTO_CAP, cpus)
    return min(n, max(_AUTO_CAP, cpus))


def run_rows(fn, n_rows: int) -> None:
    """Call fn(lo, hi) over a disjoint partition of range(n_rows).

    fn must only write rows [lo, hi) of its outputs; values must not depend
    on the chunk boundaries.
    """
    workers = min(thread_count(), n_rows)
    if workers <= 1:
        fn(0, n_rows)
        return
    base, extra = divmod(n_rows, workers)
    bounds = []
    lo = 0
    for k in range(workers):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(lambda b: fn(*b), bounds):
            pass
