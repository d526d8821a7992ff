"""Thread-count parsing, kept only for the benchmark harness.

The matcher is single-threaded and never calls `thread_count()`.
It stays because the benchmark's tracer imports it; this module goes away
in the benchmark change that drops that import. It parses
CFSTEREO_THREADS: 0 or unset means min(8, cpu count), and an explicit count
is capped at max(8, cpu count).
"""

import os

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
