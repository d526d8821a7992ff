"""Stub kept only so the benchmark harness's import of `thread_count` resolves.

The matcher is single-threaded, reads no thread-count setting and never
calls this. The module goes once the benchmark stops importing it.
"""


def thread_count() -> int:
    """Always 1: the matcher runs on one thread."""
    return 1
