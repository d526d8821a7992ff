"""Workload table shared by the orchestrator and the worker (stdlib only).

Every workload is a closed loop: one client in one process matches one
stereo pair at a time and waits for the result, like an offline batch job.

accuracy_pairs: the loop always runs at least this many pairs, and the
accuracy metrics cover exactly these, so a faster matcher running more
pairs does not change the scene mix behind them.
setup_samples: fresh processes that each import cfstereo, load the config
and run one warm-up pair; setup_s is their median (fewer on large, where
the warm-up pair alone takes ~10 s).
"""

WORKLOADS = {
    # Refinement dominates (sparse build + aggregate ~85% of the pair), the
    # stage-1 volume (28 MB computed) fits in cache, run_rows stays serial,
    # and it is the only workload that goes through cli/config/io_formats.
    "desk": {
        "shape": (128, 256),
        "threads": 1,
        "via": "cli",
        "accuracy_pairs": 24,
        "setup_samples": 5,
    },
    # Default search range (dmax 256): the only workload where run_rows uses
    # its worker pool. Fusion is ~21% of the pair; the stage-1 volume
    # (113 MB) is about the size of the 105 MB L3.
    "mid": {
        "shape": (256, 512),
        "threads": 2,
        "via": "library",
        "accuracy_pairs": 10,
        "setup_samples": 5,
    },
    # Stage-1 volume 453 MB computed, ~4.3x L3, peak RSS ~1.9 GB: bandwidth
    # and peak-memory changes show here and not on desk. Pairs take ~12 s,
    # so a run holds few of them.
    "large": {
        "shape": (512, 1024),
        "threads": 1,
        "via": "library",
        "accuracy_pairs": 2,
        "setup_samples": 3,
    },
}

# Shape every workload uses under --tiny (the smoke test).
TINY_SHAPE = (128, 256)
