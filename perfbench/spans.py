"""Span recorder that wraps cfstereo's public functions from outside the package.

`Tracer.install()` replaces every public function defined in a traced
module, in the namespace of every traced module that holds it (so
`cascade.bilinear_upsample2x` is wrapped where cascade looks it up). A
span records name, start, end, parent and pair id. With `memory=True` it
also records the tracemalloc peak above the memory live at entry;
tracemalloc slows numpy-heavy code by about half, so memory and timing
come from different pairs. Nothing under src/ changes: `uninstall()` puts
the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import tracemalloc
import types

# ranking, metrics and synth are evaluation and generation, not the matching
# path, so they are left untimed.
TRACED_MODULES = (
    "cascade",
    "cli",
    "config",
    "cost_volume",
    "features",
    "fusion",
    "io_formats",
    "parallel",
    "tensor_ops",
)



class Tracer:
    def __init__(self, hooks=None):
        # span name -> fn(args, kwargs, result) -> number stored as span["extra"]
        self.hooks = hooks or {}
        self.spans: list[dict] = []
        self.pair = None
        self._stack: list[dict] = []
        self._patches: list[tuple] = []
        self._main = threading.get_ident()
        self._memory = False

    def install(self, memory: bool = False) -> None:
        wrappers = {}
        for modname in TRACED_MODULES:
            mod = importlib.import_module(f"cfstereo.{modname}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner, _, defining = obj.__module__.rpartition(".")
                if owner != "cfstereo" or defining not in TRACED_MODULES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{defining}.{obj.__name__}")
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        self._memory = memory
        if memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self._memory:
            tracemalloc.stop()
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Worker threads of run_rows are not attributed; their time shows
            # as the calling span's self time.
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                span["extra"] = hook(args, kwargs, result)
            return result

        return traced

    def _enter(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "pair": self.pair,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["_peak"] = current
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self._memory:
            _, peak = tracemalloc.get_traced_memory()
            span["_peak"] = max(span["_peak"], peak)
            span["peak_bytes"] = span["_peak"] - span["base"]
            if self._stack:
                parent = self._stack[-1]
                parent["_peak"] = max(parent["_peak"], span["_peak"])
            tracemalloc.reset_peak()

    def write(self, path) -> None:
        rows = [{k: v for k, v in s.items() if not k.startswith("_")} for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": rows}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def cascade_stages(spans: list[dict]) -> dict[str, list[dict]]:
    """Direct children of each run_pipeline span, grouped by call order into
    prep (input checks, features), stage3, stage2, stage1 and output."""
    roots = {s["id"] for s in spans if s["name"] == "cascade.run_pipeline"}
    groups: dict[str, list[dict]] = {"prep": [], "stage3": [], "stage2": [], "stage1": [], "output": []}
    phase = {}
    for s in spans:
        root = s["parent"]
        if root not in roots:
            continue
        ph = phase.get(root, "prep")
        if ph == "prep" and s["name"] == "cost_volume.build_dense_volume":
            ph = "stage3"
        elif s["name"] == "cascade.next_range":
            ph = "stage2" if ph == "stage3" else "stage1"
        elif ph == "stage1" and groups["stage1"] and groups["stage1"][-1]["name"] == "cost_volume.uncertainty":
            ph = "output"
        phase[root] = ph
        groups[ph].append(s)
    return groups
