"""Plain-text run configuration.

Files hold `key = value` lines; blank lines and lines starting with '#' are
ignored. Unknown keys are rejected so typos cannot silently fall back to
defaults. The full key set is serialized next to every run for
reproducibility.

`RunConfig` is the schema: each field is one key, named by turning the
field's first '_' into '.', and its annotation gives the value type, which
`validate_config` checks first, so a value built in code is held to it too.
`RangeParams` holds the five `cascade.*` keys as the cascade reads them and
is the only check of their rules; `validate_config` builds one to check them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


# Bound on |value| of cascade.alpha, cascade.beta and the cost weights, far
# past any useful value: cost.w_group = 1e38 overflowed the float32 cost.
MAX_MAGNITUDE = 1e6


@dataclass(frozen=True)
class RangeParams:
    """Search-window parameters per refinement step (stage 3->2, then 2->1).

    alpha scales the sqrt-variance term, beta adds constant slack; both
    default to 0 so the window is exactly one standard deviation wide each
    side. min_step keeps the sampled planes distinct when the variance
    collapses. Messages name the config keys, since a config is where the
    values usually come from.
    """

    alpha: tuple[float, float] = (0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    min_step: float = 0.25
    plane_counts: tuple[int, int] = (16, 12)  # planes at stage 2, stage 1

    def __post_init__(self):
        for key, values in (("alpha", self.alpha), ("beta", self.beta), ("min_step", (self.min_step,))):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"cascade.{key} must be finite")
        if any(a < -1.0 for a in self.alpha):
            raise ValueError("cascade.alpha must be >= -1")
        if any(b < 0.0 for b in self.beta):
            raise ValueError("cascade.beta must be >= 0")
        # A window of 1e308 overflowed in next_range; a beta past dmax
        # already spans the whole range.
        for key, values in (("alpha", self.alpha), ("beta", self.beta)):
            if any(v > MAX_MAGNITUDE for v in values):
                raise ValueError(f"cascade.{key} must be <= {MAX_MAGNITUDE:.0f}")
        if self.min_step <= 0.0:
            raise ValueError("cascade.min_step must be > 0")
        if any(n < 2 for n in self.plane_counts):
            raise ValueError("cascade.n1 and cascade.n2 must be >= 2")
        # Sparse volumes grow linearly with the plane count; 100000 planes got
        # a desk pair killed for memory.
        if any(n > 256 for n in self.plane_counts):
            raise ValueError("cascade.n1 and cascade.n2 must be <= 256")

    @classmethod
    def from_config(cls, cfg: "RunConfig") -> "RangeParams":
        return cls(cfg.cascade_alpha, cfg.cascade_beta, cfg.cascade_min_step, (cfg.cascade_n2, cfg.cascade_n1))

    def for_stage(self, stage: int) -> tuple[float, float, int]:
        """(alpha, beta, next-stage plane count) for the step leaving `stage`."""
        if stage not in (3, 2):
            raise ValueError(f"no refinement step leaves stage {stage}")
        k = 0 if stage == 3 else 1
        return self.alpha[k], self.beta[k], self.plane_counts[k]


@dataclass(frozen=True)
class RunConfig:
    features_census_radius: int = 1
    cost_w_group: float = 0.8125
    cost_w_absdiff: float = 0.8125
    pipeline_dmax: int = 256
    fusion_enabled: bool = True
    fusion_smooth_radius: tuple[int, int, int] = (1, 1, 1)
    fusion_passes: int = 1
    cascade_alpha: tuple[float, float] = (0.0, 0.0)
    cascade_beta: tuple[float, float] = (0.0, 0.0)
    cascade_n1: int = 12
    cascade_n2: int = 16
    cascade_min_step: float = 0.25

    def __post_init__(self):
        validate_config(self)


def _key(name: str) -> str:
    return name.replace("_", ".", 1)


# config key -> (RunConfig field, annotated type)
_KINDS = {_key(name): (name, kind) for name, kind in get_type_hints(RunConfig).items()}


def _parse(kind, text: str):
    """Parse `text` as the annotated type `kind`; a tuple takes 1 value
    (broadcast) or one per item."""
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        items = [p.strip() for p in text.split(",")]
        if len(items) == 1:
            items = items * len(kinds)
        if len(items) != len(kinds):
            raise ValueError(f"expected 1 or {len(kinds)} comma-separated values, got {len(items)}")
        return tuple(_parse(k, p) for k, p in zip(kinds, items))
    if kind is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return kind(text)


def _has_kind(kind, value) -> bool:
    """Whether `value` is of the annotated type `kind`: an int key takes an
    integral number, a float key a real one (neither a bool), a bool key a
    bool, and a tuple key a tuple of its length."""
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        return isinstance(value, tuple) and len(value) == len(kinds) and all(map(_has_kind, kinds, value))
    if kind is bool:
        return isinstance(value, bool)
    return isinstance(value, numbers.Integral if kind is int else numbers.Real) and not isinstance(value, bool)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    # a NumPy number is written as the Python number it equals
    return str(int(value)) if isinstance(value, numbers.Integral) else repr(float(value))


def validate_config(cfg: RunConfig) -> RunConfig:
    c = cfg
    for key, (name, kind) in _KINDS.items():
        value = getattr(c, name)
        if not _has_kind(kind, value):
            expected = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
    for key, value in (("cost.w_group", c.cost_w_group), ("cost.w_absdiff", c.cost_w_absdiff)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
        if abs(value) > MAX_MAGNITUDE:
            raise ConfigError(f"{key} must be between -{MAX_MAGNITUDE:.0f} and {MAX_MAGNITUDE:.0f}")
    try:
        RangeParams.from_config(c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # a level has 5 + (2r+1)^2-1 feature channels: 53 at r = 3
    if not 1 <= c.features_census_radius <= 3:
        raise ConfigError("features.census_radius must be 1, 2 or 3")
    if c.pipeline_dmax < 64 or c.pipeline_dmax % 32:
        raise ConfigError("pipeline.dmax must be a multiple of 32 and at least 64")
    if any(r < 0 for r in c.fusion_smooth_radius):
        raise ConfigError("fusion.smooth_radius entries must be >= 0")
    if c.fusion_passes < 1:
        raise ConfigError("fusion.passes must be >= 1")
    # Smoothing work is linear in each radius and the pass count, so each is
    # capped. The caps bound each key, not their product: both at their caps
    # took 1.4 s on desk_scene(1) on a 2-core host, against 0.03 s at the desk config.
    if any(r > 32 for r in c.fusion_smooth_radius):
        raise ConfigError("fusion.smooth_radius entries must be <= 32")
    if c.fusion_passes > 16:
        raise ConfigError("fusion.passes must be <= 16")
    return c


def parse_config(text: str) -> RunConfig:
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        name, kind = _KINDS[key]
        if name in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            seen[name] = _parse(kind, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**seen)


def format_config(cfg: RunConfig) -> str:
    return "".join(f"{_key(f.name)} = {_format(getattr(cfg, f.name))}\n" for f in fields(cfg))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
