"""Plain-text run configuration.

Files hold `key = value` lines; blank lines and lines starting with '#' are
ignored. Unknown keys are rejected so typos cannot silently fall back to
defaults. The full key set is serialized next to every run for
reproducibility.

`RunConfig` is the schema: each field is one key, named by turning the
field's first '_' into '.', and its annotation gives the value type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    features_census_radius: int = 1
    features_stat_radius: int = 2
    cost_w_group: float = 0.8125
    cost_w_absdiff: float = 0.8125
    pipeline_dmax: int = 256
    fusion_enabled: bool = True
    fusion_smooth_radius: tuple[int, int, int] = (1, 1, 1)
    fusion_passes: int = 1
    fusion_hourglass_passes: int = 1
    cascade_alpha: tuple[float, float] = (0.0, 0.0)
    cascade_beta: tuple[float, float] = (0.0, 0.0)
    cascade_n1: int = 12
    cascade_n2: int = 16
    cascade_min_step: float = 0.25

    def __post_init__(self):
        validate_config(self)


def _key(name: str) -> str:
    return name.replace("_", ".", 1)


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


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def validate_config(cfg: RunConfig) -> RunConfig:
    c = cfg
    float_values = {
        "cost.w_group": (c.cost_w_group,),
        "cost.w_absdiff": (c.cost_w_absdiff,),
        "cascade.alpha": c.cascade_alpha,
        "cascade.beta": c.cascade_beta,
        "cascade.min_step": (c.cascade_min_step,),
    }
    for key, values in float_values.items():
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite")
    # a level has 5 + (2r+1)^2-1 feature channels: 53 at r = 3
    if not 1 <= c.features_census_radius <= 3:
        raise ConfigError("features.census_radius must be 1, 2 or 3")
    if c.features_stat_radius < 0:
        raise ConfigError("features.stat_radius must be >= 0")
    if c.pipeline_dmax < 64 or c.pipeline_dmax % 32:
        raise ConfigError("pipeline.dmax must be a multiple of 32 and at least 64")
    if any(r < 0 for r in c.fusion_smooth_radius):
        raise ConfigError("fusion.smooth_radius entries must be >= 0")
    if c.fusion_passes < 1 or c.fusion_hourglass_passes < 1:
        raise ConfigError("fusion pass counts must be >= 1")
    if any(a < -1.0 for a in c.cascade_alpha):
        raise ConfigError("cascade.alpha must be >= -1")
    if any(b < 0.0 for b in c.cascade_beta):
        raise ConfigError("cascade.beta must be >= 0")
    if c.cascade_n1 < 2 or c.cascade_n2 < 2:
        raise ConfigError("cascade.n1 and cascade.n2 must be >= 2")
    if c.cascade_min_step <= 0.0:
        raise ConfigError("cascade.min_step must be > 0")
    # Smoothing work is linear in each radius and pass count, so each is capped.
    # The caps bound each key, not their product: all four at their caps took
    # 20.6 s on desk_scene(1) on a 2-core host, against 0.17 s at the desk config.
    if c.features_stat_radius > 32:
        raise ConfigError("features.stat_radius must be <= 32")
    if any(r > 32 for r in c.fusion_smooth_radius):
        raise ConfigError("fusion.smooth_radius entries must be <= 32")
    if c.fusion_passes > 16:
        raise ConfigError("fusion.passes must be <= 16")
    if c.fusion_hourglass_passes > 16:
        raise ConfigError("fusion.hourglass_passes must be <= 16")
    return c


def parse_config(text: str) -> RunConfig:
    kinds = {_key(name): (name, kind) for name, kind in get_type_hints(RunConfig).items()}
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
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        name, kind = kinds[key]
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
