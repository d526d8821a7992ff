import pytest

from cfstereo.config import RunConfig, format_config, parse_config, validate_config
from cfstereo.errors import ConfigError


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert parse_config(format_config(cfg)) == cfg


def test_overrides_roundtrip():
    text = """
# desk settings
pipeline.dmax = 64
cost.w_group = 12.0
fusion.smooth_radius = 0,2,2
cascade.alpha = 0.5,0.25
fusion.enabled = false
"""
    cfg = parse_config(text)
    assert cfg.pipeline_dmax == 64
    assert cfg.cost_w_group == 12.0
    assert cfg.fusion_smooth_radius == (0, 2, 2)
    assert cfg.cascade_alpha == (0.5, 0.25)
    assert cfg.fusion_enabled is False
    assert parse_config(format_config(cfg)) == cfg


def test_scalar_broadcast_for_tuples():
    cfg = parse_config("fusion.smooth_radius = 2\ncascade.beta = 1.5\n")
    assert cfg.fusion_smooth_radius == (2, 2, 2)
    assert cfg.cascade_beta == (1.5, 1.5)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("pipeline.dmaxx = 64\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("features.groups = 4\n")  # retired: grouping cannot change the cost


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("pipeline.dmax = 64\npipeline.dmax = 96\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("pipeline.dmax\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("pipeline.dmax = many\n")


@pytest.mark.parametrize(
    "line",
    [
        "pipeline.dmax = 48",  # not a multiple of 32
        "features.channels = 0",
        "cascade.alpha = -2,-2",
        "cascade.min_step = 0",
        "fusion.passes = 0",
    ],
)
def test_validation_failures(line):
    with pytest.raises(ConfigError):
        parse_config(line + "\n")


def test_validate_direct():
    with pytest.raises(ConfigError, match="n1"):
        validate_config(RunConfig(cascade_n1=1))
