"""Cascade-and-fused cost volume stereo matching with deterministic features."""

from .cascade import (
    PipelineOutput,
    RangeParams,
    StageResult,
    next_range,
    range_bounds,
    run_pipeline,
    sample_planes,
    uncertainty,
)
from .config import RunConfig, format_config, load_config, parse_config, validate_config
from .cost_volume import (
    CombinationVolume,
    HypothesisPlanes,
    ScoreVolume,
    Window,
    build_dense_volume,
    build_sparse_volume,
    reduce_to_cost,
    soft_argmin,
    stream_cost,
)
from .errors import CfStereoError, ConfigError, FormatError, PipelineError
from .features import build_pyramid
from .fusion import aggregate, fuse_volumes
from .io_formats import read_image, read_pfm, read_pgm, write_pfm, write_pgm
from .metrics import (
    FilteredMetrics,
    avg_error,
    bad_tau,
    coverage_rate,
    d1_all,
    downsample_gt,
    filtered_metrics,
    valid_mask,
    window_coverage,
)
from .ranking import parse_ballots, schulze_rank
from .synth import SyntheticScene, block_match_oracle, disparity_field, random_dot_stereogram, volume_oracle
from .tensor_ops import (
    DTYPE,
    avgpool_volume,
    bilinear_upsample2x,
    box_smooth_axis,
    softmax_along_planes,
    trilinear_upsample2x,
)

__version__ = "0.1.0"
