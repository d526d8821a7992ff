import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cfstereo.cost_volume import HypothesisPlanes, Window, sample_planes
from cfstereo.metrics import (
    avg_error,
    bad_tau,
    check_threshold,
    coverage_rate,
    d1_all,
    downsample_gt,
    filtered_metrics,
    valid_mask,
    window_coverage,
)


def grid(values):
    return np.asarray(values, dtype=float).reshape(1, -1)


class TestBadTau:
    def test_perfect_prediction(self):
        gt = grid([10, 20])
        assert bad_tau(gt, gt, 2.0) == 0.0

    def test_half_bad(self):
        assert bad_tau(grid([10.5, 23.0]), grid([10.0, 20.0]), 2.0) == 0.5

    def test_all_invalid_errors(self):
        with pytest.raises(ValueError, match="valid"):
            bad_tau(grid([1.0, 2.0]), grid([0.0, -3.0]), 1.0)


class TestD1:
    def test_rule_per_pixel(self):
        gt = grid([10.0, 20.0, 0.0])
        pred = grid([10.5, 25.0, 7.0])
        assert d1_all(pred, gt) == 0.5

    def test_five_percent_clause(self):
        # 4 px error at gt 100 is under 5%, not an outlier
        assert d1_all(grid([104.0]), grid([100.0])) == 0.0
        assert d1_all(grid([106.0]), grid([100.0])) == 1.0

    def test_perfect(self):
        gt = grid([5.0, 9.0])
        assert d1_all(gt, gt) == 0.0


class TestAvgError:
    def test_zero(self):
        gt = grid([4.0, 8.0])
        assert avg_error(gt, gt) == 0.0

    def test_mean(self):
        assert avg_error(grid([11.0, 23.0]), grid([10.0, 20.0])) == 2.0

    def test_all_invalid(self):
        with pytest.raises(ValueError, match="valid"):
            avg_error(grid([1.0]), grid([np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_prediction_is_inf(self, bad):
        # a non-finite prediction at a valid pixel is an error of every size
        assert avg_error(grid([bad, 10.0]), grid([10.0, 10.0])) == np.inf
        # at an invalid pixel it is excluded, like the pixel
        assert avg_error(grid([bad, 11.0]), grid([0.0, 10.0])) == 1.0


class TestFilteredMetrics:
    def test_infinite_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(1, 30, (8, 8))
        pred = gt + rng.normal(0, 2, (8, 8))
        unc = rng.uniform(0, 10, (8, 8))
        out = filtered_metrics(pred, gt, unc, np.inf)
        assert out.kept_fraction == 1.0
        assert out.d1_kept == d1_all(pred, gt)

    def test_threshold_excludes_exact_pixel(self):
        gt = grid([10.0, 10.0, 10.0])
        pred = grid([10.0, 10.0, 50.0])
        unc = grid([1.0, 1.0, 9.0])  # sqrt = 3 at the bad pixel
        out = filtered_metrics(pred, gt, unc, 2.5)
        assert out.kept_fraction == pytest.approx(2 / 3)
        assert out.d1_kept == 0.0

    def test_all_dropped_errors(self):
        with pytest.raises(ValueError, match="dropped"):
            filtered_metrics(grid([1.0]), grid([1.0]), grid([100.0]), 2.5)

    @pytest.mark.parametrize("threshold, shown", [(np.nan, "nan"), (0.0, "0.0"), (-1.0, "-1.0")])
    def test_threshold_not_above_zero_is_rejected(self, threshold, shown):
        with pytest.raises(ValueError, match=f"threshold must be a number > 0, got {shown}$"):
            filtered_metrics(grid([1.0]), grid([1.0]), grid([0.0]), threshold)
        with pytest.raises(ValueError, match=f"^--flag must be a number > 0, got {shown}$"):
            check_threshold(threshold, "--flag")

    def test_infinite_threshold_is_valid(self):
        check_threshold(np.inf)
        assert filtered_metrics(grid([1.0]), grid([1.0]), grid([1e300]), np.inf).kept_fraction == 1.0


class TestCoverage:
    def test_full_coverage(self):
        gt = np.full((4, 4), 5.0)
        planes = HypothesisPlanes.per_pixel(np.stack([np.full((4, 4), 4.0), np.full((4, 4), 6.0)]))
        assert coverage_rate(gt, planes) == 1.0

    def test_single_miss(self):
        gt = np.full((2, 2), 5.0)
        lo = np.full((2, 2), 4.0)
        hi = np.full((2, 2), 6.0)
        hi[0, 0] = 4.5  # window misses gt at one pixel
        planes = HypothesisPlanes.per_pixel(np.stack([lo, hi]))
        assert coverage_rate(gt, planes) == 0.75

    def test_uniform_planes(self):
        gt = np.array([[3.0, 9.0]])
        assert coverage_rate(gt, Window.dense(8, 0, gt.shape).planes()) == 0.5

    def test_per_pixel_planes_of_another_shape_rejected(self):
        planes = HypothesisPlanes.per_pixel(np.stack([np.full((4, 4), 4.0), np.full((4, 4), 6.0)]))
        with pytest.raises(ValueError, match="do not match"):
            coverage_rate(np.full((4, 8), 5.0), planes)


    def test_window_coverage_is_the_planes_coverage(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(0.0, 12.0, size=(6, 9))
        gt[0, :3] = [0.0, np.nan, np.inf]  # invalid pixels count nowhere
        lo, hi = np.sort(rng.uniform(0.0, 12.0, size=(2, 6, 9)), axis=0)
        planes = sample_planes(lo, hi, 5)
        assert window_coverage(gt, lo, hi) == coverage_rate(gt, planes)

    def test_window_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="does not match ground truth"):
            window_coverage(np.full((4, 8), 5.0), np.zeros((4, 4)), np.ones((4, 8)))


class TestDownsample:
    def test_decimation_and_rescale(self):
        gt = np.arange(16.0).reshape(4, 4) + 1
        out = downsample_gt(gt, 2)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.5
        assert out[1, 1] == 5.5

    def test_invalid_stays_invalid(self):
        gt = np.array([[0.0, 2.0], [np.nan, 4.0]])
        out = downsample_gt(gt, 1)
        assert valid_mask(out).tolist() == [[False, True], [False, True]]


@given(
    arrays(np.float64, (4, 6), elements=st.floats(0.5, 100)),
    arrays(np.float64, (4, 6), elements=st.floats(0.5, 100)),
)
@settings(max_examples=40, deadline=None)
def test_d1_never_exceeds_bad3(pred, gt):
    d1 = d1_all(pred, gt)
    b3 = bad_tau(pred, gt, 3.0)
    assert 0.0 <= d1 <= b3 <= 1.0
    assert avg_error(pred, gt) >= 0.0


def test_float32_prediction_scores_as_its_float64_copy():
    rng = np.random.default_rng(8)
    gt = rng.uniform(0.5, 60.0, size=(16, 24))
    gt[::5, ::7] = np.nan
    pred = (gt + rng.normal(scale=4.0, size=gt.shape)).astype(np.float32)
    for tau in (0.5, 1.0, 3.0):
        assert bad_tau(pred, gt, tau) == bad_tau(pred.astype(np.float64), gt, tau)
    assert d1_all(pred, gt) == d1_all(pred.astype(np.float64), gt)
    assert 0.0 < d1_all(pred, gt) < 1.0


def test_nonfinite_prediction_is_an_outlier():
    # NaN compares false, so an "err > tau" test would score an all-NaN map as perfect
    gt = grid([10.0, 20.0, 0.0])
    nan = grid([np.nan] * 3)
    assert bad_tau(nan, gt, 2.0) == 1.0
    assert d1_all(nan, gt) == 1.0
    assert filtered_metrics(nan, gt, grid([0.0] * 3), 2.5).d1_kept == 1.0
    mixed = grid([10.0, np.inf, 5.0])
    assert bad_tau(mixed, gt, 2.0) == 0.5
    assert d1_all(mixed, gt) == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "score, want",
    [
        (lambda p, g: bad_tau(p, g, 1.0), 0.0),
        (lambda p, g: bad_tau(p, g, 0.5), 0.5),
        (d1_all, 0.0),
        (avg_error, 0.5),
        (lambda p, g: filtered_metrics(p, g, grid([0.0, 0.0, 0.0, 9.0]), 2.0).kept_fraction, 0.5),
    ],
    ids=["bad_tau_1", "bad_tau_0.5", "d1_all", "avg_error", "filtered_metrics"],
)
def test_infinite_prediction_at_infinite_truth_is_masked_before_subtracting(score, want):
    """An infinite truth marks an invalid pixel; scoring must not compute inf - inf there."""
    pred = grid([np.inf, 10.0, -np.inf, 21.0])
    gt = grid([np.inf, 10.0, -np.inf, 20.0])
    assert score(pred, gt) == want
