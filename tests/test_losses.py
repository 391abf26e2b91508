import numpy as np
import pytest

from igsplat.errors import DataError, UsageError
from igsplat.losses import (
    NO_MASK,
    MaskView,
    load_masks,
    loss_contrast_truncated,
    loss_rgb,
    loss_smooth,
    mask_mean_features,
    save_masks,
    spread_mean_gradient,
)
from igsplat.oracles import central_differences, relative_errors


def grid_masks(h=4, w=4, boxes=((0, 0, 2, 2), (2, 2, 4, 4))):
    ids = np.full((h, w), NO_MASK, dtype=np.uint32)
    for i, (r0, c0, r1, c1) in enumerate(boxes):
        ids[r0:r1, c0:c1] = i
    return MaskView(ids=ids, count=len(boxes))


def test_rgb_identical_images():
    img = np.random.default_rng(0).uniform(size=(5, 5, 3))
    value, grad = loss_rgb(img, img)
    assert value == 0.0
    assert not grad.any()


def test_rgb_constant_offset():
    img = np.random.default_rng(1).uniform(size=(6, 6, 3))
    value, _ = loss_rgb(img, img + 0.1)
    assert value == pytest.approx(0.1)


def test_rgb_matches_elementwise_oracle():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(7, 5, 3))
    b = rng.uniform(size=(7, 5, 3))
    value, _ = loss_rgb(a, b)
    oracle = 0.0
    for i in range(7):
        for j in range(5):
            for c in range(3):
                oracle += abs(a[i, j, c] - b[i, j, c])
    oracle /= 7 * 5 * 3
    assert value == pytest.approx(oracle, abs=1e-7)


def test_rgb_shape_mismatch():
    with pytest.raises(UsageError):
        loss_rgb(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))


def test_rgb_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(4, 4, 3))
    b = rng.uniform(size=(4, 4, 3))
    _, grad = loss_rgb(a, b)
    fd = central_differences(lambda: loss_rgb(a, b)[0], a, 1e-4)
    assert (np.abs(grad.ravel() - fd) <= 1e-4 * np.maximum(np.abs(fd), 1e-6)).all()


def test_smooth_zero_for_mask_constant_image():
    view = grid_masks()
    feat = np.zeros((4, 4, 6))
    feat[view.ids == 0] = np.arange(6) / 8.0  # dyadic values: means are exact
    feat[view.ids == 1] = 0.625
    value, grad, _, _, _ = loss_smooth(feat, view)
    assert value == 0.0
    assert not grad.any()


def test_smooth_two_pixel_hand_example():
    ids = np.full((1, 2), NO_MASK, dtype=np.uint32)
    ids[0, :] = 0
    view = MaskView(ids=ids, count=1)
    feat = np.zeros((1, 2, 6))
    feat[0, 1, 0] = 1.0
    value, grad, means, counts, present = loss_smooth(feat, view)
    # mean = (0.5, 0, ...); loss = (0.25 + 0.25) / 2 pixels
    assert value == pytest.approx(0.25)
    assert means[0, 0] == pytest.approx(0.5)
    assert counts[0] == 2


def test_smooth_no_masks_is_zero():
    view = MaskView(ids=np.full((3, 3), NO_MASK, dtype=np.uint32), count=0)
    value, grad, means, counts, present = loss_smooth(np.random.rand(3, 3, 6), view)
    assert value == 0.0
    assert means.shape == (0, 6)


def test_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    view = grid_masks(h=8, w=8, boxes=((0, 0, 4, 8), (4, 0, 8, 5)))
    feat = rng.uniform(size=(8, 8, 6))
    _, grad, _, _, _ = loss_smooth(feat, view)
    probed = range(0, feat.size, 7)
    fd = central_differences(lambda: loss_smooth(feat, view)[0], feat, 1e-4, probed)
    assert (relative_errors(grad.ravel()[probed], fd) <= 1e-4).all()
    # note: the analytic gradient treats the per-mask means as constants, yet
    # it still matches full finite differences because at the mean the extra
    # chain term sums to zero


def test_contrast_hand_example_exact():
    means = np.zeros((2, 6))
    means[1, 0] = 0.5  # squared distance 0.25 < tau
    value, grad, degenerate = loss_contrast_truncated(means, 0.4)
    assert value == 4.0
    assert degenerate == 0


def test_contrast_truncates_far_pairs():
    means = np.zeros((2, 6))
    means[1, 0] = np.sqrt(0.5)  # squared distance 0.5 >= tau
    value, grad, _ = loss_contrast_truncated(means, 0.4)
    assert value == 0.0
    assert not grad.any()


def test_contrast_single_mask_is_zero():
    value, grad, _ = loss_contrast_truncated(np.ones((1, 6)), 0.4)
    assert value == 0.0


def test_contrast_degenerate_pairs_excluded():
    means = np.zeros((3, 6))
    means[2, 0] = 0.3
    value, grad, degenerate = loss_contrast_truncated(means, 0.4)
    assert degenerate == 1  # rows 0 and 1 coincide
    assert np.isfinite(value)


def test_contrast_equals_untruncated_below_tau():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(2, 7)
        means = rng.uniform(size=(m, 6)) * 0.2  # all squared distances < 0.24 < tau
        truncated = loss_contrast_truncated(means, 0.4)
        unbounded = loss_contrast_truncated(means, np.inf)
        assert truncated[0] == unbounded[0]  # bitwise: same terms, same order
        assert truncated[1].tobytes() == unbounded[1].tobytes()


def test_contrast_symmetric_under_permutation():
    rng = np.random.default_rng(6)
    means = rng.uniform(size=(5, 6))
    value, _, _ = loss_contrast_truncated(means, 1.5)
    for _ in range(5):
        perm = rng.permutation(5)
        value_p, _, _ = loss_contrast_truncated(means[perm], 1.5)
        assert value_p == pytest.approx(value, rel=1e-12)


def test_contrast_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    means = rng.uniform(size=(4, 6)) * 0.5
    _, grad, _ = loss_contrast_truncated(means, 0.9)
    fd = central_differences(lambda: loss_contrast_truncated(means, 0.9)[0], means, 1e-4)
    assert (relative_errors(grad.ravel(), fd) <= 1e-4).all()


def test_contrast_rejects_bad_tau():
    with pytest.raises(UsageError):
        loss_contrast_truncated(np.zeros((2, 6)), 0.0)


def test_mask_means_ignore_absent_ids():
    ids = np.full((2, 2), NO_MASK, dtype=np.uint32)
    ids[0, 0] = 1  # id 0 never appears
    view = MaskView(ids=ids, count=2)
    feat = np.ones((2, 2, 6))
    means, counts, present = mask_mean_features(feat, view)
    assert not present[0] and present[1]
    assert counts.tolist() == [0, 1]
    assert not means[0].any()


def test_spread_mean_gradient_divides_by_count():
    view = grid_masks()
    grad_means = np.zeros((2, 6))
    grad_means[0, 2] = 1.0
    counts = np.array([4, 4])
    grad = spread_mean_gradient(view, grad_means, counts)
    assert grad[0, 0, 2] == pytest.approx(0.25)
    assert grad[2, 2].sum() == 0.0


def test_mask_view_validation():
    with pytest.raises(DataError):
        MaskView(ids=np.array([[0, 5]], dtype=np.uint32), count=2)


def test_mask_file_roundtrip(tmp_path):
    view = grid_masks(h=5, w=3, boxes=((0, 0, 2, 3), (3, 0, 5, 2)))
    path = str(tmp_path / "view.igmk")
    save_masks(path, view)
    loaded = load_masks(path)
    assert loaded.count == 2
    assert np.array_equal(loaded.ids, view.ids)
    raw = open(path, "rb").read()
    assert raw[:4] == b"IGMK"
