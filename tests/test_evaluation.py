import numpy as np
import pytest

from igsplat.errors import UsageError
from igsplat.evaluation import (
    MetricsReport,
    build_report,
    instance_metrics,
    semantic_metrics,
)


def test_perfect_prediction():
    gt = np.array([0, 0, 1, 1, 2])
    assert instance_metrics(gt, gt) == (1.0, 1.0)


def test_partial_overlap_example():
    # each GT instance of 4 points is best-matched by a prediction covering
    # 2 of them plus 2 outside: IoU = 2 / (4 + 4 - 2) = 1/3 >= 0.25
    gt = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([5, 5, 7, 7, 5, 5, 7, 7])
    miou, macc = instance_metrics(pred, gt)
    assert miou == pytest.approx(2 / 6)
    assert macc == 1.0


def test_single_prediction_over_two_halves():
    gt = np.array([0] * 4 + [1] * 4)
    pred = np.zeros(8, dtype=np.int64)
    miou, macc = instance_metrics(pred, gt)
    assert miou == pytest.approx(0.5)
    assert macc == 1.0


def test_unlabeled_gt_points_excluded():
    gt = np.array([0, 0, -1, -1])
    pred = np.array([3, 3, 9, 9])
    miou, macc = instance_metrics(pred, gt)
    assert miou == 1.0 and macc == 1.0


def test_length_mismatch_rejected():
    with pytest.raises(UsageError):
        instance_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


def test_instance_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 5, size=200)
    pred = rng.integers(0, 7, size=200)
    base = instance_metrics(pred, gt)
    perm = rng.permutation(7)
    assert instance_metrics(perm[pred], gt) == base


def test_empty_predicted_instance_changes_nothing():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    base = instance_metrics(pred, gt)
    # renumber predictions so id 1 is unused (an "empty" instance)
    pred2 = np.array([0, 0, 2, 2])
    assert instance_metrics(pred2, gt) == base


def test_semantic_perfect():
    gt = np.array([0, 1, 2, 2])
    per_class, miou, macc = semantic_metrics(gt, gt, 3)
    assert miou == 1.0 and macc == 1.0
    assert per_class == {0: 1.0, 1: 1.0, 2: 1.0}


def test_semantic_absent_class_excluded():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    per_class, miou, macc = semantic_metrics(pred, gt, 5)
    assert set(per_class) == {0, 1}
    assert miou == 1.0


def test_semantic_confusion_matrix_example():
    # confusion [[3, 1], [1, 3]]: per-class IoU 3/5, mIoU 0.6, mAcc 0.75
    gt = np.array([0] * 4 + [1] * 4)
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    per_class, miou, macc = semantic_metrics(pred, gt, 2)
    assert per_class[0] == pytest.approx(3 / 5)
    assert per_class[1] == pytest.approx(3 / 5)
    assert miou == pytest.approx(0.6)
    assert macc == pytest.approx(0.75)


def test_semantic_sentinel_predictions_count_as_misses():
    gt = np.array([0, 0, 0, 0])
    pred = np.array([0, 0, -1, -1])
    per_class, miou, macc = semantic_metrics(pred, gt, 1)
    assert per_class[0] == pytest.approx(0.5)
    assert macc == pytest.approx(0.5)


def test_semantic_relabeling_invariance():
    rng = np.random.default_rng(1)
    gt = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)
    _, miou, macc = semantic_metrics(pred, gt, 4)
    perm = np.array([2, 3, 0, 1])
    _, miou_p, macc_p = semantic_metrics(perm[pred], perm[gt], 4)
    assert miou_p == pytest.approx(miou)
    assert macc_p == pytest.approx(macc)


def test_metrics_in_unit_range():
    rng = np.random.default_rng(2)
    gt = rng.integers(0, 6, size=300)
    pred = rng.integers(0, 9, size=300)
    miou, macc = instance_metrics(pred, gt)
    assert 0.0 <= miou <= 1.0 and 0.0 <= macc <= 1.0


def test_build_report_serializes(tmp_path):
    gt = np.array([0, 0, 1, 1])
    report = build_report(gt, gt, pred_classes=np.array([0, 0, 1, 1]),
                          gt_classes=np.array([0, 0, 1, 1]), num_classes=2)
    assert isinstance(report, MetricsReport)
    d = report.to_dict()
    assert d["instance_miou"] == 1.0
    assert d["semantic_miou"] == 1.0
    table = report.format_table()
    assert "instance mIoU" in table and "semantic mIoU" in table
