"""Segmentation metrics over point labels.

Instance metrics follow a per-ground-truth best-match protocol: every GT
instance is scored against the predicted instance with maximal IoU, and
predictions may be reused across GT instances; mAcc counts the GT
instances whose best IoU reaches 0.25. Semantic metrics are the
usual per-class IoU plus macro-averaged per-class recall, restricted to
classes present in the ground truth.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .binio import write_atomic
from .errors import UsageError

GT_UNLABELED = -1
ACC_THRESHOLD = 0.25  # mAcc@0.25, the instance_macc_at_25 of metrics.json


@dataclass
class MetricsReport:
    instance_miou: float
    instance_macc: float
    num_gt_instances: int
    semantic_miou: float | None = None
    semantic_macc: float | None = None
    per_class_iou: dict[int, float] = field(default_factory=dict)
    num_classes_present: int = 0

    def to_dict(self) -> dict:
        return {
            "instance_miou": self.instance_miou,
            "instance_macc_at_25": self.instance_macc,
            "num_gt_instances": self.num_gt_instances,
            "semantic_miou": self.semantic_miou,
            "semantic_macc": self.semantic_macc,
            "per_class_iou": {str(k): v for k, v in sorted(self.per_class_iou.items())},
            "num_classes_present": self.num_classes_present,
        }

    def format_table(self) -> str:
        lines = [
            "metric                value",
            "-------------------   ------",
            f"instance mIoU         {self.instance_miou:.4f}",
            f"instance mAcc@0.25    {self.instance_macc:.4f}",
            f"GT instances          {self.num_gt_instances}",
        ]
        if self.semantic_miou is not None:
            lines.append(f"semantic mIoU         {self.semantic_miou:.4f}")
            lines.append(f"semantic mAcc         {self.semantic_macc:.4f}")
            for cls, iou in sorted(self.per_class_iou.items()):
                lines.append(f"  class {cls:<3d} IoU       {iou:.4f}")
        return "\n".join(lines)


def save_metrics(path: str, report: MetricsReport) -> None:
    write_atomic(path, (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode())


def _contingency(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(#GT ids, #predicted ids) point counts, ids in ascending order."""
    gt_ids, gt_idx = np.unique(gt, return_inverse=True)
    pred_ids, pred_idx = np.unique(pred, return_inverse=True)
    return np.bincount(
        gt_idx * len(pred_ids) + pred_idx, minlength=len(gt_ids) * len(pred_ids)
    ).reshape(len(gt_ids), len(pred_ids))


def instance_metrics(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(mIoU, mAcc@ACC_THRESHOLD) of predicted instances against GT instances.

    Points whose GT label is the unlabeled sentinel are excluded from scoring
    entirely.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise UsageError(f"label lengths differ: {pred.shape} vs {gt.shape}")
    valid = gt != GT_UNLABELED
    pred = pred[valid]
    gt = gt[valid]
    if gt.size == 0:
        return 0.0, 0.0
    table = _contingency(pred, gt)
    gt_sizes = table.sum(axis=1)
    pred_sizes = table.sum(axis=0)
    union = gt_sizes[:, None] + pred_sizes[None, :] - table
    iou = table / np.maximum(union, 1)
    best = iou.max(axis=1)
    return float(best.mean()), float((best >= ACC_THRESHOLD).mean())


def semantic_metrics(
    pred_classes: np.ndarray, gt_classes: np.ndarray, num_classes: int
) -> tuple[dict[int, float], float, float]:
    """Per-class IoU = TP/(TP+FP+FN) and macro means over classes present in
    the ground truth; mAcc is macro-averaged per-class recall TP/(TP+FN).

    Returns (per-class IoU for present classes, mIoU, mAcc). Sentinel or
    out-of-range predictions never count as true positives.
    """
    pred_classes = np.asarray(pred_classes, dtype=np.int64)
    gt_classes = np.asarray(gt_classes, dtype=np.int64)
    if pred_classes.shape != gt_classes.shape:
        raise UsageError("class label lengths differ")
    valid = (gt_classes != GT_UNLABELED) & (gt_classes < num_classes)
    pred = pred_classes[valid]
    gt = gt_classes[valid]
    per_class: dict[int, float] = {}
    recalls = []
    for cls in range(num_classes):
        gt_is = gt == cls
        if not gt_is.any():
            continue
        pred_is = pred == cls
        tp = int((gt_is & pred_is).sum())
        fp = int((~gt_is & pred_is).sum())
        fn = int((gt_is & ~pred_is).sum())
        per_class[cls] = tp / (tp + fp + fn)
        recalls.append(tp / (tp + fn))
    if not per_class:
        return {}, 0.0, 0.0
    miou = float(np.mean(list(per_class.values())))
    macc = float(np.mean(recalls))
    return per_class, miou, macc


def build_report(
    pred_instances: np.ndarray,
    gt_instances: np.ndarray,
    pred_classes: np.ndarray | None = None,
    gt_classes: np.ndarray | None = None,
    num_classes: int = 0,
) -> MetricsReport:
    miou, macc = instance_metrics(pred_instances, gt_instances)
    gt_valid = gt_instances[np.asarray(gt_instances) != GT_UNLABELED]
    report = MetricsReport(
        instance_miou=miou,
        instance_macc=macc,
        num_gt_instances=int(len(np.unique(gt_valid))),
    )
    if pred_classes is not None and gt_classes is not None and num_classes > 0:
        per_class, smiou, smacc = semantic_metrics(pred_classes, gt_classes, num_classes)
        report.per_class_iou = per_class
        report.semantic_miou = smiou
        report.semantic_macc = smacc
        report.num_classes_present = len(per_class)
    return report
