"""Reconstruction and mask-driven feature losses.

Three terms drive training:

* ``loss_rgb`` -- mean absolute error between rendered and target images.
* ``loss_smooth`` -- pulls each pixel's rendered feature toward the mean
  feature of the 2D mask it belongs to. The per-mask means are treated as
  constants in the gradient (stop-gradient), and the raw sum is normalized
  by the total masked pixel count so the magnitude is resolution-independent.
* ``loss_contrast_truncated`` -- pushes per-mask mean features apart via
  summed inverse squared distances, but only for pairs still closer than a
  threshold ``tau``; with ``tau = inf`` this is the plain contrastive sum.
  Near-coincident pairs (squared distance < 1e-8) are excluded and counted
  in a degenerate-pair diagnostic instead of producing infinities.

Mask images are integer id maps with ``NO_MASK`` marking unlabeled pixels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binio import pack_u32, read_file, write_atomic
from .errors import DataError, UsageError

NO_MASK = np.uint32(0xFFFFFFFF)
DEGENERATE_PAIR_EPS = 1e-8
FEATURE_DIM = 6

MASK_MAGIC = b"IGMK"
MASK_VERSION = 1


@dataclass
class MaskView:
    """One view's mask image: ids in [0, count) with NO_MASK background,
    plus optional per-mask embedding vectors aligned with the id space.

    Masks are static, so the labeled-pixel index is built once here:
    ``labeled`` selects the flat pixels inside a mask and ``label_ids``
    holds their mask ids as int64, in flat pixel order. ``ids`` must not be
    modified after construction.
    """

    ids: np.ndarray  # (H, W) uint32
    count: int
    embeddings: np.ndarray | None = None  # (count, d_emb)
    labeled: np.ndarray = field(init=False, repr=False)  # (H*W,) bool
    label_ids: np.ndarray = field(init=False, repr=False)  # (#labeled,) int64

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.uint32)
        if self.ids.ndim != 2:
            raise DataError("mask image must be 2-D")
        if self.count < 0:
            raise DataError("mask count must be non-negative")
        flat_ids = self.ids.reshape(-1)
        self.labeled = flat_ids != NO_MASK
        self.label_ids = flat_ids[self.labeled].astype(np.int64)
        if self.label_ids.size and int(self.label_ids.max()) >= self.count:
            raise DataError(
                f"mask id {int(self.label_ids.max())} out of range for count {self.count}"
            )
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
            if self.embeddings.shape[0] != self.count:
                raise DataError("mask embeddings must have one row per mask id")

    @property
    def shape(self) -> tuple[int, int]:
        return self.ids.shape


@dataclass
class LossReport:
    l_rgb: float
    l_smooth: float
    l_contrast: float
    mask_means: np.ndarray  # (m, 6) per-mask mean rendered features
    degenerate_pairs: int = 0


def save_masks(path: str, view: MaskView) -> None:
    """IGMK layout: magic, u32 version, u32 H, u32 W, u32 count, then H*W
    little-endian u32 ids row-major (background = 0xFFFFFFFF)."""
    h, w = view.shape
    payload = [
        MASK_MAGIC,
        pack_u32(MASK_VERSION, h, w, view.count),
        np.ascontiguousarray(view.ids, dtype="<u4").tobytes(),
    ]
    write_atomic(path, b"".join(payload))


def load_masks(path: str) -> MaskView:
    r = read_file(path)
    r.expect_magic(MASK_MAGIC)
    r.expect_version(MASK_VERSION)
    h, w, count = r.u32(), r.u32(), r.u32()
    ids = r.u32_array(h * w).reshape(h, w)
    r.done()
    return MaskView(ids=ids, count=count)


def loss_rgb(rendered: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its gradient w.r.t. the rendered image."""
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if rendered.shape != target.shape:
        raise UsageError(f"image shapes differ: {rendered.shape} vs {target.shape}")
    diff = rendered - target
    value = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return value, grad


def mask_mean_features(feature_image: np.ndarray, view: MaskView):
    """Per-mask mean rendered features.

    Returns (means (m, 6), pixel counts (m,), present (m,) bool). Masks with
    no pixels in this view get a zero row and present=False.
    """
    h, w = view.shape
    if feature_image.shape[:2] != (h, w):
        raise UsageError("feature image and mask dimensions differ")
    m = view.count
    means = np.zeros((m, FEATURE_DIM))
    counts = np.zeros(m, dtype=np.int64)
    if m == 0:
        return means, counts, np.zeros(0, dtype=bool)
    idx = view.label_ids
    counts = np.bincount(idx, minlength=m)
    feats = feature_image.reshape(-1, FEATURE_DIM)[view.labeled]
    for ch in range(FEATURE_DIM):
        means[:, ch] = np.bincount(idx, weights=feats[:, ch], minlength=m)
    present = counts > 0
    means[present] /= counts[present, None]
    return means, counts, present


def loss_smooth(feature_image: np.ndarray, view: MaskView):
    """Intra-mask smoothness: sum over masked pixels of the squared deviation
    from the pixel's mask mean, divided by the masked pixel count.

    Returns (value, gradient w.r.t. the feature image, means, counts, present).
    The means are held constant in the gradient.
    """
    feature_image = np.asarray(feature_image, dtype=np.float64)
    means, counts, present = mask_mean_features(feature_image, view)
    grad = np.zeros_like(feature_image)
    total = int(counts.sum())
    if total == 0:
        return 0.0, grad, means, counts, present
    scale = 1.0 / total
    dev = feature_image.reshape(-1, FEATURE_DIM)[view.labeled] - means[view.label_ids]
    value = float((dev * dev).sum() * scale)
    grad.reshape(-1, FEATURE_DIM)[view.labeled] = 2.0 * dev * scale
    return value, grad, means, counts, present


def loss_contrast_truncated(mean_features: np.ndarray, tau: float):
    """Truncated inverse-square contrastive loss over per-mask mean features.

    value = (1 / (m (m-1))) * sum_{i != j} [d2_ij < tau] / d2_ij, with pairs
    below the degenerate threshold excluded. Returns (value, gradient w.r.t.
    mean_features, number of degenerate unordered pairs). m <= 1 gives 0.
    """
    if tau <= 0:
        raise UsageError("tau must be positive")
    mean_features = np.asarray(mean_features, dtype=np.float64)
    m = mean_features.shape[0]
    grad = np.zeros_like(mean_features)
    if m <= 1:
        return 0.0, grad, 0
    diff = mean_features[:, None, :] - mean_features[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    off_diag = ~np.eye(m, dtype=bool)
    degenerate = off_diag & (d2 < DEGENERATE_PAIR_EPS)
    active = off_diag & ~degenerate & (d2 < tau)
    norm = 1.0 / (m * (m - 1))
    if not active.any():
        return 0.0, grad, int(degenerate.sum() // 2)
    inv = np.where(active, 1.0 / np.where(active, d2, 1.0), 0.0)
    value = float(inv.sum() * norm)
    # d/dMi of 1/d2_ij is -2 (Mi - Mj) / d2^2; the (j, i) summand doubles it.
    w = np.where(active, inv * inv, 0.0)
    grad = -4.0 * norm * (mean_features * w.sum(axis=1)[:, None] - w @ mean_features)
    return value, grad, int(degenerate.sum() // 2)


def spread_mean_gradient(view: MaskView, grad_means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. per-mask means back to the feature image
    (each masked pixel receives grad_mean / mask pixel count)."""
    h, w = view.shape
    grad = np.zeros((h, w, FEATURE_DIM))
    if view.label_ids.size == 0:
        return grad
    idx = view.label_ids
    safe_counts = np.maximum(counts, 1)
    grad.reshape(-1, FEATURE_DIM)[view.labeled] = grad_means[idx] / safe_counts[idx, None]
    return grad
