"""Instance-to-embedding association and open-vocabulary query scoring.

Each 3D instance is linked to an embedding by rendering per-view instance id
maps with the same compositing weights as the color renderer, measuring the
IoU between every instance footprint and every 2D mask, and accumulating
IoU-weighted mask embeddings across views (then L2-normalizing). Text-side
queries score instances by cosine similarity; instances that were never
visible keep a zero vector and score -1.

The id maps of independent views render on the renderer's lanes
(``render_instance_id_maps``), at most ``renderer.LANES`` views at once.
A view rasterizes and votes in the runs of whole pixel rows that the
renderer cuts every view into (``renderer.raster_bands``). Each run is
self-contained: its transmittances scan its own rows only, and a pixel's
votes all fall in its run. A run's votes weigh its contributions by the
alpha * T that ``raster_bands`` formed beside its raster. So a view in
flight holds one run's raster, weights and (pixel, instance) score table
beside the (splat, row) span records of one of the view's row ranges,
whatever the view's size. The maps
come back in view order, so the accumulation, and every artifact, is the
same as a sequential run.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .binio import pack_f32, pack_u32, read_file, write_atomic
from .errors import DataError, UsageError
from .losses import MaskView
from .renderer import Camera, Raster, _add_at, _lanes, raster_bands
from .scene_model import SplatSet

NO_INSTANCE = np.uint32(0xFFFFFFFF)
NO_CLASS = -1
MIN_VISIBLE_ALPHA = 0.05

EMBEDDING_MAGIC = b"IGEM"
EMBEDDING_VERSION = 1


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # (count, dim)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DataError("embedding table must be 2-D")
        if np.isnan(self.vectors).any():
            raise DataError("embedding table contains NaN")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def save_embeddings(path: str, table: EmbeddingTable) -> None:
    """IGEM layout: magic, u32 version, u32 count, u32 dim, f32 rows."""
    payload = [
        EMBEDDING_MAGIC,
        pack_u32(EMBEDDING_VERSION, table.count, table.dim),
        pack_f32(table.vectors),
    ]
    write_atomic(path, b"".join(payload))


def load_embeddings(path: str) -> EmbeddingTable:
    r = read_file(path)
    r.expect_magic(EMBEDDING_MAGIC)
    r.expect_version(EMBEDDING_VERSION)
    count, dim = r.u32(), r.u32()
    vectors = r.f32_array(count * dim, (count, dim)) if count * dim else np.zeros((count, dim))
    r.done()
    return EmbeddingTable(vectors=vectors)


def render_instance_id_map(
    splats: SplatSet, instance_labels: np.ndarray, camera: Camera
) -> np.ndarray:
    """Per-pixel winning instance id (uint32), NO_INSTANCE where the total
    alpha stays below the visibility floor.

    The winner is the instance with the largest summed alpha * T contribution
    at that pixel; exact ties go to the lower instance id. Only the
    rasterize step runs, in the view's runs of whole rows (``raster_bands``),
    whose raster, weights and scores take about 45 bytes per contribution:
    a pixel's contributions all fall in one run, so its sums are the whole
    view's, and no color or feature image is composited. Labels must be
    non-negative.
    """
    instance_labels = np.asarray(instance_labels, dtype=np.int64)
    if instance_labels.shape[0] != splats.count:
        raise UsageError("one instance label per splat required")
    if (instance_labels < 0).any():
        raise UsageError("instance labels must be non-negative")
    h, w = camera.height, camera.width
    id_map = np.full(h * w, NO_INSTANCE, dtype=np.uint32)
    slot_labels = None
    for ras, weight in raster_bands(splats, camera):
        if ras.slot.size:
            if slot_labels is None:  # the view's runs share one projection
                m = int(instance_labels.max()) + 1
                slot_labels = instance_labels.take(ras.projected.indices)
            _vote(id_map, ras, weight, m, slot_labels)
        del ras, weight  # before the next run's raster grows
    return id_map.reshape(h, w)


def _vote(id_map: np.ndarray, ras: Raster, weight: np.ndarray, m: int,
          slot_labels: np.ndarray) -> None:
    """Write the winners of the pixels from the first to the last of the
    run ``ras``, whose contributions weigh ``weight`` (alpha * T), into the
    flat ``id_map``, with ``m`` instances and the instance label of each
    projected slot."""
    first, stop = ras.seg_pix[0], ras.seg_pix[-1] + 1
    # the (pixel, instance) key, counted from the run's first pixel, in
    # int64, where (pixels x instances) cannot overflow: each segment's
    # pixel part repeated over its contributions
    key = np.repeat((ras.seg_pix - first) * m, np.diff(ras.seg_start, append=ras.slot.size))
    key += slot_labels.take(ras.slot.astype(np.int64))
    # each pixel's alpha * T per instance, added in contribution order
    scores = np.zeros((stop - first) * m)
    _add_at(scores, key, weight)
    winners = np.argmax(scores.reshape(stop - first, m), axis=1)
    visible = ras.alpha.reshape(-1)[first:stop] >= MIN_VISIBLE_ALPHA
    id_map[first:stop][visible] = winners[visible].astype(np.uint32)


def render_instance_id_maps(
    splats: SplatSet, instance_labels: np.ndarray, cameras: list[Camera]
) -> list[np.ndarray]:
    """``render_instance_id_map`` for every camera, in camera order.

    The views run on the renderer's lanes (``renderer._lanes``), at most
    ``renderer.LANES`` at once and never more than the usable cores or the
    views; NumPy releases the interpreter lock in the kernels that dominate
    a view. A view in flight holds one run of rows at a time, whatever its
    size. An exception in any view is raised here.
    """
    return _lanes([partial(render_instance_id_map, splats, instance_labels, camera)
                   for camera in cameras])


def associate_embeddings(
    id_maps: list[np.ndarray], masks: list[MaskView], num_instances: int
) -> EmbeddingTable:
    """IoU-weighted accumulation of mask embeddings per instance.

    For every view and (instance, mask) pair, the weight is the IoU between
    the instance's pixel footprint and the mask's pixels; the weighted sum of
    mask embeddings over all views is L2-normalized per instance. Instances
    with zero accumulated weight keep the zero vector. Views are processed in
    order and masks in id order, so accumulation is deterministic.
    """
    if len(id_maps) != len(masks):
        raise UsageError("one id map per mask view required")
    dim = None
    for view in masks:
        if view.embeddings is None:
            raise UsageError("mask views must carry embeddings for association")
        dim = view.embeddings.shape[1] if dim is None else dim
        if view.embeddings.shape[1] != dim:
            raise UsageError("mask embedding dims differ across views")
    if dim is None:
        raise UsageError("no mask views given")

    acc = np.zeros((num_instances, dim))
    for id_map, view in zip(id_maps, masks):
        if id_map.shape != view.shape:
            raise UsageError("id map and mask dimensions differ")
        mv = view.count
        if mv == 0:
            continue
        ids = id_map.reshape(-1)
        inst_sizes = np.bincount(ids[ids != NO_INSTANCE].astype(np.int64), minlength=num_instances)
        mask_sizes = np.bincount(view.label_ids, minlength=mv)
        # instance id at each labeled pixel, in the order of view.label_ids
        inst_in_mask = ids[view.labeled]
        both = inst_in_mask != NO_INSTANCE
        if not both.any():
            continue
        joint = inst_in_mask[both].astype(np.int64) * mv + view.label_ids[both]
        inter = np.bincount(joint, minlength=num_instances * mv).reshape(num_instances, mv)
        union = inst_sizes[:, None] + mask_sizes[None, :] - inter
        iou = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        acc += iou @ view.embeddings

    norms = np.linalg.norm(acc, axis=1)
    positive = norms > 0
    acc[positive] /= norms[positive, None]
    return EmbeddingTable(vectors=acc)


def score_query(query_embedding: np.ndarray, instances: EmbeddingTable) -> np.ndarray:
    """Cosine similarity of one query against every instance embedding;
    zero-vector (unassociated) instances score -1."""
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    if q.shape[0] != instances.dim:
        raise UsageError("query and instance embedding dims differ")
    qn = np.linalg.norm(q)
    if qn == 0:
        raise UsageError("query embedding must be non-zero")
    norms = np.linalg.norm(instances.vectors, axis=1)
    scores = np.full(instances.count, -1.0)
    ok = norms > 0
    scores[ok] = (instances.vectors[ok] @ q) / (norms[ok] * qn)
    return scores


def semantic_assign(
    text_embeddings: EmbeddingTable,
    instance_embeddings: EmbeddingTable,
    instance_labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closest-text class per instance, inherited by every member point.

    Returns (per-point class ids, per-instance class ids); ties go to the
    lower class id and zero-embedding instances get the NO_CLASS sentinel.
    """
    if text_embeddings.count < 1:
        raise UsageError("at least one text embedding required")
    if text_embeddings.dim != instance_embeddings.dim:
        raise UsageError("text and instance embedding dims differ")
    instance_labels = np.asarray(instance_labels, dtype=np.int64)

    inst = instance_embeddings.vectors
    txt = text_embeddings.vectors
    inst_norm = np.linalg.norm(inst, axis=1)
    txt_norm = np.linalg.norm(txt, axis=1)
    if (txt_norm == 0).any():
        raise UsageError("text embeddings must be non-zero")
    sims = (inst @ txt.T) / np.maximum(inst_norm[:, None], 1e-300) / txt_norm[None, :]
    inst_classes = np.argmax(sims, axis=1).astype(np.int64)
    inst_classes[inst_norm == 0] = NO_CLASS
    point_classes = inst_classes[instance_labels]
    return point_classes, inst_classes
