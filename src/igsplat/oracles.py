"""Brute-force references for the renderer's contribution builder,
transmittances, composite and per-splat gradient sums, the instance id
maps, the sampler,
k-means, the voxel adjacency, the component aggregation and the analytic
gradients.

Shared by ``igsplat selftest`` and the test suite; each recomputes its
answer in full instead of incrementally, so it checks the fast path
without sharing its shortcuts.
"""
from __future__ import annotations

import numpy as np

from .association import MIN_VISIBLE_ALPHA, NO_INSTANCE
from .errors import UsageError
from .instantiation import FEATURE_DIM, KMEANS_MAX_ITERS, KMEANS_TOL, ClusterState
from .renderer import _row_runs


def contributions_oracle(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """The (disk, pixel) pairs of ``renderer._build_contributions``, from a
    dense (disks, h, w) scan: every pixel against every disk under the same
    du*du + dv*dv <= r*r test, pixel-major with slot (depth) order inside
    each pixel. Returns (pix, slot, d2, seg_start, seg_pix) like the
    builder, with each pixel's run found by ``np.unique``."""
    du = np.arange(w)[None, :] - u[:, None]  # (k, w)
    dv = np.arange(h)[None, :] - v[:, None]  # (k, h)
    d2 = du[:, None, :] * du[:, None, :] + dv[:, :, None] * dv[:, :, None]  # (k, h, w)
    inside = d2 <= (r * r)[:, None, None]
    row, col, slot = np.nonzero(inside.transpose(1, 2, 0))
    pix = row * w + col
    seg_pix, seg_start = np.unique(pix, return_index=True)
    return pix, slot, d2[slot, row, col], seg_start, seg_pix


def transmittance_oracle(alpha_i: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Each contribution's transmittance T_i = prod_{j<i} (1 - alpha_j), as
    ``renderer.rasterize`` defines it: the product of the alphas before it
    in its pixel's segment, that segment scanned on its own."""
    trans = np.empty_like(alpha_i)
    bounds = np.append(seg_start, alpha_i.size).tolist()
    for first, stop in zip(bounds[:-1], bounds[1:]):
        trans[first] = 1.0
        trans[first + 1:stop] = np.cumprod(1.0 - alpha_i[first:stop - 1])
    return trans


def composite_oracle(ras, values: np.ndarray) -> np.ndarray:
    """The (H, W, C) composite of the per-splat ``values`` over the Raster
    ``ras``, as ``renderer.render`` defines it: each pixel's sum starts at
    0.0 and adds weight * value, the weight alpha_i * trans, one
    contribution after another in depth order; pixels without
    contributions stay 0."""
    h, w = ras.alpha.shape
    image = np.zeros((h * w, values.shape[1]))
    slot_values = values[ras.projected.indices]
    bounds = np.append(ras.seg_start, ras.slot.size).tolist()
    for pix, first, stop in zip(ras.seg_pix.tolist(), bounds[:-1], bounds[1:]):
        for i in range(first, stop):
            image[pix] += (ras.alpha_i[i] * ras.trans[i]) * slot_values[ras.slot[i]]
    return image.reshape(h, w, -1)


def group_slot_sums_oracle(ras, terms: np.ndarray) -> np.ndarray:
    """The (k,) per-slot sums of the per-contribution ``terms`` over the
    Raster ``ras``, as ``renderer.render_backward`` adds them: each lane
    group of ``renderer._row_runs``' cutting sums its terms per slot in
    contribution order, as a bincount does, and the groups' sums are then
    added in row order, the first group's first."""
    h, w = ras.alpha.shape
    seg_len = np.diff(ras.seg_start, append=ras.slot.size)
    before = np.concatenate(([0], np.cumsum(np.bincount(ras.seg_pix // w, weights=seg_len,
                                                        minlength=h)))).astype(np.int64)
    k = ras.projected.count
    total = np.zeros(k)
    for number, group in enumerate(_row_runs(before)):
        entries = slice(group[0][1].start, group[-1][1].stop)
        sums = np.bincount(ras.slot[entries], weights=terms[entries], minlength=k)
        total = sums if number == 0 else total + sums
    return total


def id_map_oracle(ras, labels: np.ndarray) -> np.ndarray:
    """The (H, W) uint32 instance id map of the per-splat instance
    ``labels`` over the Raster ``ras``, as
    ``association.render_instance_id_map`` defines it: a pixel whose alpha
    reaches ``MIN_VISIBLE_ALPHA`` goes to the instance of the largest sum
    of alpha_i * trans, each sum starting at 0.0 and adding one
    contribution after another in depth order, ties going to the lower id;
    every other pixel gets ``NO_INSTANCE``."""
    h, w = ras.alpha.shape
    id_map = np.full(h * w, NO_INSTANCE, dtype=np.uint32)
    splat = ras.projected.indices[ras.slot]
    bounds = np.append(ras.seg_start, ras.slot.size).tolist()
    for pix, first, stop in zip(ras.seg_pix.tolist(), bounds[:-1], bounds[1:]):
        if ras.alpha.flat[pix] >= MIN_VISIBLE_ALPHA:
            scores = {}
            for i in range(first, stop):
                instance = int(labels[splat[i]])
                scores[instance] = scores.get(instance, 0.0) + ras.alpha_i[i] * ras.trans[i]
            best = max(scores.values())
            id_map[pix] = min(instance for instance, score in scores.items() if score == best)
    return id_map.reshape(h, w)


def fps_oracle(points: np.ndarray, s: int, start: int) -> np.ndarray:
    """Farthest point sampling with a full recompute each round (no
    incremental minimum), O(n^2 s) work; ties go to the smallest index."""
    chosen = [start]
    for _ in range(s - 1):
        d2 = ((points[:, None, :] - points[chosen][None, :, :]) ** 2).sum(axis=2)
        min_d2 = d2.min(axis=1)
        min_d2[chosen] = -1.0
        chosen.append(int(np.argmax(min_d2)))
    return np.array(chosen)


def lloyd_oracle(
    x: np.ndarray,
    features: np.ndarray,
    init_indices: np.ndarray,
    max_iters: int = KMEANS_MAX_ITERS,
) -> ClusterState:
    """Plain Lloyd k-means, the reference for ``kmeans_cluster``: three fresh
    dense (n, s) temporaries per iteration and one bincount per channel.
    Ties, tombstones, the stopping rule and the objective check are the ones
    ``kmeans_cluster`` documents."""
    x = np.asarray(x, dtype=np.float64)
    init_indices = np.asarray(init_indices, dtype=np.int64)
    n = x.shape[0]
    s = init_indices.shape[0]
    if len(np.unique(init_indices)) != s:
        raise UsageError("init indices must be distinct")
    if init_indices.min() < 0 or init_indices.max() >= n:
        raise UsageError("init index out of range")

    centers = x[init_indices].copy()
    tombstone = np.zeros(s, dtype=bool)
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    x_sq = (x * x).sum(axis=1)
    iterations = 0

    for iterations in range(1, max_iters + 1):
        d2 = x_sq[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)
        if tombstone.any():
            d2[:, tombstone] = np.inf
        labels = np.argmin(d2, axis=1)

        counts = np.bincount(labels, minlength=s)
        new_centers = centers.copy()
        sums = np.zeros_like(centers)
        for ch in range(x.shape[1]):
            sums[:, ch] = np.bincount(labels, weights=x[:, ch], minlength=s)
        live = counts > 0
        new_centers[live] = sums[live] / counts[live, None]
        tombstone |= ~live

        objective = float(((x - new_centers[labels]) ** 2).sum())
        if history and objective > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise AssertionError(
                f"k-means objective increased: {history[-1]} -> {objective}"
            )
        history.append(objective)

        movement = np.linalg.norm(new_centers[live] - centers[live], axis=1).max() if live.any() else 0.0
        centers = new_centers
        if movement < KMEANS_TOL:
            break

    # counts and live belong to the final labels
    feat_means = np.zeros((s, FEATURE_DIM))
    for ch in range(FEATURE_DIM):
        feat_means[:, ch] = np.bincount(labels, weights=features[:, ch], minlength=s)
    feat_means[live] /= counts[live, None]

    return ClusterState(
        labels=labels,
        features=feat_means,
        tombstone=~live,
        objective=history[-1],
        iterations=iterations,
        objective_history=history,
    )


def voxel_adjacency(voxels: list, alive: np.ndarray) -> np.ndarray:
    """(s, s) bool: live clusters i != j with some pair of voxels at
    Chebyshev distance <= 1, over every voxel pair. ``a <= b + 1 and
    b <= a + 1`` per axis never subtracts keys, so cannot overflow."""
    s = len(voxels)
    adjacency = np.zeros((s, s), dtype=bool)
    for i in range(s):
        for j in range(s):
            if i == j or not (alive[i] and alive[j]):
                continue
            a, b = voxels[i][:, None, :], voxels[j][None, :, :]
            adjacency[i, j] = ((a <= b + 1) & (b <= a + 1)).all(axis=2).any()
    return adjacency


def dfs_components(merge: np.ndarray, alive: np.ndarray) -> dict[int, int]:
    """Component number of every alive node, by depth-first search over the
    boolean ``merge`` matrix."""
    s = merge.shape[0]
    comp: dict[int, int] = {}
    next_comp = 0
    for k in range(s):
        if not alive[k] or k in comp:
            continue
        stack = [k]
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp[node] = next_comp
            stack.extend(j for j in range(s) if merge[node, j] and j not in comp)
        next_comp += 1
    return comp


def central_differences(objective, array: np.ndarray, h: float, indices=None) -> np.ndarray:
    """(objective() at x + h minus objective() at x - h) / 2h along each
    probed flat entry x of ``array`` (all of them by default), one row per
    entry. ``array`` is perturbed in place and restored exactly after each
    entry; ``objective`` may return a scalar or an array."""
    out = []
    for idx in range(array.size) if indices is None else indices:
        orig = array.flat[idx]
        array.flat[idx] = orig + h
        plus = objective()
        array.flat[idx] = orig - h
        minus = objective()
        array.flat[idx] = orig
        out.append((plus - minus) / (2 * h))
    return np.array(out)


def relative_errors(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """|analytic - fd| / max(|analytic|, |fd|, 1e-6), entrywise."""
    return np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
