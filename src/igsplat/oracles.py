"""Brute-force references for the sampler, the voxel adjacency, the
component aggregation and the analytic gradients.

Shared by ``igsplat selftest`` and the test suite; each recomputes its
answer in full instead of incrementally, so it checks the fast path
without sharing its shortcuts.
"""
from __future__ import annotations

import numpy as np


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
