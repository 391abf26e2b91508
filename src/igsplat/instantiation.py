"""Bottom-up instance extraction from trained splats.

The pipeline over-segments the scene into many sub-objects and then merges
them back into whole instances:

1. embed every point into a joint space X = [lambda_pos * PE(mu_hat); f]
   (positions normalized to the scene's centered unit cube, sinusoidal
   positional encoding with two frequency bands plus the raw coordinates),
2. farthest-point-sample s seeds in that space,
3. Lloyd k-means from those seeds (ties to the lower cluster id, empty
   clusters tombstoned rather than reseeded),
4. voxelize each sub-object's member points,
5. connect sub-objects that share or 26-neighbor voxels, weighting edges by
   the L2 distance of their mean features,
6. connected components over edges with feature distance <= gamma,
   relabeled largest-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .binio import pack_u32, read_file, write_atomic
from .errors import DataError, UsageError

PE_BANDS = 2
FEATURE_DIM = 6

DEFAULT_SAMPLES = 1000
DEFAULT_VOXEL_SIZE = 0.2
DEFAULT_GAMMA = 0.1
DEFAULT_LAMBDA_POS = 0.5
KMEANS_MAX_ITERS = 50
KMEANS_TOL = 1e-5

LABELS_MAGIC = b"IGLB"
LABELS_VERSION = 1

_NEIGHBOR_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


@dataclass
class ClusterState:
    """k-means output: point labels, per-cluster mean features, and
    tombstone flags for clusters that lost all members."""

    labels: np.ndarray  # (n,) int64 in [0, s)
    features: np.ndarray  # (s, 6) mean member features
    tombstone: np.ndarray  # (s,) bool
    objective: float
    iterations: int
    objective_history: list[float] = field(default_factory=list)

    @property
    def cluster_count(self) -> int:
        return self.features.shape[0]


@dataclass
class ConnectivityGraph:
    weights: np.ndarray  # (s, s) symmetric, zero diagonal
    adjacency: np.ndarray  # (s, s) bool, voxel-adjacent sub-objects
    alive: np.ndarray  # (s,) bool, not tombstoned
    gamma: float


@dataclass
class InstanceResult:
    labels: np.ndarray  # (n,) int64 in [0, m)
    sizes: np.ndarray  # (m,) member point counts

    @property
    def instance_count(self) -> int:
        return self.sizes.shape[0]


def positional_encode(unit_positions: np.ndarray) -> np.ndarray:
    """[x, sin(pi x), cos(pi x), sin(2 pi x), cos(2 pi x)] per axis, grouped
    as raw block then sin/cos blocks per band."""
    x = np.asarray(unit_positions, dtype=np.float64)
    blocks = [x]
    for band in range(PE_BANDS):
        freq = (2.0**band) * np.pi
        blocks.append(np.sin(freq * x))
        blocks.append(np.cos(freq * x))
    return np.concatenate(blocks, axis=1)


def build_cluster_space(
    positions: np.ndarray, features: np.ndarray, lambda_pos: float = DEFAULT_LAMBDA_POS
) -> np.ndarray:
    """Concatenate the scaled positional encoding with the instance features.

    Positions are normalized per axis to the scene's centered unit cube
    (bounding-box center maps to 0); degenerate axes map to 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(positions).all() or not np.isfinite(features).all():
        raise DataError("positions and features must be finite")
    if positions.shape[0] != features.shape[0]:
        raise DataError("positions and features must have matching point counts")
    if not np.isfinite(lambda_pos):
        raise UsageError(f"lambda_pos must be finite, got {lambda_pos}")
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    size = hi - lo
    center = (hi + lo) / 2.0
    unit = np.zeros_like(positions)
    ok = size > 1e-12
    unit[:, ok] = (positions[:, ok] - center[ok]) / size[ok]
    return np.concatenate([lambda_pos * positional_encode(unit), features], axis=1)


def farthest_point_sample(points: np.ndarray, s: int, start: int) -> np.ndarray:
    """Greedy max-min selection in Euclidean space, ties to the smallest index."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not (1 <= s <= n):
        raise UsageError(f"sample count {s} out of range for {n} points")
    if not (0 <= start < n):
        raise UsageError(f"start index {start} out of range")
    chosen = np.empty(s, dtype=np.int64)
    chosen[0] = start
    # Selected points get -1 so duplicates never re-pick them (unchosen >= 0).
    min_d2 = ((points - points[start]) ** 2).sum(axis=1)
    min_d2[start] = -1.0
    for i in range(1, s):
        nxt = int(np.argmax(min_d2))
        chosen[i] = nxt
        d2 = ((points - points[nxt]) ** 2).sum(axis=1)
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[nxt] = -1.0
    return chosen


def kmeans_cluster(
    x: np.ndarray,
    features: np.ndarray,
    init_indices: np.ndarray,
    max_iters: int = KMEANS_MAX_ITERS,
) -> ClusterState:
    """Lloyd iterations from the given seed points; the clusters carry the
    mean of their members' ``features``.

    Assignment ties go to the lower cluster id; iteration stops when the
    largest center movement drops below ``KMEANS_TOL`` or after ``max_iters``.
    Empty clusters are tombstoned (excluded from later assignments), never
    reseeded. The objective (sum of squared distances to assigned centers)
    is checked to be non-increasing every iteration.
    """
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


def voxelize_subobjects(
    positions: np.ndarray, labels: np.ndarray, r: float, cluster_count: int
) -> list:
    """Per-cluster sets of occupied voxel keys, key = floor(position / r)."""
    if not r > 0:
        raise UsageError(f"voxel size must be positive, got {r}")
    positions = np.asarray(positions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    keys = np.floor(positions / r)
    # 2^62 leaves room for the +-1 neighbor offsets in int64
    if not (np.abs(keys) < 2.0**62).all():
        raise UsageError(f"voxel size {r} puts voxel keys at or beyond 2^62")
    keys = keys.astype(np.int64)
    out = []
    for k in range(cluster_count):
        member_keys = keys[labels == k]
        out.append(np.unique(member_keys, axis=0) if member_keys.size else np.zeros((0, 3), dtype=np.int64))
    return out


def build_connectivity_graph(
    clusters: ClusterState,
    voxels: list,
    gamma: float,
) -> ConnectivityGraph:
    """Edge weight = L2 distance of the clusters' mean features, gated by
    voxel adjacency (shared or 26-neighborhood-adjacent voxels). Tombstoned
    clusters get no edges. ``gamma`` is the merge threshold the graph
    carries to ``aggregate_components``.
    """
    if not gamma > 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    s = clusters.cluster_count
    if len(voxels) != s:
        raise UsageError("voxel list length must match cluster count")
    alive = ~clusters.tombstone

    occupancy: dict[tuple[int, int, int], list[int]] = {}
    for k in range(s):
        if not alive[k]:
            continue
        for key in map(tuple, voxels[k]):
            occupancy.setdefault(key, []).append(k)

    adjacency = np.zeros((s, s), dtype=bool)
    for k in range(s):
        if not alive[k] or len(voxels[k]) == 0:
            continue
        neighbors = voxels[k][:, None, :] + _NEIGHBOR_OFFSETS[None, :, :]
        for key in map(tuple, neighbors.reshape(-1, 3)):
            for j in occupancy.get(key, ()):
                if j != k:
                    adjacency[k, j] = True
                    adjacency[j, k] = True

    feats = clusters.features
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    weights = np.where(adjacency, dist, 0.0)
    return ConnectivityGraph(weights=weights, adjacency=adjacency, alive=alive, gamma=gamma)


def aggregate_components(graph: ConnectivityGraph, labels: np.ndarray) -> InstanceResult:
    """Connected components over adjacent live cluster pairs whose feature
    distance is <= graph.gamma (inclusive of exact zero), relabeled 0..m-1
    by descending member-point count (ties: smallest member cluster id).
    Tombstoned clusters belong to no instance.
    """
    labels = np.asarray(labels, dtype=np.int64)
    alive = graph.alive
    merge = graph.adjacency & (graph.weights <= graph.gamma) & np.outer(alive, alive)
    count, component = connected_components(merge, directed=False)

    # components of tombstoned clusters are singletons, dropped here
    _, first = np.unique(component, return_index=True)  # smallest member id
    point_counts = np.bincount(component[labels], minlength=count)
    kept = np.flatnonzero(alive[first])
    ordered = kept[np.lexsort((first[kept], -point_counts[kept]))]
    component_to_instance = np.full(count, -1, dtype=np.int64)
    component_to_instance[ordered] = np.arange(ordered.size)

    inst_labels = component_to_instance[component][labels]
    if (inst_labels < 0).any():
        raise AssertionError("a point mapped to a tombstoned cluster")

    sizes = np.bincount(inst_labels, minlength=ordered.size)
    return InstanceResult(labels=inst_labels, sizes=sizes)


def instantiate(
    positions: np.ndarray,
    features: np.ndarray,
    s: int = DEFAULT_SAMPLES,
    r: float = DEFAULT_VOXEL_SIZE,
    gamma: float = DEFAULT_GAMMA,
    lambda_pos: float = DEFAULT_LAMBDA_POS,
    seed: int = 0,
) -> InstanceResult:
    """Full pipeline: cluster space -> FPS -> k-means -> voxels -> graph ->
    aggregation. The FPS start index is a seeded uniform draw."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n < s:
        raise UsageError(f"need at least {s} points, got {n}")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    x = build_cluster_space(positions, features, lambda_pos)
    seeds = farthest_point_sample(x, s, start)
    state = kmeans_cluster(x, features, seeds)
    voxels = voxelize_subobjects(positions, state.labels, r, state.cluster_count)
    graph = build_connectivity_graph(state, voxels, gamma)
    return aggregate_components(graph, state.labels)


def save_labels(path: str, labels: np.ndarray, instance_count: int) -> None:
    """IGLB layout: magic, u32 version, u32 n, u32 m, then n u32 labels."""
    labels = np.asarray(labels)
    payload = [
        LABELS_MAGIC,
        pack_u32(LABELS_VERSION, labels.size, instance_count),
        np.ascontiguousarray(labels, dtype="<u4").tobytes(),
    ]
    write_atomic(path, b"".join(payload))


def load_labels(path: str) -> tuple[np.ndarray, int]:
    r = read_file(path)
    r.expect_magic(LABELS_MAGIC)
    r.expect_version(LABELS_VERSION)
    n, m = r.u32(), r.u32()
    labels = r.u32_array(n)
    r.done()
    return labels.astype(np.int64), m
