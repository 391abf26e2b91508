"""Bottom-up instance extraction from trained splats.

The pipeline over-segments the scene into many sub-objects and then merges
them back into whole instances:

1. embed every point into a joint space X = [lambda_pos * PE(mu_hat); f]
   (positions normalized to the scene's centered unit cube, sinusoidal
   positional encoding with two frequency bands plus the raw coordinates),
2. farthest-point-sample s seeds in that space (a round recomputes only
   the rows its new seed can reach),
3. Lloyd k-means from those seeds (ties to the lower cluster id, empty
   clusters tombstoned rather than reseeded) in one reused (n, s) distance
   buffer,
4. voxelize each sub-object's member points,
5. connect sub-objects that share or 26-neighbor voxels (one sorted join
   over all live voxels), weighting edges by the L2 distance of their mean
   features,
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
# bytes per row block of the k-means distance finish and assignment, sized
# so a block stays in a core's L2 cache
KMEANS_BLOCK_BYTES = 1 << 18
# Slack on the FPS skip test. A d-dimensional squared distance carries about
# (d + 2) ulps of relative error, far inside the relative margin; the
# absolute term covers sums that fall to subnormals.
_FPS_REL_MARGIN = 1e-9
_FPS_ABS_MARGIN = 1e-300

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
    """Greedy max-min selection in Euclidean space, ties to the smallest index.

    A round recomputes only the rows its new seed can reach. A point whose
    nearest earlier seed c lies at squared distance m keeps m when the new
    seed p has |p - c|^2 > 4 m: by the triangle inequality p is then farther
    from the point than c is (Elkan 2003). The skip test carries a relative
    and an absolute margin, so a skipped row's own distance to p would round
    to no less than m, and computed rows use a full pass's row expression:
    the minima keep their bits and the chosen indices match a full recompute.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not (1 <= s <= n):
        raise UsageError(f"sample count {s} out of range for {n} points")
    if not (0 <= start < n):
        raise UsageError(f"start index {start} out of range")
    if not np.isfinite(points).all():
        raise DataError("sample points must be finite")
    chosen = np.empty(s, dtype=np.int64)
    chosen[0] = start
    # Selected points get -1 so duplicates never re-pick them (unchosen >= 0),
    # and a -1 row never passes the skip test, so it is never recomputed.
    min_d2 = ((points - points[start]) ** 2).sum(axis=1)
    min_d2[start] = -1.0
    owner = np.zeros(n, dtype=np.int64)  # round whose seed set min_d2
    for i in range(1, s):
        nxt = int(np.argmax(min_d2))
        chosen[i] = nxt
        p = points[nxt]
        seed_d2 = ((points[chosen[:i]] - p) ** 2).sum(axis=1)
        # an overflowed (inf) minimum gives an inf bound, so its row is computed
        bound = min_d2 * (4.0 * (1.0 + _FPS_REL_MARGIN)) + _FPS_ABS_MARGIN
        rows = np.flatnonzero(seed_d2[owner] <= bound)
        d2 = ((points[rows] - p) ** 2).sum(axis=1)
        closer = d2 < min_d2[rows]
        rows = rows[closer]
        min_d2[rows] = d2[closer]
        owner[rows] = i
        min_d2[nxt] = -1.0
    return chosen


def _cluster_sums(labels: np.ndarray, values: np.ndarray, s: int, keys: np.ndarray) -> np.ndarray:
    """(s, w) sums of the rows of ``values`` per label. One bincount over
    label * w + channel keys, built in ``keys`` ((n, w) int64), adds each
    bin's rows in index order, as one bincount per channel does."""
    w = values.shape[1]
    np.add((labels * w)[:, None], np.arange(w), out=keys)
    return np.bincount(keys.ravel(), weights=values.ravel(), minlength=s * w).reshape(s, w)


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

    Every iteration reuses one (n, s) float64 distance buffer, a scratch of
    about ``KMEANS_BLOCK_BYTES`` (at least one row of s), and (n, d) residual
    and key arrays, with the arithmetic of ``oracles.lloyd_oracle``, so the
    results match it bit for bit.
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
    rows = max(1, KMEANS_BLOCK_BYTES // (8 * s))
    d2 = np.empty((n, s))
    scratch = np.empty((min(n, rows), s))
    resid = np.empty_like(x)
    keys = np.empty(x.shape, dtype=np.int64)

    for iterations in range(1, max_iters + 1):
        # d2 = (|x|^2 + |c|^2) - 2 x.c, finished in row blocks. The product
        # is one call: a row-blocked GEMM rounds differently. Scaling the
        # centers by 2 scales every product and partial sum exactly, so
        # x.(2c) has the bits of 2 (x.c).
        c_sq = (centers * centers).sum(axis=1)
        np.matmul(x, (2.0 * centers).T, out=d2)
        dead = np.flatnonzero(tombstone)
        for lo in range(0, n, rows):
            block = d2[lo:lo + rows]
            near = scratch[:block.shape[0]]
            np.add(x_sq[lo:lo + rows, None], c_sq, out=near)
            np.subtract(near, block, out=block)
            if dead.size:
                block[:, dead] = np.inf
            np.argmin(block, axis=1, out=labels[lo:lo + rows])

        counts = np.bincount(labels, minlength=s)
        new_centers = centers.copy()
        sums = _cluster_sums(labels, x, s, keys)
        live = counts > 0
        new_centers[live] = sums[live] / counts[live, None]
        tombstone |= ~live

        # labels lie in [0, s): clip never fires, and unlike the default
        # raise mode it writes to ``out`` without buffering a copy
        np.take(new_centers, labels, axis=0, out=resid, mode="clip")
        np.subtract(x, resid, out=resid)
        np.square(resid, out=resid)
        objective = float(resid.sum())
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
    features = np.asarray(features)
    feat_means = _cluster_sums(labels, features, s, np.empty(features.shape, dtype=np.int64))
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
    """Per-cluster sorted unique (v, 3) int64 voxel keys, key =
    floor(position / r); (0, 3) for an empty cluster."""
    if not r > 0:
        raise UsageError(f"voxel size must be positive, got {r}")
    positions = np.asarray(positions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != positions.shape[:1]:
        raise UsageError(f"{labels.size} labels for {positions.shape[0]} positions")
    if labels.size and not (0 <= labels.min() and labels.max() < cluster_count):
        raise UsageError(f"labels must lie in [0, {cluster_count})")
    keys = np.floor(positions / r)
    # 2^62 leaves room for the +-1 neighbor offsets in int64
    if not (np.abs(keys) < 2.0**62).all():
        raise UsageError(f"voxel size {r} puts voxel keys at or beyond 2^62")
    # Rank each axis, then the (x, y) and (xy, z) rank pairs, so a cell packs
    # into one int64 below n and (label, cell) below cluster_count * n; the
    # ranks keep the order, so one 1-D unique sorts by (label, x, y, z).
    (ux, rx), (uy, ry), (uz, rz) = (np.unique(axis_keys, return_inverse=True)
                                    for axis_keys in keys.astype(np.int64).T)
    uxy, rxy = np.unique(rx * uy.size + ry, return_inverse=True)
    ucell, rcell = np.unique(rxy * uz.size + rz, return_inverse=True)
    owner, cell = np.divmod(np.unique(labels * ucell.size + rcell), ucell.size)
    xy, z = np.divmod(ucell[cell], uz.size)
    x, y = np.divmod(uxy[xy], uy.size)
    member_keys = np.column_stack([ux[x], uy[y], uz[z]])
    bounds = np.searchsorted(owner, np.arange(cluster_count + 1))
    return [member_keys[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense 0-based rank of every entry of ``values`` (same shape), and the
    number of distinct values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(values.shape), distinct.size


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
    live = np.flatnonzero(alive)
    cells = np.concatenate([voxels[k] for k in live] + [np.zeros((0, 3), dtype=np.int64)])
    owner = np.repeat(live, [len(voxels[k]) for k in live])

    # Rank each axis over key - 1, key, key + 1, then (x, y) pairs, so a
    # cell packs into one int64 below 27 V^2 whatever the keys' magnitude.
    (rx, _), (ry, ny), (rz, nz) = (_ranks(cells[:, axis] + np.array([[-1], [0], [1]]))
                                   for axis in range(3))
    rxy, _ = _ranks(rx[:, None] * ny + ry[None, :])  # (3, 3, V): x shift, y shift
    # every voxel probes its 27 neighbor cells in the sorted occupied cells;
    # visiting voxels in cell order keeps each probe pass walking in order
    codes = rxy[1, 1] * nz + rz[1]
    order = np.argsort(codes)
    occupied, owner, rxy, rz = codes[order], owner[order], rxy[:, :, order], rz[:, order]

    adjacency = np.zeros((s, s), dtype=bool)
    for dx, dy, dz in _NEIGHBOR_OFFSETS + 1:
        probe = rxy[dx, dy] * nz + rz[dz]
        lo = np.searchsorted(occupied, probe, "left")
        hits = np.searchsorted(occupied, probe, "right") - lo
        # one (prober, occupant) pair per match, run by run
        prober = np.repeat(np.arange(probe.size), hits)
        slot = np.arange(prober.size) - np.repeat(np.cumsum(hits) - hits - lo, hits)
        adjacency[owner[prober], owner[slot]] = True
    np.fill_diagonal(adjacency, False)

    # f_i - f_j is exactly -(f_j - f_i): one triangle gives both halves' bits
    rows, cols = np.nonzero(np.triu(adjacency))
    diff = clusters.features[rows] - clusters.features[cols]
    dist = np.sqrt((diff * diff).sum(axis=1))
    weights = np.zeros((s, s), dtype=dist.dtype)
    weights[rows, cols] = weights[cols, rows] = dist
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
