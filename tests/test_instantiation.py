import numpy as np
import pytest

from igsplat.errors import UsageError
from igsplat.instantiation import (
    ClusterState,
    aggregate_components,
    build_cluster_space,
    build_connectivity_graph,
    farthest_point_sample,
    instantiate,
    kmeans_cluster,
    load_labels,
    save_labels,
    voxelize_subobjects,
)
from igsplat.oracles import dfs_components, fps_oracle


def test_fps_line_example():
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    assert farthest_point_sample(pts, 3, 0).tolist() == [0, 3, 2]


def test_fps_full_sample_returns_everything():
    pts = np.random.default_rng(0).normal(size=(12, 4))
    for start in (0, 5, 11):
        idx = farthest_point_sample(pts, 12, start)
        assert sorted(idx.tolist()) == list(range(12))


def test_fps_matches_bruteforce():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(20, 120))
        s = int(rng.integers(2, min(n, 30)))
        pts = rng.normal(size=(n, 5))
        start = int(rng.integers(n))
        assert np.array_equal(farthest_point_sample(pts, s, start),
                              fps_oracle(pts, s, start))


def test_fps_duplicate_points_stay_distinct():
    pts = np.zeros((6, 3))
    idx = farthest_point_sample(pts, 4, 2)
    assert len(set(idx.tolist())) == 4


def test_fps_rejects_bad_counts():
    pts = np.zeros((4, 2))
    with pytest.raises(UsageError):
        farthest_point_sample(pts, 5, 0)
    with pytest.raises(UsageError):
        farthest_point_sample(pts, 2, 7)


def test_cluster_space_center_point_encoding():
    positions = np.array([[0.0, 0, 0], [2.0, 2, 2], [-2.0, -2, -2]])
    features = np.random.default_rng(2).uniform(size=(3, 6))
    x = build_cluster_space(positions, features, lambda_pos=1.0)
    assert x.shape == (3, 21)
    # the first point sits at the bounding-box center: raw and sin blocks 0
    assert np.allclose(x[0, :3], 0.0)
    assert np.allclose(x[0, 3:6], 0.0)   # sin(pi * 0)
    assert np.allclose(x[0, 6:9], 1.0)   # cos(pi * 0)
    assert np.allclose(x[0, 9:12], 0.0)  # sin(2 pi * 0)
    assert np.allclose(x[0, 12:15], 1.0)
    assert np.array_equal(x[:, 15:], features)


def test_cluster_space_position_blind_at_zero_lambda():
    rng = np.random.default_rng(3)
    x = build_cluster_space(rng.normal(size=(10, 3)), rng.uniform(size=(10, 6)), 0.0)
    assert not x[:, :15].any()


def test_cluster_space_matches_reference_formula():
    rng = np.random.default_rng(4)
    positions = rng.normal(size=(30, 3))
    features = rng.uniform(size=(30, 6))
    lam = 0.7
    x = build_cluster_space(positions, features, lam)

    lo, hi = positions.min(0), positions.max(0)
    unit = (positions - (lo + hi) / 2) / (hi - lo)
    ref = np.zeros((30, 21))
    for i in range(30):
        pe = list(unit[i])
        for band in range(2):
            f = (2.0 ** band) * np.pi
            pe.extend(np.sin(f * unit[i]))
            pe.extend(np.cos(f * unit[i]))
        # reference layout groups sin/cos per band, matching positional_encode
        pe = np.concatenate([
            unit[i],
            np.sin(np.pi * unit[i]), np.cos(np.pi * unit[i]),
            np.sin(2 * np.pi * unit[i]), np.cos(2 * np.pi * unit[i]),
        ])
        ref[i] = np.concatenate([lam * pe, features[i]])
    assert np.allclose(x, ref, atol=1e-6)


def test_kmeans_singleton_clusters():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(15, 21))
    state = kmeans_cluster(x, x[:, 15:], np.arange(15))
    assert state.objective == 0.0
    assert state.iterations == 1
    assert sorted(state.labels.tolist()) == list(range(15))


def test_kmeans_separable_blobs():
    rng = np.random.default_rng(6)
    blob_a = rng.normal(size=(40, 3)) * 0.05
    blob_b = rng.normal(size=(40, 3)) * 0.05 + 10.0
    positions = np.vstack([blob_a, blob_b])
    features = rng.uniform(size=(80, 6)) * 0.01
    x = build_cluster_space(positions, features, 1.0)
    state = kmeans_cluster(x, features, np.array([0, 40]))
    assert len(set(state.labels[:40].tolist())) == 1
    assert len(set(state.labels[40:].tolist())) == 1
    assert state.labels[0] != state.labels[40]


def test_kmeans_objective_monotone():
    rng = np.random.default_rng(7)
    for trial in range(10):
        x = rng.normal(size=(100, 21))
        init = farthest_point_sample(x, 8, 0)
        state = kmeans_cluster(x, x[:, 15:], init)
        hist = state.objective_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12


def test_kmeans_assignment_tie_goes_to_lower_id():
    x = np.array([[-1.0], [1.0], [0.0]])
    state = kmeans_cluster(x, np.zeros((3, 6)), np.array([0, 1]), max_iters=1)
    assert state.labels[2] == 0  # equidistant from both centers


def test_kmeans_tombstones_empty_clusters():
    # second seed duplicates the first point, so it drains immediately
    x = np.array([[0.0], [0.0], [5.0], [5.1]])
    state = kmeans_cluster(x, np.zeros((4, 6)), np.array([0, 1, 2]))
    assert state.tombstone.sum() == 1
    assert not state.tombstone[0] and not state.tombstone[2]


def test_kmeans_rejects_duplicate_init():
    with pytest.raises(UsageError):
        kmeans_cluster(np.zeros((4, 2)), np.zeros((4, 6)), np.array([1, 1]))


def test_voxelize_same_and_adjacent_cells():
    positions = np.array([[0.01, 0, 0], [0.04, 0, 0], [0.09, 0, 0], [0.11, 0, 0]])
    labels = np.array([0, 0, 1, 2])
    voxels = voxelize_subobjects(positions, labels, 0.1, 3)
    assert voxels[0].tolist() == [[0, 0, 0]]
    assert voxels[1].tolist() == [[0, 0, 0]]
    assert voxels[2].tolist() == [[1, 0, 0]]


def test_voxelize_matches_hash_grid_oracle():
    rng = np.random.default_rng(8)
    positions = rng.uniform(-2, 2, size=(200, 3))
    labels = rng.integers(0, 7, size=200)
    r = 0.37
    voxels = voxelize_subobjects(positions, labels, r, 7)
    oracle: dict[int, set] = {k: set() for k in range(7)}
    for p, l in zip(positions, labels):
        oracle[int(l)].add(tuple(int(np.floor(c / r)) for c in p))
    for k in range(7):
        assert set(map(tuple, voxels[k])) == oracle[k]


def test_voxelize_rejects_bad_resolution():
    with pytest.raises(UsageError):
        voxelize_subobjects(np.zeros((2, 3)), np.zeros(2, dtype=int), 0.0, 1)


def cluster_state_from(labels, features):
    labels = np.asarray(labels)
    s = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=s)
    f = np.zeros((s, 6))
    for k in range(s):
        if counts[k]:
            f[k] = features[labels == k].mean(axis=0)
    return ClusterState(
        labels=labels, features=f, tombstone=counts == 0, objective=0.0, iterations=1,
    )


def test_graph_gates_by_adjacency():
    positions = np.array([[0.0, 0, 0], [0.05, 0, 0], [5.0, 0, 0], [5.05, 0, 0]])
    labels = np.array([0, 0, 1, 1])
    features = np.zeros((4, 6))  # identical features everywhere
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.2, 2)
    graph = build_connectivity_graph(state, voxels, 0.1)
    assert not graph.adjacency[0, 1]
    assert graph.weights[0, 1] == 0.0


def test_graph_edge_weight_is_feature_distance():
    positions = np.array([[0.0, 0, 0], [0.15, 0, 0]])
    labels = np.array([0, 1])
    features = np.zeros((2, 6))
    features[1, 0] = 0.05
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.2, 2)
    graph = build_connectivity_graph(state, voxels, 0.1)
    assert graph.adjacency[0, 1]
    assert graph.weights[0, 1] == pytest.approx(0.05)
    assert graph.weights[1, 0] == graph.weights[0, 1]


def test_graph_symmetry_on_random_instances():
    rng = np.random.default_rng(9)
    positions = rng.uniform(-1, 1, size=(120, 3))
    features = rng.uniform(size=(120, 6))
    labels = rng.integers(0, 12, size=120)
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.4, 12)
    graph = build_connectivity_graph(state, voxels, 0.5)
    assert np.array_equal(graph.weights, graph.weights.T)
    assert not graph.weights.diagonal().any()


def test_aggregate_chain_example():
    # A-B close in feature space, B-C adjacent but far: components {A,B}, {C}
    positions = np.array([[0.0, 0, 0], [0.15, 0, 0], [0.3, 0, 0]])
    labels = np.array([0, 1, 2])
    features = np.zeros((3, 6))
    features[1, 0] = 0.05
    features[2, 0] = 0.55
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.2, 3)
    graph = build_connectivity_graph(state, voxels, 0.1)
    result = aggregate_components(graph, labels)
    assert result.instance_count == 2
    assert result.labels[0] == result.labels[1] != result.labels[2]


def test_aggregate_no_edges_keeps_alive_clusters():
    positions = np.array([[0.0, 0, 0], [5.0, 0, 0], [10.0, 0, 0]])
    labels = np.array([0, 1, 2])
    features = np.random.default_rng(10).uniform(size=(3, 6))
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.2, 3)
    graph = build_connectivity_graph(state, voxels, 0.1)
    result = aggregate_components(graph, labels)
    assert result.instance_count == 3


def test_aggregate_merges_zero_distance_pairs():
    positions = np.array([[0.0, 0, 0], [0.15, 0, 0]])
    labels = np.array([0, 1])
    features = np.zeros((2, 6))
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.2, 2)
    graph = build_connectivity_graph(state, voxels, 0.1)
    result = aggregate_components(graph, labels)
    assert result.instance_count == 1


def test_aggregate_relabels_largest_first_then_smallest_member():
    # Components {4, 6} (6 points), {2, 7} and {3} (4 points each), {1}
    # (1 point); clusters 0 and 5 are tombstoned. {3}'s points come first
    # and its only id is below {2, 7}'s largest, yet {2, 7} wins the tie.
    cluster_x = {3: 4.0, 2: 2.0, 7: 2.25, 4: 0.0, 6: 0.25, 1: 6.0}
    labels = np.array([3, 3, 7, 2, 3, 7, 2, 3, 6, 4, 6, 1, 4, 6, 4])
    positions = np.zeros((labels.size, 3))
    positions[:, 0] = [cluster_x[k] for k in labels]
    features = np.zeros((labels.size, 6))
    state = cluster_state_from(labels, features)
    assert state.tombstone.tolist() == [True, False, False, False, False, True, False, False]
    voxels = voxelize_subobjects(positions, labels, 0.2, 8)
    graph = build_connectivity_graph(state, voxels, 0.1)
    result = aggregate_components(graph, labels)
    assert result.sizes.tolist() == [6, 4, 4, 1]
    instance_of = {k: int(result.labels[labels == k][0]) for k in cluster_x}
    assert instance_of == {4: 0, 6: 0, 2: 1, 7: 1, 3: 2, 1: 3}


def random_graph_instance(rng, s):
    n = s * 6
    positions = rng.uniform(-1, 1, size=(n, 3))
    features = rng.uniform(size=(n, 6)) * rng.uniform(0.2, 1.0)
    labels = rng.integers(0, s, size=n)
    labels[:s] = np.arange(s)  # every cluster non-empty
    state = cluster_state_from(labels, features)
    voxels = voxelize_subobjects(positions, labels, 0.5, s)
    gamma = float(rng.uniform(0.1, 0.8))
    graph = build_connectivity_graph(state, voxels, gamma)
    return state, voxels, graph, labels


def test_aggregate_matches_dfs_on_random_graphs():
    rng = np.random.default_rng(11)
    for trial in range(20):
        s = int(rng.integers(5, 30))
        state, voxels, graph, labels = random_graph_instance(rng, s)
        result = aggregate_components(graph, labels)
        merge = graph.adjacency & (graph.weights <= graph.gamma)
        comp = dfs_components(merge, graph.alive)
        for i in range(s):
            for j in range(s):
                if graph.alive[i] and graph.alive[j]:
                    ours_same = (result.labels[labels == i][0] == result.labels[labels == j][0])
                    assert ours_same == (comp[i] == comp[j])


def test_gamma_monotone_refinement():
    rng = np.random.default_rng(12)
    for trial in range(10):
        s = int(rng.integers(5, 25))
        state, voxels, _, labels = random_graph_instance(rng, s)
        g1, g2 = sorted(rng.uniform(0.05, 0.9, size=2))
        a = aggregate_components(build_connectivity_graph(state, voxels, g1), labels)
        b = aggregate_components(build_connectivity_graph(state, voxels, g2), labels)
        # partition at the smaller gamma refines the one at the larger gamma
        for inst in range(a.instance_count):
            members = b.labels[a.labels == inst]
            assert len(set(members.tolist())) == 1
        assert a.instance_count >= b.instance_count


def test_instance_sizes_count_members():
    rng = np.random.default_rng(13)
    s = 10
    _, _, graph, labels = random_graph_instance(rng, s)
    result = aggregate_components(graph, labels)
    for inst in range(result.instance_count):
        assert result.sizes[inst] == (result.labels == inst).sum()
    assert result.sizes.sum() == len(labels)  # every point labeled exactly once


def blob_scene(rng, centers, feature_protos, points_each=60):
    positions, features = [], []
    for c, f in zip(centers, feature_protos):
        positions.append(c + rng.normal(scale=0.04, size=(points_each, 3)))
        features.append(np.tile(f, (points_each, 1)) + rng.normal(scale=0.003, size=(points_each, 6)))
    return np.concatenate(positions), np.concatenate(features)


def test_instantiate_recovers_separated_blobs():
    rng = np.random.default_rng(14)
    centers = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 3, 0]])
    protos = np.eye(3, 6)
    positions, features = blob_scene(rng, centers, protos)
    result = instantiate(positions, features, s=30, r=0.2, gamma=0.1, seed=0)
    assert result.instance_count == 3
    gt = np.repeat(np.arange(3), 60)
    for k in range(3):
        assert len(set(result.labels[gt == k].tolist())) == 1


def test_instantiate_noop_when_s_equals_object_count():
    rng = np.random.default_rng(15)
    centers = np.array([[0.0, 0, 0], [4.0, 0, 0]])
    protos = np.array([np.zeros(6), np.ones(6)])
    positions, features = blob_scene(rng, centers, protos, points_each=40)
    result = instantiate(positions, features, s=2, r=0.2, gamma=0.05, seed=1)
    assert result.instance_count == 2


def test_instantiate_stable_across_seeds():
    rng = np.random.default_rng(16)
    centers = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 3, 0], [3.0, 3, 0]])
    protos = np.eye(4, 6) * 0.9
    positions, features = blob_scene(rng, centers, protos)
    reference = None
    for seed in range(5):
        result = instantiate(positions, features, s=25, r=0.2, gamma=0.1, seed=seed)
        relabel = {}
        canon = tuple(relabel.setdefault(int(l), len(relabel)) for l in result.labels)
        assert result.instance_count == 4
        if reference is None:
            reference = canon
        assert canon == reference


def test_instantiate_rejects_too_few_points():
    with pytest.raises(UsageError):
        instantiate(np.zeros((5, 3)), np.zeros((5, 6)), s=10)


def test_labels_file_roundtrip(tmp_path):
    labels = np.array([0, 1, 1, 2, 0], dtype=np.int64)
    path = str(tmp_path / "labels.iglb")
    save_labels(path, labels, 3)
    loaded, m = load_labels(path)
    assert m == 3
    assert np.array_equal(loaded, labels)
    assert open(path, "rb").read()[:4] == b"IGLB"
