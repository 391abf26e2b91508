"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 6-10 share the session-scoped ``bench`` fixture (8-object scene,
~2000 anchors, 20 views at 64x64, 300/300/400 schedule) plus comparison
trainings; the property criteria run on fresh random instances every time.
"""
import dataclasses
import hashlib
import json
import os
import time

import numpy as np

from conftest import BENCH_INSTANTIATE, BENCH_NUM_CLASSES, bench_config_json
from igsplat.association import associate_embeddings, render_instance_id_map, semantic_assign
from igsplat.cli import main as cli_main
from igsplat.evaluation import instance_metrics, semantic_metrics
from igsplat.instantiation import (
    aggregate_components,
    build_cluster_space,
    build_connectivity_graph,
    farthest_point_sample,
    instantiate,
    kmeans_cluster,
    voxelize_subobjects,
)
from igsplat.losses import (
    NO_MASK,
    MaskView,
    loss_contrast_truncated,
    loss_rgb,
    loss_smooth,
)
from igsplat.oracles import central_differences, dfs_components, fps_oracle, relative_errors
from igsplat.renderer import Camera, render, render_backward
from igsplat.scene_model import (
    ModelConfig,
    decode_backward,
    decode_gaussians,
    init_anchors,
    init_decoder,
)
from igsplat.synthdata import class_prototypes, load_scene_dir


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


# --- criterion 1: analytic gradients vs central finite differences --------


def fd_check(objective, array, analytic, h=1e-4):
    return relative_errors(analytic.ravel(), central_differences(objective, array, h)).max()


def render_fd_suite(rng):
    from igsplat.scene_model import SplatSet

    n = 8
    centers = np.column_stack(
        [rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n), np.linspace(0.0, 1.4, n)]
    )
    splats = SplatSet(
        centers=centers,
        colors=rng.uniform(0.2, 0.8, (n, 3)),
        opacities=rng.uniform(0.3, 0.7, n),
        scales=rng.uniform(0.9, 1.3, n),  # footprints cover the whole image:
        features=rng.uniform(size=(n, 6)),  # stable ordering, no cutoff flips
        parent=np.zeros(n, dtype=np.int64),
    )
    cam = Camera(fx=20.0, fy=20.0, cx=3.5, cy=3.5, width=8, height=8,
                 rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
    g_color = rng.normal(size=(8, 8, 3))
    g_feat = rng.normal(size=(8, 8, 6))
    color_grads, feature_grads = render_backward(
        render(splats, cam), g_color, g_feat, feature_geometry=True
    )
    grads = color_grads + feature_grads

    def objective():
        out = render(splats, cam)
        return (out.color * g_color).sum() + (out.feature * g_feat).sum()

    worst = 0.0
    for name in ("colors", "features", "opacities", "scales", "centers"):
        worst = max(worst, fd_check(objective, getattr(splats, name), getattr(grads, name)))
    return worst


def decode_fd_suite(rng):
    anchors = init_anchors(rng.uniform(-0.4, 0.4, (2, 3)), ModelConfig(), 21)
    decoder = init_decoder(16, 0.3, 0.2, 22)
    d = {
        "centers": rng.normal(size=(10, 3)),
        "colors": rng.normal(size=(10, 3)),
        "opacities": rng.normal(size=10),
        "scales": rng.normal(size=10),
        "features": rng.normal(size=(10, 6)),
    }
    a_grads, d_grads = decode_backward(
        anchors, decoder, d["centers"], d["colors"], d["opacities"], d["scales"], d["features"]
    )

    def objective():
        s = decode_gaussians(anchors, decoder)
        return (
            (s.centers * d["centers"]).sum() + (s.colors * d["colors"]).sum()
            + (s.opacities * d["opacities"]).sum() + (s.scales * d["scales"]).sum()
            + (s.features * d["features"]).sum()
        )

    worst = fd_check(objective, anchors.embeddings, a_grads.embeddings)
    worst = max(worst, fd_check(objective, anchors.positions, a_grads.positions))
    worst = max(worst, fd_check(objective, anchors.features, a_grads.features))
    for head in ("offset", "color", "opacity", "scale"):
        for tensor in ("w1", "b1", "w2", "b2"):
            worst = max(
                worst,
                fd_check(objective, getattr(decoder.head(head), tensor),
                         getattr(d_grads.head(head), tensor)),
            )
    return worst


def loss_fd_suite(rng):
    worst = 0.0
    a = rng.uniform(size=(8, 8, 3))
    b = rng.uniform(size=(8, 8, 3))
    _, grad = loss_rgb(a, b)
    worst = max(worst, fd_check(lambda: loss_rgb(a, b)[0], a, grad))

    ids = np.full((8, 8), NO_MASK, dtype=np.uint32)
    ids[:4, :] = 0
    ids[4:, :5] = 1
    view = MaskView(ids=ids, count=2)
    feat = rng.uniform(size=(8, 8, 6))
    _, sgrad, _, _, _ = loss_smooth(feat, view)
    worst = max(worst, fd_check(lambda: loss_smooth(feat, view)[0], feat, sgrad))

    means = rng.uniform(size=(5, 6)) * 0.5
    _, cgrad, _ = loss_contrast_truncated(means, 0.9)
    worst = max(worst, fd_check(lambda: loss_contrast_truncated(means, 0.9)[0], means, cgrad))
    return worst


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = max(render_fd_suite(rng), decode_fd_suite(rng), loss_fd_suite(rng))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


# --- criterion 2: loss identities ------------------------------------------


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        means = rng.uniform(size=(m, 6)) * 0.2  # all pairwise d2 < 0.24 < tau
        truncated = loss_contrast_truncated(means, 0.4)
        unbounded = loss_contrast_truncated(means, np.inf)
        assert truncated[0] == unbounded[0]
        assert truncated[1].tobytes() == unbounded[1].tobytes()

    ids = np.full((8, 8), NO_MASK, dtype=np.uint32)
    ids[:3, :] = 0
    ids[5:, 2:] = 1
    view = MaskView(ids=ids, count=2)
    feat = np.zeros((8, 8, 6))
    grid = rng.integers(0, 1024, size=(2, 6)) / 1024.0  # dyadic: exact means
    feat[ids == 0] = grid[0]
    feat[ids == 1] = grid[1]
    value, grad, _, _, _ = loss_smooth(feat, view)
    assert value == 0.0
    assert not grad.any()

    means = np.zeros((2, 6))
    means[1, 0] = 0.5
    value, _, _ = loss_contrast_truncated(means, 0.4)
    assert value == 4.0
    report(2, "truncated == plain contrastive below tau (1000x), "
              "mask-constant smoothness == 0, hand value == 4.0 exactly")


# --- criterion 3: farthest point sampling vs brute force -------------------


def test_criterion_3_fps_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(10, 501))
        s = int(rng.integers(2, min(n, 50) + 1))
        dim = int(rng.integers(1, 22))
        pts = rng.normal(size=(n, dim))
        start = int(rng.integers(n))
        assert np.array_equal(farthest_point_sample(pts, s, start),
                              fps_oracle(pts, s, start)), f"trial {trial}"
    report(3, "greedy selection matches the brute-force oracle on 100 instances")


# --- criterion 4: connected components vs DFS + gamma monotonicity ---------


def make_cluster_instance(rng, s):
    n = s * 5
    positions = rng.uniform(-1, 1, size=(n, 3))
    features = rng.uniform(size=(n, 6)) * rng.uniform(0.2, 1.0)
    labels = rng.integers(0, s, size=n)
    labels[:s] = np.arange(s)
    x = build_cluster_space(positions, features, 0.5)
    state = kmeans_cluster(x, features, np.arange(s), max_iters=3)
    voxels = voxelize_subobjects(positions, state.labels, 0.5, state.cluster_count)
    return state, voxels


def test_criterion_4_components_and_monotonicity():
    rng = np.random.default_rng(13)
    for trial in range(100):
        s = int(rng.integers(4, 51))
        state, voxels = make_cluster_instance(rng, s)
        g1, g2 = np.sort(rng.uniform(0.05, 0.9, size=2))
        graph1 = build_connectivity_graph(state, voxels, float(g1))
        graph2 = build_connectivity_graph(state, voxels, float(g2))
        res1 = aggregate_components(graph1, state.labels)
        res2 = aggregate_components(graph2, state.labels)

        comp = dfs_components(graph2.adjacency & (graph2.weights <= g2), graph2.alive)
        cluster_inst = {}
        for k in range(s):
            if graph2.alive[k] and (state.labels == k).any():
                cluster_inst[k] = int(res2.labels[state.labels == k][0])
        for i in cluster_inst:
            for j in cluster_inst:
                assert (comp[i] == comp[j]) == (cluster_inst[i] == cluster_inst[j])

        # the partition at the smaller gamma refines the larger-gamma one
        for inst in range(res1.instance_count):
            coarse = res2.labels[res1.labels == inst]
            assert len(set(coarse.tolist())) == 1
        assert res1.instance_count >= res2.instance_count
    report(4, "connected components equal DFS partitions and gamma refinement holds on 100 graphs")


# --- criterion 5: k-means objective behavior --------------------------------


def test_criterion_5_kmeans():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(30, 200))
        s = int(rng.integers(2, 20))
        x = rng.normal(size=(n, 21))
        init = farthest_point_sample(x, s, int(rng.integers(n)))
        state = kmeans_cluster(x, x[:, 15:21], init)
        hist = state.objective_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12
    x = rng.normal(size=(40, 21))
    state = kmeans_cluster(x, x[:, 15:21], np.arange(40))
    assert state.objective == 0.0
    report(5, "objective non-increasing on 50 instances; s == n gives objective 0")


# --- criteria 6-10: the synthetic end-to-end benchmark ----------------------


def run_instantiate(splats, seed=None):
    p = dict(BENCH_INSTANTIATE)
    if seed is not None:
        p["seed"] = seed
    return instantiate(splats.centers, splats.features, s=p["s"], r=p["r"],
                       gamma=p["gamma"], lambda_pos=p["lambda_pos"], seed=p["seed"])


def test_criterion_6_end_to_end(bench):
    t0 = time.perf_counter()
    result = run_instantiate(bench["splats"])
    miou, macc = instance_metrics(result.labels, bench["gt_splat_instances"])
    segment_time = time.perf_counter() - t0
    total = bench["timings"]["generate"] + bench["timings"]["train"] + segment_time
    assert result.instance_count == 8, f"recovered {result.instance_count} instances"
    assert miou >= 0.85, f"instance mIoU {miou}"
    assert total <= 600.0, f"end-to-end took {total:.0f}s"
    bench["result"] = result
    report(6, f"m == 8, instance mIoU {miou:.4f}, end-to-end {total:.0f}s")


def test_criterion_7_progressive_beats_frozen(bench):
    full = run_instantiate(bench["splats"])
    frozen = run_instantiate(bench["splats_frozen"])
    miou_full, _ = instance_metrics(full.labels, bench["gt_splat_instances"])
    miou_frozen, _ = instance_metrics(frozen.labels, bench["gt_splat_instances"])
    margin = miou_full - miou_frozen
    assert margin >= 0.02, f"margin {margin:.4f}"
    report(7, f"progressive {miou_full:.4f} vs appearance-frozen {miou_frozen:.4f} "
              f"(margin {margin:.4f})")


def segmentation_with(splats, node_features=None, voxel_gate=True):
    p = BENCH_INSTANTIATE
    x = build_cluster_space(splats.centers, splats.features, p["lambda_pos"])
    rng = np.random.default_rng(p["seed"])
    seeds = farthest_point_sample(x, p["s"], int(rng.integers(len(x))))
    state = kmeans_cluster(x, splats.features, seeds)
    voxels = voxelize_subobjects(splats.centers, state.labels, p["r"], state.cluster_count)
    if node_features is not None:
        state = dataclasses.replace(state, features=node_features(state))
    graph = build_connectivity_graph(state, voxels, p["gamma"])
    if not voxel_gate:
        alive = graph.alive[:, None] & graph.alive[None, :]
        graph.adjacency = alive & ~np.eye(len(graph.alive), dtype=bool)
        diff = state.features[:, None, :] - state.features[None, :, :]
        graph.weights = np.where(graph.adjacency, np.sqrt((diff * diff).sum(2)), 0.0)
    return aggregate_components(graph, state.labels)


def test_criterion_8_aggregation_condition_ordering(bench):
    splats = bench["splats"]
    gt = bench["gt_splat_instances"]
    full = segmentation_with(splats)
    feature_only = segmentation_with(splats, voxel_gate=False)

    def mean_colors(state):
        counts = np.bincount(state.labels, minlength=state.cluster_count)
        out = np.zeros((state.cluster_count, 6))
        for ch in range(3):
            out[:, ch] = np.bincount(state.labels, weights=splats.colors[:, ch],
                                     minlength=state.cluster_count)
        out[counts > 0, :3] /= counts[counts > 0, None]
        return out

    color_sub = segmentation_with(splats, node_features=mean_colors)
    miou_full, _ = instance_metrics(full.labels, gt)
    miou_feat, _ = instance_metrics(feature_only.labels, gt)
    miou_color, _ = instance_metrics(color_sub.labels, gt)
    assert miou_full >= miou_feat >= miou_color
    report(8, f"feature+voxel {miou_full:.4f} >= feature-only {miou_feat:.4f} "
              f">= color-substitute {miou_color:.4f}")


def test_criterion_9_mask_corruption_robustness(bench):
    clean = run_instantiate(bench["splats"])
    dropped = run_instantiate(bench["splats_drop"])
    miou_clean, _ = instance_metrics(clean.labels, bench["gt_splat_instances"])
    miou_drop, _ = instance_metrics(dropped.labels, bench["gt_splat_instances_drop"])
    degradation = miou_clean - miou_drop
    assert degradation <= 0.10, f"degradation {degradation:.4f}"
    report(9, f"p_drop=0.1 mIoU {miou_drop:.4f} vs clean {miou_clean:.4f} "
              f"(degradation {degradation:.4f})")


def test_criterion_10_open_vocabulary_path(bench):
    result = run_instantiate(bench["splats"])
    (_, _, _, _, _, cameras, _, masks) = load_scene_dir(bench["scene_dir"])
    id_maps = [render_instance_id_map(bench["splats"], result.labels, cam)
               for cam in cameras]
    table = associate_embeddings(id_maps, masks, result.instance_count)
    protos = class_prototypes(BENCH_NUM_CLASSES, table.dim)
    point_classes, inst_classes = semantic_assign(protos, table, result.labels)

    gt_classes = bench["gt_splat_classes"]
    correct = 0
    for k in range(result.instance_count):
        member_classes = gt_classes[result.labels == k]
        true_class = np.bincount(member_classes).argmax()
        correct += int(inst_classes[k] == true_class)
    recovery = correct / result.instance_count
    _, semantic_miou, _ = semantic_metrics(point_classes, gt_classes, BENCH_NUM_CLASSES)
    assert recovery >= 0.90, f"class recovery {recovery:.2f}"
    assert semantic_miou >= 0.8, f"semantic mIoU {semantic_miou:.4f}"
    report(10, f"instance-class recovery {correct}/{result.instance_count}, "
               f"semantic mIoU {semantic_miou:.4f}")


# --- criterion 11: bitwise determinism of the pipeline ----------------------


def hash_tree(root):
    digests = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            digests[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return digests


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg = bench_config_json("")
    # shrink to a fast variant: determinism does not depend on scale
    cfg["scene"]["synth"].update(points_per_object=60, num_cameras=8, image_size=32)
    cfg["train"].update(total_steps=45, t1=15, t2=30)
    cfg["instantiate"].update(samples=25)
    hashes = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        cfg["output"] = out
        config_path = str(tmp_path / f"{run}.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        for stage in ("generate", "train", "instantiate", "associate", "query",
                      "eval", "export-ply"):
            assert cli_main([stage, "--config", config_path]) == 0, stage
        hashes.append(hash_tree(out))
    assert hashes[0] == hashes[1]
    report(11, f"two runs produced identical bytes for {len(hashes[0])} artifacts")
