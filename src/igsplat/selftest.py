"""Built-in invariant battery behind ``igsplat selftest``.

A fast subset of the property checks the test suite runs in full: gradient
agreement with finite differences, loss identities, sampler and clustering
invariants, and component-aggregation correctness on random graphs.
"""
from __future__ import annotations

import numpy as np

from .instantiation import (
    aggregate_components,
    build_cluster_space,
    build_connectivity_graph,
    farthest_point_sample,
    kmeans_cluster,
    voxelize_subobjects,
)
from .losses import loss_contrast_truncated, loss_rgb, loss_smooth, MaskView, NO_MASK
from .oracles import central_differences, dfs_components, fps_oracle
from .renderer import Camera, render, render_backward
from .scene_model import ModelConfig, decode_gaussians, init_anchors, init_decoder


def _check_fps(rng) -> None:
    pts = rng.normal(size=(60, 4))
    got = farthest_point_sample(pts, 12, 3)
    want = fps_oracle(pts, 12, 3)
    assert np.array_equal(got, want), f"{got} != {want}"


def _check_kmeans(rng) -> None:
    pts = rng.normal(size=(120, 3))
    feats = rng.normal(size=(120, 6))
    x = build_cluster_space(pts, feats)
    init = farthest_point_sample(x, 10, 0)
    state = kmeans_cluster(x, feats, init)
    hist = state.objective_history
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:])), "objective rose"


def _check_components(rng) -> None:
    s = 24
    pts = rng.uniform(-1, 1, size=(200, 3))
    feats = rng.uniform(0, 1, size=(200, 6))
    x = build_cluster_space(pts, feats)
    init = farthest_point_sample(x, s, 0)
    state = kmeans_cluster(x, feats, init)
    voxels = voxelize_subobjects(pts, state.labels, 0.5, state.cluster_count)
    graph = build_connectivity_graph(state, voxels, 0.8)
    result = aggregate_components(graph, state.labels)

    seen = dfs_components(graph.adjacency & (graph.weights <= 0.8), graph.alive)
    for i in range(s):
        for j in range(s):
            if graph.alive[i] and graph.alive[j]:
                ours = result.labels[state.labels == i][0] if (state.labels == i).any() else None
                theirs = result.labels[state.labels == j][0] if (state.labels == j).any() else None
                if ours is None or theirs is None:
                    continue
                assert (seen[i] == seen[j]) == (ours == theirs), "partition mismatch"


def _check_losses() -> None:
    means = np.zeros((2, 6))
    means[1, 0] = 0.5
    value, _, _ = loss_contrast_truncated(means, 0.4)
    assert value == 4.0, value
    ids = np.full((4, 4), NO_MASK, dtype=np.uint32)
    ids[0, 0] = 0
    ids[0, 1] = 0
    feat = np.zeros((4, 4, 6))
    feat[0, 1, 0] = 1.0
    view = MaskView(ids=ids, count=1)
    value, _, _, _, _ = loss_smooth(feat, view)
    assert abs(value - 0.25) < 1e-12, value


def _check_gradients(rng) -> None:
    anchors = init_anchors(rng.uniform(-0.4, 0.4, size=(2, 3)), ModelConfig(), 5)
    decoder = init_decoder(16, 0.3, 0.25, 6)
    splats = decode_gaussians(anchors, decoder)
    camera = Camera(
        fx=20.0, fy=20.0, cx=3.5, cy=3.5, width=8, height=8,
        rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]),
    )
    out = render(splats, camera)
    g_color = rng.normal(size=out.color.shape)
    grads, _ = render_backward(out, grad_color=g_color)
    idx = 3
    fds = central_differences(lambda: (render(splats, camera).color * g_color).sum(),
                              splats.centers, 1e-5, indices=range(3 * idx, 3 * idx + 3))
    for an, fd in zip(grads.centers[idx], fds):
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd)), f"center grad {an} vs fd {fd}"


def _check_rgb() -> None:
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(6, 6, 3))
    value, _ = loss_rgb(a, a)
    assert value == 0.0


CHECKS = [
    ("fps_vs_oracle", _check_fps),
    ("kmeans_objective", _check_kmeans),
    ("component_aggregation", _check_components),
    ("loss_identities", lambda rng: _check_losses()),
    ("render_gradients", _check_gradients),
    ("rgb_loss", lambda rng: _check_rgb()),
]


def run() -> list[tuple[str, str]]:
    failures = []
    rng = np.random.default_rng(20240817)
    for name, check in CHECKS:
        try:
            check(rng)
            print(f"ok {name}")
        except Exception as exc:  # report every failure, keep going
            failures.append((name, str(exc)))
    return failures
