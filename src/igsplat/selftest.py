"""Built-in invariant battery behind ``igsplat selftest``.

A fast subset of the property checks the test suite runs in full: the
renderer's contribution list against a dense scan, its transmittances
against a per-pixel product, its color and feature composite against a
per-pixel sum in depth order, render and decode gradient agreement with
finite differences, the backward's runs of rows against the default runs,
its per-splat value sums against per-group sums in contribution order,
the span records of the forward's two row ranges against those of one,
loss identities, sampler and clustering invariants, and voxel-adjacency
and component-aggregation correctness on random graphs.
"""
from __future__ import annotations

import platform
from unittest import mock

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
from .oracles import (
    central_differences,
    composite_oracle,
    contributions_oracle,
    dfs_components,
    fps_oracle,
    group_slot_sums_oracle,
    lloyd_oracle,
    transmittance_oracle,
    voxel_adjacency,
)
from . import renderer
from .renderer import Camera, _build_contributions, rasterize, render, render_backward
from .scene_model import (
    HEAD_ORDER,
    ModelConfig,
    SplatSet,
    decode_backward,
    decode_gaussians,
    init_anchors,
    init_decoder,
    parameters,
)


def _check_contributions(rng) -> None:
    # 80 disks, partly off a 12x10 image: pixels with dozens of contributors
    n = 80
    u, v, r = rng.uniform(-2, 14, n), rng.uniform(-2, 12, n), rng.uniform(0.3, 8.0, n)
    got = _build_contributions(u, v, r, 12, 10)
    want = contributions_oracle(u, v, r, 12, 10)
    assert np.bincount(want[0]).max() >= 24, "view not crowded"
    for name, a, b in zip(("pix", "slot", "d2", "seg_start", "seg_pix"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"{name} differs from dense scan"


def _check_transmittance(rng) -> None:
    # 1500 splats crowding a 48x48 view, so rows hold thousands of
    # contributions: every transmittance within 5e-12 relative of its
    # pixel's own product
    n = 1500
    centers = np.column_stack([rng.uniform(-0.9, 0.9, n), rng.uniform(-0.9, 0.9, n),
                               rng.uniform(2.0, 3.0, n)])
    splats = SplatSet(centers=centers, colors=rng.uniform(size=(n, 3)),
                      opacities=rng.uniform(0.05, 0.995, n), scales=rng.uniform(0.05, 0.1, n),
                      features=rng.normal(size=(n, 6)), parent=np.zeros(n, dtype=np.int64))
    camera = Camera(fx=48.0, fy=48.0, cx=24.0, cy=24.0, width=48, height=48,
                    rotation=np.eye(3), translation=np.zeros(3))
    ras = rasterize(splats, camera)
    want = transmittance_oracle(ras.alpha_i, ras.seg_start)
    assert ras.slot.size >= 50_000, "view not crowded"
    worst = float((np.abs(ras.trans - want) / want).max())
    assert worst <= 5e-12, f"transmittance {worst:.2e} off the per-pixel product"


def _check_composite(rng) -> None:
    # 300 splats crowding a 16x16 view: render's color and feature bits
    # against a per-pixel sum of weight * value in depth order
    n = 300
    centers = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n),
                               rng.uniform(2.0, 3.0, n)])
    splats = SplatSet(centers=centers, colors=rng.uniform(size=(n, 3)),
                      opacities=rng.uniform(0.05, 1.5, n), scales=rng.uniform(0.05, 0.2, n),
                      features=rng.normal(size=(n, 6)), parent=np.zeros(n, dtype=np.int64))
    camera = Camera(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16,
                    rotation=np.eye(3), translation=np.zeros(3))
    out = render(splats, camera)
    assert np.diff(out.seg_start, append=out.slot.size).max() >= 40, "view not crowded"
    for name, values in (("color", splats.colors), ("feature", splats.features)):
        assert composite_oracle(out, values).tobytes() == getattr(out, name).tobytes(), \
            f"{name} differs from the per-pixel composite"


def _check_fps(rng) -> None:
    # duplicated points on a dyadic lattice: exact distance ties everywhere
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    for pts in (rng.normal(size=(60, 4)), np.repeat(grid * 0.5, 2, axis=0)):
        got = farthest_point_sample(pts, 30, 3)
        want = fps_oracle(pts, 30, 3)
        assert np.array_equal(got, want), f"{got} != {want}"


def _check_kmeans(rng) -> None:
    pts = rng.normal(size=(120, 3))
    feats = rng.normal(size=(120, 6))
    x = build_cluster_space(pts, feats)
    init = farthest_point_sample(x, 10, 0)
    state = kmeans_cluster(x, feats, init)
    hist = state.objective_history
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:])), "objective rose"
    want = lloyd_oracle(x, feats, init)
    assert state.labels.tobytes() == want.labels.tobytes(), "labels differ from plain Lloyd"
    assert state.features.tobytes() == want.features.tobytes(), "features differ from plain Lloyd"
    assert hist == want.objective_history, "objectives differ from plain Lloyd"


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
    assert np.array_equal(graph.adjacency, voxel_adjacency(voxels, graph.alive)), "adjacency mismatch"

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
    g_feature = rng.normal(size=out.feature.shape)
    color_grads, feature_grads = render_backward(out, g_color, g_feature, feature_geometry=True)
    idx = 3
    # the color chain's centres; the feature chain's opacity and features
    for name, grad, image, g_image, values in [
        ("center", color_grads.centers[idx], "color", g_color, splats.centers),
        ("opacity", feature_grads.opacities[idx:idx + 1], "feature", g_feature, splats.opacities),
        ("feature", feature_grads.features[idx], "feature", g_feature, splats.features),
    ]:
        fds = central_differences(lambda: (getattr(render(splats, camera), image) * g_image).sum(),
                                  values, 1e-5, range(idx * grad.size, (idx + 1) * grad.size))
        assert grad.any(), f"{name} grad is zero"
        for an, fd in zip(grad, fds):
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd)), f"{name} grad {an} vs fd {fd}"


def _check_decode_gradients(rng) -> None:
    # a 2-anchor model, probed at the largest entry of the embeddings'
    # gradient and of each head's w2 gradient
    anchors = init_anchors(rng.uniform(-0.4, 0.4, size=(2, 3)), ModelConfig(), 7)
    decoder = init_decoder(16, 0.3, 0.25, 8)
    splats = decode_gaussians(anchors, decoder)
    upstream = {name: rng.normal(size=getattr(splats, name).shape)
                for name in ("centers", "colors", "opacities", "scales", "features")}
    grads = decode_backward(anchors, decoder, splats,
                            **{f"d_{name}": g for name, g in upstream.items()})
    params = parameters(anchors, decoder)

    def objective():
        decoded = decode_gaussians(anchors, decoder)
        return sum((getattr(decoded, name) * g).sum() for name, g in upstream.items())

    for name in ["embeddings"] + [f"decoder.{head}.w2" for head in HEAD_ORDER]:
        idx = int(np.argmax(np.abs(grads[name])))
        (fd,) = central_differences(objective, params[name], 1e-5, [idx])
        an = grads[name].flat[idx]
        assert an != 0.0, f"{name} grad is zero"
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd)), f"{name} grad {an} vs fd {fd}"


def _crowded_output(rng):
    # 60 splats crowding a 12x10 view: pixels of two dozen contributors
    n = 60
    centers = np.column_stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
                               rng.uniform(0.0, 1.0, n)])
    splats = SplatSet(centers=centers, colors=rng.uniform(size=(n, 3)),
                      opacities=rng.uniform(0.1, 1.5, n), scales=rng.uniform(0.05, 0.4, n),
                      features=rng.normal(size=(n, 6)), parent=np.zeros(n, dtype=np.int64))
    camera = Camera(fx=12.0, fy=12.0, cx=5.5, cy=4.5, width=12, height=10,
                    rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
    out = render(splats, camera)
    assert np.diff(out.seg_start, append=out.slot.size).max() >= 24, "view not crowded"
    return out


def _check_backward_runs(rng) -> None:
    # the crowded view's backward in runs of one row, and in runs of a size
    # that starts one at the row of its most crowded pixel off the lane
    # groups' first rows, must give the bytes of the default runs, on every
    # mode
    out = _crowded_output(rng)
    splats, camera = out.splats, out.camera
    seg_len = np.diff(out.seg_start, append=out.slot.size)
    # the contributions before each row, and the run size that counts from
    # the first row of the crowded row's group to that row
    seg_row = out.seg_pix // camera.width
    before = np.append(out.seg_start, out.slot.size)[
        np.searchsorted(seg_row, np.arange(camera.height + 1))]
    group_rows = [int(group[0][0].start) for group in renderer._row_runs(before)]
    crowded = int(seg_row[np.argmax(np.where(np.isin(seg_row, group_rows), 0, seg_len))])
    size = int(before[crowded] - before[max(row for row in group_rows if row < crowded)])
    g_color, g_feature = rng.normal(size=out.color.shape), rng.normal(size=out.feature.shape)
    for kwargs in ({}, {"grad_feature": g_feature},
                   {"grad_feature": g_feature, "feature_geometry": True}):
        default = render_backward(out, g_color, **kwargs)
        for split_by, rows in (("runs of one row", 1), ("a run at the crowded row", size)):
            with mock.patch.object(renderer, "_SEGMENT_ROWS", rows):
                starts = {run[0].start for group in renderer._row_runs(before) for run in group}
                assert crowded in starts, f"no run starts at row {crowded}"
                chains = render_backward(out, g_color, **kwargs)
            for one, split in zip(default, chains):
                for name, got in vars(split).items():
                    assert got.tobytes() == getattr(one, name).tobytes(), \
                        f"{name} differs between the default runs and {split_by}"


def _check_backward_groups(rng) -> None:
    # the crowded view's direct weight * grad sums against each lane
    # group's sums in contribution order, added in row order: the same
    # bytes where the build does not fuse the multiply-add (x86-64), else
    # within the recursive-summation bound 2 (n + 1) eps sum |terms|
    out = _crowded_output(rng)
    grad_color, grad_feature = rng.normal(size=out.color.shape), rng.normal(size=out.feature.shape)
    chains = render_backward(out, grad_color, grad_feature)
    pixels = np.repeat(out.seg_pix, np.diff(out.seg_start, append=out.slot.size))
    before = np.append(out.seg_start, out.slot.size)[
        np.searchsorted(out.seg_pix, np.arange(out.camera.height + 1) * out.camera.width)]
    groups = [set(out.slot[group[0][1].start:group[-1][1].stop].tolist())
              for group in renderer._row_runs(before)]
    assert len(groups) == renderer.LANES and set.intersection(*groups), "no splat straddles the groups"
    terms_per_slot = np.bincount(out.slot, minlength=out.projected.count)
    for grads, field, grad_img in zip(chains, ("colors", "features"), (grad_color, grad_feature)):
        flat = grad_img.reshape(-1, grad_img.shape[2])
        got = getattr(grads, field)[out.projected.indices]
        for ch in range(flat.shape[1]):
            terms = out.alpha_i * out.trans * flat[pixels, ch]
            want = group_slot_sums_oracle(out, terms)
            if platform.machine() in ("x86_64", "AMD64"):
                assert got[:, ch].tobytes() == want.tobytes(), f"{field} differ from the group sums"
            scale = np.bincount(out.slot, weights=np.abs(terms), minlength=out.projected.count)
            bound = 2 * (terms_per_slot + 1) * np.finfo(float).eps * scale
            assert (np.abs(got[:, ch] - want) <= bound).all(), f"{field} beyond the summation bound"


def _check_records_in_ranges(rng) -> None:
    # the crowded view's span records built in its two row ranges, as the
    # forward's first phase builds them, against those built over the
    # whole image: each range's records are the whole image's of its rows,
    # in order, and the ranges' row offsets add up to the whole image's
    out = _crowded_output(rng)
    proj, camera = out.projected, out.camera
    args = (proj.u, proj.v, proj.radius_px, camera.width, camera.height)
    ranges = renderer._record_rows(*args)
    assert len(ranges) == renderer.LANES, "view not cut into two row ranges"
    whole = renderer._span_records(*args, slice(0, camera.height))
    parts = [renderer._span_records(*args, rows) for rows in ranges]
    names = ("rec_slot", "row_ptr", "lo", "counts", "u_rec", "dv2")
    for name, one, *split in zip(names, whole, *parts):
        got = sum(split) if name == "row_ptr" else np.concatenate(split)
        assert got.dtype == one.dtype and got.tobytes() == one.tobytes(), \
            f"{name} differs between two row ranges and one"


def _check_rgb() -> None:
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(6, 6, 3))
    value, _ = loss_rgb(a, a)
    assert value == 0.0


CHECKS = [
    ("contributions_vs_oracle", _check_contributions),
    ("fps_vs_oracle", _check_fps),
    ("kmeans_vs_oracle", _check_kmeans),
    ("component_aggregation", _check_components),
    ("loss_identities", lambda rng: _check_losses()),
    ("render_gradients", _check_gradients),
    ("backward_runs", _check_backward_runs),
    ("decode_gradients", _check_decode_gradients),
    ("rgb_loss", lambda rng: _check_rgb()),
    ("transmittance_vs_oracle", _check_transmittance),
    ("composite_vs_oracle", _check_composite),
    ("backward_groups_vs_oracle", _check_backward_groups),
    ("records_two_ranges_vs_one", _check_records_in_ranges),
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
