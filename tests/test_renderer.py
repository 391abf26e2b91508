import platform
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csc_matvec

from igsplat.errors import DataError, NumericalError
from igsplat import renderer
from igsplat.oracles import central_differences, contributions_oracle, relative_errors
from igsplat.renderer import (
    BACKWARD_BYTES_PER_CONTRIBUTION,
    CONTRIBUTION_BUDGET,
    RASTER_BYTES_PER_CONTRIBUTION,
    Camera,
    ProjectedSplats,
    _build_contributions,
    load_camera,
    project_splats,
    raster_bands,
    rasterize,
    read_raw_f32,
    render,
    render_backward,
    save_camera,
    write_raw_f32,
)
from igsplat.scene_model import SplatSet

from helpers import add_grads, contributors


def identity_camera(size=8, fx=20.0, offset=2.0):
    c = (size - 1) / 2.0
    return Camera(
        fx=fx, fy=fx, cx=c, cy=c, width=size, height=size,
        rotation=np.eye(3), translation=np.array([0.0, 0.0, offset]),
    )


def make_splats(centers, colors=None, opacities=None, scales=None, features=None):
    centers = np.asarray(centers, dtype=np.float64)
    n = len(centers)
    if colors is None:
        colors = np.full((n, 3), 0.5)
    if opacities is None:
        opacities = np.full(n, 0.5)
    if scales is None:
        scales = np.full(n, 0.1)
    if features is None:
        features = np.tile(np.arange(6) / 6.0, (n, 1))
    return SplatSet(
        centers=centers,
        colors=np.asarray(colors, dtype=np.float64),
        opacities=np.asarray(opacities, dtype=np.float64),
        scales=np.asarray(scales, dtype=np.float64),
        features=np.asarray(features, dtype=np.float64),
        parent=np.zeros(n, dtype=np.int64),
    )


def random_cover_scene(n=5, seed=0, size=8):
    """Splats whose footprints cover the whole image and whose depths are
    well separated: no cutoff boundary or ordering flips under small
    perturbations, so finite differences stay valid."""
    rng = np.random.default_rng(seed)
    centers = np.column_stack(
        [rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n), np.linspace(0.0, 1.2, n)]
    )
    splats = make_splats(
        centers,
        colors=rng.uniform(0.2, 0.8, (n, 3)),
        opacities=rng.uniform(0.3, 0.7, n),
        scales=rng.uniform(0.9, 1.3, n),  # pixel radius >> image diagonal
        features=rng.uniform(0.0, 1.0, (n, 6)),
    )
    return splats, identity_camera(size=size)


def test_pixel_radius_formula():
    splats = make_splats([[0.0, 0.0, 2.0]], scales=[0.1])
    cam = identity_camera(fx=100.0, offset=0.0)
    proj = project_splats(splats, cam)
    assert proj.radius_px[0] == pytest.approx(3 * 0.1 * 100.0 / 2.0)
    assert proj.radius_px[0] == pytest.approx(15.0)


def test_behind_camera_is_culled():
    splats = make_splats([[0.0, 0.0, -1.0], [0.0, 0.0, 0.005], [0.0, 0.0, 1.0]])
    proj = project_splats(splats, identity_camera(offset=0.0))
    assert proj.indices.tolist() == [2]


def test_equal_depth_ties_break_by_index():
    splats = make_splats([[0.1, 0.0, 1.0], [-0.1, 0.0, 1.0], [0.0, 0.1, 1.0]])
    proj = project_splats(splats, identity_camera(offset=0.0))
    assert proj.indices.tolist() == [0, 1, 2]


def test_no_splats_renders_zero_images():
    splats = make_splats(np.zeros((0, 3)))
    out = render(splats, identity_camera())
    assert not out.color.any() and not out.feature.any() and not out.alpha.any()


def test_peak_alpha_clamped():
    # splat projected exactly onto pixel (3, 3); opacity 1 -> alpha clamps
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) * 2.0 / cam.fx
    splats = make_splats([[x, x, 2.0]], colors=[[1.0, 0.6, 0.2]], opacities=[1.0], scales=[0.2])
    out = render(splats, cam)
    assert out.color[3, 3, 0] == pytest.approx(0.99 * 1.0)
    assert out.color[3, 3, 1] == pytest.approx(0.99 * 0.6)
    assert out.alpha[3, 3] == pytest.approx(0.99)


def test_hand_compositing_two_overlapping_splats():
    # both centered exactly on one pixel with opacity 0.5: the Gaussian is 1
    # at zero distance, so alpha = 0.5 each and value = 0.5 x1 + 0.25 x2
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) / cam.fx
    c1, c2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    splats = make_splats(
        [[x * 1.0, x * 1.0, 1.0], [x * 2.0, x * 2.0, 2.0]],
        colors=[c1, c2], opacities=[0.5, 0.5], scales=[0.05, 0.1],
    )
    out = render(splats, cam)
    assert out.color[3, 3, 0] == pytest.approx(0.5, abs=1e-12)
    assert out.color[3, 3, 1] == pytest.approx(0.25, abs=1e-12)
    f = splats.features[0]
    assert out.feature[3, 3, 0] == pytest.approx(0.5 * f[0] + 0.25 * f[0], abs=1e-12)


def test_transmittance_non_increasing_and_weights_bounded():
    splats, cam = random_cover_scene(n=6, seed=3)
    out = render(splats, cam)
    for start, stop in zip(out.seg_start, list(out.seg_start[1:]) + [len(out.pix)]):
        trans = out.trans[start:stop]
        assert np.all(np.diff(trans) <= 1e-15)
    per_pixel = np.bincount(out.pix, weights=out.alpha_i * out.trans)
    assert per_pixel.max() <= 1.0 + 1e-12
    assert out.alpha.min() >= 0.0 and out.alpha.max() <= 1.0


def test_order_permutation_rendered_identically():
    splats, cam = random_cover_scene(n=7, seed=5)
    out = render(splats, cam)
    perm = np.random.default_rng(0).permutation(splats.count)
    permuted = SplatSet(
        centers=splats.centers[perm],
        colors=splats.colors[perm],
        opacities=splats.opacities[perm],
        scales=splats.scales[perm],
        features=splats.features[perm],
        parent=splats.parent[perm],
    )
    out2 = render(permuted, cam)
    # depths are distinct, so re-sorting restores one global order
    assert out.color.tobytes() == out2.color.tobytes()
    assert out.feature.tobytes() == out2.feature.tobytes()
    assert out.alpha.tobytes() == out2.alpha.tobytes()


def test_features_equal_colors_reproduce_color_image():
    splats, cam = random_cover_scene(n=5, seed=8)
    feats = splats.features.copy()
    feats[:, :3] = splats.colors
    splats2 = SplatSet(splats.centers, splats.colors, splats.opacities,
                       splats.scales, feats, splats.parent)
    out = render(splats2, cam)
    assert out.feature[:, :, :3].tobytes() == out.color.tobytes()


def reference_render(splats, cam):
    """Per-pixel reference compositor: python loops, no shared machinery."""
    h, w = cam.height, cam.width
    color = np.zeros((h, w, 3))
    feature = np.zeros((h, w, 6))
    alpha_img = np.zeros((h, w))
    cam_pts = splats.centers @ cam.rotation.T + cam.translation
    order = sorted(range(splats.count), key=lambda i: (cam_pts[i, 2], i))
    for row in range(h):
        for col in range(w):
            t = 1.0
            for i in order:
                x, y, z = cam_pts[i]
                if z <= 0.01:
                    continue
                u = cam.fx * x / z + cam.cx
                v = cam.fy * y / z + cam.cy
                sigma = splats.scales[i] * cam.fx / z
                radius = 3.0 * sigma
                d2 = (col - u) ** 2 + (row - v) ** 2
                if d2 > radius * radius:
                    continue
                a = min(0.99, splats.opacities[i] * np.exp(-d2 / (2 * sigma * sigma)))
                color[row, col] += a * t * splats.colors[i]
                feature[row, col] += a * t * splats.features[i]
                alpha_img[row, col] += a * t
                t *= 1.0 - a
    return color, feature, np.minimum(alpha_img, 1.0)


def test_forward_matches_per_pixel_reference():
    rng = np.random.default_rng(21)
    n = 6
    splats = make_splats(
        rng.uniform(-0.3, 0.3, (n, 3)) + [0, 0, 1.0],
        colors=rng.uniform(size=(n, 3)),
        opacities=rng.uniform(0.2, 0.9, n),
        scales=rng.uniform(0.05, 0.25, n),  # small, partially covering footprints
        features=rng.uniform(size=(n, 6)),
    )
    cam = identity_camera(size=10, fx=15.0, offset=1.5)
    out = render(splats, cam)
    ref_color, ref_feature, ref_alpha = reference_render(splats, cam)
    assert np.allclose(out.color, ref_color, atol=1e-12)
    assert np.allclose(out.feature, ref_feature, atol=1e-12)
    assert np.allclose(out.alpha, ref_alpha, atol=1e-12)


def assert_same_contributions(proj, cam):
    args = (proj.u, proj.v, proj.radius_px, cam.width, cam.height)
    built, expected = _build_contributions(*args), contributions_oracle(*args)
    assert expected[0].size > 0
    assert built is not None and len(built) == len(expected)
    for got, want in zip(built, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width,height", [(13, 9), (9, 13), (1, 7), (300, 230)])
def test_contributions_match_brute_force(width, height):
    rng = np.random.default_rng(width * 1000 + height)
    n = 40
    # centers spread past the frustum edges: partly and fully off-image splats
    centers = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n),
                               rng.uniform(0.5, 3.0, n)])
    scales = 10.0 ** rng.uniform(-3.5, -0.5, n)  # sub-pixel to a quarter image
    scales[:3] = [np.inf, np.nan, 1e-6]
    splats = make_splats(centers, scales=scales)
    fx = 0.6 * max(width, height)
    cam = Camera(fx=fx, fy=fx, cx=width / 2 - 0.3, cy=height / 2 + 0.2, width=width,
                 height=height, rotation=np.eye(3), translation=np.zeros(3))
    with np.errstate(invalid="ignore"):
        proj = project_splats(splats, cam)
        assert_same_contributions(proj, cam)
    assert (proj.radius_px < 1.0).sum() >= 5


def test_contributions_on_near_tangent_rows():
    # Rows that graze the cutoff circle, where the rounded d2 <= r*r test
    # keeps columns just past the computed half-chord sqrt(r*r - dv*dv):
    # at r = 2^30, dv == r exactly on row 0 (half-chord 0) while columns up
    # to 11 px either side stay in; at r = 1000, column 3 of row 0 lies
    # 1e-13 px beyond the half-chord and is kept.
    big = 2.0**30
    u = np.array([20.3, 5.0, 27.493060241626015])
    v = np.array([-big, 40 + big, -(1000.0 - 0.3)])
    r = np.array([big, big, 1000.0])
    proj = ProjectedSplats(
        indices=np.arange(3), u=u, v=v, radius_px=r,
        sigma_px=r / 3, cam_points=np.zeros((3, 3)),
    )
    cam = Camera(fx=1, fy=1, cx=0, cy=0, width=41, height=41,
                 rotation=np.eye(3), translation=np.zeros(3))
    assert_same_contributions(proj, cam)


def test_contributions_keep_depth_order_in_crowded_pixels():
    # 240 splats on four depths over a 24x20 image: pixels hold dozens of
    # contributors, with runs of equal depth that must stay in index order.
    # This pins the order the builder takes from scipy's CSR-to-CSC
    # transpose.
    rng = np.random.default_rng(7)
    n = 240
    centers = np.column_stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
                               rng.choice([1.5, 2.0, 2.5, 3.0], n)])
    splats = make_splats(centers, scales=rng.uniform(0.05, 0.15, n))
    cam = Camera(fx=24.0, fy=24.0, cx=11.7, cy=9.6, width=24, height=20,
                 rotation=np.eye(3), translation=np.zeros(3))
    proj = project_splats(splats, cam)
    assert_same_contributions(proj, cam)
    pix, slot = _build_contributions(proj.u, proj.v, proj.radius_px, cam.width, cam.height)[:2]
    assert np.bincount(pix).max() >= 40
    depth = proj.cam_points[slot, 2]
    assert ((pix[1:] == pix[:-1]) & (depth[1:] == depth[:-1])).sum() >= 1000


def test_transpose_equals_scipy_tocsc():
    # the bare csr_tocsc call against the scipy objects it replaces, on
    # random matrices with empty rows and columns, both data dtypes
    rng = np.random.default_rng(12)
    for rows, columns, nnz in ((1, 1, 0), (7, 5, 0), (40, 30, 300), (300, 500, 2000)):
        for data in (rng.normal(size=nnz), rng.integers(0, 1 << 40, nnz)):
            indptr = np.concatenate(([0], np.sort(rng.integers(0, nnz + 1, rows - 1)), [nnz]))
            indptr[1:-1:3] = indptr[:-2:3]  # every third row empty
            indices = rng.integers(0, max(columns // 2, 1), nnz)  # half the columns empty
            got = renderer._transpose(data, indices, indptr, columns)
            want = csr_matrix((data, indices, indptr), shape=(rows, columns)).tocsc()
            for a, b in zip(got, (want.data, want.indices, want.indptr)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_view(n=2000, size=128):
    """Many small overlapping splats: over 100k contributions, so the
    per-contribution arrays outweigh the per-splat and per-pixel ones."""
    rng = np.random.default_rng(21)
    centers = np.column_stack([rng.uniform(-0.9, 0.9, n), rng.uniform(-0.9, 0.9, n),
                               rng.uniform(2.0, 3.0, n)])
    splats = make_splats(centers, opacities=rng.uniform(0.05, 0.995, n),
                         scales=rng.uniform(0.02, 0.04, n))
    cam = Camera(fx=size, fy=size, cx=size / 2, cy=size / 2, width=size, height=size,
                 rotation=np.eye(3), translation=np.zeros(3))
    return splats, cam


def test_rasterize_peak_within_stated_bound():
    splats, cam = dense_view()
    rasterize(splats, cam)
    tracemalloc.start()
    try:
        ras = rasterize(splats, cam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ras.pix.size >= 100_000
    assert ras.clamped.any()
    assert peak <= RASTER_BYTES_PER_CONTRIBUTION * ras.pix.size, peak / ras.pix.size


def test_exploding_scales_exceed_contribution_budget():
    # every splat covers the whole 128x128 image, 2000 x 16384 contributions:
    # the builder raises from its per-(splat, row) records, before any
    # per-contribution array exists
    assert CONTRIBUTION_BUDGET >= 10 * 2_200_000  # ~2.2M: a 128x128 bench view at init
    splats, cam = dense_view()
    huge = SplatSet(splats.centers, splats.colors, splats.opacities, splats.scales * 1e4,
                    splats.features, splats.parent)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=f"makes {2000 * 128 * 128} contributions, "
                                                 f"over the budget of {CONTRIBUTION_BUDGET}"):
            rasterize(huge, cam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2000 * 128, peak / (2000 * 128)  # bytes per record


def test_raster_arrays_share_no_memory():
    splats, cam = dense_view(n=300, size=48)
    ras = rasterize(splats, cam)
    arrays = {name: value for name, value in vars(ras).items() if isinstance(value, np.ndarray)}
    assert ras.pix.size > 0 and len(arrays) == 9
    names = sorted(arrays)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not np.shares_memory(arrays[a], arrays[b]), (a, b)
        for name, value in vars(splats).items():
            assert not np.shares_memory(arrays[a], value), (a, name)


def test_contributor_list_accessor():
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) / cam.fx
    splats = make_splats(
        [[x, x, 1.0], [2 * x, 2 * x, 2.0]],
        opacities=[0.5, 0.5], scales=[0.05, 0.1],
    )
    out = render(splats, cam)
    entries = contributors(out, 3, 3)
    assert [int(s) for s, _, _ in entries] == [0, 1]
    assert entries[0][1] == pytest.approx(0.5)  # alpha of the front splat
    assert entries[0][2] == pytest.approx(1.0)  # full transmittance in front
    assert entries[1][2] == pytest.approx(0.5)
    assert contributors(out, 0, 0) == [] or all(a < 0.5 for _, a, _ in contributors(out, 0, 0))


GRAD_FIELDS = ("colors", "features", "opacities", "scales", "centers")
GEOMETRY_FIELDS = ("opacities", "scales", "centers")


def test_backward_zero_grads_give_zero():
    splats, cam = random_cover_scene()
    out = render(splats, cam)
    chains = render_backward(out, np.zeros((8, 8, 3)), np.zeros((8, 8, 6)), feature_geometry=True)
    for grads in chains:
        for field in GRAD_FIELDS:
            assert not getattr(grads, field).any()


def test_backward_single_splat_color_grad_is_alpha():
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) / cam.fx
    splats = make_splats([[x, x, 1.0]], opacities=[0.4], scales=[0.05])
    out = render(splats, cam)
    g = np.zeros((8, 8, 3))
    g[3, 3, 0] = 1.0
    grads, _ = render_backward(out, grad_color=g)
    assert grads.colors[0, 0] == pytest.approx(0.4, abs=1e-12)  # alpha * T, T = 1


def worst_fd_error(splats, objective, grads, fields, h=1e-4):
    """Largest relative gap between analytic gradients and central
    differences of ``objective``; asserts each entry is within 1e-4."""
    worst = 0.0
    for name in fields:
        analytic = getattr(grads, name).ravel()
        fd = central_differences(lambda: objective(splats), getattr(splats, name), h)
        rel = relative_errors(analytic, fd)
        bad = np.flatnonzero(~(rel <= 1e-4))
        assert bad.size == 0, f"{name}{bad}: analytic {analytic[bad]}, fd {fd[bad]}"
        worst = max(worst, rel.max())
    return worst


def test_backward_matches_finite_differences():
    splats, cam = random_cover_scene(n=5, seed=11)
    rng = np.random.default_rng(2)
    g_color = rng.normal(size=(8, 8, 3))
    g_feat = rng.normal(size=(8, 8, 6))
    out = render(splats, cam)
    color_grads, feature_grads = render_backward(out, g_color, g_feat, feature_geometry=True)

    def objective(s):
        o = render(s, cam)
        return (o.color * g_color).sum() + (o.feature * g_feat).sum()

    assert worst_fd_error(splats, objective, add_grads(color_grads, feature_grads), GRAD_FIELDS) <= 1e-4


@pytest.mark.parametrize("chain", ["color", "feature"])
def test_backward_chain_matches_finite_differences(chain):
    # each chain alone is the gradient of its own image objective
    splats, cam = random_cover_scene(n=5, seed=11)
    rng = np.random.default_rng(2)
    g_color = rng.normal(size=(8, 8, 3))
    g_feat = rng.normal(size=(8, 8, 6))
    color_grads, feature_grads = render_backward(
        render(splats, cam), g_color, g_feat, feature_geometry=True
    )
    grads, own, other = {
        "color": (color_grads, "colors", "features"),
        "feature": (feature_grads, "features", "colors"),
    }[chain]

    def objective(s):
        o = render(s, cam)
        return (o.color * g_color).sum() if chain == "color" else (o.feature * g_feat).sum()

    assert not getattr(grads, other).any()
    assert worst_fd_error(splats, objective, grads, (own,) + GEOMETRY_FIELDS) <= 1e-4


def clamping_scene():
    """40 splats at 16x16 in a mix of footprints, about a third of them
    opaque enough to hit the alpha clamp near their centres."""
    rng = np.random.default_rng(5)
    n = 40
    centers = np.column_stack(
        [rng.uniform(-0.4, 0.4, n), rng.uniform(-0.4, 0.4, n), rng.uniform(0.0, 1.5, n)]
    )
    splats = make_splats(
        centers,
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        opacities=np.where(rng.uniform(size=n) < 0.3, 1.5, rng.uniform(0.1, 0.9, n)),
        scales=rng.uniform(0.02, 0.3, n),
        features=rng.normal(size=(n, 6)),
    )
    return splats, identity_camera(size=16)


def test_fused_backward_chains_equal_single_chain_calls():
    splats, cam = clamping_scene()
    out = render(splats, cam)
    assert out.clamped.any() and not out.clamped.all()
    rng = np.random.default_rng(3)
    g_color = rng.normal(size=(16, 16, 3))
    g_feat = rng.normal(size=(16, 16, 6))
    for feature_geometry in (False, True):
        color_grads, feature_grads = render_backward(
            out, g_color, g_feat, feature_geometry=feature_geometry
        )
        color_only, empty = render_backward(out, grad_color=g_color)
        empty_too, feature_only = render_backward(
            out, grad_feature=g_feat, feature_geometry=feature_geometry
        )
        for field in GRAD_FIELDS:
            assert getattr(color_grads, field).tobytes() == getattr(color_only, field).tobytes()
            assert getattr(feature_grads, field).tobytes() == getattr(feature_only, field).tobytes()
            assert not getattr(empty, field).any() and not getattr(empty_too, field).any()
        assert not color_grads.features.any() and not feature_grads.colors.any()
        assert color_grads.centers.any() and feature_grads.features.any()
        for field in GEOMETRY_FIELDS:
            assert getattr(feature_grads, field).any() == feature_geometry


def test_backward_row_blocks_match_one_block(monkeypatch):
    # the gathers' row blocks and the blocks of whole segments, each forced
    # to one block over the view, and the latter to one segment per block
    splats, cam = dense_view()
    out = render(splats, cam)
    assert out.pix.size > 2 * renderer._GATHER_ROWS
    assert out.pix.size > 2 * renderer._SEGMENT_ROWS
    rng = np.random.default_rng(5)
    grad_color = rng.normal(size=out.color.shape)
    grad_feature = rng.normal(size=out.feature.shape)
    blocked = render_backward(out, grad_color, grad_feature, feature_geometry=True)
    view = (slice(0, out.pix.size), slice(0, out.seg_start.size))
    for name, rows, blocks in (("_GATHER_ROWS", out.pix.size, None),
                               ("_SEGMENT_ROWS", out.pix.size, 1),
                               ("_SEGMENT_ROWS", 1, out.seg_start.size)):
        with monkeypatch.context() as patch:
            patch.setattr(renderer, name, rows)
            if blocks:
                assert len(renderer._segment_blocks(out.seg_start, out.pix.size, *view)) == blocks
            whole = render_backward(out, grad_color, grad_feature, feature_geometry=True)
        for got, want in zip(blocked, whole):
            for field in GRAD_FIELDS:
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), \
                    (name, rows, field)


def test_composite_blocks_match_one_block(monkeypatch):
    # render's composites in blocks of whole segments: blocks of about 97
    # rows and of one segment each give the bytes of one block over the view
    splats, cam = dense_view(n=500, size=48)
    whole = render(splats, cam)
    assert 10 * 97 < whole.pix.size <= renderer._SEGMENT_ROWS
    for rows, blocks in ((97, None), (1, whole.seg_start.size)):
        with monkeypatch.context() as patch:
            patch.setattr(renderer, "_SEGMENT_ROWS", rows)
            if blocks:
                view = (slice(0, whole.pix.size), slice(0, whole.seg_start.size))
                assert len(renderer._segment_blocks(whole.seg_start, whole.pix.size, *view)) == blocks
            blocked = render(splats, cam)
        for name in ("color", "feature", "alpha"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), (rows, name)


def test_raster_bands_carry_the_one_band_bits():
    # runs of whole rows, down to one row each: concatenated, the runs are
    # the one-run raster byte for byte, the transmittance scan included
    splats, cam = dense_view(n=500, size=48)
    whole = rasterize(splats, cam)
    rows_with_pairs = np.unique(whole.seg_pix // cam.width).size
    for contributions in (1, 997, whole.pix.size // 3):
        runs = list(raster_bands(splats, cam, contributions))
        assert len(runs) > 1
        assert contributions > 1 or len(runs) == rows_with_pairs
        for field in ("pix", "slot", "alpha_i", "trans", "weight", "clamped", "seg_pix"):
            got = np.concatenate([getattr(run, field) for run in runs])
            assert got.dtype == getattr(whole, field).dtype
            assert got.tobytes() == getattr(whole, field).tobytes(), (contributions, field)
        firsts = np.cumsum([0] + [run.pix.size for run in runs[:-1]])
        starts = np.concatenate([run.seg_start + first for run, first in zip(runs, firsts)])
        assert starts.tobytes() == whole.seg_start.tobytes()
        assert sum(run.alpha for run in runs).tobytes() == whole.alpha.tobytes()
        # a run holds whole rows
        assert all(run.seg_pix[0] // cam.width > prev.seg_pix[-1] // cam.width
                   for prev, run in zip(runs, runs[1:]))
    behind = SplatSet(splats.centers * [1, 1, -1], splats.colors, splats.opacities,
                      splats.scales, splats.features, splats.parent)
    (empty,) = raster_bands(behind, cam, 10)
    assert empty.pix.size == 0 and not empty.alpha.any()


def test_csc_matvec_over_blocks_equals_bincount():
    # The backward's slot sums: scipy's private csc_matvec, one call per
    # block of consecutive terms, each block's terms the data of a
    # one-column matrix with the slots as row numbers, times 1.0, into one
    # zeroed array; against one bincount over all terms. Slot 7 has terms
    # in every block, slot 3 only negative zeros, and slot 49 none.
    rng = np.random.default_rng(13)
    slots, n = 50, 5000
    slot = rng.integers(0, slots - 1, n)
    slot[::97] = 7
    terms = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    terms[rng.integers(0, n, 200)] = -0.0
    terms[slot == 3] = -0.0
    want = np.bincount(slot, weights=terms, minlength=slots)
    for cuts in ([0, n], [0, 1, 2, 1000, 2500, n - 1, n], list(range(0, n, 7)) + [n]):
        got = np.zeros(slots)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            csc_matvec(slots, 1, np.array([0, hi - lo]), slot[lo:hi], terms[lo:hi], np.ones(1), got)
        assert got.tobytes() == want.tobytes(), cuts
    assert want[3] == 0.0 and not np.signbit(want[3]) and want[49] == 0.0


def assert_same_grads(got, want):
    for field in GRAD_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.fixture(scope="module")
def dense_output():
    splats, cam = dense_view()
    out = render(splats, cam)
    rng = np.random.default_rng(8)
    return out, rng.normal(size=out.color.shape), rng.normal(size=out.feature.shape)


@pytest.mark.parametrize("feature_geometry", [False, True], ids=["independent", "joint"])
def test_lanes_keep_each_chain_bits(dense_output, feature_geometry):
    # two chains share the lanes; each must equal the chain computed alone
    out, grad_color, grad_feature = dense_output
    color_grads, feature_grads = render_backward(out, grad_color, grad_feature,
                                                 feature_geometry=feature_geometry)
    assert_same_grads(color_grads, render_backward(out, grad_color=grad_color)[0])
    assert_same_grads(feature_grads, render_backward(
        out, grad_feature=grad_feature, feature_geometry=feature_geometry)[1])


def test_value_grads_equal_bincount_over_slots(dense_output):
    # The direct weight * grad sums add each slot's contributions in
    # contribution order, as a per-channel bincount does: the same bits on
    # x86-64, whose scipy builds do not fuse the multiply-add. Where a build
    # fuses it, each product skips one rounding, so the sums stay within
    # the recursive-summation bound 2 (n + 1) eps sum |terms| of n terms.
    out, grad_color, grad_feature = dense_output
    chains = render_backward(out, grad_color, grad_feature)
    terms_per_slot = np.zeros(out.splats.count)
    terms_per_slot[out.projected.indices] = np.bincount(out.slot, minlength=out.projected.count)
    for grads, field, grad_img in zip(chains, ("colors", "features"), (grad_color, grad_feature)):
        flat = grad_img.reshape(-1, grad_img.shape[2])
        want, scale = np.zeros_like(getattr(grads, field)), np.zeros_like(getattr(grads, field))
        for ch in range(flat.shape[1]):
            terms = out.weight * flat[out.pix, ch]
            want[out.projected.indices, ch] = np.bincount(out.slot, weights=terms,
                                                          minlength=out.projected.count)
            scale[out.projected.indices, ch] = np.bincount(out.slot, weights=np.abs(terms),
                                                           minlength=out.projected.count)
        got = getattr(grads, field)
        if platform.machine() in ("x86_64", "AMD64"):
            assert got.tobytes() == want.tobytes(), field
        bound = 2 * (terms_per_slot[:, None] + 1) * np.finfo(float).eps * scale
        assert (np.abs(got - want) <= bound).all(), field


def test_one_lane_gives_the_same_bits(dense_output, monkeypatch):
    out, grad_color, grad_feature = dense_output
    two_lanes = render_backward(out, grad_color, grad_feature, feature_geometry=True)
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
    again = render(out.splats, out.camera)
    assert np.array_equal(again.color, out.color) and np.array_equal(again.feature, out.feature)
    for got, want in zip(render_backward(out, grad_color, grad_feature, feature_geometry=True),
                         two_lanes):
        assert_same_grads(got, want)


def test_lanes_without_affinity_use_cpu_count(dense_output, monkeypatch):
    # platforms without os.sched_getaffinity (macOS, Windows) fall back to
    # os.cpu_count()
    out, grad_color, grad_feature = dense_output
    monkeypatch.delattr(renderer.os, "sched_getaffinity")
    again = render(out.splats, out.camera)
    for name in ("color", "feature", "alpha", "weight", "pix", "slot"):
        assert getattr(again, name).tobytes() == getattr(out, name).tobytes(), name
    assert renderer._lanes([lambda: 1, lambda: 2]) == [1, 2]


@pytest.mark.parametrize("usable_cores", [{0}, {0, 1}])
def test_lane_task_exception_reaches_caller(dense_output, monkeypatch, usable_cores):
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: usable_cores)
    ran = []

    def fail():
        raise ZeroDivisionError("task failed")

    with pytest.raises(ZeroDivisionError, match="task failed"):
        renderer._lanes([lambda: ran.append(1), fail, lambda: ran.append(3)])
    assert 1 in ran
    # a feature gradient of the wrong shape fails inside the backward's tasks
    out, grad_color, _ = dense_output
    with pytest.raises(ValueError):
        render_backward(out, grad_color, np.zeros(5), feature_geometry=True)


def crowded_view():
    """240 splats on four depths over a 24x20 image, as in the depth-order
    test, with mixed opacities: pixels of 40 and more contributors, some
    clamped."""
    rng = np.random.default_rng(7)
    n = 240
    centers = np.column_stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
                               rng.choice([1.5, 2.0, 2.5, 3.0], n)])
    splats = make_splats(centers, colors=rng.uniform(size=(n, 3)),
                         opacities=np.where(rng.uniform(size=n) < 0.2, 1.5, rng.uniform(0.05, 0.9, n)),
                         scales=rng.uniform(0.05, 0.15, n), features=rng.normal(size=(n, 6)))
    cam = Camera(fx=24.0, fy=24.0, cx=11.7, cy=9.6, width=24, height=20,
                 rotation=np.eye(3), translation=np.zeros(3))
    return splats, cam


@pytest.fixture(scope="module")
def crowded_output():
    out = render(*crowded_view())
    rng = np.random.default_rng(9)
    return out, rng.normal(size=out.color.shape), rng.normal(size=out.feature.shape)


BACKWARD_MODES = ("color", "independent", "joint")


def backward(out, grad_color, grad_feature, mode):
    if mode == "color":
        return render_backward(out, grad_color)
    return render_backward(out, grad_color, grad_feature, feature_geometry=mode == "joint")


def force_cuts(monkeypatch, cuts):
    """Split every backward into the bands that start at segments ``cuts``."""
    monkeypatch.setattr(renderer, "_band_cuts", lambda seg_start, total, bands: np.array(cuts))


def assert_same_bytes(got_chains, want_chains):
    for got, want in zip(got_chains, want_chains):
        for field in GRAD_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("mode", BACKWARD_MODES)
@pytest.mark.parametrize("where", ["first", "second", "crowded", "last", "end", "five"])
def test_two_bands_give_one_band_bits(crowded_output, monkeypatch, where, mode):
    # the cut before the first segment and after the last leave one band
    # empty; the crowded cut starts the second band at a pixel of >= 40
    # contributors, so the scan enters a band mid-view in a long segment;
    # "five" splits the view into five bands, two of them empty
    out, grad_color, grad_feature = crowded_output
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    segments = out.seg_start.size
    seg_len = np.diff(out.seg_start, append=out.pix.size)
    cuts = {"first": [0, 0, segments], "second": [0, 1, segments],
            "crowded": [0, int(np.flatnonzero(seg_len >= 40)[0]), segments],
            "last": [0, segments - 1, segments], "end": [0, segments, segments],
            "five": [0, 0, 7, segments // 2, segments, segments]}[where]
    force_cuts(monkeypatch, [0, segments])
    one_band = backward(out, grad_color, grad_feature, mode)
    force_cuts(monkeypatch, cuts)
    assert_same_bytes(backward(out, grad_color, grad_feature, mode), one_band)
    assert one_band[0].centers.any()


@pytest.mark.parametrize("mode", BACKWARD_MODES)
def test_one_usable_core_gives_the_band_bits(crowded_output, monkeypatch, mode):
    out, grad_color, grad_feature = crowded_output
    counts = []
    band_cuts = renderer._band_cuts

    def counted(seg_start, total, bands):
        counts.append(bands)
        return band_cuts(seg_start, total, bands)

    monkeypatch.setattr(renderer, "_band_cuts", counted)
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two_cores = backward(out, grad_color, grad_feature, mode)
    # one band per lane a geometry chain gets
    assert counts == [1 if mode == "joint" else 2]
    counts.clear()
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
    assert_same_bytes(backward(out, grad_color, grad_feature, mode), two_cores)
    assert counts == [1]
    # three forced bands on one core run inline, in band order
    segments = out.seg_start.size
    force_cuts(monkeypatch, [0, segments // 3, 2 * segments // 3, segments])
    assert_same_bytes(backward(out, grad_color, grad_feature, mode), two_cores)


@pytest.mark.parametrize("mode", BACKWARD_MODES)
def test_single_pixel_view_in_bands(monkeypatch, mode):
    splats, _ = crowded_view()
    cam = Camera(fx=24.0, fy=24.0, cx=0.0, cy=0.0, width=1, height=1,
                 rotation=np.eye(3), translation=np.zeros(3))
    out = render(splats, cam)
    assert out.seg_start.size == 1 and out.pix.size >= 10
    rng = np.random.default_rng(10)
    grad_color, grad_feature = rng.normal(size=(1, 1, 3)), rng.normal(size=(1, 1, 6))
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    force_cuts(monkeypatch, [0, 1])
    one_band = backward(out, grad_color, grad_feature, mode)
    for cuts in ([0, 0, 1], [0, 1, 1], [0, 0, 1, 1]):
        force_cuts(monkeypatch, cuts)
        assert_same_bytes(backward(out, grad_color, grad_feature, mode), one_band)


def test_concurrent_callers_in_bands_give_one_band_bits(crowded_output, monkeypatch):
    # four callers at once, each running three backwards in two forced
    # bands on the two lanes, with thread switches forced often: no task
    # waits on another, so every caller finishes, each with one-band bits
    out, grad_color, grad_feature = crowded_output
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    segments = out.seg_start.size
    force_cuts(monkeypatch, [0, segments])
    one_band = {mode: backward(out, grad_color, grad_feature, mode) for mode in BACKWARD_MODES}
    force_cuts(monkeypatch, [0, segments // 2, segments])
    results = []

    def caller(mode):
        for _ in range(3):
            got = backward(out, grad_color, grad_feature, mode)
            results.append(all(getattr(g, field).tobytes() == getattr(w, field).tobytes()
                               for g, w in zip(got, one_band[mode]) for field in GRAD_FIELDS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(BACKWARD_MODES[i % 3],), daemon=True)
                   for i in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == [True] * 12


def test_lanes_keep_one_pool_of_two_threads(monkeypatch):
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    first = renderer._lanes([threading.get_ident] * 6)
    # a task on a lane runs its own lanes inline, on its thread
    nested = renderer._lanes([lambda: renderer._lanes([threading.get_ident] * 2)
                              + [threading.get_ident()]] * 3)
    assert all(len(set(idents)) == 1 for idents in nested)
    lanes = [t.ident for t in threading.enumerate() if t.name.startswith("igsplat-lane")]
    assert 1 <= len(lanes) <= renderer.LANES
    assert set(first) | {idents[0] for idents in nested} <= set(lanes)
    assert threading.get_ident() not in first


def test_backward_peak_within_stated_bound():
    # 6000 splats give over 400k contributions, so per-splat and per-pixel
    # arrays stay a small part of the peak
    splats, cam = dense_view(n=6000)
    out = render(splats, cam)
    rng = np.random.default_rng(6)
    grad_color = rng.normal(size=out.color.shape)
    grad_feature = rng.normal(size=out.feature.shape)
    render_backward(out, grad_color, grad_feature, feature_geometry=True)
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            render_backward(out, grad_color, grad_feature, feature_geometry=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.pix.size >= 100_000
    assert max(peaks) <= BACKWARD_BYTES_PER_CONTRIBUTION * out.pix.size, \
        max(peaks) / out.pix.size


def test_backward_fully_clamped_splat_has_zero_geometry_grads():
    # splat 1 is so opaque that its alpha hits the clamp at every pixel it
    # covers, in front of and behind splats that keep their gradients
    cam = identity_camera(size=8)
    splats = make_splats(
        [[0.05, 0.0, 0.0], [0.0, 0.0, 0.5], [-0.05, 0.02, 1.0]],
        opacities=[0.4, 1000.0, 0.6], scales=[0.3, 0.2, 0.4],
    )
    out = render(splats, cam)
    splat = out.projected.indices.take(out.slot)
    assert out.clamped[splat == 1].all()
    assert not out.clamped[splat != 1].any()
    rng = np.random.default_rng(4)
    chains = render_backward(
        out, rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 6)), feature_geometry=True
    )
    for grads in chains:
        for field in GEOMETRY_FIELDS:
            values = getattr(grads, field)
            assert not values[1].any(), field
            assert values[0].any() and values[2].any(), field


def test_culled_splats_change_no_gradient():
    # splats behind the near plane are culled, and splats in front of it but
    # off-screen are projected without a contribution: both chains, on
    # geometry, must equal the call on the remaining splats scattered back,
    # with exact zeros in the rows of the others
    splats, cam = clamping_scene()
    n = splats.count
    behind, offscreen = np.arange(0, n, 5), np.arange(3, n, 5)
    centers = splats.centers.copy()
    centers[behind, 2] = np.linspace(-3.0, -2.0, behind.size)  # camera depth <= 0
    centers[offscreen, 0] += 5.0
    every = SplatSet(centers, splats.colors, splats.opacities, splats.scales, splats.features,
                     splats.parent)
    kept = np.setdiff1d(np.arange(n), np.concatenate([behind, offscreen]))
    subset = SplatSet(centers[kept], splats.colors[kept], splats.opacities[kept],
                      splats.scales[kept], splats.features[kept], splats.parent[kept])
    out, sub_out = render(every, cam), render(subset, cam)
    assert not np.isin(behind, out.projected.indices).any()
    assert np.isin(offscreen, out.projected.indices).all()
    assert not np.isin(offscreen, out.projected.indices.take(out.slot)).any()
    assert out.color.tobytes() == sub_out.color.tobytes()
    rng = np.random.default_rng(6)
    g_color, g_feat = rng.normal(size=(16, 16, 3)), rng.normal(size=(16, 16, 6))
    chains = render_backward(out, g_color, g_feat, feature_geometry=True)
    sub_chains = render_backward(sub_out, g_color, g_feat, feature_geometry=True)
    for grads, sub_grads in zip(chains, sub_chains):
        for field in GRAD_FIELDS:
            got, want = getattr(grads, field), np.zeros_like(getattr(grads, field))
            want[kept] = getattr(sub_grads, field)
            assert got.tobytes() == want.tobytes(), field
            assert not np.delete(got, kept, axis=0).any(), field
        assert all(getattr(grads, field)[kept].any() for field in GEOMETRY_FIELDS)


def test_camera_validation():
    with pytest.raises(DataError):
        Camera(fx=-1, fy=1, cx=0, cy=0, width=4, height=4,
               rotation=np.eye(3), translation=np.zeros(3))
    bad_rot = np.eye(3)
    bad_rot[0, 0] = 1.1
    with pytest.raises(DataError, match="orthonormal"):
        Camera(fx=1, fy=1, cx=0, cy=0, width=4, height=4,
               rotation=bad_rot, translation=np.zeros(3))


def test_camera_json_roundtrip(tmp_path):
    cam = identity_camera()
    path = str(tmp_path / "cam.json")
    save_camera(path, cam)
    loaded = load_camera(path)
    assert loaded.fx == cam.fx and loaded.width == cam.width
    assert np.array_equal(loaded.rotation, cam.rotation)


def test_raw_f32_roundtrip(tmp_path):
    img = np.random.default_rng(0).uniform(size=(6, 5, 3))
    raw_path = str(tmp_path / "img.f32")
    write_raw_f32(raw_path, img)
    back = read_raw_f32(raw_path, 6, 5, 3)
    assert np.allclose(back, img, atol=1e-6)
