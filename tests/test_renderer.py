import numpy as np
import pytest

from igsplat.errors import DataError
from igsplat.oracles import central_differences, relative_errors
from igsplat.renderer import (
    Camera,
    ProjectedSplats,
    _build_contributions,
    load_camera,
    project_splats,
    read_raw_f32,
    render,
    render_backward,
    save_camera,
    write_raw_f32,
)
from igsplat.scene_model import SplatSet


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


def brute_force_contributions(proj, cam):
    """Every pixel x splat under the same d2 <= r*r test, pixel-major with
    depth order inside each pixel."""
    du = np.arange(cam.width)[None, :] - proj.u[:, None]  # (k, w)
    dv = np.arange(cam.height)[None, :] - proj.v[:, None]  # (k, h)
    d2 = du[:, None, :] * du[:, None, :] + dv[:, :, None] * dv[:, :, None]  # (k, h, w)
    inside = d2 <= (proj.radius_px * proj.radius_px)[:, None, None]
    row, col, slot = np.nonzero(inside.transpose(1, 2, 0))
    return row * cam.width + col, slot, d2[slot, row, col]


def assert_same_contributions(proj, cam):
    built = _build_contributions(proj.u, proj.v, proj.radius_px, cam.width, cam.height)
    expected = brute_force_contributions(proj, cam)
    assert expected[0].size > 0
    assert built is not None
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
        indices=np.arange(3), u=u, v=v, depth=np.ones(3), radius_px=r,
        sigma_px=r / 3, cam_points=np.zeros((3, 3)),
    )
    cam = Camera(fx=1, fy=1, cx=0, cy=0, width=41, height=41,
                 rotation=np.eye(3), translation=np.zeros(3))
    assert_same_contributions(proj, cam)


def test_contributor_list_accessor():
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) / cam.fx
    splats = make_splats(
        [[x, x, 1.0], [2 * x, 2 * x, 2.0]],
        opacities=[0.5, 0.5], scales=[0.05, 0.1],
    )
    out = render(splats, cam)
    entries = out.contributors(3, 3)
    assert [int(s) for s, _, _ in entries] == [0, 1]
    assert entries[0][1] == pytest.approx(0.5)  # alpha of the front splat
    assert entries[0][2] == pytest.approx(1.0)  # full transmittance in front
    assert entries[1][2] == pytest.approx(0.5)
    assert out.contributors(0, 0) == [] or all(a < 0.5 for _, a, _ in out.contributors(0, 0))


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

    assert worst_fd_error(splats, objective, color_grads + feature_grads, GRAD_FIELDS) <= 1e-4


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


def test_backward_fully_clamped_splat_has_zero_geometry_grads():
    # splat 1 is so opaque that its alpha hits the clamp at every pixel it
    # covers, in front of and behind splats that keep their gradients
    cam = identity_camera(size=8)
    splats = make_splats(
        [[0.05, 0.0, 0.0], [0.0, 0.0, 0.5], [-0.05, 0.02, 1.0]],
        opacities=[0.4, 1000.0, 0.6], scales=[0.3, 0.2, 0.4],
    )
    out = render(splats, cam)
    assert out.clamped[out.splat == 1].all()
    assert not out.clamped[out.splat != 1].any()
    rng = np.random.default_rng(4)
    chains = render_backward(
        out, rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 6)), feature_geometry=True
    )
    for grads in chains:
        for field in GEOMETRY_FIELDS:
            values = getattr(grads, field)
            assert not values[1].any(), field
            assert values[0].any() and values[2].any(), field


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
