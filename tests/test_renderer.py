import json
import platform
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from igsplat.errors import DataError, FormatError, NumericalError
from igsplat import renderer
from igsplat.oracles import (
    central_differences,
    composite_oracle,
    contributions_oracle,
    group_slot_sums_oracle,
    relative_errors,
    transmittance_oracle,
)
from igsplat.renderer import (
    ALPHA_MAX,
    BACKWARD_BYTES_PER_CONTRIBUTION,
    CONTRIBUTION_BUDGET,
    NEAR_PLANE,
    RASTER_BYTES_PER_CONTRIBUTION,
    STEP_BYTES_PER_CONTRIBUTION,
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
    # a splat exactly on the near plane is culled, the next float past it kept
    splats = make_splats([[0.0, 0.0, -1.0], [0.0, 0.0, 0.005], [0.0, 0.0, 1.0],
                          [0.0, 0.0, NEAR_PLANE], [0.0, 0.0, np.nextafter(NEAR_PLANE, 1.0)]])
    proj = project_splats(splats, identity_camera(offset=0.0))
    assert proj.indices.tolist() == [4, 2]


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
    for start, stop in zip(out.seg_start, list(out.seg_start[1:]) + [len(out.slot)]):
        trans = out.trans[start:stop]
        assert np.all(np.diff(trans) <= 1e-15)
    per_pixel = np.add.reduceat(out.alpha_i * out.trans, out.seg_start)
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


def disks(u, v, r):
    """The disks of centre (u, v) and radius r as projected splats, in
    index order."""
    return ProjectedSplats(indices=np.arange(u.size), u=u, v=v, radius_px=r, sigma_px=r / 3,
                           cam_points=np.zeros((u.size, 3)))


def pixel_camera(width, height):
    return Camera(fx=1, fy=1, cx=0, cy=0, width=width, height=height,
                  rotation=np.eye(3), translation=np.zeros(3))


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
    assert_same_contributions(disks(u, v, r), pixel_camera(41, 41))


def records_on_rows(whole, rows):
    """The whole image's ``_span_records`` on the image ``rows``: its
    records of those rows, their row offsets counted from the first of
    them and constant outside, or None without a kept pair."""
    rec_slot, row_ptr, lo, counts, u_rec, dv2 = whole
    first, stop = row_ptr[rows.start], row_ptr[rows.stop]
    if not counts[first:stop].any():
        return None
    ptr = np.clip(row_ptr - first, 0, stop - first).astype(row_ptr.dtype)
    return rec_slot[first:stop], ptr, lo[first:stop], counts[first:stop], u_rec[first:stop], dv2[first:stop]


@pytest.mark.parametrize("width,height", [(13, 9), (9, 1)])
def test_span_records_of_any_row_range_are_the_whole_images(width, height):
    # every row range between cuts at 0, 1, h // 2, h - 1 and h, the empty
    # ones among them, against the whole image's records of its rows, byte
    # for byte: disks partly and fully off the image, two of infinite
    # radius, one of NaN radius and one of zero radius on a pixel centre
    rng = np.random.default_rng(width * 100 + height)
    n = 60
    u, v = rng.uniform(-4, width + 4, n), rng.uniform(-4, height + 4, n)
    r = 10.0 ** rng.uniform(-1.5, 0.9, n)
    r[:3] = [np.inf, np.nan, np.inf]
    u[3], v[3], r[3] = 4.0, 0.0, 0.0
    whole = renderer._span_records(u, v, r, width, height, slice(0, height))
    assert whole[3][whole[0] == 3].sum() == 1 and not (whole[0] == 1).any()
    assert (whole[3][whole[0] == 0] == width).all()
    cuts = sorted({0, 1, height // 2, height - 1, height})
    ranges = [slice(a, b) for a in cuts for b in cuts if a <= b]
    assert sum(rows.start == rows.stop for rows in ranges) == len(cuts)
    for rows in ranges:
        got = renderer._span_records(u, v, r, width, height, rows)
        want = records_on_rows(whole, rows)
        assert (got is None) == (want is None) == (rows.start == rows.stop), rows
        for a, b in zip(got or (), want or ()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), rows


def shrink_moves(monkeypatch) -> list:
    """The number of span ends each ``_shrink_ends`` call moves from here
    on."""
    moves = []
    shrink = renderer._shrink_ends

    def counting(lo, hi, *args):
        first = np.concatenate((lo, hi))
        shrink(lo, hi, *args)
        moves.append(int((np.concatenate((lo, hi)) != first).sum()))

    monkeypatch.setattr(renderer, "_shrink_ends", counting)
    return moves


def test_tight_first_span_keeps_the_oracles_pairs(monkeypatch):
    # Adversarial disks on a 16x12 image, against the dense scan. Each of
    # the first passes through a pixel centre (c, y), its radius that
    # distance moved by -3..3 ulps, so that its chord on row y ends within
    # a few ulps of column c and the rounded test there goes either way:
    # radii from 2^-20 to 2^40 px, the centres as far. The next have
    # centres out to 2^20 px and radii from 2^-20 to 2^40 px. The last, of
    # radius 2^-599 px, keeps column 0 only as its squares underflow to 0.
    rng = np.random.default_rng(34)
    w, h = 16, 12
    u, v, r = [], [], []
    for exponent in range(-20, 41, 3):
        for _ in range(4):
            c, y = rng.integers(0, w), rng.integers(0, h)
            angle = rng.uniform(0, 2 * np.pi)
            cu = c + 2.0**exponent * np.cos(angle)
            cv = y + 2.0**exponent * np.sin(angle)
            through = np.hypot(c - cu, y - cv)
            for ulps in range(-3, 4):
                u.append(cu)
                v.append(cv)
                r.append(through + ulps * np.spacing(through))
    far = 2.0 ** rng.uniform(-1, 20, 200)
    u = np.concatenate([u, far * rng.choice([-1, 1], 200) + rng.uniform(0, w, 200)])
    v = np.concatenate([v, rng.uniform(-2.0**20, 2.0**20, 200)])
    r = np.concatenate([r, 2.0 ** rng.uniform(-20, 40, 200)])
    u, v, r = np.append(u, -(2.0**-600)), np.append(v, 0.0), np.append(r, 2.0**-599)
    moves = shrink_moves(monkeypatch)
    assert_same_contributions(disks(u, v, r), pixel_camera(w, h))
    assert len(moves) == 1

    # the loop's case: a disk of radius about 2^20 px, centred 1500 rows
    # above row 5, ends its chord on row 5 0.01 px before column 9, and its
    # box reaches column 10. Its first span's margin is about 2^-4 px, so
    # the first span holds column 9, which fails the test, and the loop
    # moves the end.
    cu, cv = -(2.0**20) + 0.25, 5.0 - 1500.0
    moves.clear()
    assert_same_contributions(disks(np.array([cu]), np.array([cv]), np.array([np.hypot(8.99 - cu, 1500.0)])),
                              pixel_camera(w, h))
    assert moves[0] > 0


def test_first_span_is_tight_on_the_dense_view(monkeypatch):
    # the first spans of the dense view's two row ranges need no end moved
    splats, cam = dense_view()
    moves = shrink_moves(monkeypatch)
    ras = rasterize(splats, cam)
    assert ras.slot.size >= 100_000 and moves == [0] * renderer.LANES


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
    assert ras.slot.size >= 100_000
    assert ras.clamped.any()
    assert peak <= RASTER_BYTES_PER_CONTRIBUTION * ras.slot.size, peak / ras.slot.size


@pytest.mark.parametrize("n", [2000, 6000])
def test_transmittance_matches_per_pixel_oracle(n):
    # every transmittance within 5e-12 relative of its pixel's own product
    # of (1 - alpha), on 145k and 432k contributions: the scans restart at
    # every row, so a larger view adds no drift
    ras = rasterize(*dense_view(n=n))
    want = transmittance_oracle(ras.alpha_i, ras.seg_start)
    assert want.min() > 0.0
    assert (np.abs(ras.trans - want) <= 5e-12 * want).all(), (np.abs(ras.trans - want) / want).max()


def test_exploding_scales_exceed_contribution_budget():
    # every splat covers the whole 128x128 image, 3000 x 16384 contributions:
    # the builder raises from its per-(splat, row) records, before any
    # per-contribution array exists
    assert CONTRIBUTION_BUDGET >= 10 * 2_200_000  # ~2.2M: a 128x128 bench view at init
    assert 3000 * 128 * 128 > CONTRIBUTION_BUDGET
    splats, cam = dense_view(n=3000)
    huge = SplatSet(splats.centers, splats.colors, splats.opacities, splats.scales * 1e4,
                    splats.features, splats.parent)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=f"makes {3000 * 128 * 128} contributions, "
                                                 f"over the budget of {CONTRIBUTION_BUDGET}"):
            rasterize(huge, cam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 3000 * 128, peak / (3000 * 128)  # bytes per record


def test_raster_keeps_20_bytes_per_contribution_and_rebuilds_the_composite():
    # The Raster keeps int32 slots, alpha and transmittance, nothing else
    # per contribution; the weights alpha_i * trans it leaves out, added
    # times each value per pixel in depth order (composite_oracle), give
    # render's color and feature bits, on a view of several runs per lane,
    # a crowded view and a single pixel of dozens of contributions.
    for view in (dense_view, crowded_view, pixel_view):
        splats, cam = view()
        out = render(splats, cam)
        q = out.slot.size
        kept = {name: value for name, value in vars(out).items()
                if isinstance(value, np.ndarray) and value.shape == (q,)}
        assert sorted(kept) == ["alpha_i", "slot", "trans"]
        assert out.slot.dtype == np.int32
        assert sum(value.nbytes for value in kept.values()) == 20 * q
        for image, values in ((out.color, splats.colors), (out.feature, splats.features)):
            assert composite_oracle(out, values).tobytes() == image.tobytes(), view.__name__


def test_raster_arrays_share_no_memory():
    splats, cam = dense_view(n=300, size=48)
    ras = rasterize(splats, cam)
    arrays = {name: value for name, value in vars(ras).items() if isinstance(value, np.ndarray)}
    assert ras.slot.size > 0 and len(arrays) == 6
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


def test_raster_bands_give_the_one_band_bits():
    # runs of whole rows, down to one row each: concatenated, the runs are
    # the one-run raster byte for byte, each run scanned on its own
    splats, cam = dense_view(n=500, size=48)
    whole = rasterize(splats, cam)
    rows_with_pairs = np.unique(whole.seg_pix // cam.width).size
    for contributions in (1, 997, whole.slot.size // 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(renderer, "_SEGMENT_ROWS", contributions)
            runs, weights = zip(*raster_bands(splats, cam))
        assert len(runs) > 1
        assert contributions > 1 or len(runs) == rows_with_pairs
        for field in ("slot", "alpha_i", "trans", "seg_pix"):
            got = np.concatenate([getattr(run, field) for run in runs])
            assert got.dtype == getattr(whole, field).dtype
            assert got.tobytes() == getattr(whole, field).tobytes(), (contributions, field)
        firsts = np.cumsum([0] + [run.slot.size for run in runs[:-1]])
        starts = np.concatenate([run.seg_start + first for run, first in zip(runs, firsts)])
        assert starts.tobytes() == whole.seg_start.tobytes()
        assert sum(run.alpha for run in runs).tobytes() == whole.alpha.tobytes()
        # each run's weights are its alpha * T
        for run, weight in zip(runs, weights):
            assert weight.tobytes() == np.multiply(run.alpha_i, run.trans).tobytes()
        # a run holds whole rows
        assert all(run.seg_pix[0] // cam.width > prev.seg_pix[-1] // cam.width
                   for prev, run in zip(runs, runs[1:]))
    behind = SplatSet(splats.centers * [1, 1, -1], splats.colors, splats.opacities,
                      splats.scales, splats.features, splats.parent)
    ((empty, weight),) = raster_bands(behind, cam)
    assert empty.slot.size == 0 and weight.size == 0 and not empty.alpha.any()


def test_csc_matvec_over_blocks_equals_bincount():
    # The backward's slot sums and the id maps' votes: ``_add_at`` (scipy's
    # private csc_matvec), one call per block of consecutive terms, each
    # block's terms the data of a one-column matrix with the slots as row
    # numbers, times 1.0, into one zeroed array; against one bincount over
    # all terms. Slot 7 has terms
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
            renderer._add_at(got, slot[lo:hi], terms[lo:hi])
        assert got.tobytes() == want.tobytes(), cuts
    assert want[3] == 0.0 and not np.signbit(want[3]) and want[49] == 0.0


def straddling_splats(out):
    """(n,) bool: the splats whose contributions lie in more than one lane
    group of the view's cutting (``_row_runs``)."""
    before = np.append(out.seg_start, out.slot.size)[
        np.searchsorted(out.seg_pix, np.arange(out.camera.height + 1) * out.camera.width)]
    starts = [group[0][1].start for group in renderer._row_runs(before)]
    group = np.searchsorted(starts, np.arange(out.slot.size), side="right") - 1
    first, last = np.full(out.projected.count, len(starts)), np.full(out.projected.count, -1)
    np.minimum.at(first, out.slot, group)
    np.maximum.at(last, out.slot, group)
    straddles = np.zeros(out.splats.count, dtype=bool)
    straddles[out.projected.indices] = first < last
    return straddles


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
    # The direct weight * grad sums add each lane group's terms per slot in
    # contribution order, as a per-channel bincount does, then the groups
    # in row order (``oracles.group_slot_sums_oracle``): the same bits on
    # x86-64, whose scipy builds do not fuse the multiply-add. Where a build
    # fuses it, each product skips one rounding, so the sums stay within
    # the recursive-summation bound 2 (n + 1) eps sum |terms| of n terms.
    out, grad_color, grad_feature = dense_output
    assert straddling_splats(out).any()
    chains = render_backward(out, grad_color, grad_feature)
    terms_per_slot = np.zeros(out.splats.count)
    terms_per_slot[out.projected.indices] = np.bincount(out.slot, minlength=out.projected.count)
    pixels = np.repeat(out.seg_pix, np.diff(out.seg_start, append=out.slot.size))
    for grads, field, grad_img in zip(chains, ("colors", "features"), (grad_color, grad_feature)):
        flat = grad_img.reshape(-1, grad_img.shape[2])
        want, scale = np.zeros_like(getattr(grads, field)), np.zeros_like(getattr(grads, field))
        for ch in range(flat.shape[1]):
            terms = out.alpha_i * out.trans * flat[pixels, ch]
            want[out.projected.indices, ch] = group_slot_sums_oracle(out, terms)
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
    for name in ("color", "feature", "alpha", "alpha_i", "trans", "slot", "seg_start", "seg_pix"):
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


RASTER_FIELDS = ("slot", "alpha_i", "trans", "seg_start", "seg_pix", "alpha")


def one_row_view():
    """The crowded view's splats seen by a camera one pixel high: every
    contribution in one row, which no run size can split."""
    splats, _ = crowded_view()
    return splats, Camera(fx=24.0, fy=24.0, cx=11.7, cy=0.0, width=24, height=1,
                          rotation=np.eye(3), translation=np.zeros(3))


def culled_view():
    splats, cam = crowded_view()
    return SplatSet(splats.centers * [1, 1, -1], splats.colors, splats.opacities, splats.scales,
                    splats.features, splats.parent), cam


def pixel_view():
    """The crowded view's splats seen by a 1x1 camera: one pixel, one
    segment of dozens of contributions."""
    splats, _ = crowded_view()
    return splats, Camera(fx=24.0, fy=24.0, cx=0.0, cy=0.0, width=1, height=1,
                          rotation=np.eye(3), translation=np.zeros(3))


FORWARD_VIEWS = {
    "dense": dense_view,  # over _SEGMENT_ROWS contributions: several runs per group
    "small": lambda: dense_view(n=500, size=48),  # one run per group
    "crowded": crowded_view,
    "one_row": one_row_view,  # one row: one group
    "culled": culled_view,  # no contribution: no group
}


def force_groups(monkeypatch, cuts):
    """Cut every view into lane groups of the rows between consecutive
    ``cuts`` that hold contributions, each group one run of its rows, in
    place of ``_row_runs``' cutting, and its span records into one row
    range per group, in place of ``_record_rows``'."""
    def row_runs(before, starts=()):
        return [[(slice(a, b), slice(int(before[a]), int(before[b])))]
                for a, b in zip(cuts[:-1], cuts[1:]) if before[b] > before[a]]
    monkeypatch.setattr(renderer, "_row_runs", row_runs)
    monkeypatch.setattr(renderer, "_record_rows", lambda u, v, r, w, h: [
        slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])])


def count_lane_tasks(monkeypatch) -> list:
    """The task count of every ``_lanes`` call from here on."""
    tasks = []
    lanes = renderer._lanes
    monkeypatch.setattr(renderer, "_lanes", lambda todo: tasks.append(len(todo)) or lanes(todo))
    return tasks


@pytest.mark.parametrize("view", sorted(FORWARD_VIEWS))
def test_forward_runs_and_lanes_give_one_run_bits(monkeypatch, view):
    # render on the lanes, at the default run size, in runs of about 97
    # contributions and of one row, on two lanes and on one, against the
    # view as one run on one lane; its Raster also against raster_bands'
    # one run, which runs on the calling thread
    splats, cam = FORWARD_VIEWS[view]()
    tasks = count_lane_tasks(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        force_groups(patch, [0, cam.height])
        want = render(splats, cam)
        ((one_run, _),) = raster_bands(splats, cam)
    for name in RASTER_FIELDS:
        assert getattr(one_run, name).dtype == getattr(want, name).dtype, name
        assert getattr(one_run, name).tobytes() == getattr(want, name).tobytes(), name
    rows_with_pairs = np.unique(want.seg_pix // cam.width).size
    assert (view == "one_row") == (rows_with_pairs == 1)
    assert (view == "culled") == (want.slot.size == 0)
    for rows, cores in ((None, {0, 1}), (97, {0, 1}), (1, {0, 1}), (1, {0})):
        with monkeypatch.context() as patch:
            patch.setattr(renderer.os, "sched_getaffinity", lambda pid: cores, raising=False)
            if rows:
                patch.setattr(renderer, "_SEGMENT_ROWS", rows)
            tasks.clear()
            got = render(splats, cam)
            raster = rasterize(splats, cam)
        # render and rasterize each run two phases, whatever the run size:
        # one task per row range of span records, then one per lane group;
        # none without contributions, one for a view of one row, else one
        # per lane
        groups = {"culled": 0, "one_row": 1}.get(view, renderer.LANES)
        assert tasks == [groups, groups] * 2, (rows, tasks)
        for name in RASTER_FIELDS + ("color", "feature"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (rows, name)
        for name in RASTER_FIELDS:
            assert getattr(raster, name).tobytes() == getattr(want, name).tobytes(), (rows, name)
    if view == "dense":
        assert want.slot.size > 2 * renderer._SEGMENT_ROWS


def test_concurrent_renders_give_one_run_bits(monkeypatch):
    # four callers at once, each rendering three times in runs of one row
    # on the two lanes, with thread switches forced often: each caller's
    # one phase joins on its own thread, so every caller finishes with the
    # bits of one run on one lane
    splats, cam = crowded_view()
    with monkeypatch.context() as patch:
        patch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        want = render(splats, cam)
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(renderer, "_SEGMENT_ROWS", 1)
    results = []

    def caller():
        for _ in range(3):
            got = render(splats, cam)
            results.append(all(getattr(got, name).tobytes() == getattr(want, name).tobytes()
                               for name in RASTER_FIELDS + ("color", "feature")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == [True] * 12


@pytest.mark.parametrize("view", ["dense", "crowded"])
def test_pix_and_clamped_read_as_the_arrays_they_rebuild(view):
    # The Raster stores neither; each read rebuilds them. ``pix`` is each
    # segment's pixel repeated over its contributions, int32, in
    # ``_build_contributions``' order, one per contribution, on the whole
    # view and over raster_bands' runs; ``clamped`` marks the alphas that
    # passed ALPHA_MAX before the clamp, as formed from that build's d2.
    splats, cam = FORWARD_VIEWS[view]()
    out = render(splats, cam)
    q = out.slot.size
    assert out.pix.dtype == np.int32 and out.pix.size == q
    seg_len = np.diff(out.seg_start, append=q)
    assert out.pix.tobytes() == np.repeat(out.seg_pix, seg_len).astype(np.int32).tobytes()
    assert np.concatenate([run.pix for run, _ in raster_bands(splats, cam)]).tobytes() == out.pix.tobytes()
    proj = out.projected
    pix, slot, d2 = _build_contributions(proj.u, proj.v, proj.radius_px, cam.width, cam.height)[:3]
    assert out.pix.tobytes() == pix.astype(np.int32).tobytes()
    assert out.slot.tobytes() == slot.astype(np.int32).tobytes()
    two_sig2 = 2.0 * proj.sigma_px * proj.sigma_px
    alpha = splats.opacities.take(proj.indices)[slot] * np.exp(-d2 / two_sig2[slot])
    assert out.alpha_i.tobytes() == np.minimum(alpha, ALPHA_MAX).tobytes()
    assert out.clamped.dtype == bool and out.clamped.size == q
    assert np.array_equal(out.clamped, alpha > ALPHA_MAX)
    assert out.clamped.any() and not out.clamped.all()


BACKWARD_MODES = ("color", "independent", "joint")


def backward(out, grad_color, grad_feature, mode):
    if mode == "color":
        return render_backward(out, grad_color)
    return render_backward(out, grad_color, grad_feature, feature_geometry=mode == "joint")


def assert_same_bytes(got_chains, want_chains, straddles=None):
    """Every gradient field byte for byte; with ``straddles``, an (n,) bool,
    only off those splats, whose sums add the lane groups' partials and so
    stay within 1e-14 of the field's largest entry."""
    for got, want in zip(got_chains, want_chains):
        for field in GRAD_FIELDS:
            got_field, want_field = getattr(got, field), getattr(want, field)
            if straddles is None:
                assert got_field.tobytes() == want_field.tobytes(), field
                continue
            assert got_field[~straddles].tobytes() == want_field[~straddles].tobytes(), field
            bound = 1e-14 * np.abs(want_field).max()
            assert (np.abs(got_field - want_field)[straddles] <= bound).all(), field


@pytest.mark.parametrize("mode", BACKWARD_MODES)
@pytest.mark.parametrize("view", sorted(FORWARD_VIEWS) + ["pixel"])
def test_backward_runs_and_lanes_give_one_run_bits(monkeypatch, view, mode):
    # the backward in runs of one row, of about 97 contributions, of the
    # default size and of whole groups, on one core and on two, against the
    # default LANES groups at the default run size on one core: each group
    # sums its runs in contribution order, so the runs move no bit
    splats, cam = FORWARD_VIEWS.get(view, pixel_view)()
    out = render(splats, cam)
    assert view != "pixel" or (out.seg_start.size == 1 and out.slot.size >= 10)
    rng = np.random.default_rng(10)
    grad_color, grad_feature = rng.normal(size=out.color.shape), rng.normal(size=out.feature.shape)
    with monkeypatch.context() as patch:
        patch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        want = backward(out, grad_color, grad_feature, mode)
    assert want[0].centers.any() == (view != "culled")
    for rows in (1, 97, renderer._SEGMENT_ROWS, 1 << 40):
        for cores in ({0}, {0, 1}):
            with monkeypatch.context() as patch:
                patch.setattr(renderer.os, "sched_getaffinity", lambda pid: cores, raising=False)
                patch.setattr(renderer, "_SEGMENT_ROWS", rows)
                assert_same_bytes(backward(out, grad_color, grad_feature, mode), want)


@pytest.mark.parametrize("mode", BACKWARD_MODES)
@pytest.mark.parametrize("where", ["first", "second", "crowded", "last", "end", "five"])
def test_two_bands_give_one_band_bits(crowded_output, monkeypatch, where, mode):
    # lane groups forced where ``_row_runs`` does not cut, against one
    # group: a first group of the first one or two rows with contributions,
    # a second group from the row of a pixel of >= 40 contributors, a last
    # group of the last one or two rows, and five groups on two lanes. A
    # splat whose contributions all lie in one group keeps the one-group
    # bytes; the sums of one that straddles add the groups' partials.
    out, grad_color, grad_feature = crowded_output
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    h, w = out.camera.height, out.camera.width
    rows = np.unique(out.seg_pix // w)
    seg_len = np.diff(out.seg_start, append=out.slot.size)
    crowded = int(out.seg_pix[np.flatnonzero(seg_len >= 40)[0]] // w)
    cuts = {"first": [0, rows[0] + 1, h], "second": [0, rows[1] + 1, h],
            "crowded": [0, crowded, h], "last": [0, rows[-1], h], "end": [0, rows[-2], h],
            "five": [0, rows[0] + 1, crowded, crowded + 1, rows[-1], h]}[where]
    assert rows[0] + 1 < crowded < rows[-2] and len(set(cuts)) == len(cuts)
    force_groups(monkeypatch, [0, h])
    one_group = backward(out, grad_color, grad_feature, mode)
    force_groups(monkeypatch, cuts)
    assert len(renderer._row_runs(np.append(out.seg_start, out.slot.size)[
        np.searchsorted(out.seg_pix, np.arange(h + 1) * w)])) == len(cuts) - 1
    straddles = straddling_splats(out)
    assert straddles.any() and not straddles.all()
    assert_same_bytes(backward(out, grad_color, grad_feature, mode), one_group, straddles)
    assert one_group[0].centers.any()


@pytest.mark.parametrize("mode", BACKWARD_MODES)
def test_one_usable_core_gives_the_band_bits(crowded_output, monkeypatch, mode):
    # the backward walks the forward's lane groups in one phase, one task
    # per group the forward's second phase ran (its first builds the span
    # records, one task per row range), and one usable core gives the bits
    # of two
    out, grad_color, grad_feature = crowded_output
    tasks = count_lane_tasks(monkeypatch)
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    render(out.splats, out.camera)
    groups = tasks[1]
    assert tasks == [renderer.LANES, renderer.LANES]
    tasks.clear()
    two_cores = backward(out, grad_color, grad_feature, mode)
    assert tasks == [groups]
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
    assert_same_bytes(backward(out, grad_color, grad_feature, mode), two_cores)


def test_concurrent_callers_in_bands_give_one_band_bits(crowded_output, monkeypatch):
    # four callers at once, each running three backwards in runs of one row
    # on the two lanes, with thread switches forced often: no task waits on
    # another, so every caller finishes, each with the bits of the default
    # groups and runs on one core
    out, grad_color, grad_feature = crowded_output
    with monkeypatch.context() as patch:
        patch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0})
        one_run = {mode: backward(out, grad_color, grad_feature, mode) for mode in BACKWARD_MODES}
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(renderer, "_SEGMENT_ROWS", 1)
    results = []

    def caller(mode):
        for _ in range(3):
            got = backward(out, grad_color, grad_feature, mode)
            results.append(all(getattr(g, field).tobytes() == getattr(w, field).tobytes()
                               for g, w in zip(got, one_run[mode]) for field in GRAD_FIELDS))

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
    assert out.slot.size >= 100_000
    assert max(peaks) <= BACKWARD_BYTES_PER_CONTRIBUTION * out.slot.size, \
        max(peaks) / out.slot.size


def test_train_step_peak_within_stated_bound():
    # A training step's render and its joint-phase backward, both chains on
    # geometry, on the 400k-contribution view of the backward's bound: the
    # RenderOutput it keeps and the backward above it.
    splats, cam = dense_view(n=6000)
    out = render(splats, cam)
    rng = np.random.default_rng(6)
    grad_color = rng.normal(size=out.color.shape)
    grad_feature = rng.normal(size=out.feature.shape)
    contributions = out.slot.size
    del out
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            out = render(splats, cam)
            render_backward(out, grad_color, grad_feature, feature_geometry=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del out
    assert contributions >= 400_000
    assert max(peaks) <= STEP_BYTES_PER_CONTRIBUTION * contributions, max(peaks) / contributions


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


def test_alpha_of_exactly_alpha_max_reads_as_clamped():
    # A splat of opacity ALPHA_MAX centred on pixel (3, 3): d2 is 0 there,
    # so its alpha is exactly 0.99 with no clamp applied. That contribution
    # reads as clamped and gets no geometry gradient; around it, where
    # alpha stays below the clamp, the gradients match finite differences.
    cam = identity_camera(size=8, fx=20.0, offset=0.0)
    x = (3 - cam.cx) * 2.0 / cam.fx
    splats = make_splats([[x, x, 2.0]], colors=[[1.0, 0.6, 0.2]], opacities=[ALPHA_MAX],
                         scales=[0.2], features=[[0.3, -1.0, 0.5, 2.0, -0.7, 0.1]])
    out = render(splats, cam)
    assert out.projected.u[0] == 3.0 and out.projected.v[0] == 3.0
    assert out.slot.size == 64  # every pixel, one contribution each
    centre = 3 * cam.width + 3
    assert out.alpha_i[centre] == ALPHA_MAX and out.clamped[centre]
    assert np.flatnonzero(out.clamped).tolist() == [centre]
    rng = np.random.default_rng(12)
    g_color, g_feat = rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 6))
    at_centre = np.zeros((8, 8, 1))
    at_centre[3, 3] = 1.0
    chains = render_backward(out, g_color * at_centre, g_feat * at_centre, feature_geometry=True)
    for grads in chains:
        for field in GEOMETRY_FIELDS:
            assert not getattr(grads, field).any(), field
    assert chains[0].colors.any() and chains[1].features.any()
    g_color, g_feat = g_color * (1.0 - at_centre), g_feat * (1.0 - at_centre)
    grads = add_grads(*render_backward(out, g_color, g_feat, feature_geometry=True))

    def objective(s):
        o = render(s, cam)
        return (o.color * g_color).sum() + (o.feature * g_feat).sum()

    assert all(getattr(grads, field).any() for field in GEOMETRY_FIELDS)
    assert worst_fd_error(splats, objective, grads, GRAD_FIELDS) <= 1e-4


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


NAN, INF = float("nan"), float("inf")
BAD_CAMERAS = {
    # case: (field, value, error): non-finite values are bad data (exit 2);
    # a size that is not a JSON integer, or a number that is not a JSON
    # number, is a malformed file (exit 3)
    "fx_nan": ("fx", NAN, DataError),
    "fy_inf": ("fy", INF, DataError),
    "cx_minus_inf": ("cx", -INF, DataError),
    "cy_nan": ("cy", NAN, DataError),
    "R_nan": ("R", [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, NAN], DataError),
    "t_inf": ("t", [0.0, INF, 2.0], DataError),
    "fx_string": ("fx", "20", FormatError),
    "cy_bool": ("cy", False, FormatError),
    "t_string": ("t", [0.0, "0", 2.0], FormatError),
    "width_float": ("width", 8.7, FormatError),
    "width_string": ("width", "8", FormatError),
    "height_true": ("height", True, FormatError),
}


@pytest.mark.parametrize("case", sorted(BAD_CAMERAS))
def test_bad_camera_file_raises_its_error(tmp_path, case):
    field, value, error = BAD_CAMERAS[case]
    path = str(tmp_path / "cam.json")
    save_camera(path, identity_camera())
    load_camera(path)
    with open(path) as fh:
        fields = json.load(fh)
    fields[field] = value
    with open(path, "w") as fh:
        json.dump(fields, fh)
    with pytest.raises(error):
        load_camera(path)


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
