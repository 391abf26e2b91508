"""Differentiable pinhole splatting of colors and instance features.

Splats are projected to the image plane, rasterized as isotropic Gaussians
(pixel-space std = pixel_radius / 3, hard cutoff at 3 sigma), and composited
front to back:

    value(p) = sum_i alpha_i(p) * T_i(p) * x_i,   T_i = prod_{j<i} (1 - alpha_j)

with alpha_i(p) = min(0.99, opacity_i * exp(-|p - center_i|^2 / (2 sigma_px^2))).
The identical operator renders color (x = c) and the 6-dim feature (x = f);
background is zero for both. Depth ordering is ascending with ties broken by
splat index, and is treated as constant in the backward pass.

Pixel (row, col) samples the continuous image plane at (x=col, y=row);
per-pixel contributions are accumulated in pixel-major order so forward and
backward results are reproducible bit for bit.

The forward pass is two steps. ``rasterize`` enumerates the (splat, pixel)
contributions one row span per (splat, row) of the cutoff disk, orders them
by a stable sort on the flat pixel index (keyed by the narrowest unsigned
type that holds it, so depth order survives within each pixel), and yields
alpha, transmittance, alpha * T and the alpha image. ``render`` adds the
color and feature composite; instance id maps need only the first step.
The same row-span enumeration, fed point disks instead of splat cutoffs,
gives the ground-truth point z-buffer (``zbuffer_owners``).

The backward pass, ``render_backward``, takes the color and the feature
image gradients together and returns one gradient set per chain, since the
training schedule routes them to different parameters. The color chain
always reaches geometry (opacities, scales, centers); the feature chain
reaches it only when asked (the joint phase) and otherwise stops at the
features. Per-contribution terms both chains share are built once per
call, from the compositing weights and projected slots the forward keeps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .binio import write_atomic
from .errors import DataError
from .scene_model import SplatSet

NEAR_PLANE = 0.01
ALPHA_MAX = 0.99
CUTOFF_SIGMAS = 3.0


@dataclass
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray  # (3, 3) world-to-camera
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.fx <= 0 or self.fy <= 0:
            raise DataError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise DataError("image size must be at least 1x1")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-5:
            raise DataError(f"camera rotation is not orthonormal (max error {err:.2e})")

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation

    def to_json_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
            "R": [float(v) for v in self.rotation.reshape(-1)],
            "t": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Camera":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
            rotation=np.array(d["R"], dtype=np.float64).reshape(3, 3),
            translation=np.array(d["t"], dtype=np.float64),
        )


def save_camera(path: str, camera: Camera) -> None:
    write_atomic(path, (json.dumps(camera.to_json_dict(), indent=2, sort_keys=True) + "\n").encode())


def load_camera(path: str) -> Camera:
    with open(path) as fh:
        return Camera.from_json_dict(json.load(fh))


@dataclass
class ProjectedSplats:
    """Visible splats in ascending depth order (ties: ascending splat index)."""

    indices: np.ndarray  # (k,) original splat indices
    u: np.ndarray  # (k,) pixel x of the projected center
    v: np.ndarray  # (k,) pixel y
    depth: np.ndarray  # (k,)
    radius_px: np.ndarray  # (k,) cutoff radius = 3 * scale * fx / depth
    sigma_px: np.ndarray  # (k,) Gaussian std in pixels
    cam_points: np.ndarray  # (k, 3) camera-space centers

    @property
    def count(self) -> int:
        return self.indices.shape[0]


def _project(points: np.ndarray, camera: Camera):
    """Indices of the points in front of the near plane, their camera-space
    positions and their pixel coordinates (u, v), in index order."""
    cam = camera.world_to_camera(points)
    keep = np.flatnonzero(cam[:, 2] > NEAR_PLANE)
    cam = cam[keep]
    z = cam[:, 2]
    u = camera.fx * cam[:, 0] / z + camera.cx
    v = camera.fy * cam[:, 1] / z + camera.cy
    return keep, cam, u, v


def project_splats(splats: SplatSet, camera: Camera) -> ProjectedSplats:
    """Project to the image plane, cull splats at depth <= the near plane."""
    keep, cam, u, v = _project(splats.centers, camera)
    z = cam[:, 2]
    sigma_px = splats.scales[keep] * camera.fx / z
    order = np.argsort(z, kind="stable")  # stable: equal depths stay in index order
    return ProjectedSplats(
        indices=keep[order],
        u=u[order],
        v=v[order],
        depth=z[order],
        radius_px=CUTOFF_SIGMAS * sigma_px[order],
        sigma_px=sigma_px[order],
        cam_points=cam[order],
    )


@dataclass
class SplatGrads:
    colors: np.ndarray
    features: np.ndarray
    opacities: np.ndarray
    scales: np.ndarray
    centers: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "SplatGrads":
        return cls(
            colors=np.zeros((n, 3)),
            features=np.zeros((n, 6)),
            opacities=np.zeros(n),
            scales=np.zeros(n),
            centers=np.zeros((n, 3)),
        )

    def __add__(self, other: "SplatGrads") -> "SplatGrads":
        return SplatGrads(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)})


@dataclass
class Raster:
    """One view's contributions and alpha image, without any composite.

    The flat per-contribution arrays are sorted by (pixel, depth order):
    they are the per-pixel contributor lists the backward pass reads.
    ``weight`` is alpha_i * trans, the compositing weight of each
    contribution.
    """

    pix: np.ndarray  # (q,) flat pixel index
    splat: np.ndarray  # (q,) original splat index
    slot: np.ndarray  # (q,) index into the projected (depth-sorted) arrays
    alpha_i: np.ndarray  # (q,) clamped alpha
    trans: np.ndarray  # (q,) transmittance before this contribution
    weight: np.ndarray  # (q,) alpha_i * trans
    clamped: np.ndarray  # (q,) bool, alpha hit the 0.99 clamp
    seg_start: np.ndarray  # (#pixels with contributions,) segment starts
    seg_pix: np.ndarray  # (#pixels,) flat pixel index per segment
    alpha: np.ndarray  # (H, W) composited alpha
    projected: ProjectedSplats

    def contributors(self, row: int, col: int):
        """(splat index, alpha, T) triples for one pixel, front to back."""
        flat = row * self.alpha.shape[1] + col
        pos = np.searchsorted(self.seg_pix, flat)
        if pos == len(self.seg_pix) or self.seg_pix[pos] != flat:
            return []
        lo = self.seg_start[pos]
        hi = self.seg_start[pos + 1] if pos + 1 < len(self.seg_start) else len(self.pix)
        return list(zip(self.splat[lo:hi], self.alpha_i[lo:hi], self.trans[lo:hi]))


@dataclass
class RenderOutput(Raster):
    """A raster plus its color and feature composites, and the splats and
    camera the backward pass needs."""

    color: np.ndarray  # (H, W, 3)
    feature: np.ndarray  # (H, W, 6)
    splats: SplatSet
    camera: Camera


def _build_contributions(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """Enumerate (disk, pixel) pairs inside disks of centre (u, v) and
    radius r on a w x h image; the arrays are indexed by slot, in depth
    order.

    Returns flat (pixel, slot, d2) arrays sorted by (pixel, depth order),
    or None when no pair exists.

    The expansion runs over row spans, not bounding boxes: one record per
    (splat, row) of the splat's image-clipped box carries dv*dv and the
    columns within the half-chord sqrt(r*r - dv*dv) of the centre, widened
    by one column (plus 2^-24 r for the rounding of r*r - dv*dv at huge
    radii). Box and span are clipped in float before the int cast, so an
    infinite radius spans whole rows and a NaN radius spans none. Every
    entry keeps the exact test du*du + dv*dv <= r*r, so the kept pairs and
    the bits of d2 equal those of a scan over the whole box.

    Records are put in (row, depth order) first, so entries come out in
    (row, depth order, col) order and the final reordering stays within
    one image row. A stable argsort by flat pixel index then keeps depth
    order within each pixel. Its key is narrowed to the smallest unsigned
    type that holds h*w - 1: up to 65 536 pixels that is uint16, which
    NumPy's stable sort handles by radix, with the same permutation as an
    int64 key.
    """
    x0 = np.maximum(np.ceil(u - r), 0.0)
    x1 = np.minimum(np.floor(u + r), w - 1.0)
    y0 = np.maximum(np.ceil(v - r), 0.0)
    y1 = np.minimum(np.floor(v + r), h - 1.0)
    slots = np.flatnonzero((x1 >= x0) & (y1 >= y0))  # NaN compares False
    if slots.size == 0:
        return None

    # One record per (splat, row), put in (row, depth order).
    first_row = y0[slots].astype(np.int64)
    heights = y1[slots].astype(np.int64) - first_row + 1
    rec_slot = np.repeat(slots, heights)
    row = np.arange(rec_slot.size, dtype=np.int64) + np.repeat(
        first_row - (np.cumsum(heights) - heights), heights
    )
    by_row = np.argsort(row.astype(np.min_scalar_type(h - 1)), kind="stable")
    rec_slot = rec_slot[by_row]
    row = row[by_row]
    dv = row - v[rec_slot]
    dv2 = dv * dv
    r_rec = r[rec_slot]
    rr = r_rec * r_rec
    half = np.sqrt(np.maximum(rr - dv2, 0.0)) + (1.0 + r_rec * 2.0**-24)
    u_rec = u[rec_slot]
    lo = np.maximum(np.ceil(u_rec - half), x0[rec_slot])
    hi = np.minimum(np.floor(u_rec + half), x1[rec_slot])
    counts = np.where(hi >= lo, hi - lo + 1.0, 0.0).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return None

    # One entry per (splat, row, col) of the spans.
    span_base = lo.astype(np.int64) - (np.cumsum(counts) - counts)
    k = np.arange(total, dtype=np.int64)
    col = k + np.repeat(span_base, counts)
    du = col - np.repeat(u_rec, counts)
    d2 = du * du + np.repeat(dv2, counts)
    keep = np.flatnonzero(d2 <= np.repeat(rr, counts))
    if keep.size == 0:
        return None
    pixflat = k + np.repeat(row * w + span_base, counts)
    key = pixflat[keep].astype(np.min_scalar_type(h * w - 1))
    idx = keep[np.argsort(key, kind="stable")]
    return pixflat[idx], np.repeat(rec_slot, counts)[idx], d2[idx]


def rasterize(splats: SplatSet, camera: Camera) -> Raster:
    """Contributions, their alphas and transmittances, and the alpha image."""
    proj = project_splats(splats, camera)
    h, w = camera.height, camera.width
    built = _build_contributions(proj.u, proj.v, proj.radius_px, w, h)
    if built is None:
        none_i = np.zeros(0, dtype=np.int64)
        none_f = np.zeros(0)
        return Raster(
            pix=none_i, splat=none_i, slot=none_i, alpha_i=none_f, trans=none_f, weight=none_f,
            clamped=np.zeros(0, dtype=bool), seg_start=none_i, seg_pix=none_i,
            alpha=np.zeros((h, w)), projected=proj,
        )
    pixflat, order_pos, d2 = built

    splat_orig = proj.indices[order_pos]
    sigma = proj.sigma_px[order_pos]
    opac = splats.opacities[splat_orig]
    alpha_raw = opac * np.exp(-d2 / (2.0 * sigma * sigma))
    clamped = alpha_raw > ALPHA_MAX
    alpha = np.where(clamped, ALPHA_MAX, alpha_raw)

    # Exclusive per-pixel product of (1 - alpha) via a segmented log cumsum.
    seg_start = np.flatnonzero(np.concatenate(([True], pixflat[1:] != pixflat[:-1])))
    seg_len = np.diff(seg_start, append=len(pixflat))
    logs = np.log1p(-alpha)
    excl = np.cumsum(logs) - logs
    trans = np.exp(excl - np.repeat(excl[seg_start], seg_len))

    weight = alpha * trans
    seg_pix = pixflat[seg_start]
    alpha_img = np.zeros(h * w)
    alpha_img[seg_pix] = np.minimum(np.add.reduceat(weight, seg_start), 1.0)
    return Raster(
        pix=pixflat, splat=splat_orig, slot=order_pos, alpha_i=alpha, trans=trans, weight=weight,
        clamped=clamped, seg_start=seg_start, seg_pix=seg_pix,
        alpha=alpha_img.reshape(h, w), projected=proj,
    )


def zbuffer_owners(points: np.ndarray, radii: np.ndarray, camera: Camera) -> np.ndarray:
    """Nearest point per pixel (-1 where none), each point stamping a disk
    of world radius ``radii`` (pixel radius radii * fx / depth).

    Points at depth <= the near plane are dropped. Disks come from the same
    row-span builder as the splat contributions; where disks overlap, the
    point of smallest depth wins, ties going to the lower point index.
    """
    h, w = camera.height, camera.width
    owners = np.full(h * w, -1, dtype=np.int64)
    keep, cam, u, v = _project(points, camera)
    z = cam[:, 2]
    radius = radii[keep] * camera.fx / z
    order = np.argsort(z, kind="stable")  # stable: equal depths stay in index order
    built = _build_contributions(u[order], v[order], radius[order], w, h)
    if built is not None:
        pix, slot, _ = built
        first = np.concatenate(([True], pix[1:] != pix[:-1]))
        owners[pix[first]] = keep[order[slot[first]]]
    return owners.reshape(h, w)


def render(splats: SplatSet, camera: Camera) -> RenderOutput:
    """Rasterize color, feature, and alpha images with contributor retention."""
    ras = rasterize(splats, camera)
    h, w = camera.height, camera.width
    color = np.zeros((h * w, 3))
    feature = np.zeros((h * w, 6))
    for image, values in ((color, splats.colors), (feature, splats.features)):
        # 1-D takes from contiguous per-channel rows of the (C, n) transpose
        for ch, channel in enumerate(np.ascontiguousarray(values.T)):
            image[ras.seg_pix, ch] = np.add.reduceat(
                ras.weight * channel.take(ras.splat), ras.seg_start
            )

    return RenderOutput(**vars(ras), color=color.reshape(h, w, 3), feature=feature.reshape(h, w, 6),
                        splats=splats, camera=camera)


def render_backward(
    output: RenderOutput,
    grad_color: np.ndarray | None = None,
    grad_feature: np.ndarray | None = None,
    feature_geometry: bool = False,
) -> tuple[SplatGrads, SplatGrads]:
    """Analytic gradients of the color and feature images, one pass, two
    chains, holding the depth ordering and footprints constant.

    Returns ``(color_grads, feature_grads)``: the gradients of
    <grad_color, color image> and of <grad_feature, feature image> w.r.t.
    the splats, kept apart because the two reach different parameters. The
    color chain fills colors and the geometry (opacities, scales, centers)
    whenever ``grad_color`` is given. The feature chain fills features, and
    the geometry only when ``feature_geometry`` is set; without it the
    feature losses stay severed from geometry and only the direct
    weight * grad terms reach the features. A chain whose image gradient is
    None comes back all zero; summing the two chains gives the gradient of
    the summed objective.

    The per-contribution terms shared by both geometry chains (pixel
    offsets, sigma, d2, the Gaussian term, 1 - alpha) are built once; the
    segmented suffix scan and the per-splat sums then run once per chain.
    """
    splats = output.splats
    camera = output.camera
    proj = output.projected
    n = splats.count
    color_grads, feature_grads = SplatGrads.zeros(n), SplatGrads.zeros(n)
    # (image gradient, per-splat values, their gradient, chain, reaches geometry)
    chains = []
    if grad_color is not None:
        chains.append((grad_color, splats.colors, color_grads.colors, color_grads, True))
    if grad_feature is not None:
        chains.append((grad_feature, splats.features, feature_grads.features, feature_grads,
                       feature_geometry))
    if not chains or output.pix.size == 0:
        return color_grads, feature_grads

    splat = output.splat
    weight = output.weight
    seg_start = output.seg_start
    # Contributions of one pixel are contiguous, so per-pixel rows expand by
    # repeat instead of a gather.
    seg_len = np.diff(seg_start, append=len(splat))

    if any(geometry for *_, geometry in chains):
        alpha = output.alpha_i
        one_minus_alpha = 1.0 - alpha
        sig = proj.sigma_px.take(output.slot)
        dcol = np.repeat(output.seg_pix % camera.width, seg_len) - proj.u.take(output.slot)
        drow = np.repeat(output.seg_pix // camera.width, seg_len) - proj.v.take(output.slot)
        d2 = dcol**2 + drow**2
        inv_sig2 = 1.0 / (sig * sig)
        gauss = np.exp(-d2 * inv_sig2 / 2.0)

    for grad_img, values, value_grads, grads, geometry in chains:
        dim = values.shape[1]
        g_seg = grad_img.reshape(-1, dim).take(output.seg_pix, axis=0)
        # per channel from a contiguous row; a strided (q, dim) column read
        # made these sums ~2.5x slower
        for ch, g_ch in enumerate(np.ascontiguousarray(g_seg.T)):
            value_grads[:, ch] = np.bincount(
                splat, weights=weight * np.repeat(g_ch, seg_len), minlength=n
            )
        if not geometry:
            continue
        q = np.einsum("ij,ij->i", np.repeat(g_seg, seg_len, axis=0), values.take(splat, axis=0))

        # d(pixel)/d(alpha_i) = T_i x_i - sum_{j>i} alpha_j T_j x_j / (1 - alpha_i)
        v = weight * q
        incl = np.cumsum(v)
        incl -= np.repeat(incl[seg_start] - v[seg_start], seg_len)
        suffix = np.repeat(np.add.reduceat(v, seg_start), seg_len) - incl
        del v, incl
        d_alpha = q * output.trans - suffix / one_minus_alpha
        del q, suffix
        # Clamped alphas are constant in the parameters; with d_alpha zeroed
        # there, every geometry term below is zero there too.
        d_alpha[output.clamped] = 0.0
        grads.opacities = np.bincount(splat, weights=d_alpha * gauss, minlength=n)

        common = d_alpha * alpha
        del d_alpha
        # per projected slot: the same entries in the same order as a sum
        # over original indices, gathered by proj.indices
        du_s = np.bincount(output.slot, weights=common * dcol * inv_sig2, minlength=proj.count)
        dv_s = np.bincount(output.slot, weights=common * drow * inv_sig2, minlength=proj.count)
        dsig_s = np.bincount(output.slot, weights=common * d2 * inv_sig2 / sig,
                             minlength=proj.count)
        del common

        x, y, z = proj.cam_points[:, 0], proj.cam_points[:, 1], proj.cam_points[:, 2]
        fx, fy = camera.fx, camera.fy
        scale_kept = splats.scales[proj.indices]
        dx = du_s * fx / z
        dy = dv_s * fy / z
        dz = -(du_s * fx * x + dv_s * fy * y + dsig_s * scale_kept * fx) / (z * z)
        grads.scales[proj.indices] = dsig_s * fx / z
        grads.centers[proj.indices] = np.stack([dx, dy, dz], axis=1) @ camera.rotation
    return color_grads, feature_grads


def write_raw_f32(path: str, image: np.ndarray) -> None:
    """Header-less planar little-endian f32 dump: (C, H, W) for 3-D images,
    (H, W) as-is for single planes. Shape travels out of band (camera file)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.transpose(2, 0, 1)
    write_atomic(path, np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_raw_f32(path: str, height: int, width: int, channels: int = 0) -> np.ndarray:
    with open(path, "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<f4").astype(np.float64)
    if channels:
        expected = channels * height * width
        if flat.size != expected:
            raise DataError(f"{path}: expected {expected} floats, found {flat.size}")
        return flat.reshape(channels, height, width).transpose(1, 2, 0)
    if flat.size != height * width:
        raise DataError(f"{path}: expected {height * width} floats, found {flat.size}")
    return flat.reshape(height, width)
