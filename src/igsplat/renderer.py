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
contributions one row span per (splat, row) of the cutoff disk, with the
spans in (row, depth) order. The (pixel, depth) order it needs is the
transpose of that spans x pixels matrix, which one stable counting pass
(scipy's CSR-to-CSC conversion) builds in O(contributions + pixels); its
column pointers are the per-pixel segments. It then yields alpha,
transmittance, alpha * T and the alpha image. ``render`` adds the color and
feature composite; instance id maps need only the first step, which
``raster_bands`` also runs in runs of whole pixel rows with the same bits,
so that a large view streams in bounded memory. The same row-span
enumeration, fed point disks instead of splat cutoffs, gives the
ground-truth point z-buffer (``zbuffer_owners``).

A contribution names its splat only by its slot in the depth-sorted
projected arrays; per-splat values are gathered, and per-splat sums
scattered, through ``projected.indices``. Slots and visible splats
correspond one to one, so a sum over slots adds the same entries in the
same order as one over splat indices.

``rasterize`` frees each temporary at its last use and computes the alpha
and transmittance chains in place, with the same floating-point operations
in the same order. Its peak is then about the Raster it returns, 44-47
bytes per contribution; ``RASTER_BYTES_PER_CONTRIBUTION`` is the stated
bound (per-splat and per-pixel arrays aside), which the tests check. A
view past ``CONTRIBUTION_BUDGET`` contributions, as exploding splat scales
make, raises ContributionBudgetError (a NumericalError) before any
per-contribution array exists.

The backward pass, ``render_backward``, takes the color and the feature
image gradients together and returns one gradient set per chain, since the
training schedule routes them to different parameters. The color chain
always reaches geometry (opacities, scales, centers); the feature chain
reaches it only when asked (the joint phase) and otherwise stops at the
features. Both passes split their work into tasks that write disjoint
outputs and run them on the two threads of one persistent pool ("lanes",
``_lanes``): ``render`` composites the color and feature images side by
side, each in blocks of whole pixel segments, and ``render_backward`` runs each geometry chain in bands of pixel
segments and phases with a join between them, keeping only two whole-view
buffers per chain and rebuilding its other terms in blocks. Its results are
the same bits on any band count, any block size and on one lane or two.
With both chains on geometry a call peaks at about 62 bytes per
contribution above its RenderOutput; ``BACKWARD_BYTES_PER_CONTRIBUTION`` is
the stated bound, which the tests check.
"""
from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_tocsc

from .binio import read_json, write_atomic
from .errors import ContributionBudgetError, DataError, FormatError
from .scene_model import SplatSet

NEAR_PLANE = 0.01
ALPHA_MAX = 0.99
CUTOFF_SIGMAS = 3.0
# Memory bound of one rasterize call, in peak bytes per contribution.
RASTER_BYTES_PER_CONTRIBUTION = 64
# Memory bound of one render_backward call above its RenderOutput, in peak
# bytes per contribution, with both chains reaching geometry on two lanes.
BACKWARD_BYTES_PER_CONTRIBUTION = 96
# Contributions one view may make: a training step holds a raster and a
# backward above it, so 4 GiB over their two bounds, about 26.8M, 12x the
# ~2.2M a 128x128 view makes at init.
CONTRIBUTION_BUDGET = (4 << 30) // (
    RASTER_BYTES_PER_CONTRIBUTION + BACKWARD_BYTES_PER_CONTRIBUTION
)
# Rows per block of the backward's gathers; a block is at most 1.5 MB.
_GATHER_ROWS = 1 << 14
# Rows per block of whole pixel segments in the backward; a block is 512 KB.
_SEGMENT_ROWS = 1 << 16
# Threads of the renderer's task pool (``_lanes``).
LANES = 2
# The scalar fields of a camera file, in Camera's order; "R" and "t" follow.
_CAMERA_SCALARS = ("fx", "fy", "cx", "cy", "width", "height")


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
        return {**{name: getattr(self, name) for name in _CAMERA_SCALARS},
                "R": [float(v) for v in self.rotation.reshape(-1)],
                "t": [float(v) for v in self.translation]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Camera":
        fx, fy, cx, cy = (float(d[name]) for name in _CAMERA_SCALARS[:4])
        # __post_init__ makes R and t float64 arrays of their shapes
        return cls(fx, fy, cx, cy, int(d["width"]), int(d["height"]), d["R"], d["t"])


def save_camera(path: str, camera: Camera) -> None:
    write_atomic(path, (json.dumps(camera.to_json_dict(), indent=2, sort_keys=True) + "\n").encode())


def load_camera(path: str) -> Camera:
    fields = read_json(path, dict, _CAMERA_SCALARS + ("R", "t"))
    try:
        return Camera.from_json_dict(fields)
    except DataError:  # well formed, but not a valid camera
        raise
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed camera ({exc})") from exc


@dataclass
class ProjectedSplats:
    """Visible splats in ascending depth order (ties: ascending splat index)."""

    indices: np.ndarray  # (k,) original splat indices
    u: np.ndarray  # (k,) pixel x of the projected center
    v: np.ndarray  # (k,) pixel y
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


@dataclass
class Raster:
    """One view's contributions and alpha image, without any composite.

    The flat per-contribution arrays are sorted by (pixel, depth order):
    they are the per-pixel contributor lists the backward pass reads.
    A contribution names its splat by ``slot``: ``projected.indices[slot]``.
    ``weight`` is alpha_i * trans, the compositing weight of each
    contribution.
    """

    pix: np.ndarray  # (q,) flat pixel index
    slot: np.ndarray  # (q,) index into the projected (depth-sorted) arrays
    alpha_i: np.ndarray  # (q,) clamped alpha
    trans: np.ndarray  # (q,) transmittance before this contribution
    weight: np.ndarray  # (q,) alpha_i * trans
    clamped: np.ndarray  # (q,) bool, alpha hit the 0.99 clamp
    seg_start: np.ndarray  # (#pixels with contributions,) segment starts
    seg_pix: np.ndarray  # (#pixels,) flat pixel index per segment
    alpha: np.ndarray  # (H, W) composited alpha
    projected: ProjectedSplats


@dataclass
class RenderOutput(Raster):
    """A raster plus its color and feature composites, and the splats and
    camera the backward pass needs."""

    color: np.ndarray  # (H, W, 3)
    feature: np.ndarray  # (H, W, 6)
    splats: SplatSet
    camera: Camera


def _transpose(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, columns: int):
    """The CSR matrix (data, indices, indptr) with ``columns`` columns, in
    CSC form: its data and row numbers column by column, and the column
    pointers.

    scipy's ``csr_tocsc`` kernel is one stable counting pass, O(nnz + rows +
    columns), called here on bare arrays. Within a column the entries come
    out in ascending row order, its documented output order ("row indices
    will be in sorted order"); the builder relies on that for depth order,
    and
    ``tests/test_renderer.py::test_contributions_keep_depth_order_in_crowded_pixels``
    pins it. The index dtype is the one ``csr_matrix(...).tocsc()`` picks,
    int32 unless a count passes its range, and
    ``tests/test_renderer.py::test_transpose_equals_scipy_tocsc`` pins the
    outputs to that call byte for byte.
    """
    rows = indptr.size - 1
    index = np.int32 if max(rows, columns, data.size) <= np.iinfo(np.int32).max else np.int64
    out_data = np.empty(data.size, dtype=data.dtype)
    out_indices = np.empty(data.size, dtype=index)
    out_indptr = np.empty(columns + 1, dtype=index)
    csr_tocsc(rows, columns, indptr.astype(index, copy=False), indices.astype(index, copy=False),
              data, out_indptr, out_indices, out_data)
    return out_data, out_indices, out_indptr


def _span_records(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """The row spans of the (disk, pixel) pairs inside disks of centre
    (u, v) and radius r on a w x h image, the arrays indexed by slot in
    depth order: one record per (disk, row) of the disk's image-clipped box,
    in (row, depth order).

    Returns (rec_slot, row_ptr, row, lo, counts, u_rec, dv2): each record's
    slot, the (h + 1,) record offsets of the rows, and per record its row,
    first kept column (float), kept column count, centre column and dv*dv.
    None when no pair exists. Raises ContributionBudgetError past
    ``CONTRIBUTION_BUDGET`` pairs, before any per-pair array exists.

    The expansion runs over row spans, not bounding boxes: one record per
    (splat, row) of the splat's image-clipped box carries dv*dv and the
    columns within the half-chord sqrt(r*r - dv*dv) of the centre, widened
    by one column (plus 2^-24 r for the rounding of r*r - dv*dv at huge
    radii). Box and span are clipped in float before the int cast, so an
    infinite radius spans whole rows and a NaN radius spans none. Each span
    is then shrunk, end by end, to the columns that pass the exact test
    du*du + dv*dv <= r*r: under round-to-nearest the rounded test is
    monotone in |col - u|, so those columns are one interval. The kept
    pairs and the bits of d2 equal those of a scan over the whole box.
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
    ends = np.cumsum(heights)
    rows = np.arange(ends[-1], dtype=np.int64) + np.repeat(first_row - (ends - heights), heights)
    rec_slot, _, row_ptr = _transpose(np.repeat(slots, heights), rows,
                                      np.concatenate(([0], ends)), h)
    row = np.repeat(np.arange(h, dtype=np.int64), np.diff(row_ptr))
    del first_row, heights, ends, rows
    dv = row - v[rec_slot]
    dv2 = dv * dv
    r_rec = r[rec_slot]
    rr = r_rec * r_rec
    half = np.sqrt(np.maximum(rr - dv2, 0.0)) + (1.0 + r_rec * 2.0**-24)
    u_rec = u[rec_slot]
    lo = np.maximum(np.ceil(u_rec - half), x0[rec_slot])
    hi = np.minimum(np.floor(u_rec + half), x1[rec_slot])
    del dv, r_rec, half
    # Each end moves inward while its column fails the test, at most the
    # widening; a span with no kept column ends with lo > hi.
    for end, step in ((lo, 1.0), (hi, -1.0)):
        du = end - u_rec
        at = np.flatnonzero(~(du * du + dv2 <= rr) & (hi >= lo))
        while at.size:
            end[at] += step
            at = at[hi[at] >= lo[at]]
            du = end[at] - u_rec[at]
            at = at[~(du * du + dv2[at] <= rr[at])]
    counts = np.where(hi >= lo, hi - lo + 1.0, 0.0).astype(np.int64)
    total = int(counts.sum())
    if total > CONTRIBUTION_BUDGET:
        raise ContributionBudgetError(
            f"a {w}x{h} view makes {total} contributions, over the budget of "
            f"{CONTRIBUTION_BUDGET}; the splat scales may have exploded",
            total, CONTRIBUTION_BUDGET,
        )
    if total == 0:
        return None
    return rec_slot, row_ptr, row, lo, counts, u_rec, dv2


def _expand_spans(records: tuple, rows: slice, w: int):
    """The (disk, pixel) pairs of the ``_span_records`` of the image
    ``rows``, as (pix, slot, d2, seg_start, seg_pix): flat per-pair arrays
    sorted by (pixel, depth order), the start of each pixel's run of pairs
    in them and that pixel, a pixel of the view.

    The records come in (row, depth order), so the pairs come out grouped
    by record in that order. The (pixel, depth order) order is then the
    transpose of the records x pixels matrix: within a pixel, whose records
    all share its row, ascending record order is depth order. Entries are
    numbered from the first record of ``rows``, and every column and d2 is
    an exact integer sum or the same float expression, so a band of rows
    has the bits of the whole view's pairs.
    """
    rec_slot, row_ptr, row, lo, counts, u_rec, dv2 = records
    band = slice(row_ptr[rows.start], row_ptr[rows.stop])
    counts = counts[band]

    # One entry per (splat, row, col) of the spans, grouped by record: entry
    # k sits in column k + span_base of its record. The column is built in
    # float, where it is exact, and becomes du, then d2. Pixels count from
    # the band's first row.
    ends = np.cumsum(counts)
    total = int(ends[-1])
    span_base = lo[band] - (ends - counts)
    columns = (rows.stop - rows.start) * w
    index = np.int32 if columns <= np.iinfo(np.int32).max else np.int64
    pix = np.arange(total, dtype=index)
    pix += np.repeat(((row[band] - rows.start) * w + span_base.astype(np.int64)).astype(index),
                     counts)
    d2 = np.arange(total, dtype=np.float64)
    d2 += np.repeat(span_base, counts)
    d2 -= np.repeat(u_rec[band], counts)
    np.multiply(d2, d2, out=d2)
    d2 += np.repeat(dv2[band], counts)
    del span_base

    # The records x pixels transpose; its inputs go before the outputs grow.
    d2, rec, pix_ptr = _transpose(d2, pix, np.concatenate(([0], ends)).astype(index), columns)
    del pix, ends, counts
    slot = rec_slot[band].take(rec)
    del rec
    seg_len = np.diff(pix_ptr)
    seg_pix = np.flatnonzero(seg_len)
    seg_start = pix_ptr[seg_pix].astype(np.int64)
    seg_len = seg_len[seg_pix]
    seg_pix += rows.start * w
    pix = np.repeat(seg_pix, seg_len)
    return pix, slot, d2, seg_start, seg_pix


def _build_contributions(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """Enumerate (disk, pixel) pairs inside disks of centre (u, v) and
    radius r on a w x h image, the arrays indexed by slot in depth order:
    ``_expand_spans`` of every ``_span_records`` row, or None when no pair
    exists.
    """
    records = _span_records(u, v, r, w, h)
    return None if records is None else _expand_spans(records, slice(0, h), w)


def _row_bands(records: tuple, h: int, contributions: int | None) -> list:
    """Runs of whole image rows of about ``contributions`` pairs each (one
    run of every row when None); a run starts at a row with pairs."""
    if contributions is None:
        return [slice(0, h)]
    _, row_ptr, _, _, counts, _, _ = records
    before = np.concatenate(([0], np.cumsum(counts)))[row_ptr]  # pairs before each row
    firsts = np.searchsorted(before, np.arange(0, before[-1], contributions), side="right") - 1
    cuts = np.append(np.unique(firsts), h)
    return [slice(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]


def raster_bands(splats: SplatSet, camera: Camera, contributions: int | None = None):
    """``rasterize`` in runs of whole pixel rows of about ``contributions``
    contributions each (all rows at once when None): one Raster per run, in
    row order, whose arrays hold that run's contributions (``seg_start``
    counts from the run's first) and whose alpha image is zero off the run.
    Every contribution's alpha, transmittance and weight, and every alpha
    pixel, carries the bits of the one-run raster: the prefix sum behind the
    transmittances runs on from the runs before. A run holds about the
    Raster of its contributions, so a large view streams in bounded memory.
    """
    proj = project_splats(splats, camera)
    h, w = camera.height, camera.width
    records = _span_records(proj.u, proj.v, proj.radius_px, w, h)
    if records is None:
        none_i = np.zeros(0, dtype=np.int64)
        none_f = np.zeros(0)
        yield Raster(
            pix=none_i, slot=none_i, alpha_i=none_f, trans=none_f, weight=none_f,
            clamped=np.zeros(0, dtype=bool), seg_start=none_i, seg_pix=none_i,
            alpha=np.zeros((h, w)), projected=proj,
        )
        return
    bands = _row_bands(records, h, contributions)
    # x + -0.0 is x, signed zeros too, so the first run's scan has
    # np.cumsum's bits
    carry = -0.0
    for band in bands:
        pix, slot, d2, seg_start, seg_pix = _expand_spans(records, band, w)
        if band.stop == h:  # the last run frees the records before its own arrays grow
            del records

        # alpha = min(ALPHA_MAX, opacity * exp(-d2 / (2 sigma^2))), in d2's buffer;
        # the per-splat factors are formed before the gather, with the same bits.
        alpha = np.negative(d2, out=d2)
        np.divide(alpha, (2.0 * proj.sigma_px * proj.sigma_px).take(slot), out=alpha)
        np.exp(alpha, out=alpha)
        np.multiply(splats.opacities.take(proj.indices).take(slot), alpha, out=alpha)
        clamped = alpha > ALPHA_MAX
        alpha[clamped] = ALPHA_MAX

        # Exclusive per-pixel product of (1 - alpha) via a segmented log
        # cumsum, which becomes the transmittance in place. The cumsum runs
        # on from the runs before: their sum goes into the first term for
        # the scan, and the term comes back for the subtraction.
        seg_len = np.diff(seg_start, append=len(pix))
        logs = np.negative(alpha)
        np.log1p(logs, out=logs)
        first = logs[0]
        logs[0] += carry
        trans = np.cumsum(logs)
        logs[0] = first
        carry = trans[-1]
        trans -= logs
        del logs
        trans -= np.repeat(trans[seg_start], seg_len)
        np.exp(trans, out=trans)

        weight = alpha * trans
        alpha_img = np.zeros(h * w)
        alpha_img[seg_pix] = np.minimum(np.add.reduceat(weight, seg_start), 1.0)
        yield Raster(
            pix=pix, slot=slot, alpha_i=alpha, trans=trans, weight=weight,
            clamped=clamped, seg_start=seg_start, seg_pix=seg_pix,
            alpha=alpha_img.reshape(h, w), projected=proj,
        )
        # the caller holds the run now; let it go before the next run grows
        del pix, slot, d2, seg_start, seg_pix, seg_len, alpha, clamped, trans, weight, alpha_img


def rasterize(splats: SplatSet, camera: Camera) -> Raster:
    """Contributions, their alphas and transmittances, and the alpha image."""
    (ras,) = raster_bands(splats, camera)
    return ras


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
        _, slot, _, seg_start, seg_pix = built
        owners[seg_pix] = keep[order[slot[seg_start]]]
    return owners.reshape(h, w)


def _usable_cores() -> int:
    # the affinity set where the platform has one (Linux), else all cores
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


_pool = None
_pool_lock = threading.Lock()
_in_lane = threading.local()


def _enter_lane() -> None:
    _in_lane.active = True


def _forget_pool() -> None:
    # a forked child has none of the parent's threads
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _lane_pool() -> ThreadPoolExecutor:
    """The lanes' threads: one pool of ``LANES`` threads, started on first
    use and kept for the process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=LANES, thread_name_prefix="igsplat-lane",
                                       initializer=_enter_lane)
        return _pool


def _lanes(tasks: list) -> list:
    """Run the zero-argument callables ``tasks`` on min(usable cores,
    len(tasks), ``LANES``) threads and return their results in task order.

    The threads are one persistent pool, which takes tasks first in, first
    out, so callers put the longest first. Each task writes only its own
    outputs and waits on no other, so the results carry the same bits
    whatever the lane count. An exception in a task is raised here once
    every task has finished. With one lane, and inside a task already on a
    lane, the tasks run inline, in order; so the renderer never holds more
    than ``LANES`` threads. The renderer's tasks call no public function of
    the package, so a tracer that wraps those keeps its spans nested.
    """
    if min(_usable_cores(), len(tasks)) <= 1 or getattr(_in_lane, "active", False):
        return [task() for task in tasks]
    futures = [_lane_pool().submit(task) for task in tasks]
    wait(futures)
    return [future.result() for future in futures]


def _band_cuts(seg_start: np.ndarray, total: int, bands: int) -> np.ndarray:
    """Split a view's pixel segments into ``bands`` contiguous runs of about
    equal contribution counts: the (bands + 1,) segment indices at which
    the runs start, then the segment count. A run may be empty."""
    return np.searchsorted(seg_start, total * np.arange(bands + 1) // bands)


def _segment_runs(seg_start: np.ndarray, total: int, cuts) -> list:
    """(contributions, segments) slice pairs of the runs of pixel segments
    between consecutive ``cuts``, in a view of ``total`` contributions."""
    ends = np.append(seg_start, total)
    return [(slice(ends[first], ends[last]), slice(first, last))
            for first, last in zip(cuts[:-1], cuts[1:])]


def _segment_blocks(seg_start: np.ndarray, total: int, rows: slice, segs: slice) -> list:
    """The run ``segs`` (contributions ``rows``) in blocks of whole segments
    of about ``_SEGMENT_ROWS`` contributions, or of one longer segment."""
    firsts = np.searchsorted(seg_start, np.arange(rows.start, rows.stop, _SEGMENT_ROWS))
    return _segment_runs(seg_start, total, np.unique(np.append(firsts, segs.stop)))


def render(splats: SplatSet, camera: Camera) -> RenderOutput:
    """Rasterize color, feature, and alpha images with contributor retention.

    The feature and color composites run as two lanes (``_lanes``), each
    in blocks of whole pixel segments (``_segment_blocks``), so that a
    lane's scratch is a block's whatever the view.
    """
    ras = rasterize(splats, camera)
    h, w = camera.height, camera.width
    total = ras.pix.size
    blocks = _segment_blocks(ras.seg_start, total, slice(0, total), slice(0, ras.seg_start.size))

    def composite(values: np.ndarray) -> np.ndarray:
        image = np.zeros((h * w, values.shape[1]))
        # 1-D takes from contiguous per-channel rows of the (C, k) per-slot transpose
        channels = np.ascontiguousarray(values[ras.projected.indices].T)
        for block, segs in blocks:
            slot, weight = ras.slot[block], ras.weight[block]
            starts, pixels = ras.seg_start[segs] - block.start, ras.seg_pix[segs]
            for ch, channel in enumerate(channels):
                image[pixels, ch] = np.add.reduceat(weight * channel.take(slot), starts)
        return image.reshape(h, w, -1)

    feature, color = _lanes([partial(composite, splats.features),
                             partial(composite, splats.colors)])
    return RenderOutput(**vars(ras), color=color, feature=feature, splats=splats, camera=camera)


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

    A geometry chain runs in max(1, lanes // geometry chains) bands of
    pixel segments and four phases with a join between them: the gathers
    of <grad, value>, one prefix sum over the view, d_alpha, and the slot
    sums of all chains in ``LANES`` groups beside the value task (the
    direct weight * grad sums, one sparse product). It keeps only its q and
    v over the view; the last two phases rebuild the offsets, d2,
    1 / sigma^2 and 1 - alpha they read per block of whole segments
    (``_segment_blocks``). Every per-splat sum adds its slot's terms in
    order, as a bincount over slots does, so any band count or block size
    gives the same bits; culled splats keep zeros. The call peaks within
    ``BACKWARD_BYTES_PER_CONTRIBUTION`` bytes per contribution.
    """
    splats = output.splats
    camera = output.camera
    proj = output.projected
    color_grads, feature_grads = SplatGrads.zeros(splats.count), SplatGrads.zeros(splats.count)
    # (image gradient, per-splat values, their gradient, chain, reaches geometry);
    # the wider feature chain first, as its tasks take longest
    chains = []
    if grad_feature is not None:
        chains.append((grad_feature, splats.features, feature_grads.features, feature_grads,
                       feature_geometry))
    if grad_color is not None:
        chains.append((grad_color, splats.colors, color_grads.colors, color_grads, True))
    if not chains or output.pix.size == 0:
        return color_grads, feature_grads

    slot = output.slot
    weight = output.weight
    seg_start = output.seg_start

    def value_task():
        # The direct weight * grad sums of every chain's channels are one
        # sparse product: the slots x pixels matrix of weights, whose columns
        # hold each pixel's contributions in order, times the image gradients
        # at those pixels side by side. csc_matvecs adds each slot's products
        # in contribution order, as a bincount over the slots would: the same
        # bits where the build does not fuse the multiply-add (x86-64).
        grads = np.concatenate(
            [grad_img.reshape(-1, value_grads.shape[1]).take(output.seg_pix, axis=0)
             for grad_img, _, value_grads, _, _ in chains], axis=1)
        sums = np.zeros((proj.count, grads.shape[1]))
        csc_matvecs(proj.count, seg_start.size, grads.shape[1], np.append(seg_start, slot.size),
                    slot, weight, grads.ravel(), sums.ravel())
        first = 0
        for _, _, value_grads, _, _ in chains:
            value_grads[proj.indices] = sums[:, first:first + value_grads.shape[1]]
            first += value_grads.shape[1]

    geometry_chains = [(grad_img, values, grads)
                       for grad_img, values, _, grads, geometry in chains if geometry]
    if not geometry_chains:
        value_task()
        return color_grads, feature_grads

    # Contributions of one pixel are contiguous, so a run of whole pixel
    # segments expands its per-pixel rows by repeat instead of a gather.
    seg_len = np.diff(seg_start, append=len(slot))
    alpha = output.alpha_i
    slot_inv_sig2 = 1.0 / (proj.sigma_px * proj.sigma_px)

    def offset(rows, segs, axis):
        # each contribution's pixel column (axis 0) or row (axis 1) minus its splat centre's
        pixel = output.seg_pix[segs]
        pixel = pixel % camera.width if axis == 0 else pixel // camera.width
        return np.subtract(np.repeat(pixel, seg_len[segs]), (proj.u, proj.v)[axis].take(slot[rows]))

    def squared_distance(dcol, drow, out=None):
        d2 = np.square(dcol, out=out)
        d2 += np.square(drow)
        return d2

    def gather_task(grad_img, values, q, v, totals, firsts, rows, segs):
        # <image gradient, value> per contribution, in row blocks so the two
        # (rows, dim) operands stay small; each row's sum is the same einsum
        starts = seg_start[segs] - rows.start
        flat_grad = grad_img.reshape(-1, values.shape[1])
        slot_values = values[proj.indices]
        band_slot, band_pix, band_q = slot[rows], output.pix[rows], q[rows]
        for lo in range(0, band_q.size, _GATHER_ROWS):
            block = slice(lo, lo + _GATHER_ROWS)
            np.einsum("ij,ij->i", flat_grad.take(band_pix[block], axis=0),
                      slot_values.take(band_slot[block], axis=0), out=band_q[block])
        band_v = np.multiply(weight[rows], band_q, out=v[rows])
        totals[segs] = np.add.reduceat(band_v, starts)
        firsts[segs] = band_v[starts]

    def alpha_task(q, v, totals, firsts, blocks):
        # d(pixel)/d(alpha_i) = T_i x_i - sum_{j>i} alpha_j T_j x_j / (1 - alpha_i),
        # the suffix from the view's inclusive cumsum of v = weight * q, in
        # v's rows; d_alpha goes to q's. A block's segments start in the
        # block, so their scanned starts are read before it changes.
        for block, block_segs in blocks:
            lens = seg_len[block_segs]
            suffix = v[block]
            before = suffix[seg_start[block_segs] - block.start] - firsts[block_segs]
            suffix -= np.repeat(before, lens)
            np.subtract(np.repeat(totals[block_segs], lens), suffix, out=suffix)
            suffix /= 1.0 - alpha[block]
            d_alpha = np.multiply(q[block], output.trans[block], out=q[block])
            d_alpha -= suffix
            # Clamped alphas are constant in the parameters; with d_alpha
            # zeroed there, every geometry term below is zero there too.
            d_alpha[output.clamped[block]] = 0.0
            # The opacity terms, d_alpha times the Gaussian exp(-d2 / (2 sigma^2)),
            # in v's rows; then d_alpha * alpha, which the offset terms share.
            product = squared_distance(offset(block, block_segs, 0), offset(block, block_segs, 1),
                                       out=suffix)
            np.negative(product, out=product)
            product *= slot_inv_sig2.take(slot[block])
            product /= 2.0
            np.exp(product, out=product)
            product *= d_alpha
            np.multiply(d_alpha, alpha[block], out=d_alpha)

    def sums_task(group):
        # The opacity, u, v and sigma sums (rows 0-3) of (chain, row) pairs;
        # each block rebuilds only the offsets its rows read. Its terms, as
        # the data of a one-column sparse matrix with the slots as row
        # numbers, times 1.0 (exact, fused or not), add into the slots in
        # contribution order, as a bincount does; csc_matvec releases the lock.
        rows_read, one = {row for _, row in group}, np.ones(1)
        for block, block_segs in view_blocks:
            block_slot = slot[block]
            dcol = offset(block, block_segs, 0) if rows_read & {1, 3} else None
            drow = offset(block, block_segs, 1) if rows_read & {2, 3} else None
            offsets = (dcol, drow, squared_distance(dcol, drow) if 3 in rows_read else None)
            inv_sig2 = slot_inv_sig2.take(block_slot) if rows_read - {0} else None
            for chain, row in group:
                if row:  # u, v and sigma: d_alpha * alpha * offset / sigma^2
                    terms = np.multiply(qs[chain][block], offsets[row - 1])
                    terms *= inv_sig2
                    if row == 3:  # the sigma sum has one more factor, 1 / sigma
                        terms /= proj.sigma_px.take(block_slot)
                else:
                    terms = vs[chain][block]
                csc_matvec(proj.count, 1, np.array([0, terms.size], dtype=slot.dtype), block_slot,
                           terms, one, slot_sums[chain][row])

    lanes = min(_usable_cores(), LANES)
    chain_bands = _segment_runs(seg_start, len(slot), _band_cuts(
        seg_start, len(slot), max(1, lanes // len(geometry_chains))))
    band_blocks = [_segment_blocks(seg_start, len(slot), *band) for band in chain_bands]
    view_blocks = [block for blocks in band_blocks for block in blocks]
    # The four phases: gathers, scan, d_alpha, sums. Per chain: q (then
    # d_alpha * alpha), v = weight * q (scanned in place, then the opacity
    # terms), v's per-segment totals and first values, and the slot sums.
    qs, vs = ([np.empty(len(slot)) for _ in geometry_chains] for _ in range(2))
    totals, firsts = ([np.empty(seg_start.size) for _ in geometry_chains] for _ in range(2))
    slot_sums = [np.zeros((4, proj.count)) for _ in geometry_chains]
    _lanes([partial(gather_task, grad_img, values, *buffers, *band)
            for (grad_img, values, _), *buffers in zip(geometry_chains, qs, vs, totals, firsts)
            for band in chain_bands])
    _lanes([partial(np.cumsum, v, out=v) for v in vs])
    _lanes([partial(alpha_task, *buffers, blocks)
            for buffers in zip(qs, vs, totals, firsts) for blocks in band_blocks])
    # The 4 slot sums of every geometry chain, in LANES contiguous groups:
    # one chain each in the joint step, two sums each for a lone chain.
    pairs = [(chain, row) for chain in range(len(geometry_chains)) for row in range(4)]
    _lanes([partial(sums_task, pairs[i * len(pairs) // LANES:(i + 1) * len(pairs) // LANES])
            for i in range(LANES)] + [value_task])

    x, y, z = proj.cam_points[:, 0], proj.cam_points[:, 1], proj.cam_points[:, 2]
    fx, fy = camera.fx, camera.fy
    scale_kept = splats.scales[proj.indices]
    for (_, _, grads), (opacity_s, du_s, dv_s, dsig_s) in zip(geometry_chains, slot_sums):
        grads.opacities[proj.indices] = opacity_s
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
