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
spans in (row, depth) order; a span record is formed from its splat and
row alone, so a range of rows has the whole image's records of those
rows. The (pixel, depth) order it needs is the transpose of that spans x
pixels matrix, which one stable counting pass (scipy's CSR-to-CSC
conversion) builds in O(contributions + pixels); its column pointers are
the per-pixel segments. It then yields alpha,
transmittance and the alpha image. A pixel's transmittances are its own
product of (1 - alpha), so their log scan restarts at every image row
(``_row_scan``) and a run of whole rows reads nothing outside itself.
``render`` adds the color and feature composite, one sparse product per
run of the weights alpha * T and the values; instance id maps need only
the first step, which ``raster_bands`` also runs one run of rows after
another with the same bits, handing each run's weights to the votes, so
that a large view streams in bounded memory. The same row-span
enumeration, fed point disks instead of splat cutoffs, gives the
ground-truth point z-buffer (``zbuffer_owners``).

A contribution names its splat only by its slot in the depth-sorted
projected arrays; per-splat values are gathered, and per-splat sums
scattered, through ``projected.indices``. Slots and visible splats
correspond one to one, so a sum over slots adds the same entries in the
same order as one over splat indices.

The Raster keeps only what the backward cannot rebuild with the same
bits: int32 slots, alpha and transmittance, 20 bytes per contribution.
The weight alpha * T is one multiply, which the backward redoes per run
with the same bits; a contribution's pixel is its pixel segment's, which
the backward's gathers and the votes repeat over the segment; and its
alpha hit the clamp where it equals ``ALPHA_MAX``. ``rasterize``
allocates the Raster's arrays once and writes every step into them in
place, with the same floating-point operations in the same order as one
pass over the view; each lane's logs and then weights live in one
scratch array of its longest run. Its peak is the Raster, the span
records and one run of rows in flight per lane, 33-47 bytes per
contribution on the tests' views; ``RASTER_BYTES_PER_CONTRIBUTION`` is
the stated bound (per-splat and per-pixel arrays aside), which the tests
check. A view past ``CONTRIBUTION_BUDGET`` contributions, as exploding
splat scales make, raises ContributionBudgetError (a NumericalError)
before any per-contribution array exists.

The backward pass, ``render_backward``, takes the color and the feature
image gradients together and returns one gradient set per chain, since the
training schedule routes them to different parameters. The color chain
always reaches geometry (opacities, scales, centers); the feature chain
reaches it only when asked (the joint phase) and otherwise stops at the
features. Both passes split their work into tasks that write disjoint
outputs and run them on the two threads of one persistent pool ("lanes",
``_lanes``), one task per lane group of the view's cutting, which
``_row_runs`` makes for both passes and the id maps: ``LANES`` groups of
about equal contribution counts, each cut into runs of whole pixel rows.
The forward is two phases. In the first, each of ``LANES`` row ranges of
about equal estimated counts (``_record_rows``) is one task, which builds
the range's span records. After the join the view's counts before each
row give the budget check, the Raster and the groups, whose runs are
also cut where the ranges meet. In the second, a lane takes its group's
runs in turn: in ``rasterize`` and ``render`` it expands each run's
spans, computes their alphas, transmittances, weights and alpha pixels
and, in ``render``, the run's composite while it is in cache. The id maps
(``raster_bands``) build one range's records at a time, on the calling
thread, and free them after its last run. The backward is one phase,
which takes its group's runs in turn: ``render_backward`` rebuilds the
groups from the Raster's segments and, run by run, forms every chain's
direct sums, gathers, scans by row, d_alpha and Gaussian terms, adding
them into its group's own per-slot partials, so no term spans the view.
Each per-splat sum adds its group's terms in contribution order, then the
groups in row order. The forward gives the same bits on any cutting into
row ranges, runs and groups, the backward on any cutting of its groups
into runs, both on one lane or two. With both chains on geometry a call
peaks at
about 50 bytes per contribution above its RenderOutput, and a training
step's render and backward together at about 73-75;
``BACKWARD_BYTES_PER_CONTRIBUTION`` and ``STEP_BYTES_PER_CONTRIBUTION``
are the stated bounds, which the tests check.
"""
from __future__ import annotations

import json
import os
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvecs, csr_tocsc

from .binio import read_json, write_atomic
from .errors import ContributionBudgetError, DataError, FormatError
from .scene_model import SplatSet

NEAR_PLANE = 0.01
ALPHA_MAX = 0.99
CUTOFF_SIGMAS = 3.0
# Memory bound of one rasterize call, in peak bytes per contribution:
# 46.8-47.8 measured on the tests' 145k-contribution view, plus 4; with
# the scans by row, 41.3-47.0.
RASTER_BYTES_PER_CONTRIBUTION = 52
# Memory bound of one render_backward call above its RenderOutput, in peak
# bytes per contribution, with both chains reaching geometry on two lanes:
# 48.2-51.0 measured on the tests' 432k-contribution view, plus 10.
BACKWARD_BYTES_PER_CONTRIBUTION = 61
# Memory bound of one training step, a render and a joint-phase backward of
# its output, in peak bytes per contribution: the kept Raster's 20 bytes,
# the backward's former bound of 72 above it, and 3 for the images and
# per-pixel arrays; 72.7-75.4 measured on the tests' 432k-contribution
# view. CONTRIBUTION_BUDGET, a documented exit path, derives from it.
STEP_BYTES_PER_CONTRIBUTION = 95
# Contributions one view may make: 4 GiB over a training step's bound,
# about 45.2M, 20x the ~2.2M a 128x128 view makes at init.
CONTRIBUTION_BUDGET = (4 << 30) // STEP_BYTES_PER_CONTRIBUTION
# Contributions per run of whole pixel rows (``_row_runs``), which the
# forward, the backward and the id maps walk; 512 KB per float array.
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
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, *self.rotation.flat,
                            *self.translation]).all():
            raise DataError("camera intrinsics, rotation and translation must be finite")
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
        """TypeError unless the sizes are JSON integers and the other scalars
        and the entries of R and t JSON numbers; true and false are neither."""
        numbers = [d[name] for name in _CAMERA_SCALARS[:4]] + [*d["R"], *d["t"]]
        if {type(d["width"]), type(d["height"])} != {int} or not {type(v) for v in numbers} <= {int, float}:
            raise TypeError("sizes must be JSON integers, the other fields JSON numbers")
        # __post_init__ makes R and t float64 arrays of their shapes
        return cls(*(float(d[name]) for name in _CAMERA_SCALARS[:4]), d["width"], d["height"], d["R"], d["t"])


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
    they are the per-pixel contributor lists the backward pass reads, each
    pixel's list one segment. A contribution names its splat by ``slot``:
    ``projected.indices[slot]``. The Raster keeps only the slot, alpha and
    transmittance, 20 bytes per contribution; what else a reader needs is
    rebuilt with the same bits. The weight alpha_i * trans is one multiply
    per run; a contribution's pixel is its segment's (``pix``); and its
    alpha hit the clamp where it equals ``ALPHA_MAX`` (``clamped``).
    ``slot`` is int32 while the projected splats fit it; readers widen a
    run of it to int64 before a ``take``, which runs several times
    faster.
    """

    slot: np.ndarray  # (q,) index into the projected (depth-sorted) arrays, int32
    alpha_i: np.ndarray  # (q,) clamped alpha
    trans: np.ndarray  # (q,) transmittance before this contribution
    seg_start: np.ndarray  # (#pixels with contributions,) segment starts
    seg_pix: np.ndarray  # (#pixels,) flat pixel index per segment
    alpha: np.ndarray  # (H, W) composited alpha
    projected: ProjectedSplats

    @property
    def pix(self) -> np.ndarray:
        """(q,) flat pixel index of each contribution, rebuilt from the
        segments on each read: int32, int64 past 2^31 pixels."""
        return np.repeat(self.seg_pix.astype(_index_dtype(self.alpha.size)),
                         np.diff(self.seg_start, append=self.slot.size))

    @property
    def clamped(self) -> np.ndarray:
        """(q,) bool, the contribution's alpha hit the 0.99 clamp: alpha_i
        equals ``ALPHA_MAX``, which an unclamped alpha of exactly 0.99 does
        too (``render_backward``)."""
        return self.alpha_i >= ALPHA_MAX


@dataclass
class RenderOutput(Raster):
    """A raster plus its color and feature composites, and the splats and
    camera the backward pass needs."""

    color: np.ndarray  # (H, W, 3)
    feature: np.ndarray  # (H, W, 6)
    splats: SplatSet
    camera: Camera


def _index_dtype(count: int):
    """int32 when every index up to ``count`` fits in it, else int64."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


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
    index = _index_dtype(max(rows, columns, data.size))
    out_data = np.empty(data.size, dtype=data.dtype)
    out_indices = np.empty(data.size, dtype=index)
    out_indptr = np.empty(columns + 1, dtype=index)
    csr_tocsc(rows, columns, indptr.astype(index, copy=False), indices.astype(index, copy=False),
              data, out_indptr, out_indices, out_data)
    return out_data, out_indices, out_indptr


def _boxes(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """The image-clipped boxes of disks of centre (u, v) and radius r on a
    w x h image: (x0, x1, y0, y1), each box's first and last column and
    row as floats. Clipped in float before any int cast, so an infinite
    radius spans the image and a NaN radius gives a box no comparison
    finds non-empty."""
    return (np.maximum(np.ceil(u - r), 0.0), np.minimum(np.floor(u + r), w - 1.0),
            np.maximum(np.ceil(v - r), 0.0), np.minimum(np.floor(v + r), h - 1.0))


def _group_bounds(before: np.ndarray) -> np.ndarray:
    """The ``LANES`` + 1 row bounds of ``LANES`` groups of rows of about
    equal counts, from ``before``, the (h + 1,) count before each row: a
    group starts at the row boundary nearest its share of the total."""
    shares = int(before[-1]) * np.arange(LANES) // LANES
    return np.append(np.searchsorted(before[:-1] + before[1:], 2 * shares, side="right"),
                     before.size - 1)


def _record_rows(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int) -> list:
    """The row ranges whose ``_span_records`` the forward builds one lane
    task each, as slices: the non-empty ``_group_bounds`` of a per-row
    estimate that counts each disk's clipped box width on each row of its
    box, at least its kept columns there. A view whose estimate passes
    ``CONTRIBUTION_BUDGET`` is one range: ``raster_bands`` builds one range
    after another, and so checks the whole view's count before it
    rasterizes a run, and a view within the estimate is within the budget.
    """
    x0, x1, y0, y1 = _boxes(u, v, r, w, h)
    box = np.flatnonzero((x1 >= x0) & (y1 >= y0))  # NaN compares False
    width = x1[box] - x0[box] + 1.0
    # each box's width from its first row on, less from the row past its last
    steps = np.bincount(y0[box].astype(np.int64), weights=width, minlength=h + 1)
    steps -= np.bincount(y1[box].astype(np.int64) + 1, weights=width, minlength=h + 1)
    # integers far below 2^53, so the float sums are exact
    before = np.concatenate(([0], np.cumsum(np.cumsum(steps[:h])))).astype(np.int64)
    if before[-1] > CONTRIBUTION_BUDGET:
        return [slice(0, h)]
    bounds = _group_bounds(before).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _span_records(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int, rows: slice):
    """The row spans of the (disk, pixel) pairs on the image ``rows`` inside
    disks of centre (u, v) and radius r on a w x h image, the arrays
    indexed by slot in depth order: one record per (disk, row) of the
    disk's image-clipped box within ``rows``, in (row, depth order).

    Returns (rec_slot, row_ptr, lo, counts, u_rec, dv2): each record's
    slot, the (h + 1,) record offsets of the image rows (rows outside
    ``rows`` hold none), and per record its first kept column (float),
    kept column count, centre column and dv*dv. None when no pair exists.
    Every record is formed from its own disk and row alone, so the records
    of any row range are byte for byte the whole image's records of those
    rows; the caller checks the budget on their counts
    (``_counts_before``).

    The expansion runs over row spans, not bounding boxes: one record per
    (splat, row) of the splat's image-clipped box carries dv*dv and a first
    span, the columns within s + m of the centre, s = sqrt(r*r - dv*dv) as
    computed and m = r 2^-24 + 2^-40, a margin below one column for radii
    below 2^23 px. The span holds every column the rounded test du*du +
    dv*dv <= r*r keeps. Take eps = 2^-53 and rr, dv2 the computed r*r and
    dv*dv, which test and span share. The test's two roundings each scale
    a value by a factor within 1 +- eps, so a kept column's computed du =
    col - u has du*du <= max(rr - dv2, 0) + 2.01 eps rr. So |du| exceeds
    the exact root of max(rr - dv2, 0) by at most sqrt(2.01 eps) r (1 +
    eps) < 2^-25.99 r; that root exceeds s by at most 2.01 eps s, and the
    exact |col - u| exceeds |du| by at most eps |du|. With s <= r (1 + 2
    eps), |col - u| < s + 2^-25.98 r, which s + m, rounded, still exceeds
    by over half its r 2^-24. Rounding is monotone and a column is an exact
    float, so u -+ (s + m), rounded, still lies beyond every kept column.
    The 2^-40 term covers the absolute error, below 2^-537, of a subnormal
    square, where the relative bounds fail. An infinite rr spans the whole
    box. Box and span are clipped in float before the int cast, so an
    infinite radius spans whole rows and a NaN radius spans none. Each
    span is then shrunk, end by end, to the columns that pass the exact
    test (``_shrink_ends``), which moves almost no end: under
    round-to-nearest the rounded test is monotone in |col - u|, so those
    columns are one interval. The kept pairs and the bits of d2 equal
    those of a scan over the whole box.
    """
    x0, x1, y0, y1 = _boxes(u, v, r, w, h)
    y0 = np.maximum(y0, float(rows.start))
    y1 = np.minimum(y1, rows.stop - 1.0)
    slots = np.flatnonzero((x1 >= x0) & (y1 >= y0))  # NaN compares False
    if slots.size == 0:
        return None

    # One record per (splat, row), put in (row, depth order).
    first_row = y0[slots].astype(np.int64)
    heights = y1[slots].astype(np.int64) - first_row + 1
    ends = np.cumsum(heights)
    rec_rows = np.arange(ends[-1], dtype=np.int64) + np.repeat(first_row - (ends - heights), heights)
    rec_slot, _, row_ptr = _transpose(np.repeat(slots, heights), rec_rows,
                                      np.concatenate(([0], ends)), h)
    del first_row, heights, ends, rec_rows
    # Takes gather several times faster than fancy indexing by int64 slots.
    # dv = row - v, the int row converted to float exactly.
    dv2 = np.repeat(np.arange(h, dtype=np.float64), np.diff(row_ptr))
    dv2 -= v.take(rec_slot)
    dv2 *= dv2
    r_rec = r.take(rec_slot)
    rr = r_rec * r_rec
    half = np.maximum(rr - dv2, 0.0)
    np.sqrt(half, out=half)
    half += (r * 2.0**-24 + 2.0**-40).take(rec_slot)
    u_rec = u.take(rec_slot)
    lo = np.maximum(np.ceil(u_rec - half), x0.take(rec_slot))
    hi = np.minimum(np.floor(u_rec + half), x1.take(rec_slot))
    del r_rec, half
    _shrink_ends(lo, hi, u_rec, dv2, rr)
    counts = np.where(hi >= lo, hi - lo + 1.0, 0.0).astype(np.int64)
    if not counts.any():
        return None
    return rec_slot, row_ptr, lo, counts, u_rec, dv2


def _shrink_ends(lo: np.ndarray, hi: np.ndarray, u_rec: np.ndarray, dv2: np.ndarray,
                 rr: np.ndarray) -> None:
    """Move each span's ends [lo, hi] inward, in place, while the end's
    column fails the test du*du + dv2 <= rr, at most the first span's
    margin; a span with no kept column ends with lo > hi."""
    for end, step in ((lo, 1.0), (hi, -1.0)):
        du = end - u_rec
        at = np.flatnonzero(~(du * du + dv2 <= rr) & (hi >= lo))
        while at.size:
            end[at] += step
            at = at[hi[at] >= lo[at]]
            du = end[at] - u_rec[at]
            at = at[~(du * du + dv2[at] <= rr[at])]


def _counts_before(record_sets: list, w: int, h: int) -> np.ndarray:
    """The (h + 1,) count of contributions before each row over the
    ``_span_records`` of ``record_sets`` (None for a set without any).
    Raises ContributionBudgetError past ``CONTRIBUTION_BUDGET``
    contributions, before any per-contribution array exists."""
    before = np.zeros(h + 1, dtype=np.int64)
    for records in record_sets:
        if records is not None:
            before += np.concatenate(([0], np.cumsum(records[3])))[records[1]]
    total = int(before[-1])
    if total > CONTRIBUTION_BUDGET:
        raise ContributionBudgetError(
            f"a {w}x{h} view makes {total} contributions, over the budget of "
            f"{CONTRIBUTION_BUDGET}; the splat scales may have exploded",
            total, CONTRIBUTION_BUDGET,
        )
    return before


def _expand_spans(records: tuple, rows: slice, w: int, slot: np.ndarray, d2: np.ndarray,
                  scratch: np.ndarray):
    """Write the (disk, pixel) pairs of the ``_span_records`` of the image
    ``rows`` into the flat arrays ``slot`` (int64) and ``d2``, sorted by
    (pixel, depth order), and return (seg_start, seg_pix): the start of
    each pixel's run of pairs in them and that pixel, a pixel of the view.
    ``scratch``, a float array of their length, is overwritten.

    The records come in (row, depth order), so the pairs come out grouped
    by record in that order. The (pixel, depth order) order is then the
    transpose of the records x pixels matrix: within a pixel, whose records
    all share its row, ascending record order is depth order. The
    transpose carries each pair's pixel and names its record, from which
    the pair's slot, du and dv*dv are gathered. Entries are numbered from
    the first record of ``rows``, and every column and d2 is an exact
    integer or the same float expression, so a band of rows has the bits of
    the whole view's pairs.
    """
    rec_slot, row_ptr, lo, counts, u_rec, dv2 = records
    band = slice(row_ptr[rows.start], row_ptr[rows.stop])
    counts = counts[band]

    # One entry per (splat, row, col) of the spans, grouped by record: entry
    # k sits in column k + span_base of its record. Pixels count from the
    # band's first row, whose records' rows come from the row offsets.
    ends = np.cumsum(counts)
    total = int(ends[-1])
    span_base = lo[band] - (ends - counts)
    columns = (rows.stop - rows.start) * w
    index = _index_dtype(columns)
    row = np.repeat(np.arange(rows.stop - rows.start, dtype=np.int64),
                    np.diff(row_ptr[rows.start:rows.stop + 1]))
    band_pix = np.arange(total, dtype=index)
    band_pix += np.repeat((row * w + span_base.astype(np.int64)).astype(index), counts)
    del span_base, row

    # The records x pixels transpose, whose data are the pixels themselves
    band_pix, rec, pix_ptr = _transpose(band_pix, band_pix, np.concatenate(([0], ends)).astype(index),
                                        columns)
    del ends, counts
    # d2 = (col - u)^2 + dv^2; the int column converts to float exactly
    np.remainder(band_pix, w, out=d2)
    del band_pix
    # Takes gather several times faster by intp indices, and write to out
    # unbuffered in clip mode, which never fires here.
    rec = rec.astype(np.int64)
    rec_slot[band].take(rec, out=slot, mode="clip")
    d2 -= u_rec[band].take(rec, out=scratch, mode="clip")
    np.multiply(d2, d2, out=d2)
    d2 += dv2[band].take(rec, out=scratch, mode="clip")
    del rec
    seg_len = np.diff(pix_ptr)
    seg_pix = np.flatnonzero(seg_len)
    seg_start = pix_ptr[seg_pix].astype(np.int64)
    seg_pix += rows.start * w
    return seg_start, seg_pix


def _build_contributions(u: np.ndarray, v: np.ndarray, r: np.ndarray, w: int, h: int):
    """Enumerate (disk, pixel) pairs inside disks of centre (u, v) and
    radius r on a w x h image, the arrays indexed by slot in depth order:
    (pix, slot, d2, seg_start, seg_pix) of every ``_span_records`` row
    (``_expand_spans``), the int64 pixels repeated from the segments, or
    None when no pair exists.
    """
    records = _span_records(u, v, r, w, h, slice(0, h))
    total = int(_counts_before([records], w, h)[-1])
    if total == 0:
        return None
    slot, d2 = np.empty(total, dtype=np.int64), np.empty(total)
    seg_start, seg_pix = _expand_spans(records, slice(0, h), w, slot, d2, np.empty(total))
    return np.repeat(seg_pix, np.diff(seg_start, append=total)), slot, d2, seg_start, seg_pix


def _row_runs(before: np.ndarray, cuts=()) -> list:
    """How every pass cuts a view, from ``before``, the (h + 1,) count of
    contributions before each row: ``LANES`` groups of rows of about equal
    contribution counts (``_group_bounds``), each cut into runs of whole
    rows of about ``_SEGMENT_ROWS`` contributions that start at rows with
    contributions and at the rows ``cuts``. Returns the non-empty groups
    in row order, as lists of their non-empty (rows, entries) slice pairs;
    ``entries`` number the view's contributions."""
    # A run starts at the row of every _SEGMENT_ROWS-th contribution of its
    # group and at each cut within the group.
    bounds = _group_bounds(before)
    cuts = np.asarray(cuts, dtype=np.int64)
    groups = []
    for first, stop in zip(bounds[:-1], bounds[1:]):
        if before[stop] > before[first]:
            rows = np.searchsorted(before, np.arange(before[first], before[stop], _SEGMENT_ROWS),
                                   side="right") - 1
            edges = np.append(np.union1d(rows, cuts[(cuts > rows[0]) & (cuts < stop)]), stop).tolist()
            groups.append([(slice(a, b), slice(int(before[a]), int(before[b])))
                           for a, b in zip(edges[:-1], edges[1:]) if before[b] > before[a]])
    return groups


def _view_runs(splats: SplatSet, camera: Camera):
    """The set-up of a forward pass: the projected splats, the row ranges
    of their ``_span_records`` (``_record_rows``) and the per-slot factors
    of alpha, 2 sigma^2 and the opacity."""
    proj = project_splats(splats, camera)
    ranges = _record_rows(proj.u, proj.v, proj.radius_px, camera.width, camera.height)
    return proj, ranges, (2.0 * proj.sigma_px * proj.sigma_px, splats.opacities.take(proj.indices))


def _new_raster(contributions: int, proj: ProjectedSplats, camera: Camera) -> Raster:
    """A Raster of ``contributions`` unset contributions, no segments and a
    zero alpha image."""
    return Raster(
        slot=np.empty(contributions, dtype=_index_dtype(proj.count)),
        alpha_i=np.empty(contributions), trans=np.empty(contributions),
        seg_start=np.zeros(0, dtype=np.int64), seg_pix=np.zeros(0, dtype=np.int64),
        alpha=np.zeros((camera.height, camera.width)), projected=proj,
    )


def _row_scan(terms: np.ndarray, out: np.ndarray, bounds: np.ndarray) -> None:
    """The inclusive prefix sums of a run's ``terms`` into ``out``, which
    may be ``terms``, restarted at every image row: ``bounds`` are the
    offsets of the run's rows in it, and its end. A pixel's entries lie in
    its row, so the sums read nothing outside the run, and no cutting of
    the rows into runs changes a bit of them."""
    bounds = bounds.tolist()
    for first, stop in zip(bounds[:-1], bounds[1:]):
        if stop > first:
            np.cumsum(terms[first:stop], out=out[first:stop])


def _raster_run(records: tuple, rows: slice, before: np.ndarray, w: int, factors: tuple,
                ras: Raster, run: slice, scratch: np.ndarray):
    """Rasterize the run of image ``rows``, whose contributions are the
    entries ``run`` of ``ras`` (``before`` counts the view's contributions
    before each row): their slots, clamped alphas and transmittances, and
    the run's alpha pixels. ``scratch``, a float array of the run's
    length, comes back holding the weights alpha * T. Returns (seg_start,
    seg_pix, weight), the starts counted from the run's first entry.

    The exclusive per-pixel product of (1 - alpha) is the log cumsum by
    rows less its value at the pixel's first entry, which becomes the
    transmittance in place."""
    two_sig2, opacity = factors
    alpha, trans = ras.alpha_i[run], ras.trans[run]
    # No array of the run's length is allocated here: d2 goes into the
    # transmittance's entries, which the scan overwrites, with alpha's
    # entries as the scratch, and the int64 slots, for the takes, into
    # ``scratch`` until the logs are formed there.
    slot = scratch.view(np.int64)
    seg_start, seg_pix = _expand_spans(records, rows, w, slot, trans, alpha)
    ras.slot[run] = slot
    # alpha = min(ALPHA_MAX, opacity * exp(-d2 / (2 sigma^2))); the per-splat
    # factors are formed before the gather, with the same bits, and gathered
    # into d2's entries once alpha no longer reads them.
    np.negative(trans, out=alpha)
    np.divide(alpha, two_sig2.take(slot, out=trans, mode="clip"), out=alpha)
    np.exp(alpha, out=alpha)
    np.multiply(opacity.take(slot, out=trans, mode="clip"), alpha, out=alpha)
    # the clamp in one pass: NaN stays NaN and -0.0 stays -0.0, as under a
    # masked write
    np.minimum(alpha, ALPHA_MAX, out=alpha)
    logs = np.negative(alpha, out=scratch)
    np.log1p(logs, out=logs)
    _row_scan(logs, trans, before[rows.start:rows.stop + 1] - before[rows.start])
    trans -= logs
    trans -= np.repeat(trans[seg_start], np.diff(seg_start, append=trans.size))
    np.exp(trans, out=trans)
    weight = np.multiply(alpha, trans, out=scratch)
    ras.alpha.reshape(-1)[seg_pix] = np.minimum(np.add.reduceat(weight, seg_start), 1.0)
    return seg_start, seg_pix, weight


def raster_bands(splats: SplatSet, camera: Camera):
    """``rasterize`` in runs of whole pixel rows, one after another on the
    calling thread: per run, in row order, a Raster of its contributions
    (``seg_start`` counts from the run's first; the alpha image is zero off
    the run) and their weights alpha * T. The span records of one row
    range (``_record_rows``) at a time are built when the walk reaches the
    range and freed after its last run, whose runs are ``_row_runs`` of
    the range's contributions. A run reads only its own contributions, so
    all of these carry the bits of ``rasterize``, and a run holds about
    the Raster and weights of its contributions beside its range's
    records: a large view streams in bounded memory.
    """
    proj, ranges, factors = _view_runs(splats, camera)
    w, h = camera.width, camera.height
    empty = True
    for part in ranges:
        records = _span_records(proj.u, proj.v, proj.radius_px, w, h, part)
        # a view that could pass the budget is one range, so this checks its
        # whole count before any run is rasterized
        before = _counts_before([records], w, h)
        for rows, run in (run for group in _row_runs(before) for run in group):
            ras = _new_raster(run.stop - run.start, proj, camera)
            ras.seg_start, ras.seg_pix, weight = _raster_run(records, rows, before, w, factors, ras,
                                                             slice(0, ras.slot.size), np.empty(ras.slot.size))
            empty = False
            yield ras, weight
            # the caller holds the run now; let it go before the next run grows
            del ras, weight
        del records
    if empty:
        yield _new_raster(0, proj, camera), np.zeros(0)


def _forward(splats: SplatSet, camera: Camera, values: tuple = ()):
    """The whole view's Raster, built on the lanes, and the (H, W, C)
    composite of each (n, C) per-splat array in ``values``.

    The pass is two lane phases. First each row range of ``_record_rows``
    is one task, which builds the range's ``_span_records``. After the
    join the view's counts before each row give the budget check and the
    Raster's size, and the view's lane groups of runs of rows
    (``_row_runs``, the runs also cut where the ranges meet, so that each
    run reads one range's records) are one task each. A task rasterizes
    each of its runs into the run's slices of the whole-view arrays
    (``_raster_run``), in one scratch array of its longest run, then
    composites the run while its entries are in cache: one ``csr_matvecs``
    product of its segments x slots weights and the (k, C) per-slot
    values, which adds each pixel's terms to 0.0 in depth order
    (``oracles.composite_oracle``), the same bits where the build does not
    fuse the multiply-add (x86-64). Records are the same on any row range
    and a run reads only its own entries, so any range, run or group
    cutting gives the same bits.
    """
    proj, ranges, factors = _view_runs(splats, camera)
    h, w = camera.height, camera.width
    record_sets = _lanes([partial(_span_records, proj.u, proj.v, proj.radius_px, w, h, rows)
                          for rows in ranges])
    before = _counts_before(record_sets, w, h)
    starts = [rows.start for rows in ranges]
    groups = _row_runs(before, starts)
    ras = _new_raster(int(before[-1]), proj, camera)
    images = [np.zeros((h * w, value.shape[1])) for value in values]
    # every array's per-slot values side by side, one C-contiguous (k, C) table
    table = np.concatenate([value.take(proj.indices, axis=0) for value in values], axis=1) if values else None
    cols = np.cumsum([0] + [image.shape[1] for image in images])

    def lane(group):
        scratch = np.empty(max(run.stop - run.start for _, run in group))
        segments = []
        for rows, run in group:
            records = record_sets[bisect_right(starts, rows.start) - 1]
            seg_start, seg_pix, weight = _raster_run(records, rows, before, w, factors, ras, run,
                                                     scratch[:run.stop - run.start])
            if images:
                sums = np.zeros((seg_pix.size, table.shape[1]))
                csr_matvecs(seg_pix.size, proj.count, table.shape[1],
                            np.append(seg_start, run.stop - run.start).astype(ras.slot.dtype),
                            ras.slot[run], weight, table.ravel(), sums.ravel())
                for image, first, stop in zip(images, cols[:-1], cols[1:]):
                    image[seg_pix] = sums[:, first:stop]
            segments.append((seg_start + run.start, seg_pix))
        return segments

    # after the empty segment arrays, which keep the dtype of a view without runs
    segments = [run for part in _lanes([partial(lane, group) for group in groups]) for run in part]
    ras.seg_start = np.concatenate([ras.seg_start] + [seg_start for seg_start, _ in segments])
    ras.seg_pix = np.concatenate([ras.seg_pix] + [seg_pix for _, seg_pix in segments])
    return ras, [image.reshape(h, w, -1) for image in images]


def rasterize(splats: SplatSet, camera: Camera) -> Raster:
    """Contributions, their alphas and transmittances, and the alpha image."""
    return _forward(splats, camera)[0]


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


def _add_at(out: np.ndarray, index: np.ndarray, terms: np.ndarray) -> None:
    """Add each of ``terms`` into ``out`` at its int64 ``index``, in order:
    the bits of a bincount over the terms added so far, with the
    interpreter lock released, which ``np.bincount`` holds. The terms are
    the data of a one-column sparse matrix with the indices as row numbers,
    times 1.0, which is exact whether or not the build fuses the
    multiply-add."""
    csc_matvec(out.size, 1, np.array([0, terms.size], dtype=np.int64), index, terms, np.ones(1), out)


def render(splats: SplatSet, camera: Camera) -> RenderOutput:
    """Rasterize color, feature, and alpha images with contributor
    retention, in one pass on the lanes (``_forward``)."""
    ras, (feature, color) = _forward(splats, camera, (splats.features, splats.colors))
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

    The call is one phase: one task per lane group of the forward's
    cutting (``_row_runs``, rebuilt from the Raster's segments), each for
    every chain, which walks the group's runs. Per run it forms the weights
    alpha * T once, adds every chain's direct weight * grad sums into its
    group's (k, channels) partial, and per geometry chain gathers q =
    <grad, value> one channel at a time, forms v = weight * q, its prefix
    sums by row (``_row_scan``) and d_alpha; then, once for all chains, the
    offsets, d2, 1 / sigma^2 and the Gaussian, and adds each chain's
    opacity, u, v and sigma terms into its group's (4 * chains, k) partial.
    No term spans the view: each is rebuilt per run. Each per-splat sum
    adds its group's terms in contribution order, as a bincount over slots
    does, then the groups in row order (``oracles.group_slot_sums_oracle``),
    so any cutting of the groups into runs gives the same bits, and a
    splat whose contributions lie in one group the bits of one group;
    culled splats keep zeros. The call peaks within
    ``BACKWARD_BYTES_PER_CONTRIBUTION`` bytes per contribution.

    A contribution counts as clamped where its alpha equals ``ALPHA_MAX``
    (``Raster.clamped``): its d_alpha is zeroed, so it passes no gradient
    to geometry. At the clamp's kink this takes the derivative from above:
    an alpha of exactly 0.99 that the clamp left as it was, such as a splat
    of opacity 0.99 at its own centre pixel, gets no geometry gradient
    there.
    """
    splats = output.splats
    camera = output.camera
    proj = output.projected
    color_grads, feature_grads = SplatGrads.zeros(splats.count), SplatGrads.zeros(splats.count)
    # (image gradient, per-splat values, their gradient, chain, reaches geometry)
    chains = []
    if grad_feature is not None:
        chains.append((grad_feature, splats.features, feature_grads.features, feature_grads,
                       feature_geometry))
    if grad_color is not None:
        chains.append((grad_color, splats.colors, color_grads.colors, color_grads, True))
    slot = output.slot
    if not chains or slot.size == 0:
        return color_grads, feature_grads

    seg_start, seg_pix = output.seg_start, output.seg_pix
    seg_len = np.diff(seg_start, append=slot.size)
    alpha, trans = output.alpha_i, output.trans
    # The forward's groups of runs, as (contributions, segments, row offsets)
    # triples: the first segment of each row gives the contributions before it.
    row_seg = np.searchsorted(seg_pix, np.arange(camera.height + 1) * camera.width)
    before = np.append(seg_start, slot.size)[row_seg]
    groups = [[(entries, slice(row_seg[rows.start], row_seg[rows.stop]),
                before[rows.start:rows.stop + 1] - entries.start) for rows, entries in group]
              for group in _row_runs(before)]
    # Every chain's image gradient side by side, (pixels, channels), and per
    # geometry chain its first channel, its (C, k) per-slot values and its
    # gradients.
    image_grads = np.concatenate([grad_img.reshape(-1, values.shape[1])
                                  for grad_img, values, _, _, _ in chains], axis=1)
    cols = np.cumsum([0] + [values.shape[1] for _, values, _, _, _ in chains])
    geometry = [(first, values.T.take(proj.indices, axis=1), chain_grads)
                for first, (_, values, _, chain_grads, reaches) in zip(cols, chains) if reaches]
    inv_sig2 = 1.0 / (proj.sigma_px * proj.sigma_px)

    def task(group):
        # The group's own partials: the (k, channels) direct weight * grad
        # sums, and per geometry chain the opacity, u, v and sigma sums, one
        # contiguous (4 * chains, k) array.
        value_sums = np.zeros((proj.count, image_grads.shape[1]))
        geometry_sums = np.zeros((len(geometry), 4, proj.count))
        longest = max(run.stop - run.start for run, _, _ in group)
        weight_rows, v_rows = np.empty(longest), np.empty(longest)
        q_rows = [np.empty(longest) for _ in geometry]
        for run, segs, row_bounds in group:
            n = run.stop - run.start
            run_alpha, run_trans = alpha[run], trans[run]
            starts, lens = seg_start[segs] - run.start, seg_len[segs]
            weight, v = np.multiply(run_alpha, run_trans, out=weight_rows[:n]), v_rows[:n]
            # The direct sums of every chain's channels are one sparse
            # product: the slots x pixels matrix of the run's weights, whose
            # columns hold each pixel's contributions in order, times the
            # pixels' image gradients, read with the stored slots' dtype.
            # csc_matvecs adds each slot's products in contribution order,
            # run after run, as a bincount over the slots would: the same
            # bits where the build does not fuse the multiply-add (x86-64).
            pixel_grad = image_grads.take(seg_pix[segs], axis=0)
            csc_matvecs(proj.count, starts.size, image_grads.shape[1],
                        np.append(starts, n).astype(slot.dtype), slot[run], weight, pixel_grad.ravel(),
                        value_sums.ravel())
            if not geometry:
                continue
            # Takes gather several times faster by int64 slots.
            run_slot = slot[run].astype(np.int64)
            # Per geometry chain: q = <image gradient, value>, one channel at
            # a time, the even channels' products added left to right into
            # q, the odd ones' into v, then the two sums, as a two-lane dot
            # product adds; v = weight * q; and d(pixel)/d(alpha_i) = T_i x_i
            # - sum_{j>i} alpha_j T_j x_j / (1 - alpha_i): the suffix is each
            # segment's total of v less v's cumsum by rows (``_row_scan``)
            # from the segment's first entry. d_alpha goes to q's rows.
            one_minus_alpha = 1.0 - run_alpha
            clamped = run_alpha >= ALPHA_MAX
            d_alphas = []
            for (first, values, _), rows in zip(geometry, q_rows):
                q = rows[:n]
                for c in range(values.shape[0]):
                    term = np.repeat(pixel_grad[:, first + c], lens)
                    np.multiply(term, values[c].take(run_slot), out=(q, v)[c] if c < 2 else term)
                    if c >= 2:
                        np.add((q, v)[c % 2], term, out=(q, v)[c % 2])
                q += v
                np.multiply(weight, q, out=v)
                totals, firsts = np.add.reduceat(v, starts), v[starts]
                _row_scan(v, v, row_bounds)
                v -= np.repeat(v[starts] - firsts, lens)
                np.subtract(np.repeat(totals, lens), v, out=v)
                v /= one_minus_alpha
                d_alpha = np.multiply(q, run_trans, out=q)
                d_alpha -= v
                # Clamped alphas are constant in the parameters; with d_alpha
                # zeroed there, every geometry term below is zero there too.
                d_alpha[clamped] = 0.0
                d_alphas.append(d_alpha)
            # Once for all chains: each contribution's pixel column and row
            # minus its splat centre's, d2, 1 / sigma^2 and the Gaussian
            # exp(-d2 / (2 sigma^2)). Then per chain, into its rows in
            # contribution order (``_add_at``): the opacity terms, the
            # Gaussian times d_alpha, and d_alpha * alpha * (offset, offset,
            # d2) / sigma^2, the sigma terms once more over sigma.
            pixel = seg_pix[segs]
            dcol = np.subtract(np.repeat(pixel % camera.width, lens), proj.u.take(run_slot))
            drow = np.subtract(np.repeat(pixel // camera.width, lens), proj.v.take(run_slot))
            d2 = np.square(dcol)
            d2 += np.square(drow)
            inv = inv_sig2.take(run_slot)
            gaussian = np.negative(d2)
            gaussian *= inv
            gaussian /= 2.0
            np.exp(gaussian, out=gaussian)
            sigma = proj.sigma_px.take(run_slot)
            for chain_sums, d_alpha in zip(geometry_sums, d_alphas):
                _add_at(chain_sums[0], run_slot, np.multiply(gaussian, d_alpha, out=v))
                d_alpha *= run_alpha
                for sums, offset in zip(chain_sums[1:], (dcol, drow, d2)):
                    terms = np.multiply(d_alpha, offset, out=v)
                    terms *= inv
                    if offset is d2:
                        terms /= sigma
                    _add_at(sums, run_slot, terms)
        return value_sums, geometry_sums

    # One task per lane group; the groups' partials are then added in row order.
    parts = _lanes([partial(task, group) for group in groups])
    value_sums, geometry_sums = parts[0]
    for value_part, geometry_part in parts[1:]:
        value_sums += value_part
        geometry_sums += geometry_part
    for first, stop, (_, _, value_grads, _, _) in zip(cols[:-1], cols[1:], chains):
        value_grads[proj.indices] = value_sums[:, first:stop]

    x, y, z = proj.cam_points[:, 0], proj.cam_points[:, 1], proj.cam_points[:, 2]
    fx, fy = camera.fx, camera.fy
    scale_kept = splats.scales[proj.indices]
    for (_, _, chain_grads), (opacity_s, du_s, dv_s, dsig_s) in zip(geometry, geometry_sums):
        chain_grads.opacities[proj.indices] = opacity_s
        dx = du_s * fx / z
        dy = dv_s * fy / z
        dz = -(du_s * fx * x + dv_s * fy * y + dsig_s * scale_kept * fx) / (z * z)
        chain_grads.scales[proj.indices] = dsig_s * fx / z
        chain_grads.centers[proj.indices] = np.stack([dx, dy, dz], axis=1) @ camera.rotation
    return color_grads, feature_grads


def write_raw_f32(path: str, image: np.ndarray) -> None:
    """Header-less planar little-endian f32 dump: (C, H, W) for 3-D images,
    (H, W) as-is for single planes. Shape travels out of band (camera file)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.transpose(2, 0, 1)
    write_atomic(path, np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_raw_f32(path: str, height: int, width: int, channels: int = 0) -> np.ndarray:
    """A ``write_raw_f32`` dump of a (height, width, channels) image, or of
    an (height, width) plane without ``channels``; a file of any other
    length, a truncated one among them, raises FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    shape = (channels, height, width) if channels else (height, width)
    expected = int(np.prod(shape))
    if len(data) != 4 * expected:
        raise FormatError(f"{path}: expected {expected} floats ({4 * expected} bytes), "
                          f"found {len(data)} bytes")
    flat = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(shape)
    return flat.transpose(1, 2, 0) if channels else flat
