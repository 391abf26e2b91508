"""Procedural desk-scale scenes with exact ground truth.

Scenes are collections of axis-aligned boxes and spheres with solid colors
and class ids. Points are sampled uniformly on the primitive surfaces, and
ground-truth masks plus RGB targets come from one point z-buffer per view
(each point stamps a small disk sized by 2x its object's local point
spacing; the nearest point owns the pixel). The z-buffer shares only the
renderer's disk enumeration, not its Gaussian weights or compositing, so
the supervision is independent of the differentiable renderer under test.
Mask corruption knobs emulate 2D segmentation failures: dropped masks,
masks split by a random line, and adjacent masks merged under one id.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .association import EmbeddingTable, load_embeddings, save_embeddings
from .binio import pack_u32, read_file, read_json, write_atomic, write_atomic_text
from .errors import DataError, FormatError, UsageError
from .losses import NO_MASK, MaskView, load_masks, save_masks
from .renderer import (
    Camera, load_camera, read_raw_f32, save_camera, write_raw_f32, zbuffer_owners,
)
from .scene_model import median_spacing

POINTS_MAGIC = b"IGPC"
POINTS_VERSION = 1
MAX_PLACEMENT_TRIES = 1000

_POINT_DTYPE = np.dtype(
    [("xyz", "<f4", 3), ("rgb", "<f4", 3), ("instance", "<u4"), ("cls", "<u4")]
)

_PALETTE = np.array(
    [
        [0.85, 0.15, 0.15],
        [0.15, 0.55, 0.85],
        [0.20, 0.75, 0.25],
        [0.90, 0.70, 0.10],
        [0.60, 0.25, 0.75],
        [0.10, 0.75, 0.70],
        [0.90, 0.45, 0.15],
        [0.55, 0.55, 0.55],
    ]
)


@dataclass
class ObjectSpec:
    kind: str  # "box" or "sphere"
    center: np.ndarray  # (3,)
    size: np.ndarray  # (3,) half-extents; spheres use size[0] as radius
    color: np.ndarray  # (3,)
    class_id: int

    def __post_init__(self):
        if self.kind not in ("box", "sphere"):
            raise DataError(f"unknown primitive kind {self.kind!r}")
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        self.color = np.asarray(self.color, dtype=np.float64).reshape(3)
        if (self.size <= 0).any():
            raise DataError("object size must be positive")

    def bounding_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.size[0])
        return float(np.linalg.norm(self.size))


@dataclass
class SceneSpec:
    num_objects: int = 4
    objects: list[ObjectSpec] | None = None  # explicit placement wins
    points_per_object: int = 250
    num_cameras: int = 12
    image_size: int = 64
    orbit_radius: float = 2.2
    orbit_height: float | list = 1.6  # one ring per listed height
    fov_degrees: float = 55.0
    placement_extent: float = 0.9
    center_height: float | None = None  # None: objects rest on z = 0
    num_classes: int = 4
    class_names: list[str] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.objects is not None:
            self.num_objects = len(self.objects)
        if self.num_objects < 1:
            raise DataError("scene needs at least one object")
        if self.num_classes < 1:
            raise DataError("scene needs at least one class")
        if self.points_per_object < 1:
            raise DataError(f"points_per_object must be at least 1, got {self.points_per_object}")
        if self.num_cameras < 0:
            raise DataError(f"num_cameras must not be negative, got {self.num_cameras}")
        if not 0.0 < self.fov_degrees < 180.0:
            raise DataError(f"fov_degrees must lie in (0, 180), got {self.fov_degrees}")


@dataclass
class Scene:
    spec: SceneSpec
    objects: list[ObjectSpec]
    points: np.ndarray  # (n, 3)
    colors: np.ndarray  # (n, 3)
    gt_instances: np.ndarray  # (n,) int64
    gt_classes: np.ndarray  # (n,) int64
    cameras: list[Camera]
    point_radii: np.ndarray = field(default=None)  # (n,) z-buffer stamp radii

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _sample_sphere(rng: np.random.Generator, center, radius: float, count: int) -> np.ndarray:
    dirs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(dirs, axis=1)
    while (norms < 1e-12).any():  # essentially never; keeps the math safe
        bad = norms < 1e-12
        dirs[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(dirs, axis=1)
    return center + radius * dirs / norms[:, None]


def _sample_box(rng: np.random.Generator, center, half: np.ndarray, count: int) -> np.ndarray:
    hx, hy, hz = half
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy]) * 4.0
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=count)
    v = rng.uniform(-1.0, 1.0, size=count)
    pts = np.empty((count, 3))
    for f in range(6):
        sel = faces == f
        axis = f // 2
        sign = 1.0 if f % 2 == 0 else -1.0
        others = [a for a in range(3) if a != axis]
        pts[sel, axis] = sign * half[axis]
        pts[sel, others[0]] = u[sel] * half[others[0]]
        pts[sel, others[1]] = v[sel] * half[others[1]]
    return center + pts


def _place_objects(spec: SceneSpec, rng: np.random.Generator) -> list[ObjectSpec]:
    objects: list[ObjectSpec] = []
    for k in range(spec.num_objects):
        kind = "sphere" if k % 2 == 0 else "box"
        for attempt in range(MAX_PLACEMENT_TRIES + 1):
            if attempt == MAX_PLACEMENT_TRIES:
                raise DataError("scene too crowded")
            size_scalar = rng.uniform(0.12, 0.2)
            size = (
                np.full(3, size_scalar)
                if kind == "sphere"
                else rng.uniform(0.10, 0.2, size=3)
            )
            top = size_scalar if kind == "sphere" else size[2]
            z = top if spec.center_height is None else spec.center_height
            center = np.array(
                [
                    rng.uniform(-spec.placement_extent, spec.placement_extent),
                    rng.uniform(-spec.placement_extent, spec.placement_extent),
                    z,
                ]
            )
            candidate = ObjectSpec(
                kind=kind,
                center=center,
                size=size,
                color=_PALETTE[k % len(_PALETTE)],
                class_id=k % spec.num_classes,
            )
            margin = 0.08
            if all(
                np.linalg.norm(candidate.center - other.center)
                > candidate.bounding_radius() + other.bounding_radius() + margin
                for other in objects
            ):
                objects.append(candidate)
                break
    return objects


def _validate_disjoint(objects: list[ObjectSpec]) -> None:
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            a, b = objects[i], objects[j]
            if np.linalg.norm(a.center - b.center) < 1e-9:
                raise DataError(f"objects {i} and {j} coincide")


def orbit_camera(
    target: np.ndarray,
    angle: float,
    radius: float,
    height: float,
    image_size: int,
    fov_degrees: float,
) -> Camera:
    """Pinhole camera on a circular orbit, looking at ``target`` with +z up."""
    position = target + np.array([radius * math.cos(angle), radius * math.sin(angle), height])
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward])
    translation = -rotation @ position
    focal = (image_size / 2.0) / math.tan(math.radians(fov_degrees) / 2.0)
    c = (image_size - 1) / 2.0
    return Camera(
        fx=focal,
        fy=focal,
        cx=c,
        cy=c,
        width=image_size,
        height=image_size,
        rotation=rotation,
        translation=translation,
    )


def generate_scene(spec: SceneSpec) -> Scene:
    """Sample surface points, assign GT labels, and place orbit cameras.

    Bit-deterministic for a fixed spec (including the seed).
    """
    rng = np.random.default_rng(spec.seed)
    objects = spec.objects if spec.objects is not None else _place_objects(spec, rng)
    _validate_disjoint(objects)

    points, colors, insts, classes, radii = [], [], [], [], []
    for k, obj in enumerate(objects):
        if obj.kind == "sphere":
            pts = _sample_sphere(rng, obj.center, obj.size[0], spec.points_per_object)
        else:
            pts = _sample_box(rng, obj.center, obj.size, spec.points_per_object)
        spacing = median_spacing(pts)
        points.append(pts)
        colors.append(np.tile(obj.color, (len(pts), 1)))
        insts.append(np.full(len(pts), k, dtype=np.int64))
        classes.append(np.full(len(pts), obj.class_id, dtype=np.int64))
        radii.append(np.full(len(pts), 2.0 * spacing))

    points = np.concatenate(points)
    centroid = points.mean(axis=0)
    heights = spec.orbit_height if isinstance(spec.orbit_height, list) else [spec.orbit_height]
    cameras = [
        orbit_camera(
            centroid,
            2.0 * math.pi * i / spec.num_cameras + 0.39 * (i % len(heights)),
            spec.orbit_radius,
            heights[i % len(heights)],
            spec.image_size,
            spec.fov_degrees,
        )
        for i in range(spec.num_cameras)
    ]
    return Scene(
        spec=spec,
        objects=objects,
        points=points,
        colors=np.concatenate(colors),
        gt_instances=np.concatenate(insts),
        gt_classes=np.concatenate(classes),
        cameras=cameras,
        point_radii=np.concatenate(radii),
    )


def render_gt_view(scene: Scene, camera: Camera) -> tuple[MaskView, list[int], np.ndarray]:
    """GT instance masks and RGB target from one point z-buffer.

    Masks get one id per visible object (in ascending object order),
    background = NO_MASK; the RGB target is the owning point's colour,
    black where no point lands. Returns the mask view, the object index
    behind each mask id, and the (H, W, 3) target.
    """
    owners = zbuffer_owners(scene.points, scene.point_radii, camera)
    covered = owners >= 0
    obj_of_pixel = np.where(covered, scene.gt_instances[np.maximum(owners, 0)], -1)
    visible = sorted(int(o) for o in np.unique(obj_of_pixel[covered]))
    ids = np.full(owners.shape, NO_MASK, dtype=np.uint32)
    for mask_id, obj in enumerate(visible):
        ids[obj_of_pixel == obj] = mask_id
    color = np.zeros((*owners.shape, 3))
    color[covered] = scene.colors[owners[covered]]
    return MaskView(ids=ids, count=len(visible)), visible, color


def _mask_adjacency(ids: np.ndarray, a: int) -> set[int]:
    """Mask ids sharing a 4-neighborhood border with mask ``a``."""
    sel = ids == a
    neighbors: set[int] = set()
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        rolled = np.roll(sel, shift, axis=axis)
        # zero the wrapped edge so the roll does not connect opposite borders
        if axis == 0:
            rolled[0 if shift == 1 else -1, :] = False
        else:
            rolled[:, 0 if shift == 1 else -1] = False
        touching = ids[rolled & ~sel]
        neighbors.update(int(t) for t in touching[touching != NO_MASK])
    neighbors.discard(a)
    return neighbors


def corrupt_masks(
    masks: list[MaskView],
    p_drop: float = 0.0,
    p_split: float = 0.0,
    p_merge: float = 0.0,
    seed: int = 0,
) -> list[MaskView]:
    """Emulate 2D segmentation failures, independently per view.

    Per mask (in id order): with ``p_drop`` its pixels become background;
    with ``p_split`` it is bisected by a random line through its centroid
    into two ids (the new id reuses the original's embedding); then with
    ``p_merge`` a mask is relabeled onto its lowest-id adjacent mask. The
    merged survivor keeps its own embedding. Deterministic per seed.
    """
    for p in (p_drop, p_split, p_merge):
        if not 0.0 <= p <= 1.0:
            raise UsageError("corruption probabilities must be in [0, 1]")
    rng = np.random.default_rng(seed)
    out_views: list[MaskView] = []
    for view in masks:
        ids = view.ids.copy()
        count = view.count
        emb = None if view.embeddings is None else [row.copy() for row in view.embeddings]

        def present_ids():
            vals = np.unique(ids[ids != NO_MASK])
            return [int(v) for v in vals]

        for mid in present_ids():
            if rng.random() < p_drop:
                ids[ids == mid] = NO_MASK

        for mid in present_ids():
            if rng.random() < p_split:
                rows, cols = np.nonzero(ids == mid)
                cy, cx = rows.mean(), cols.mean()
                angle = rng.uniform(0.0, 2.0 * math.pi)
                for _ in range(8):
                    nx, ny = math.cos(angle), math.sin(angle)
                    side = (cols - cx) * nx + (rows - cy) * ny > 0
                    if side.any() and (~side).any():
                        break
                    angle += 0.7
                else:
                    continue  # unsplittable sliver; leave it alone
                ids[rows[side], cols[side]] = count
                if emb is not None:
                    emb.append(emb[mid].copy())
                count += 1

        consumed: set[int] = set()
        for mid in present_ids():
            if mid in consumed:
                continue
            if rng.random() < p_merge:
                neighbors = sorted(n for n in _mask_adjacency(ids, mid) if n not in consumed)
                if not neighbors:
                    continue
                partner = neighbors[0]
                lo, hi = min(mid, partner), max(mid, partner)
                ids[ids == hi] = lo
                consumed.update((lo, hi))

        out_views.append(
            MaskView(
                ids=ids,
                count=count,
                embeddings=None if emb is None else np.array(emb),
            )
        )
    return out_views


def class_prototypes(num_classes: int, dim: int) -> EmbeddingTable:
    """Normalized one-hot prototype per class in the first C dimensions."""
    if dim < num_classes:
        raise UsageError("embedding dim must be at least the class count")
    vectors = np.zeros((num_classes, dim))
    vectors[np.arange(num_classes), np.arange(num_classes)] = 1.0
    return EmbeddingTable(vectors=vectors)


def generate_embeddings(
    mask_classes: np.ndarray, num_classes: int, dim: int, sigma: float, seed: int
) -> EmbeddingTable:
    """Per-mask embedding = class one-hot + N(0, sigma^2) noise, normalized.

    With sigma = 0 the rows are exactly the normalized one-hot prototypes.
    """
    if dim < num_classes:
        raise UsageError("embedding dim must be at least the class count")
    mask_classes = np.asarray(mask_classes, dtype=np.int64)
    if mask_classes.size and (mask_classes.min() < 0 or mask_classes.max() >= num_classes):
        raise UsageError("mask class id out of range")
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, dim).vectors
    rows = protos[mask_classes]
    if sigma > 0:
        rows = rows + rng.normal(0.0, sigma, size=rows.shape)
    norms = np.linalg.norm(rows, axis=1)
    ok = norms > 0
    rows[ok] /= norms[ok, None]
    return EmbeddingTable(vectors=rows)


def save_pointcloud(
    path: str,
    points: np.ndarray,
    colors: np.ndarray,
    gt_instances: np.ndarray,
    gt_classes: np.ndarray,
) -> None:
    """IGPC layout: magic, u32 version, u32 n, then per point f32 x,y,z,r,g,b
    plus u32 gt_instance and u32 gt_class."""
    n = len(points)
    rec = np.empty(n, dtype=_POINT_DTYPE)
    rec["xyz"] = points
    rec["rgb"] = colors
    rec["instance"] = gt_instances
    rec["cls"] = gt_classes
    write_atomic(path, POINTS_MAGIC + pack_u32(POINTS_VERSION, n) + rec.tobytes())


def load_pointcloud(path: str):
    r = read_file(path)
    r.expect_magic(POINTS_MAGIC)
    r.expect_version(POINTS_VERSION)
    n = r.u32()
    rec = np.frombuffer(r.take(n * _POINT_DTYPE.itemsize), dtype=_POINT_DTYPE)
    r.done()
    return (
        rec["xyz"].astype(np.float64),
        rec["rgb"].astype(np.float64),
        rec["instance"].astype(np.int64),
        rec["cls"].astype(np.int64),
    )


def write_scene_dir(
    scene: Scene,
    out_dir: str,
    embedding_dim: int = 32,
    embedding_sigma: float = 0.1,
    embedding_seed: int = 0,
    p_drop: float = 0.0,
    p_split: float = 0.0,
    p_merge: float = 0.0,
    corruption_seed: int = 0,
) -> None:
    """Write the on-disk scene bundle every downstream stage consumes.

    Layout (paths relative to the manifest): points.igpc, cameras/cam_*.json,
    views/view_*.f32 (planar RGB targets), masks/view_*.igmk, mask
    embeddings per view as embeddings/view_*.igem, text_embeddings.igem,
    class_names.json, manifest.json.
    """
    targets = []
    mask_views = []
    for i, camera in enumerate(scene.cameras):
        mask_view, visible, target = render_gt_view(scene, camera)
        classes = [scene.objects[obj].class_id for obj in visible]
        mask_view.embeddings = generate_embeddings(
            np.array(classes, dtype=np.int64) if classes else np.zeros(0, dtype=np.int64),
            scene.spec.num_classes,
            embedding_dim,
            embedding_sigma,
            embedding_seed + i,
        ).vectors
        mask_views.append(mask_view)
        targets.append(target)

    if p_drop or p_split or p_merge:
        mask_views = corrupt_masks(mask_views, p_drop, p_split, p_merge, corruption_seed)

    os.makedirs(out_dir, exist_ok=True)
    save_pointcloud(
        os.path.join(out_dir, "points.igpc"),
        scene.points,
        scene.colors,
        scene.gt_instances,
        scene.gt_classes,
    )
    for i, (camera, target, mask_view) in enumerate(zip(scene.cameras, targets, mask_views)):
        save_camera(os.path.join(out_dir, "cameras", f"cam_{i:03d}.json"), camera)
        write_raw_f32(os.path.join(out_dir, "views", f"view_{i:03d}.f32"), target)
        save_masks(os.path.join(out_dir, "masks", f"view_{i:03d}.igmk"), mask_view)
        save_embeddings(
            os.path.join(out_dir, "embeddings", f"view_{i:03d}.igem"),
            EmbeddingTable(vectors=mask_view.embeddings),
        )

    save_embeddings(
        os.path.join(out_dir, "text_embeddings.igem"),
        class_prototypes(scene.spec.num_classes, embedding_dim),
    )
    names = scene.spec.class_names or [f"class_{i}" for i in range(scene.spec.num_classes)]
    write_atomic_text(
        os.path.join(out_dir, "class_names.json"), json.dumps(names, indent=2) + "\n"
    )
    manifest = {
        "num_views": len(targets),
        "image_size": scene.spec.image_size,
        "num_classes": scene.spec.num_classes,
        "num_objects": len(scene.objects),
        "embedding_dim": embedding_dim,
        "points": "points.igpc",
        "cameras": [f"cameras/cam_{i:03d}.json" for i in range(len(targets))],
        "views": [f"views/view_{i:03d}.f32" for i in range(len(targets))],
        "masks": [f"masks/view_{i:03d}.igmk" for i in range(len(targets))],
        "mask_embeddings": [f"embeddings/view_{i:03d}.igem" for i in range(len(targets))],
        "text_embeddings": "text_embeddings.igem",
        "class_names": "class_names.json",
    }
    write_atomic_text(
        os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_scene_dir(scene_dir: str):
    """Read back the bundle written by ``write_scene_dir``.

    Returns (manifest dict, points, colors, gt_instances, gt_classes,
    cameras, target images, mask views with embeddings).
    """
    path = os.path.join(scene_dir, "manifest.json")
    lists = ("cameras", "views", "masks", "mask_embeddings")
    manifest = read_json(path, dict, ("points", "image_size") + lists)
    if not (isinstance(manifest["points"], str) and type(manifest["image_size"]) is int
            and all(isinstance(manifest[key], list) and all(isinstance(p, str) for p in manifest[key])
                    for key in lists)):
        raise FormatError(f"{path}: expected a file name in \"points\", an integer "
                          f"\"image_size\" and lists of file names in {', '.join(lists)}")
    points, colors, gt_instances, gt_classes = load_pointcloud(
        os.path.join(scene_dir, manifest["points"])
    )
    size = manifest["image_size"]
    cameras = [load_camera(os.path.join(scene_dir, p)) for p in manifest["cameras"]]
    targets = [read_raw_f32(os.path.join(scene_dir, p), size, size, 3) for p in manifest["views"]]
    views = []
    for mask_path, emb_path in zip(manifest["masks"], manifest["mask_embeddings"]):
        view = load_masks(os.path.join(scene_dir, mask_path))
        view.embeddings = load_embeddings(os.path.join(scene_dir, emb_path)).vectors
        views.append(view)
    return manifest, points, colors, gt_instances, gt_classes, cameras, targets, views
