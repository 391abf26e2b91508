import numpy as np
import pytest

from igsplat.errors import DataError, UsageError
from igsplat.losses import NO_MASK, MaskView
from igsplat.renderer import Camera, zbuffer_owners
from igsplat.synthdata import (
    ObjectSpec,
    SceneSpec,
    class_prototypes,
    corrupt_masks,
    generate_embeddings,
    generate_scene,
    load_pointcloud,
    load_scene_dir,
    render_gt_view,
    save_pointcloud,
    write_scene_dir,
)


def single_sphere_spec(points=100):
    return SceneSpec(
        objects=[ObjectSpec(kind="sphere", center=np.array([0.0, 0.0, 0.5]),
                            size=np.array([0.3, 0.3, 0.3]),
                            color=np.array([0.8, 0.2, 0.2]), class_id=0)],
        points_per_object=points, num_cameras=4, image_size=32,
        orbit_radius=2.0, orbit_height=1.2, num_classes=1, seed=5,
    )


def test_sphere_points_on_surface():
    scene = generate_scene(single_sphere_spec())
    radii = np.linalg.norm(scene.points - np.array([0.0, 0.0, 0.5]), axis=1)
    assert np.all(np.abs(radii - 0.3) < 1e-6)
    assert set(scene.gt_instances.tolist()) == {0}


def test_box_points_on_surface():
    spec = SceneSpec(
        objects=[ObjectSpec(kind="box", center=np.zeros(3),
                            size=np.array([0.2, 0.3, 0.1]),
                            color=np.array([0.1, 0.6, 0.9]), class_id=0)],
        points_per_object=400, num_cameras=2, image_size=16, num_classes=1, seed=1,
    )
    scene = generate_scene(spec)
    rel = np.abs(scene.points) / np.array([0.2, 0.3, 0.1])
    on_face = np.isclose(rel.max(axis=1), 1.0, atol=1e-9)
    assert on_face.all()
    inside = (rel <= 1.0 + 1e-9).all(axis=1)
    assert inside.all()


def test_generation_is_bit_deterministic():
    a = generate_scene(single_sphere_spec())
    b = generate_scene(single_sphere_spec())
    assert a.points.tobytes() == b.points.tobytes()
    assert a.colors.tobytes() == b.colors.tobytes()
    for ca, cb in zip(a.cameras, b.cameras):
        assert ca.rotation.tobytes() == cb.rotation.tobytes()


def test_procedural_scene_counts():
    spec = SceneSpec(num_objects=8, points_per_object=500, num_cameras=4,
                     image_size=32, num_classes=4, seed=9)
    scene = generate_scene(spec)
    assert scene.count == 4000
    assert len(np.unique(scene.gt_instances)) == 8


def test_crowded_scene_rejected():
    spec = SceneSpec(num_objects=40, points_per_object=10, num_cameras=2,
                     image_size=16, placement_extent=0.15, num_classes=2, seed=0)
    with pytest.raises(DataError, match="too crowded"):
        generate_scene(spec)


def test_cameras_look_at_scene():
    scene = generate_scene(single_sphere_spec())
    centroid = scene.points.mean(axis=0)
    for cam in scene.cameras:
        p = cam.world_to_camera(centroid[None, :])[0]
        assert p[2] > 0  # in front
        u = cam.fx * p[0] / p[2] + cam.cx
        v = cam.fy * p[1] / p[2] + cam.cy
        assert abs(u - cam.cx) < 1.0 and abs(v - cam.cy) < 1.0


def test_single_object_mask_is_one_contiguous_blob():
    scene = generate_scene(single_sphere_spec(points=400))
    view, visible, _ = render_gt_view(scene, scene.cameras[0])
    assert visible == [0]
    covered = view.ids == 0
    assert covered.any()
    # flood fill from one covered pixel reaches every covered pixel
    seen = np.zeros_like(covered)
    stack = [tuple(np.argwhere(covered)[0])]
    while stack:
        r, c = stack.pop()
        if not (0 <= r < covered.shape[0] and 0 <= c < covered.shape[1]):
            continue
        if seen[r, c] or not covered[r, c]:
            continue
        seen[r, c] = True
        stack.extend([(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)])
    assert np.array_equal(seen, covered)


def two_object_scene(offset):
    objs = [
        ObjectSpec(kind="sphere", center=np.array([0.0, 0.0, 0.0]),
                   size=np.array([0.4, 0.4, 0.4]), color=np.array([0.9, 0.1, 0.1]),
                   class_id=0),
        ObjectSpec(kind="sphere", center=np.asarray(offset, dtype=np.float64),
                   size=np.array([0.15, 0.15, 0.15]), color=np.array([0.1, 0.1, 0.9]),
                   class_id=1),
    ]
    return SceneSpec(objects=objs, points_per_object=300, num_cameras=1,
                     image_size=48, orbit_radius=2.5, orbit_height=0.0,
                     num_classes=2, seed=3)


def test_fully_occluded_object_absent_from_masks():
    # camera on the +x axis looking at the origin; the small sphere hides
    # directly behind the big one at x = -1.2
    from igsplat.synthdata import orbit_camera

    scene = generate_scene(two_object_scene(offset=[-1.2, 0.0, 0.0]))
    cam = orbit_camera(np.zeros(3), angle=0.0, radius=2.5, height=0.0,
                       image_size=48, fov_degrees=55.0)
    view, visible, _ = render_gt_view(scene, cam)
    assert visible == [0]


def test_side_by_side_objects_have_disjoint_masks():
    scene = generate_scene(two_object_scene(offset=[0.0, 1.4, 0.0]))
    view, visible, _ = render_gt_view(scene, scene.cameras[0])
    assert visible == [0, 1]
    a = view.ids == 0
    b = view.ids == 1
    assert a.any() and b.any()
    assert not (a & b).any()


def test_masks_consistent_with_nearest_point():
    scene = generate_scene(single_sphere_spec(points=300))
    cam = scene.cameras[1]
    view, visible, _ = render_gt_view(scene, cam)
    owners = zbuffer_owners(scene.points, scene.point_radii, cam)
    covered = owners >= 0
    assert np.array_equal(view.ids != NO_MASK, covered)
    pixel_objects = scene.gt_instances[owners[covered]]
    mask_objects = np.array(visible)[view.ids[covered].astype(np.int64)]
    assert np.array_equal(pixel_objects, mask_objects)


def test_gt_color_matches_owner_colors():
    scene = generate_scene(single_sphere_spec(points=300))
    _, _, img = render_gt_view(scene, scene.cameras[0])
    covered = img.any(axis=2)
    assert covered.any()
    assert np.allclose(img[covered], [0.8, 0.2, 0.2])


def brute_force_owners(points, radii, cam):
    """Per pixel, a scan over every point: the nearest one in front of the
    near plane whose disk covers the pixel, ties to the lower index."""
    cam_points = cam.world_to_camera(points)
    owners = np.full((cam.height, cam.width), -1, dtype=np.int64)
    for row in range(cam.height):
        for col in range(cam.width):
            best_z = None
            for i, (x, y, z) in enumerate(cam_points):
                if z <= 0.01:
                    continue
                du = col - (cam.fx * x / z + cam.cx)
                dv = row - (cam.fy * y / z + cam.cy)
                r = radii[i] * cam.fx / z
                if du * du + dv * dv <= r * r and (best_z is None or z < best_z):
                    best_z, owners[row, col] = z, i
    return owners


def test_zbuffer_owners_match_brute_force_scan():
    rng = np.random.default_rng(17)
    n = 30
    points = np.column_stack([rng.uniform(-0.6, 0.6, n), rng.uniform(-0.4, 0.4, n),
                              rng.uniform(0.5, 2.0, n)])
    radii = rng.uniform(0.02, 0.15, n)
    # equal depth in front of everything else: pixel (3, 5) lies nearer the
    # centre of point 9, but point 5 has the lower index and owns it
    points[5], points[9] = [0.05, 0.0, 0.3], [0.0, 0.0, 0.3]
    radii[5] = radii[9] = 0.1
    # behind the near plane: each disk would cover the whole image
    points[12], points[13] = [0.0, 0.0, 0.005], [0.0, 0.0, -1.0]
    radii[12] = radii[13] = 1.0
    cam = Camera(fx=6.0, fy=6.0, cx=5.2, cy=2.9, width=11, height=7,
                 rotation=np.eye(3), translation=np.zeros(3))
    owners = zbuffer_owners(points, radii, cam)
    assert owners.shape == (7, 11)
    assert owners[3, 5] == 5 and (owners == 9).any()
    assert np.array_equal(owners, brute_force_owners(points, radii, cam))


def masks_with_embeddings(ids, count):
    emb = np.eye(max(count, 1), 4)[:count]
    return [MaskView(ids=np.asarray(ids, dtype=np.uint32), count=count, embeddings=emb)]


def test_corrupt_noop_without_probabilities():
    ids = np.full((6, 6), NO_MASK, dtype=np.uint32)
    ids[:3, :3] = 0
    ids[3:, 3:] = 1
    stack = masks_with_embeddings(ids, 2)
    out = corrupt_masks(stack, 0.0, 0.0, 0.0, seed=1)
    assert np.array_equal(out[0].ids, stack[0].ids)
    assert out[0].count == 2


def test_corrupt_drop_all():
    ids = np.full((6, 6), NO_MASK, dtype=np.uint32)
    ids[:3, :3] = 0
    ids[3:, 3:] = 1
    out = corrupt_masks(masks_with_embeddings(ids, 2), p_drop=1.0, seed=1)
    assert np.all(out[0].ids == NO_MASK)


def test_corrupt_split_single_mask():
    ids = np.full((8, 8), NO_MASK, dtype=np.uint32)
    ids[2:7, 2:7] = 0
    out = corrupt_masks(masks_with_embeddings(ids, 1), p_split=1.0, seed=2)
    present = np.unique(out[0].ids[out[0].ids != NO_MASK])
    assert len(present) == 2
    assert out[0].count == 2
    assert out[0].embeddings.shape[0] == 2


def test_corrupt_merge_adjacent_masks():
    ids = np.full((6, 6), NO_MASK, dtype=np.uint32)
    ids[:, :3] = 0
    ids[:, 3:] = 1  # shares a vertical border with mask 0
    out = corrupt_masks(masks_with_embeddings(ids, 2), p_merge=1.0, seed=3)
    present = np.unique(out[0].ids[out[0].ids != NO_MASK])
    assert present.tolist() == [0]


def test_corrupt_deterministic():
    ids = np.full((8, 8), NO_MASK, dtype=np.uint32)
    ids[1:4, 1:4] = 0
    ids[4:7, 4:7] = 1
    stack = masks_with_embeddings(ids, 2)
    a = corrupt_masks(stack, 0.3, 0.3, 0.3, seed=9)
    b = corrupt_masks(stack, 0.3, 0.3, 0.3, seed=9)
    assert np.array_equal(a[0].ids, b[0].ids)


def test_corrupt_rejects_bad_probability():
    with pytest.raises(UsageError):
        corrupt_masks([], p_drop=1.5)


def test_prototypes_are_normalized_one_hots():
    table = class_prototypes(3, 8)
    assert np.array_equal(table.vectors[:, :3], np.eye(3))
    assert not table.vectors[:, 3:].any()


def test_embeddings_zero_noise_equals_prototypes():
    table = generate_embeddings(np.array([0, 2, 1]), 3, 8, sigma=0.0, seed=0)
    protos = class_prototypes(3, 8).vectors
    assert np.array_equal(table.vectors, protos[[0, 2, 1]])


def test_embeddings_monte_carlo_recovery():
    rng = np.random.default_rng(7)
    classes = rng.integers(0, 10, size=1000)
    table = generate_embeddings(classes, 10, 32, sigma=0.1, seed=11)
    protos = class_prototypes(10, 32).vectors
    recovered = np.argmax(table.vectors @ protos.T, axis=1)
    assert (recovered == classes).mean() >= 0.99


def test_embeddings_deterministic():
    classes = np.array([0, 1, 1, 2])
    a = generate_embeddings(classes, 3, 16, 0.2, seed=5)
    b = generate_embeddings(classes, 3, 16, 0.2, seed=5)
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_embeddings_dim_must_cover_classes():
    with pytest.raises(UsageError):
        generate_embeddings(np.array([0]), 10, 4, 0.0, 0)


def test_pointcloud_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    points = rng.normal(size=(20, 3))
    colors = rng.uniform(size=(20, 3))
    inst = rng.integers(0, 4, size=20)
    cls = rng.integers(0, 3, size=20)
    path = str(tmp_path / "pts.igpc")
    save_pointcloud(path, points, colors, inst, cls)
    p, c, i, k = load_pointcloud(path)
    assert np.allclose(p, points, atol=1e-6)
    assert np.array_equal(i, inst) and np.array_equal(k, cls)
    assert open(path, "rb").read()[:4] == b"IGPC"


def test_scene_dir_roundtrip(tmp_path):
    scene = generate_scene(single_sphere_spec(points=150))
    out = str(tmp_path / "scene")
    write_scene_dir(scene, out, embedding_dim=8, embedding_sigma=0.0, embedding_seed=1)
    manifest, points, colors, gt_inst, gt_cls, cameras, targets, masks = load_scene_dir(out)
    assert manifest["num_views"] == 4
    assert points.shape == (150, 3)
    assert len(cameras) == len(targets) == len(masks) == 4
    assert targets[0].shape == (32, 32, 3)
    assert masks[0].embeddings is not None
