import numpy as np
import pytest

from igsplat import association, renderer
from igsplat.association import (
    MIN_VISIBLE_ALPHA,
    EmbeddingTable,
    NO_INSTANCE,
    associate_embeddings,
    load_embeddings,
    render_instance_id_map,
    render_instance_id_maps,
    save_embeddings,
    score_query,
    semantic_assign,
)
from igsplat.errors import DataError, UsageError
from igsplat.losses import NO_MASK, MaskView
from igsplat.renderer import Camera, render
from igsplat.scene_model import SplatSet

from helpers import contributors


def identity_camera(size=8, fx=20.0):
    c = (size - 1) / 2.0
    return Camera(fx=fx, fy=fx, cx=c, cy=c, width=size, height=size,
                  rotation=np.eye(3), translation=np.zeros(3))


def make_splats(centers, opacities, scales):
    n = len(centers)
    return SplatSet(
        centers=np.asarray(centers, dtype=np.float64),
        colors=np.full((n, 3), 0.5),
        opacities=np.asarray(opacities, dtype=np.float64),
        scales=np.asarray(scales, dtype=np.float64),
        features=np.zeros((n, 6)),
        parent=np.zeros(n, dtype=np.int64),
    )


def test_id_map_single_instance_covers_pixels():
    cam = identity_camera()
    splats = make_splats([[0.0, 0.0, 2.0]], [0.9], [0.3])
    id_map = render_instance_id_map(splats, np.array([0]), cam)
    covered = id_map != NO_INSTANCE
    assert covered.any()
    assert set(id_map[covered].tolist()) == {0}


def test_id_map_empty_scene_all_sentinel():
    cam = identity_camera()
    splats = make_splats(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    id_map = render_instance_id_map(splats, np.zeros(0, dtype=np.int64), cam)
    assert np.all(id_map == NO_INSTANCE)


def test_id_map_winner_has_larger_contribution():
    cam = identity_camera()
    x = (3 - cam.cx) / cam.fx
    # front splat contributes 0.6; the one behind 0.75 * (1 - 0.6) = 0.3
    splats = make_splats([[x, x, 1.0], [2 * x, 2 * x, 2.0]], [0.6, 0.75], [0.05, 0.1])
    id_map = render_instance_id_map(splats, np.array([1, 0]), cam)
    assert id_map[3, 3] == 1


def test_id_map_visibility_floor():
    cam = identity_camera()
    splats = make_splats([[0.0, 0.0, 2.0]], [0.01], [0.3])  # total alpha < 0.05
    id_map = render_instance_id_map(splats, np.array([0]), cam)
    assert np.all(id_map == NO_INSTANCE)


def reference_id_map(splats, labels, cam):
    """Winner per pixel from the full render's contributor lists."""
    out = render(splats, cam)
    id_map = np.full((cam.height, cam.width), NO_INSTANCE, dtype=np.uint32)
    for row in range(cam.height):
        for col in range(cam.width):
            if out.alpha[row, col] < MIN_VISIBLE_ALPHA:
                continue
            scores = {}
            for splat, alpha, trans in contributors(out, row, col):
                inst = int(labels[splat])
                scores[inst] = scores.get(inst, 0.0) + alpha * trans
            best = max(scores.values())
            id_map[row, col] = min(i for i, v in scores.items() if v == best)
    return id_map


def test_id_map_matches_render_weights():
    rng = np.random.default_rng(9)
    n = 60
    centers = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.4, 0.4, n),
                               rng.uniform(1.5, 3.0, n)])
    splats = make_splats(centers, rng.uniform(0.02, 0.6, n), rng.uniform(0.02, 0.15, n))
    labels = rng.integers(0, 5, n)
    cam = Camera(fx=14.0, fy=14.0, cx=7.6, cy=5.3, width=17, height=12,
                 rotation=np.eye(3), translation=np.zeros(3))
    expected = reference_id_map(splats, labels, cam)
    id_map = render_instance_id_map(splats, labels, cam)
    assert id_map.dtype == np.uint32
    assert np.array_equal(id_map, expected)
    visible = expected != NO_INSTANCE
    assert 0 < visible.sum() < visible.size  # the floor cuts some pixels
    assert len(set(expected[visible].tolist())) >= 4


def multi_view_scene(views=5):
    rng = np.random.default_rng(12)
    n = 80
    centers = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.4, 0.4, n),
                               rng.uniform(1.5, 3.0, n)])
    splats = make_splats(centers, rng.uniform(0.05, 0.7, n), rng.uniform(0.02, 0.15, n))
    labels = rng.integers(0, 6, n)
    cameras = [Camera(fx=18.0, fy=18.0, cx=11.5, cy=9.5, width=24, height=20,
                      rotation=np.eye(3), translation=np.array([0.12 * k - 0.24, 0.05 * k, 0.1 * k]))
               for k in range(views)]
    return splats, labels, cameras


@pytest.mark.parametrize("cores", [1, 2])  # inline, then on the two lanes
def test_id_map_pool_equals_sequential_maps(monkeypatch, cores):
    splats, labels, cameras = multi_view_scene()
    expected = [render_instance_id_map(splats, labels, camera) for camera in cameras]
    assert len({m.tobytes() for m in expected}) == len(cameras)  # order is visible
    monkeypatch.setattr(renderer.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    maps = render_instance_id_maps(splats, labels, cameras)
    assert len(maps) == len(expected)
    for got, want in zip(maps, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert render_instance_id_maps(splats, labels, []) == []


def test_id_map_runs_match_one_run(monkeypatch):
    # runs of one row each, or of a few contributions, vote as one run does
    splats, labels, cameras = multi_view_scene()
    wants = [render_instance_id_map(splats, labels, camera) for camera in cameras]
    for band in (1, 37):
        monkeypatch.setattr(renderer, "_SEGMENT_ROWS", band)
        for camera, want in zip(cameras, wants):
            got = render_instance_id_map(splats, labels, camera)
            assert got.tobytes() == want.tobytes(), band


def test_id_map_pool_raises_label_count_mismatch():
    splats, labels, cameras = multi_view_scene()
    with pytest.raises(UsageError, match="one instance label per splat"):
        render_instance_id_maps(splats, labels[:-1], cameras)


def test_id_map_rejects_negative_labels():
    # a negative label would index before the run's score table
    splats, labels, cameras = multi_view_scene(views=1)
    labels = labels.copy()
    labels[::2] = -1
    with pytest.raises(UsageError, match="non-negative"):
        render_instance_id_map(splats, labels, cameras[0])


def test_id_map_leaves_inputs_unmodified():
    splats, labels, cameras = multi_view_scene(views=1)
    before = {name: value.copy() for name, value in vars(splats).items()}
    labels_before = labels.copy()
    assert labels.dtype == np.int64  # no conversion copy shields the caller's array
    render_instance_id_map(splats, labels, cameras[0])
    for name, value in vars(splats).items():
        assert np.array_equal(value, before[name]), name
    assert np.array_equal(labels, labels_before)


def mask_view(ids, count, embeddings):
    return MaskView(ids=np.asarray(ids, dtype=np.uint32), count=count,
                    embeddings=np.asarray(embeddings, dtype=np.float64))


def test_associate_identical_footprint_copies_embedding():
    ids = np.full((4, 4), NO_MASK, dtype=np.uint32)
    ids[:2, :2] = 0
    emb = np.array([[3.0, 0.0, 0.0, 4.0]])
    masks = [mask_view(ids, 1, emb)]
    id_map = np.full((4, 4), NO_INSTANCE, dtype=np.uint32)
    id_map[:2, :2] = 0
    table = associate_embeddings([id_map], masks, 1)
    assert np.allclose(table.vectors[0], emb[0] / 5.0)  # normalized
    assert np.linalg.norm(table.vectors[0]) == pytest.approx(1.0, abs=1e-12)


def test_associate_weights_by_iou():
    # instance footprint: 4 pixels; mask 0 shares 3 of 5 (IoU 1/2), mask 1 is
    # exactly one shared pixel (IoU 1/4)
    ids = np.full((4, 4), NO_MASK, dtype=np.uint32)
    ids[0, 0:3] = 0
    ids[1, 1:3] = 0
    ids[0, 3] = 1
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    masks = [mask_view(ids, 2, np.stack([u, v]))]
    id_map = np.full((4, 4), NO_INSTANCE, dtype=np.uint32)
    id_map[0, 0:4] = 0  # shares (0,0),(0,1),(0,2) with mask 0 and (0,3) with mask 1
    table = associate_embeddings([id_map], masks, 1)
    expected = 0.5 * u + 0.25 * v
    expected /= np.linalg.norm(expected)
    assert np.allclose(table.vectors[0], expected)


def test_associate_invisible_instance_stays_zero():
    ids = np.full((3, 3), NO_MASK, dtype=np.uint32)
    ids[0, 0] = 0
    masks = [mask_view(ids, 1, np.array([[1.0, 0.0]]))]
    id_map = np.full((3, 3), NO_INSTANCE, dtype=np.uint32)
    id_map[0, 0] = 0
    table = associate_embeddings([id_map], masks, 3)
    assert not table.vectors[1].any() and not table.vectors[2].any()


def test_associate_requires_embeddings():
    view = MaskView(ids=np.full((2, 2), NO_MASK, dtype=np.uint32), count=0)
    with pytest.raises(UsageError):
        associate_embeddings([np.full((2, 2), NO_INSTANCE, dtype=np.uint32)],
                             [view], 1)


def test_score_query_examples():
    table = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    scores = score_query(np.array([1.0, 0.0]), table)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(0.0)
    assert scores[2] == -1.0  # unassociated instance


def test_score_query_zero_query_rejected():
    with pytest.raises(UsageError):
        score_query(np.zeros(2), EmbeddingTable(np.ones((1, 2))))


def test_score_query_matches_arithmetic_oracle():
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.normal(size=(10, 16)))
    q = rng.normal(size=16)
    scores = score_query(q, table)
    for i in range(10):
        e = table.vectors[i]
        oracle = float(np.dot(q, e) / (np.linalg.norm(q) * np.linalg.norm(e)))
        assert abs(scores[i] - oracle) <= 1e-6


def test_score_query_symmetric():
    rng = np.random.default_rng(1)
    q = rng.normal(size=8)
    e = rng.normal(size=8)
    a = score_query(q, EmbeddingTable(e[None, :]))[0]
    b = score_query(e, EmbeddingTable(q[None, :]))[0]
    assert a == pytest.approx(b, rel=1e-12)


def test_semantic_assign_recovers_one_hots():
    text = EmbeddingTable(np.eye(3, 8))
    inst = EmbeddingTable(np.eye(3, 8)[[2, 0, 1]])
    labels = np.array([0, 0, 1, 2])
    point_classes, inst_classes = semantic_assign(text, inst, labels)
    assert inst_classes.tolist() == [2, 0, 1]
    assert point_classes.tolist() == [2, 2, 0, 1]


def test_semantic_assign_tie_goes_to_lower_class():
    text = EmbeddingTable(np.array([[1.0, 0.0], [1.0, 0.0]]))
    inst = EmbeddingTable(np.array([[2.0, 0.0]]))
    _, inst_classes = semantic_assign(text, inst, np.array([0]))
    assert inst_classes[0] == 0


def test_semantic_assign_zero_embedding_gets_sentinel():
    text = EmbeddingTable(np.eye(2, 4))
    inst = EmbeddingTable(np.zeros((1, 4)))
    point_classes, inst_classes = semantic_assign(text, inst, np.array([0, 0]))
    assert inst_classes[0] == -1
    assert point_classes.tolist() == [-1, -1]


def test_semantic_assign_scale_invariant():
    rng = np.random.default_rng(2)
    text = EmbeddingTable(rng.normal(size=(4, 8)))
    vectors = rng.normal(size=(6, 8))
    labels = rng.integers(0, 6, size=30)
    _, a = semantic_assign(text, EmbeddingTable(vectors), labels)
    _, b = semantic_assign(text, EmbeddingTable(vectors * 37.5), labels)
    assert np.array_equal(a, b)


def test_semantic_assign_noisy_monte_carlo():
    rng = np.random.default_rng(3)
    c, dim, n = 8, 32, 100
    protos = np.eye(c, dim)
    true = rng.integers(0, c, size=n)
    noisy = protos[true] + rng.normal(0, 0.1, size=(n, dim))
    _, assigned = semantic_assign(EmbeddingTable(protos), EmbeddingTable(noisy),
                                  np.arange(n))
    assert (assigned == true).mean() >= 0.95


def test_embedding_table_rejects_nan():
    with pytest.raises(DataError):
        EmbeddingTable(np.array([[np.nan, 0.0]]))


def test_embedding_file_roundtrip(tmp_path):
    table = EmbeddingTable(np.random.default_rng(4).normal(size=(5, 12)))
    path = str(tmp_path / "emb.igem")
    save_embeddings(path, table)
    loaded = load_embeddings(path)
    assert loaded.count == 5 and loaded.dim == 12
    assert np.allclose(loaded.vectors, table.vectors, atol=1e-6)
    assert open(path, "rb").read()[:4] == b"IGEM"
