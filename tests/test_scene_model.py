import numpy as np
import pytest

from igsplat.errors import DataError, UsageError
from igsplat.oracles import central_differences, relative_errors
from igsplat.scene_model import (
    CHILDREN_PER_ANCHOR,
    ModelConfig,
    SplatSet,
    checkpoint_bytes,
    decode_backward,
    decode_gaussians,
    init_anchors,
    init_decoder,
    load_checkpoint,
    median_spacing,
    parameters,
    resolve_model_config,
    save_checkpoint,
)

from helpers import zero_decoder


def make_anchors(n=4, seed=7, d_e=16):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(n, 3))
    return init_anchors(pts, ModelConfig(embedding_dim=d_e), seed)


def test_init_is_deterministic_bitwise():
    a = make_anchors(100, seed=7)
    b = make_anchors(100, seed=7)
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    assert a.features.tobytes() == b.features.tobytes()


def test_init_single_point():
    a = init_anchors(np.zeros((1, 3)), ModelConfig(), 0)
    assert a.count == 1
    assert a.features.shape == (1, 6)


def test_different_seeds_differ_in_serialized_bytes():
    dec = zero_decoder(16, 0.1, 0.1)
    a = checkpoint_bytes(make_anchors(100, seed=7), dec)
    b = checkpoint_bytes(make_anchors(100, seed=8), dec)
    assert a != b


def test_init_rejects_empty_cloud():
    with pytest.raises(DataError, match="empty point cloud"):
        init_anchors(np.zeros((0, 3)), ModelConfig(), 0)


def test_init_rejects_non_finite():
    pts = np.zeros((2, 3))
    pts[1, 0] = np.nan
    with pytest.raises(DataError):
        init_anchors(pts, ModelConfig(), 0)


def test_embedding_ranges():
    a = make_anchors(500)
    assert a.embeddings.min() >= -0.05 and a.embeddings.max() < 0.05
    assert a.features.min() >= 0.0 and a.features.max() < 1.0


def test_decode_count_is_five_per_anchor():
    anchors = make_anchors(200)
    decoder = init_decoder(16, 0.1, 0.05, 1)
    splats = decode_gaussians(anchors, decoder)
    assert splats.count == 1000
    assert splats.parent.tolist() == np.repeat(np.arange(200), 5).tolist()


def test_zero_decoder_places_children_on_anchor():
    anchors = make_anchors(3)
    decoder = zero_decoder(16, 0.2, 0.07)
    splats = decode_gaussians(anchors, decoder)
    expected_centers = np.repeat(anchors.positions, CHILDREN_PER_ANCHOR, axis=0)
    assert np.array_equal(splats.centers, expected_centers)
    assert np.all(splats.opacities == 0.5)
    assert np.all(splats.colors == 0.5)
    assert np.allclose(splats.scales, 0.07)


def test_children_share_parent_feature_bitwise():
    anchors = make_anchors(10)
    splats = decode_gaussians(anchors, init_decoder(16, 0.1, 0.05, 3))
    for i in range(splats.count):
        assert splats.features[i].tobytes() == anchors.features[splats.parent[i]].tobytes()


def test_decode_is_pure():
    anchors = make_anchors(8)
    decoder = init_decoder(16, 0.1, 0.05, 3)
    a = decode_gaussians(anchors, decoder)
    b = decode_gaussians(anchors, decoder)
    for field in ("centers", "colors", "opacities", "scales", "features"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_decode_respects_offset_range():
    anchors = make_anchors(50)
    rho = 0.13
    splats = decode_gaussians(anchors, init_decoder(16, rho, 0.05, 3))
    offsets = splats.centers - np.repeat(anchors.positions, 5, axis=0)
    assert np.abs(offsets).max() <= rho
    assert np.all(splats.opacities > 0) and np.all(splats.opacities < 1)
    assert np.all(splats.scales > 0)


def test_decode_dimension_mismatch():
    anchors = make_anchors(3, d_e=16)
    with pytest.raises(UsageError):
        decode_gaussians(anchors, init_decoder(8, 0.1, 0.05, 0))


def _flatten_outputs(splats):
    return np.concatenate(
        [splats.centers.ravel(), splats.colors.ravel(), splats.opacities,
         splats.scales, splats.features.ravel()]
    )


def test_decode_gradients_match_finite_differences():
    # random direction in output space; compare VJP against central
    # differences. Seeds chosen so every relu pre-activation clears zero by
    # more than the step size (no kink crossings).
    anchors = make_anchors(3, seed=21)
    decoder = init_decoder(16, 0.3, 0.2, 36)
    rng = np.random.default_rng(99)
    splats = decode_gaussians(anchors, decoder)
    d_centers = rng.normal(size=splats.centers.shape)
    d_colors = rng.normal(size=splats.colors.shape)
    d_opac = rng.normal(size=splats.opacities.shape)
    d_scales = rng.normal(size=splats.scales.shape)
    d_feats = rng.normal(size=splats.features.shape)

    grads = decode_backward(
        anchors, decoder, splats, d_centers, d_colors, d_opac, d_scales, d_feats
    )

    def objective():
        s = decode_gaussians(anchors, decoder)
        return (
            (s.centers * d_centers).sum() + (s.colors * d_colors).sum()
            + (s.opacities * d_opac).sum() + (s.scales * d_scales).sum()
            + (s.features * d_feats).sum()
        )

    params = parameters(anchors, decoder)
    assert grads.keys() == params.keys()
    for name, analytic in grads.items():
        fd = central_differences(objective, params[name], 1e-3)
        bad = np.flatnonzero(~(relative_errors(analytic.ravel(), fd) <= 1e-4))
        assert bad.size == 0, f"{name}{bad}: analytic {analytic.ravel()[bad]}, fd {fd[bad]}"


def test_decode_backward_returns_only_reached_tensors():
    anchors = make_anchors(4, seed=3)
    decoder = init_decoder(16, 0.2, 0.1, 4)
    splats = decode_gaussians(anchors, decoder)
    rng = np.random.default_rng(5)
    d_centers = rng.normal(size=splats.centers.shape)
    d_opacities = rng.normal(size=splats.opacities.shape)
    d_features = rng.normal(size=splats.features.shape)
    assert decode_backward(anchors, decoder, splats).keys() == set()
    assert decode_backward(anchors, decoder, splats, d_features=d_features).keys() == {"features"}
    grads = decode_backward(anchors, decoder, splats, d_centers=d_centers,
                            d_opacities=d_opacities, d_features=d_features)
    heads = {f"decoder.{head}.{t}" for head in ("offset", "opacity") for t in ("w1", "b1", "w2", "b2")}
    assert grads.keys() == {"positions", "embeddings", "features"} | heads
    # a head's gradient reads only its own attribute's upstream gradient
    full = decode_backward(anchors, decoder, splats, d_centers, rng.normal(size=(20, 3)),
                           d_opacities, rng.normal(size=20), d_features)
    for name in heads | {"positions", "features"}:
        assert grads[name].tobytes() == full[name].tobytes(), name
    # the joint feature chain's call skips the embeddings gradient, and only it
    skipped = decode_backward(anchors, decoder, splats, d_centers=d_centers,
                              d_opacities=d_opacities, d_features=d_features, embeddings=False)
    assert skipped.keys() == grads.keys() - {"embeddings"}
    for name, grad in skipped.items():
        assert grad.tobytes() == grads[name].tobytes(), name


def test_decode_backward_rejects_hand_built_splats():
    anchors = make_anchors(2)
    decoder = init_decoder(16, 0.2, 0.1, 4)
    s = decode_gaussians(anchors, decoder)
    hand_built = SplatSet(s.centers, s.colors, s.opacities, s.scales, s.features, s.parent)
    with pytest.raises(UsageError, match="no decode activations"):
        decode_backward(anchors, decoder, hand_built, d_features=np.ones((10, 6)))


def test_decode_backward_rejects_activations_of_other_anchors():
    decoder = init_decoder(16, 0.2, 0.1, 4)
    splats = decode_gaussians(make_anchors(3), decoder)
    with pytest.raises(UsageError, match="one row per anchor"):
        decode_backward(make_anchors(2), decoder, splats, d_features=np.ones((10, 6)))


def test_single_embedding_perturbation_matches_jacobian():
    anchors = make_anchors(2, seed=5)
    decoder = init_decoder(16, 0.25, 0.1, 6)
    coord = 7
    (fd,) = central_differences(lambda: _flatten_outputs(decode_gaussians(anchors, decoder)),
                                anchors.embeddings, 1e-3, indices=[coord])

    # jacobian row via one backward per output element is slow; use a random
    # probe vector instead: <probe, J e_k> both ways
    rng = np.random.default_rng(3)
    splats = decode_gaussians(anchors, decoder)
    probe = rng.normal(size=fd.shape)
    n3 = splats.centers.size
    grads = decode_backward(
        anchors,
        decoder,
        splats,
        d_centers=probe[:n3].reshape(splats.centers.shape),
        d_colors=probe[n3:2 * n3].reshape(splats.colors.shape),
        d_opacities=probe[2 * n3:2 * n3 + splats.count],
        d_scales=probe[2 * n3 + splats.count:2 * n3 + 2 * splats.count],
        d_features=probe[2 * n3 + 2 * splats.count:].reshape(splats.features.shape),
    )
    analytic = grads["embeddings"][0, coord]
    numeric = float(probe @ fd)
    assert abs(analytic - numeric) / max(abs(numeric), 1e-9) <= 1e-3


def test_median_spacing():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    # nearest-neighbor distances are [1, 1, 2]
    assert median_spacing(pts) == 1.0
    assert median_spacing(pts[:1]) == 1.0


def test_resolve_model_config_defaults_track_spacing():
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
    d_e, rho, s0 = resolve_model_config(ModelConfig(), pts)
    assert d_e == 16
    assert rho == pytest.approx(1.0)  # 2x median spacing
    assert s0 == pytest.approx(0.5)


def test_checkpoint_roundtrip(tmp_path):
    anchors = make_anchors(17)
    decoder = init_decoder(16, 0.21, 0.09, 2)
    path = str(tmp_path / "model.igck")
    save_checkpoint(path, anchors, decoder)
    loaded_anchors, loaded_decoder = load_checkpoint(path)
    # one f32 round trip is lossy; a second save must be byte-identical
    assert checkpoint_bytes(loaded_anchors, loaded_decoder) == checkpoint_bytes(
        loaded_anchors, loaded_decoder
    )
    save_checkpoint(str(tmp_path / "again.igck"), loaded_anchors, loaded_decoder)
    assert (tmp_path / "model.igck").read_bytes() == (tmp_path / "again.igck").read_bytes()
    assert loaded_anchors.count == 17
    assert loaded_decoder.offset_range == pytest.approx(0.21, rel=1e-6)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.igck"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    from igsplat.errors import FormatError

    with pytest.raises(FormatError):
        load_checkpoint(str(path))
