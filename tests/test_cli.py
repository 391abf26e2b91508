import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from igsplat import association, instantiation, renderer
from igsplat.cli import main
from igsplat.scene_model import load_checkpoint, save_checkpoint

SMALL_CONFIG = {
    "scene": {
        "synth": {
            "num_objects": 3,
            "points_per_object": 90,
            "num_cameras": 6,
            "image_size": 32,
            "orbit_radius": 2.4,
            "orbit_height": [1.6, -1.0],
            "center_height": 0.3,
            "placement_extent": 0.7,
            "num_classes": 3,
            "seed": 2,
        },
        "embedding_dim": 16,
        "embedding_sigma": 0.05,
        "embedding_seed": 4,
    },
    "model": {"embedding_dim": 16, "base_scale": 0.06, "seed": 7},
    "train": {
        "total_steps": 45,
        "t1": 15,
        "t2": 30,
        "learning_rates": {"features": 0.08},
        "seed": 11,
        "freeze_positions": True,
    },
    "instantiate": {"samples": 30, "voxel_size": 0.2, "gamma": 0.1,
                    "lambda_pos": 1.75, "seed": 5},
    "output": None,  # filled per test
}


def write_config(tmp_path, out_name="out", **overrides):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["output"] = str(tmp_path / out_name)
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["output"]


def run_pipeline(config_path, stages=("generate", "train", "instantiate", "associate", "query", "eval")):
    for stage in stages:
        assert main([stage, "--config", config_path]) == 0, stage


def test_full_pipeline_produces_metrics(tmp_path, capsys):
    config_path, out = write_config(tmp_path)
    run_pipeline(config_path)
    metrics = json.loads(open(os.path.join(out, "eval", "metrics.json")).read())
    assert 0.0 <= metrics["instance_miou"] <= 1.0
    assert metrics["num_gt_instances"] == 3
    assert metrics["semantic_miou"] is not None
    scores = json.loads(open(os.path.join(out, "query", "scores.json")).read())
    assert len(scores["per_query"]) == 3


def test_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    config_path, out = write_config(tmp_path, **{"train.bogus_key": 1})
    assert main(["generate", "--config", config_path]) == 2
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path)]) == 2


@pytest.mark.parametrize("key, token", [("train.tau", "NaN"), ("instantiate.gamma", "Infinity"),
                                        ("train.tau", "-1e999")])
def test_non_finite_config_number_exits_2(tmp_path, key, token, capsys):
    config_path, out = write_config(tmp_path, **{key: "@"})
    with open(config_path) as fh:
        text = fh.read().replace('"@"', token)
    with open(config_path, "w") as fh:
        fh.write(text)
    assert main(["generate", "--config", config_path]) == 2
    assert not os.path.exists(out)
    assert f"finite, got {token}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("instantiate.gamma", "x", "instantiate.gamma: expected number, got string"),
    ("instantiate.samples", 2.5, "instantiate.samples: expected integer, got number"),
    ("train.freeze_positions", 1, "train.freeze_positions: expected boolean, got integer"),
    ("instantiate.seed", True, "instantiate.seed: expected integer, got boolean"),
    ("scene.synth", [], "scene.synth: expected an object"),
    ("scene.synth.objects", [{"size": "big"}],
     "scene.synth.objects[0].size: expected array or number, got string"),
])
def test_config_type_error_names_json_types(tmp_path, key, value, message, capsys):
    config_path, out = write_config(tmp_path)
    cfg = json.loads(open(config_path).read())
    *sections, field = key.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[field] = value
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["generate", "--config", config_path]) == 2
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    assert message in err
    assert "<class" not in err


SEED_KEYS = ["scene.synth.seed", "scene.corrupt.seed", "scene.embedding_seed", "model.seed",
             "train.seed", "instantiate.seed"]


@pytest.mark.parametrize("key", SEED_KEYS)
def test_negative_config_seed_exits_2(tmp_path, key, capsys):
    config_path, out = write_config(tmp_path)
    cfg = json.loads(open(config_path).read())
    *sections, field = key.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[field] = -1
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["generate", "--config", config_path]) == 2
    assert not os.path.exists(out)
    assert f"{key}: seeds must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("points_per_object", 0, "points_per_object must be at least 1, got 0"),
    ("points_per_object", -5, "points_per_object must be at least 1, got -5"),
    ("fov_degrees", 0, "fov_degrees must lie in (0, 180), got 0"),
    ("fov_degrees", 180, "fov_degrees must lie in (0, 180), got 180"),
    ("num_cameras", -2, "num_cameras must not be negative, got -2"),
])
def test_generate_rejects_bad_scene_number(tmp_path, field, value, message, capsys):
    config_path, out = write_config(tmp_path)
    cfg = json.loads(open(config_path).read())
    cfg["scene"]["synth"][field] = value
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["generate", "--config", config_path]) == 2
    assert not os.path.exists(out)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -2])
def test_train_rejects_embedding_dim_below_1(tmp_path, value, capsys):
    config_path, out = write_config(tmp_path, **{"model.embedding_dim": value})
    run_pipeline(config_path, ("generate",))
    assert main(["train", "--config", config_path]) == 2
    assert not os.path.exists(os.path.join(out, "train"))
    assert f"embedding_dim must be at least 1, got {value}" in capsys.readouterr().err


def test_missing_inputs_exit_3(tmp_path):
    config_path, out = write_config(tmp_path)
    assert main(["train", "--config", config_path]) == 3  # no scene yet


def test_gamma_sweep_is_monotone(tmp_path):
    config_path, out = write_config(tmp_path)
    run_pipeline(config_path, stages=("generate", "train"))
    counts = {}
    for gamma in (0.06, 0.18):
        assert main(["instantiate", "--config", config_path, "--gamma", str(gamma)]) == 0
        summary = json.loads(open(os.path.join(out, "instantiate", "instances.json")).read())
        counts[gamma] = summary["num_instances"]
    assert counts[0.06] >= counts[0.18]


def test_instantiate_is_idempotent(tmp_path):
    config_path, out = write_config(tmp_path)
    run_pipeline(config_path, stages=("generate", "train", "instantiate"))
    labels_path = os.path.join(out, "instantiate", "labels.iglb")
    first = open(labels_path, "rb").read()
    assert main(["instantiate", "--config", config_path]) == 0
    assert open(labels_path, "rb").read() == first


def test_export_ply(tmp_path):
    config_path, out = write_config(tmp_path)
    run_pipeline(config_path, stages=("generate", "train", "instantiate"))
    assert main(["export-ply", "--config", config_path]) == 0
    data = open(os.path.join(out, "instances.ply"), "rb").read()
    assert data.startswith(b"ply\nformat binary_little_endian 1.0\n")
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    n = 3 * 90 * 5
    assert len(data) - header_end == n * 15  # 12 bytes xyz + 3 bytes rgb


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    config_path, out = write_config(tmp_path_factory.mktemp("trained"))
    run_pipeline(config_path, stages=("generate", "train"))
    return config_path, out


@pytest.mark.parametrize("flag, value, message", [
    ("--voxel-size", "nan", "voxel size must be positive"),
    ("--voxel-size", "1e-300", "voxel keys at or beyond 2^62"),
    ("--lambda-pos", "nan", "lambda_pos must be finite"),
    ("--gamma", "nan", "gamma must be positive"),
    ("--seed", "-1", "--seed must be non-negative"),
], ids=["voxel_nan", "voxel_tiny", "lambda_nan", "gamma_nan", "seed_negative"])
def test_instantiate_rejects_bad_flag_value(trained, flag, value, message, capsys):
    config_path, out = trained
    assert main(["instantiate", "--config", config_path, flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "instantiate", "labels.iglb"))


def test_instantiate_rejects_null_config_value(trained, tmp_path, capsys):
    config_path, out = trained
    cfg = json.loads(open(config_path).read())
    cfg["instantiate"]["gamma"] = None
    null_path = tmp_path / "null_gamma.json"
    null_path.write_text(json.dumps(cfg))
    assert main(["instantiate", "--config", str(null_path)]) == 2
    err = capsys.readouterr().err
    assert "instantiate.gamma: expected number, got null" in err
    assert not os.path.exists(os.path.join(out, "instantiate", "labels.iglb"))


@pytest.fixture(scope="module")
def instantiated(tmp_path_factory):
    config_path, out = write_config(tmp_path_factory.mktemp("labels"))
    run_pipeline(config_path, stages=("generate", "train", "instantiate"))
    return config_path, out


@pytest.fixture(scope="module")
def associated(tmp_path_factory):
    config_path, out = write_config(tmp_path_factory.mktemp("embeddings"))
    run_pipeline(config_path, stages=("generate", "train", "instantiate", "associate"))
    return config_path, out


BAD_LABEL_CASES = ["label_m_plus_5", "label_u32_max", "one_label_short", "count_beyond_splats"]


def run_with_bad_labels(config_path, out, stage, case):
    """Run ``stage`` on a corrupted copy of the label file, then restore it."""
    labels_path = os.path.join(out, "instantiate", "labels.iglb")
    labels, m = instantiation.load_labels(labels_path)
    n = labels.size
    if case == "label_m_plus_5":
        labels[7] = m + 5
    elif case == "label_u32_max":
        labels[7] = 0xFFFFFFFF
    elif case == "one_label_short":
        labels = labels[:-1]
    else:
        m = n + 1
    good = open(labels_path, "rb").read()
    instantiation.save_labels(labels_path, labels.astype(np.uint32), m)
    try:
        return main([stage, "--config", config_path])
    finally:
        with open(labels_path, "wb") as fh:
            fh.write(good)


@pytest.mark.parametrize("case", BAD_LABEL_CASES)
def test_associate_rejects_bad_label_file(instantiated, case, capsys):
    config_path, out = instantiated
    assert run_with_bad_labels(config_path, out, "associate", case) == 2
    assert "labels.iglb" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "associate", "instance_embeddings.igem"))


@pytest.mark.parametrize("case", BAD_LABEL_CASES)
def test_query_rejects_bad_label_file(associated, case, capsys):
    config_path, out = associated
    assert run_with_bad_labels(config_path, out, "query", case) == 2
    assert "labels.iglb" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "query"))


@pytest.mark.parametrize("case", BAD_LABEL_CASES)
@pytest.mark.parametrize("stage, artifact", [("eval", "eval/metrics.json"),
                                             ("export-ply", "instances.ply")])
def test_eval_and_export_reject_bad_label_file(instantiated, stage, artifact, case, capsys):
    config_path, out = instantiated
    assert run_with_bad_labels(config_path, out, stage, case) == 2
    assert "labels.iglb" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, artifact))


@pytest.fixture(scope="module")
def queried(tmp_path_factory):
    config_path, out = write_config(tmp_path_factory.mktemp("semantic"))
    run_pipeline(config_path, stages=("generate", "train", "instantiate", "associate", "query"))
    return config_path, out


@pytest.mark.parametrize("case, code", [("class_count_plus_7", 2), ("unassigned", 0)])
def test_eval_checks_semantic_label_file(queried, case, code, capsys):
    config_path, out = queried
    path = os.path.join(out, "query", "semantic_labels.iglb")
    metrics_path = os.path.join(out, "eval", "metrics.json")
    good = open(path, "rb").read()
    classes, class_count = instantiation.load_labels(path)
    classes[7] = class_count + 7 if case == "class_count_plus_7" else 0xFFFFFFFF
    instantiation.save_labels(path, classes.astype(np.uint32), class_count)
    try:
        assert main(["eval", "--config", config_path]) == code
    finally:
        with open(path, "wb") as fh:
            fh.write(good)
    if code:
        assert "semantic_labels.iglb" in capsys.readouterr().err
        assert not os.path.exists(metrics_path)
    else:
        os.remove(metrics_path)


def test_query_rejects_embedding_table_of_other_size(associated, capsys):
    config_path, out = associated
    path = os.path.join(out, "associate", "instance_embeddings.igem")
    good = open(path, "rb").read()
    table = association.load_embeddings(path)
    association.save_embeddings(path, association.EmbeddingTable(table.vectors[:-1]))
    try:
        assert main(["query", "--config", config_path]) == 2
    finally:
        with open(path, "wb") as fh:
            fh.write(good)
    assert "instance_embeddings.igem" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "query"))


BAD_SCENE_JSON = {
    # case: (file in the scene bundle, stage, exit code, artifact it must not write)
    "manifest_truncated": ("manifest.json", "eval", 3, "eval/metrics.json"),
    "camera_without_fy": ("cameras/cam_000.json", "associate", 3,
                          "associate/instance_embeddings.igem"),
    "camera_fy_not_a_number": ("cameras/cam_000.json", "associate", 3,
                               "associate/instance_embeddings.igem"),
    "class_names_object": ("class_names.json", "query", 3, "query"),
    "one_class_name": ("class_names.json", "query", 2, "query"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENE_JSON))
def test_bad_scene_json_exits_with_its_code(associated, case, capsys):
    config_path, out = associated
    name, stage, code, artifact = BAD_SCENE_JSON[case]
    path = os.path.join(out, "scene", name)
    good = Path(path).read_bytes()
    if case == "manifest_truncated":
        bad = good[: len(good) // 2]
    elif case.startswith("camera"):
        camera = json.loads(good)
        if case == "camera_without_fy":
            del camera["fy"]
        else:
            camera["fy"] = "x"
        bad = json.dumps(camera).encode()
    else:  # the scene has 3 text embeddings
        bad = json.dumps({"a": 1} if case == "class_names_object" else ["x"]).encode()
    artifact_path = os.path.join(out, artifact)
    before = Path(artifact_path).read_bytes() if os.path.isfile(artifact_path) else None
    with open(path, "wb") as fh:
        fh.write(bad)
    try:
        assert main([stage, "--config", config_path]) == code
    finally:
        with open(path, "wb") as fh:
            fh.write(good)
    assert name.split("/")[-1] in capsys.readouterr().err
    if before is None:
        assert not os.path.exists(artifact_path)
    else:
        assert Path(artifact_path).read_bytes() == before


@pytest.mark.parametrize("tensor, stage", [("embedding", "associate"), ("head", "instantiate")])
def test_non_finite_checkpoint_exits_2(instantiated, tensor, stage, capsys):
    config_path, out = instantiated
    path = os.path.join(out, "train", "checkpoint.igck")
    good = open(path, "rb").read()
    anchors, decoder = load_checkpoint(path)
    if tensor == "embedding":
        anchors.embeddings[3, 1] = np.nan
    else:
        decoder.scale.w2[2, 0] = np.nan
    save_checkpoint(path, anchors, decoder)
    try:
        assert main([stage, "--config", config_path]) == 2
    finally:
        with open(path, "wb") as fh:
            fh.write(good)
    assert "finite" in capsys.readouterr().err


def test_associate_past_contribution_budget_exits_4(instantiated, tmp_path, capsys):
    # the trained splats with every scale blown up 1e4x, seen by 160x160
    # views: 1350 splats x 25600 pixels is past the renderer's budget
    config_path, out = instantiated
    cfg = json.loads(open(config_path).read())
    cfg["scene"]["synth"]["image_size"] = 160
    cfg["output"] = str(tmp_path / "huge")
    huge_config = tmp_path / "huge.json"
    huge_config.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(huge_config)]) == 0
    anchors, decoder = load_checkpoint(os.path.join(out, "train", "checkpoint.igck"))
    decoder.base_scale *= 1e4
    for stage in ("train", "instantiate"):
        os.makedirs(os.path.join(cfg["output"], stage))
    save_checkpoint(os.path.join(cfg["output"], "train", "checkpoint.igck"), anchors, decoder)
    shutil.copyfile(os.path.join(out, "instantiate", "labels.iglb"),
                    os.path.join(cfg["output"], "instantiate", "labels.iglb"))
    capsys.readouterr()
    assert main(["associate", "--config", str(huge_config)]) == 4
    assert "over the budget" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(cfg["output"], "associate", "instance_embeddings.igem"))


def test_train_past_contribution_budget_dumps_and_exits_4(tmp_path, monkeypatch, capsys):
    config_path, out = write_config(tmp_path)
    assert main(["generate", "--config", config_path]) == 0
    monkeypatch.setattr(renderer, "CONTRIBUTION_BUDGET", 1000)
    capsys.readouterr()
    assert main(["train", "--config", config_path]) == 4
    assert "over the budget" in capsys.readouterr().err
    dump = json.loads(open(os.path.join(out, "train", "abort_dump.json")).read())
    assert dump["step"] == 0 and dump["phase"] == "appearance"
    assert dump["view"] in range(SMALL_CONFIG["scene"]["synth"]["num_cameras"])
    assert dump["budget"] == 1000 and dump["contributions"] > 1000
    assert not os.path.exists(os.path.join(out, "train", "checkpoint.igck"))


def test_selftest_passes():
    assert main(["selftest"]) == 0


def hash_tree(root):
    digest = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            digest[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return digest


def test_pipeline_bitwise_reproducible(tmp_path):
    hashes = []
    for run in ("a", "b"):
        config_path, out = write_config(tmp_path, out_name=run)
        run_pipeline(config_path)
        hashes.append(hash_tree(out))
    assert hashes[0] == hashes[1]
