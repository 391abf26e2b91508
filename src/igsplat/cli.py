"""Single entry point wiring the pipeline stages together.

Subcommands: generate, train, instantiate, associate, query, eval,
export-ply, selftest. Every stage reads a JSON run config (full-schema
validation, unknown keys rejected), never mutates its inputs, and writes
artifacts atomically, so reruns with the same config and seeds reproduce
outputs bit for bit.

Exit codes: 0 success, 2 config/usage error, 3 I/O error, 4 numerical abort.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import association, evaluation, instantiation, synthdata
from .binio import read_json, write_atomic, write_atomic_text
from .errors import ConfigError, DataError, FormatError, NumericalError, UsageError
from .scene_model import (
    CHILDREN_PER_ANCHOR,
    ModelConfig,
    decode_gaussians,
    init_anchors,
    init_decoder,
    load_checkpoint,
    resolve_model_config,
)
from .trainer import DEFAULT_LEARNING_RATES, Schedule, TrainView, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_LR_SCHEMA = {key: float for key in DEFAULT_LEARNING_RATES}


class _Seed:
    """Schema type of a seed key: a non-negative int, as the random
    generators require."""


_OBJECT_SCHEMA = {
    "kind": str,
    "center": list,
    "size": (list, float, int),
    "color": list,
    "class_id": int,
}

_SYNTH_SCHEMA = {
    "num_objects": int,
    "objects": list,
    "points_per_object": int,
    "num_cameras": int,
    "image_size": int,
    "orbit_radius": float,
    "orbit_height": (float, list),
    "fov_degrees": float,
    "placement_extent": float,
    "center_height": float,
    "num_classes": int,
    "class_names": list,
    "seed": _Seed,
}

_SCHEMA = {
    "scene": {
        "synth": _SYNTH_SCHEMA,
        "corrupt": {"p_drop": float, "p_split": float, "p_merge": float, "seed": _Seed},
        "embedding_dim": int,
        "embedding_sigma": float,
        "embedding_seed": _Seed,
    },
    "model": {
        "embedding_dim": int,
        "offset_range": float,
        "base_scale": float,
        "seed": _Seed,
    },
    "train": {
        "total_steps": int,
        "t1": int,
        "t2": int,
        "lambda_smooth": float,
        "lambda_contrast": float,
        "tau": float,
        "learning_rates": _LR_SCHEMA,
        "phase_learning_rates": {
            "appearance": _LR_SCHEMA,
            "independent": _LR_SCHEMA,
            "joint": _LR_SCHEMA,
        },
        "seed": _Seed,
        "freeze_positions": bool,
        "mode": str,
    },
    "instantiate": {
        "samples": int,
        "voxel_size": float,
        "gamma": float,
        "lambda_pos": float,
        "seed": _Seed,
    },
    "query": {"text_embeddings": str, "class_names": str},
    "output": str,
}


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer", float: "number", type(None): "null"}


def _check_schema(value, schema, path: str) -> None:
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path[:-1] or 'config'}: expected an object")
        for key, sub in value.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {path + key!r}")
            _check_schema(sub, schema[key], f"{path}{key}.")
        return
    if schema is _Seed:
        _check_schema(value, int, path)
        if value < 0:
            raise ConfigError(f"{path[:-1]}: seeds must be non-negative, got {value}")
        return
    types = schema if isinstance(schema, tuple) else (schema,)
    # a JSON number may be written as an integer
    expected = " or ".join(_JSON_TYPES[t] for t in types if not (t is int and float in types))
    if float in types:
        types = types + (int,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"{path[:-1]}: expected {expected}, got {_JSON_TYPES[type(value)]}")


def _finite_number(token: str) -> float:
    """JSON number hook: ``NaN``/``Infinity`` literals and overflowing
    numbers such as ``1e999`` are config errors."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {token}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_schema(cfg, _SCHEMA, "")
    if "output" not in cfg:
        raise ConfigError("config must name an 'output' directory")
    if "objects" in cfg.get("scene", {}).get("synth", {}):
        for i, obj in enumerate(cfg["scene"]["synth"]["objects"]):
            _check_schema(obj, _OBJECT_SCHEMA, f"scene.synth.objects[{i}].")
    return cfg


def _scene_spec(cfg: dict) -> synthdata.SceneSpec:
    synth = dict(cfg.get("scene", {}).get("synth", {}))
    objects = synth.pop("objects", None)
    if objects is not None:
        parsed = []
        for obj in objects:
            size = obj["size"]
            size3 = [size, size, size] if isinstance(size, (int, float)) else size
            parsed.append(
                synthdata.ObjectSpec(
                    kind=obj["kind"],
                    center=np.array(obj["center"], dtype=np.float64),
                    size=np.array(size3, dtype=np.float64),
                    color=np.array(obj["color"], dtype=np.float64),
                    class_id=int(obj["class_id"]),
                )
            )
        synth["objects"] = parsed
    return synthdata.SceneSpec(**synth)


def _paths(cfg: dict) -> dict:
    out = cfg["output"]
    return {
        "scene": os.path.join(out, "scene"),
        "train": os.path.join(out, "train"),
        "checkpoint": os.path.join(out, "train", "checkpoint.igck"),
        "labels": os.path.join(out, "instantiate", "labels.iglb"),
        "instances": os.path.join(out, "instantiate", "instances.json"),
        "instance_embeddings": os.path.join(out, "associate", "instance_embeddings.igem"),
        "semantic": os.path.join(out, "query", "semantic_labels.iglb"),
        "scores": os.path.join(out, "query", "scores.json"),
        "metrics": os.path.join(out, "eval", "metrics.json"),
    }


def _present(section: dict, *keys: str) -> dict:
    """The entries of ``keys`` that ``section`` sets, so a callee's own
    defaults apply to the rest."""
    return {key: section[key] for key in keys if key in section}


def cmd_generate(cfg: dict, args) -> int:
    scene = synthdata.generate_scene(_scene_spec(cfg))
    scene_cfg = cfg.get("scene", {})
    corrupt = scene_cfg.get("corrupt", {})
    options = _present(scene_cfg, "embedding_dim", "embedding_sigma", "embedding_seed")
    options.update(_present(corrupt, "p_drop", "p_split", "p_merge"))
    if "seed" in corrupt:
        options["corruption_seed"] = corrupt["seed"]
    synthdata.write_scene_dir(scene, _paths(cfg)["scene"], **options)
    print(f"generated scene with {scene.count} points, {len(scene.cameras)} views")
    return EXIT_OK


def _load_views(scene_dir: str):
    (manifest, points, colors, gt_inst, gt_cls, cameras, targets, masks) = synthdata.load_scene_dir(
        scene_dir
    )
    views = [TrainView(camera=c, target=t, masks=m) for c, t, m in zip(cameras, targets, masks)]
    return manifest, points, gt_inst, gt_cls, views, masks, cameras


def _schedule(cfg: dict) -> Schedule:
    tcfg = cfg.get("train", {})
    total = tcfg.get("total_steps", 0)
    kwargs = _present(tcfg, "lambda_smooth", "lambda_contrast", "tau", "phase_learning_rates",
                      "mode")
    kwargs["learning_rates"] = {**DEFAULT_LEARNING_RATES, **tcfg.get("learning_rates", {})}
    if "t1" in tcfg or "t2" in tcfg:
        if total and not ("t1" in tcfg and "t2" in tcfg):
            raise ConfigError("set both t1 and t2 or neither")
        return Schedule(total_steps=total, t1=tcfg.get("t1", 0), t2=tcfg.get("t2", 0), **kwargs)
    return Schedule.default(total, **kwargs)


def cmd_train(cfg: dict, args) -> int:
    paths = _paths(cfg)
    _, points, _, _, views, _, _ = _load_views(paths["scene"])
    mcfg = cfg.get("model", {})
    model = ModelConfig(**_present(mcfg, "embedding_dim", "offset_range", "base_scale"))
    d_e, rho, s0 = resolve_model_config(model, points)
    anchors = init_anchors(points, model, mcfg.get("seed", 0))
    decoder = init_decoder(d_e, rho, s0, mcfg.get("seed", 0) + 1)
    anchors.train_positions = not cfg.get("train", {}).get("freeze_positions", False)
    schedule = _schedule(cfg)
    state = train(anchors, decoder, views, schedule, cfg.get("train", {}).get("seed", 0), paths["train"])
    last = state.loss_log[-1] if state.loss_log else None
    if last:
        print(f"trained {state.step} steps; final l_rgb={last[2]:.5f}")
    else:
        print("trained 0 steps; checkpoint equals initialization")
    return EXIT_OK


def cmd_instantiate(cfg: dict, args) -> int:
    paths = _paths(cfg)
    anchors, decoder = load_checkpoint(paths["checkpoint"])
    splats = decode_gaussians(anchors, decoder)
    icfg = {
        "samples": instantiation.DEFAULT_SAMPLES,
        "voxel_size": instantiation.DEFAULT_VOXEL_SIZE,
        "gamma": instantiation.DEFAULT_GAMMA,
        "lambda_pos": instantiation.DEFAULT_LAMBDA_POS,
        "seed": 0,
        **cfg.get("instantiate", {}),
    }
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    for key in icfg:  # command-line values override the config's
        if getattr(args, key) is not None:
            icfg[key] = getattr(args, key)
    result = instantiation.instantiate(
        splats.centers, splats.features, s=icfg["samples"], r=icfg["voxel_size"],
        gamma=icfg["gamma"], lambda_pos=icfg["lambda_pos"], seed=icfg["seed"],
    )
    instantiation.save_labels(paths["labels"], result.labels, result.instance_count)
    summary = {
        "num_instances": result.instance_count,
        "sizes": [int(v) for v in result.sizes],
        **icfg,
    }
    write_atomic_text(paths["instances"], json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"instantiated {result.instance_count} instances from {splats.count} splats")
    return EXIT_OK


def _load_checked_labels(path: str, num_splats: int) -> tuple[np.ndarray, int]:
    """Instance labels and count, checked against the checkpoint's splats.

    Id maps, embedding tables and class lookups are sized or indexed by
    these, so a bad label file would otherwise surface as a broadcast,
    index or allocation failure.
    """
    labels, m = instantiation.load_labels(path)
    if labels.shape[0] != num_splats:
        raise DataError(f"{path}: {labels.shape[0]} labels for {num_splats} splats")
    if m > num_splats:
        raise DataError(f"{path}: {m} instances exceed the {num_splats} splats")
    if labels.size and labels.max() >= m:
        raise DataError(f"{path}: label {labels.max()} is not below the instance count {m}")
    return labels, m


def cmd_associate(cfg: dict, args) -> int:
    paths = _paths(cfg)
    anchors, decoder = load_checkpoint(paths["checkpoint"])
    splats = decode_gaussians(anchors, decoder)
    labels, m = _load_checked_labels(paths["labels"], splats.count)
    _, _, _, _, _, masks, cameras = _load_views(paths["scene"])
    id_maps = association.render_instance_id_maps(splats, labels, cameras)
    table = association.associate_embeddings(id_maps, masks, m)
    association.save_embeddings(paths["instance_embeddings"], table)
    covered = int((np.linalg.norm(table.vectors, axis=1) > 0).sum())
    print(f"associated embeddings for {covered}/{m} instances")
    return EXIT_OK


def cmd_query(cfg: dict, args) -> int:
    paths = _paths(cfg)
    qcfg = cfg.get("query", {})
    scene_dir = paths["scene"]
    text_path = qcfg.get("text_embeddings", os.path.join(scene_dir, "text_embeddings.igem"))
    names_path = qcfg.get("class_names", os.path.join(scene_dir, "class_names.json"))
    text = association.load_embeddings(text_path)
    names = read_json(names_path, list)
    if len(names) != text.count or not all(isinstance(name, str) for name in names):
        raise DataError(f"{names_path}: expected {text.count} class names, one string per "
                        f"text embedding")
    instances = association.load_embeddings(paths["instance_embeddings"])
    anchors, _ = load_checkpoint(paths["checkpoint"])
    labels, m = _load_checked_labels(paths["labels"], anchors.count * CHILDREN_PER_ANCHOR)
    if instances.count != m:
        raise DataError(
            f"{paths['instance_embeddings']}: {instances.count} embeddings for {m} instances"
        )
    point_classes, inst_classes = association.semantic_assign(text, instances, labels)
    instantiation.save_labels(paths["semantic"], point_classes.astype(np.uint32), text.count)
    scores = {}
    for cls, name in enumerate(names):
        sims = association.score_query(text.vectors[cls], instances)
        best = int(np.argmax(sims))
        scores[name] = {
            "scores": [float(s) for s in sims],
            "best_instance": best,
            "best_score": float(sims[best]),
        }
    payload = {
        "per_query": scores,
        "instance_classes": [int(c) for c in inst_classes],
    }
    write_atomic_text(paths["scores"], json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"scored {text.count} queries against {instances.count} instances")
    return EXIT_OK


def cmd_eval(cfg: dict, args) -> int:
    paths = _paths(cfg)
    manifest, points, gt_inst, gt_cls, _, _, _ = _load_views(paths["scene"])
    anchors, _ = load_checkpoint(paths["checkpoint"])
    labels, _ = _load_checked_labels(paths["labels"], anchors.count * CHILDREN_PER_ANCHOR)
    # splats inherit the GT label of the seed point their anchor came from
    per_splat_gt = np.repeat(gt_inst, CHILDREN_PER_ANCHOR)
    per_splat_cls = np.repeat(gt_cls, CHILDREN_PER_ANCHOR)
    if labels.shape[0] != per_splat_gt.shape[0]:
        raise UsageError("label count does not match the scene's splat count")
    pred_classes = None
    num_classes = manifest.get("num_classes", 0)
    if os.path.exists(paths["semantic"]):
        semantic, class_count = instantiation.load_labels(paths["semantic"])
        unassigned = semantic == 0xFFFFFFFF
        bad = semantic[~unassigned & (semantic >= class_count)]
        if bad.size:
            raise DataError(
                f"{paths['semantic']}: class id {bad[0]} is not below the class count {class_count}"
            )
        pred_classes = np.where(unassigned, -1, semantic)
    report = evaluation.build_report(
        labels, per_splat_gt, pred_classes, per_splat_cls if pred_classes is not None else None,
        num_classes,
    )
    evaluation.save_metrics(paths["metrics"], report)
    print(report.format_table())
    return EXIT_OK


_PLY_HEADER = """ply
format binary_little_endian 1.0
element vertex {count}
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
"""


def instance_palette(count: int) -> np.ndarray:
    """Distinct colors per instance id via golden-angle hue stepping."""
    hues = (np.arange(count) * 0.61803398875) % 1.0
    h6 = hues * 6.0
    x = 1.0 - np.abs(h6 % 2.0 - 1.0)
    table = np.zeros((count, 3))
    for k in range(count):
        sector = int(h6[k]) % 6
        rgb = [(1, x[k], 0), (x[k], 1, 0), (0, 1, x[k]), (0, x[k], 1), (x[k], 0, 1), (1, 0, x[k])][sector]
        table[k] = rgb
    return 0.25 + 0.75 * table


def cmd_export_ply(cfg: dict, args) -> int:
    paths = _paths(cfg)
    anchors, decoder = load_checkpoint(paths["checkpoint"])
    splats = decode_gaussians(anchors, decoder)
    labels, m = _load_checked_labels(paths["labels"], splats.count)
    colors = np.clip(instance_palette(m)[labels] * 255.0, 0, 255).astype(np.uint8)
    rec = np.zeros(splats.count, dtype=np.dtype([("xyz", "<f4", 3), ("rgb", "u1", 3)]))
    rec["xyz"] = splats.centers.astype("<f4")
    rec["rgb"] = colors
    body = rec.tobytes()
    out_path = args.out or os.path.join(cfg["output"], "instances.ply")
    write_atomic(out_path, _PLY_HEADER.format(count=splats.count).encode() + body)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_selftest(cfg: dict | None, args) -> int:
    """Quick invariant battery over the numerical core."""
    from . import selftest

    failures = selftest.run()
    if failures:
        for name, message in failures:
            print(f"FAIL {name}: {message}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igsplat",
        description="Train shared-feature anchor splats, segment 3D instances "
        "bottom-up, and answer open-vocabulary queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {name: sub.add_parser(name) for name in _COMMANDS}  # all read the config
    for p in parsers.values():
        p.add_argument("--config", required=True)

    p = parsers["instantiate"]
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--voxel-size", dest="voxel_size", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lambda-pos", dest="lambda_pos", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    parsers["export-ply"].add_argument("--out", default=None)

    sub.add_parser("selftest")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "instantiate": cmd_instantiate,
    "associate": cmd_associate,
    "query": cmd_query,
    "eval": cmd_eval,
    "export-ply": cmd_export_ply,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(None, args)
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
