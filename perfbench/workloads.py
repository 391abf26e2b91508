"""The benchmark's workloads: run configs generated from a seed and the
pipeline stages each pass runs.

Every workload runs the real ``igsplat`` CLI stages in-process, so the
artifacts a pass writes are the ones a plain CLI run of the same config
writes.

The seed makes the per-view mask embeddings, which drive association, query
and the semantic metrics. Every input that sets how much work a stage does
keeps the acceptance fixture's fixed seed: varying the decoder init or the
view order moved step times by up to 15% between seeds, and any change to
the 3D points moved k-means from 16 to 37 iterations, which would swamp the
timing figures.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# The acceptance scene of tests/conftest.py: two same-colour spheres almost
# touching at the centre plus six objects on a staggered ring.
_ACCEPT_PALETTE = [
    [0.85, 0.15, 0.15],
    [0.85, 0.15, 0.15],
    [0.20, 0.75, 0.25],
    [0.90, 0.70, 0.10],
    [0.60, 0.25, 0.75],
    [0.10, 0.75, 0.70],
    [0.90, 0.45, 0.15],
    [0.15, 0.55, 0.85],
]
_ACCEPT_KINDS = ["sphere", "sphere", "box", "sphere", "box", "sphere", "box", "box"]
_ACCEPT_RING_Z = [0.3, 0.72, 0.3, 0.72, 0.3, 0.72]
SCENE_SEED = 3
MODEL_SEED = 7
TRAIN_SEED = 11
INSTANTIATE_SEED = 5
NUM_CLASSES = 5
EMBED_DIM = 32
ACCEPT_LEARNING_RATES = {"features": 0.08, "decoder": 7e-4, "embeddings": 7e-4}
ACCEPT_INSTANTIATE = {"samples": 100, "voxel_size": 0.2, "gamma": 0.1, "lambda_pos": 1.75}


def _acceptance_objects() -> list[dict]:
    half_sep = (2 * 0.36 + 0.2) / 2
    centers = [[0.0, -half_sep, 0.5], [0.0, half_sep, 0.5]]
    centers += [
        [1.35 * math.cos(2 * math.pi * k / 6 + 0.5),
         1.35 * math.sin(2 * math.pi * k / 6 + 0.5),
         _ACCEPT_RING_Z[k]]
        for k in range(6)
    ]
    return [
        {
            "kind": _ACCEPT_KINDS[k],
            "center": center,
            "size": [0.36] * 3 if _ACCEPT_KINDS[k] == "sphere" else [0.33, 0.30, 0.36],
            "color": _ACCEPT_PALETTE[k],
            "class_id": k % NUM_CLASSES,
        }
        for k, center in enumerate(centers)
    ]


def _schedule(total: int, mode: str = "progressive") -> dict:
    """The acceptance schedule's 3:3:4 phase split, shortened to ``total``."""
    return {"total_steps": total, "t1": 3 * total // 10, "t2": 6 * total // 10, "mode": mode}


@dataclass
class Workload:
    name: str
    why: str
    image_size: int
    train: dict  # train schedule keys

    def config(self, out_dir: str, seed: int) -> dict:
        """The CLI run config of this workload for ``seed``."""
        return {
            "scene": {
                "synth": {
                    "objects": _acceptance_objects(),
                    "points_per_object": 250,
                    "num_cameras": 20,
                    "image_size": self.image_size,
                    "orbit_radius": 3.6,
                    "orbit_height": [2.4, -1.5],
                    "num_classes": NUM_CLASSES,
                    "seed": SCENE_SEED,
                },
                "embedding_dim": EMBED_DIM,
                "embedding_sigma": 0.1,
                "embedding_seed": seed,
            },
            "model": {"embedding_dim": 16, "base_scale": 0.08, "seed": MODEL_SEED},
            "train": {
                "learning_rates": dict(ACCEPT_LEARNING_RATES),
                "phase_learning_rates": {"joint": {"features": 0.02}},
                "seed": TRAIN_SEED,
                "freeze_positions": True,
                **self.train,
            },
            "instantiate": {"seed": INSTANTIATE_SEED, **ACCEPT_INSTANTIATE},
            "output": out_dir,
        }


# CLI stages of one pass, in pipeline order; set-up runs "generate".
STAGES = ("train", "instantiate", "associate", "query", "eval")


def write_config(cfg: dict) -> str:
    os.makedirs(cfg["output"], exist_ok=True)
    path = os.path.join(cfg["output"], "run_config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="desk8_train",
            why="acceptance scene (8 objects, 10k splats, 20 views at 64^2), progressive "
                "3:3:4 schedule, then s=100 instantiation: training and its one vs two "
                "backwards per step dominate",
            image_size=64,
            train=_schedule(20),
        ),
        Workload(
            name="hires_frozen",
            why="acceptance scene at 128^2 in appearance_frozen mode: per-contribution work "
                "outweighs per-splat work and phases 2-3 run only the feature backward",
            image_size=128,
            train=_schedule(10, mode="appearance_frozen"),
        ),
    ]
}
