"""The benchmark's stage artifacts are the bytes a plain CLI run writes.

Runs one ``desk8_train`` pass of the benchmark, then the same config through
``python -m igsplat.cli`` stage by stage, and compares the digest of every
stage's artifacts. A wall-clock field entering any artifact, or the
benchmark's wrappers changing a result, breaks the equality.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import STAGES, WORKLOADS, write_config  # noqa: E402

SEED = 4242
WORKLOAD = "desk8_train"


def _pinned_env() -> dict:
    env = dict(os.environ)
    env.update(run.PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def test_benchmark_artifacts_match_plain_cli(tmp_path):
    bench = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=_pinned_env(), timeout=600,
    )
    assert bench.returncode == 0, bench.stdout + bench.stderr
    assert json.loads(bench.stdout.strip().splitlines()[-1])["correct"]
    with open(os.path.join(run.OUT_DIR, f"{WORKLOAD}-seed{SEED}-trace0.json")) as fh:
        bench_digests = json.load(fh)["digests"]

    cfg = WORKLOADS[WORKLOAD].config(str(tmp_path), SEED)
    cfg_path = write_config(cfg)
    cli_digests = {}
    for stage in ("generate",) + STAGES:
        proc = subprocess.run(
            [sys.executable, "-m", "igsplat.cli", stage, "--config", cfg_path],
            capture_output=True, text=True, env=_pinned_env(), timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs = [os.path.join(cfg["output"], p) for p in run.STAGE_OUTPUTS[stage]]
        cli_digests[stage] = run._digest(outputs)

    assert cli_digests == bench_digests
