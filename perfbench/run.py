"""igsplat benchmark: runs the real pipeline stages on generated inputs.

    python3 perfbench/run.py --workload desk8_train --seed 1 --seconds 55 --trace 0

Paths resolve from this file, so any working directory works. One process
is one run: a set-up (the ``generate`` stage), then whole passes of the
pipeline stages (train -> instantiate -> associate -> query -> eval) until
``--seconds`` would be exceeded, with six more timed set-ups interleaved;
``setup_s`` is their median.

``--trace 0`` times only the stage calls and each ``trainer.train_step`` and
prints the end-to-end metrics of BENCHMARK.json. ``--trace 1`` alternates
traced and plain passes, wraps the public functions of every igsplat layer,
writes the spans to ``.perfbench_out/`` and prints the per-layer metrics.
``--workload all`` runs every workload, each in a fresh process.

Every stage call is checked: exit code 0, finite checkpoint tensors, one
label per splat, and artifact bytes equal to the first run of the same
workload and seed. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
CHILDREN_PER_ANCHOR = 5
# Set before numpy is imported. One BLAS/OpenMP thread: on the 2-core
# reference box this measured no slower than the default, and it keeps
# run-to-run spread low.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYERS = ("synthdata", "scene_model", "renderer", "losses", "trainer",
          "instantiation", "association", "evaluation")

# Artifacts each stage writes, relative to its config's output directory.
STAGE_OUTPUTS = {
    "generate": ["scene"],
    "train": ["train/checkpoint.igck", "train/loss_log.csv"],
    "instantiate": ["instantiate/labels.iglb", "instantiate/instances.json"],
    "associate": ["associate/instance_embeddings.igem"],
    "query": ["query/scores.json", "query/semantic_labels.iglb"],
    "eval": ["eval/metrics.json"],
}

# Spans every workload must produce in a traced run; a missing one means a
# layer went silent (e.g. a name the tracer could not rebind).
REQUIRED_SPANS = (
    "renderer.render", "renderer.project_splats", "renderer.render_backward",
    "scene_model.decode_gaussians", "scene_model.decode_backward",
    "scene_model.save_checkpoint", "scene_model.load_checkpoint",
    "losses.loss_rgb", "losses.loss_smooth", "losses.loss_contrast_truncated",
    "losses.spread_mean_gradient", "trainer.train_step", "trainer.adam_update",
    "instantiation.farthest_point_sample", "instantiation.kmeans_cluster",
    "instantiation.voxelize_subobjects", "instantiation.build_connectivity_graph",
    "instantiation.aggregate_components", "association.render_instance_id_map",
    "association.associate_embeddings", "association.semantic_assign",
    "synthdata.generate_scene", "synthdata.write_scene_dir", "synthdata.load_scene_dir",
    "evaluation.build_report",
)


def _import_program():
    """Import igsplat from this checkout's src/ (never from site-packages)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "igsplat", "__init__.py")):
        raise ImportError(f"no igsplat sources under {src}")
    sys.path.insert(0, src)
    import igsplat
    from igsplat import association, cli, evaluation, instantiation, losses  # noqa: F401
    from igsplat import renderer, scene_model, synthdata, trainer  # noqa: F401
    if not os.path.abspath(igsplat.__file__).startswith(src + os.sep):
        raise ImportError(f"igsplat resolved to {igsplat.__file__}, not {src}")
    return igsplat


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "**", "*"), recursive=True)) \
            if os.path.isdir(path) else [path]
        for name in files:
            if os.path.isfile(name):
                h.update(os.path.relpath(name, os.path.dirname(path)).encode())
                with open(name, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _source_digest() -> str:
    files = sorted(glob.glob(os.path.join(ROOT, "src", "igsplat", "*.py")))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    return _digest(files)[:16]


def _checkpoint_problems(path: str) -> tuple[int, list[str]]:
    """Anchor count from the IGCK header and whether every f32 is finite."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    anchors = int.from_bytes(data[8:12], "little")
    payload = np.frombuffer(data, dtype="<f4", offset=16)
    return anchors, [] if np.isfinite(payload).all() else [f"non-finite tensor in {path}"]


def _heap_trimmer():
    """glibc's ``malloc_trim``, or a no-op where the C library has none.

    A user runs every stage in a fresh process; the benchmark runs them in
    one. glibc keeps heap pages a stage freed, and whether the next stage
    reuses them depends on fragmentation set by incidental allocations (path
    and seed lengths), which moved the peak RSS of a 40k-splat pipeline
    between 1030 and 1150 MB. Trimming before each stage call returns those
    pages first.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "pinned_env": {v: os.environ[v] for v in PINNED_ENV},
    }


def _counters():
    import numpy as np

    def render(args, kwargs, out):
        visible = out.projected.count if out.projected is not None else 0
        return {"contributions": int(out.pix.size), "visible": int(visible),
                "clamped": int(out.clamped.sum())}

    def graph(args, kwargs, g):
        alive = np.outer(g.alive, g.alive)
        edges = np.triu(g.adjacency & alive, 1)
        return {"edges": int(edges.sum()), "merges": int((edges & (g.weights <= g.gamma)).sum())}

    def table(args, kwargs, t):
        return {"covered": int((np.linalg.norm(t.vectors, axis=1) > 0).sum()), "instances": t.count}

    return {
        "renderer.render": render,
        "losses.loss_contrast_truncated": lambda a, k, r: {"degenerate": int(r[2])},
        "instantiation.kmeans_cluster": lambda a, k, r: {
            "iterations": int(r.iterations), "tombstones": int(r.tombstone.sum())},
        "instantiation.build_connectivity_graph": graph,
        "association.associate_embeddings": table,
    }


class Run:
    def __init__(self, igsplat, workload, seed: int, seconds: float, trace: bool, spec: dict):
        from tracer import Tracer
        import workloads

        self.ig = igsplat
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = spec
        self.workloads = workloads
        self.work_dir = os.path.join(OUT_DIR, f"work-{workload.name}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.passes: list[dict] = []  # {"traced": bool, "stages": {stage: s}}
        self.step_times = defaultdict(list)  # phase -> seconds, plain passes only
        self.ref_path = os.path.join(
            OUT_DIR, "refs", f"{workload.name}-seed{seed}-{_source_digest()}.json")
        self.ref = {}
        if os.path.exists(self.ref_path):
            with open(self.ref_path) as fh:
                self.ref = json.load(fh)
        self.tracer = Tracer(
            [getattr(igsplat, layer) for layer in LAYERS],
            counters=_counters(),
            step_of={"trainer.train_step": lambda args, kwargs: args[4].step},
        )
        self.cfg = self.cfg_path = None  # the first set-up's config feeds the passes
        self.trim_heap = _heap_trimmer()

    # -- stage calls -----------------------------------------------------
    def _check(self, stage: str, cfg: dict) -> list[str]:
        outputs = [os.path.join(cfg["output"], p) for p in STAGE_OUTPUTS[stage]]
        missing = [p for p in outputs if not os.path.exists(p)]
        if missing:
            return [f"missing {p}" for p in missing]
        problems = []
        for path in outputs:
            if path.endswith(".igck"):
                problems += _checkpoint_problems(path)[1]
        if stage == "instantiate":
            anchors, _ = _checkpoint_problems(os.path.join(cfg["output"], "train", "checkpoint.igck"))
            with open(outputs[0], "rb") as fh:
                labels = int.from_bytes(fh.read(12)[8:12], "little")
            if labels != CHILDREN_PER_ANCHOR * anchors:
                problems.append(f"{labels} labels for {CHILDREN_PER_ANCHOR * anchors} splats")
        if stage == "eval":
            with open(outputs[0]) as fh:
                if not math.isfinite(json.load(fh)["instance_miou"]):
                    problems.append("non-finite instance_miou")
        digest = _digest(outputs)
        if self.ref.setdefault(stage, digest) != digest:
            problems.append("artifact bytes differ from the first run of this workload and seed")
        return problems

    def call(self, stage: str, cfg: dict, cfg_path: str, traced: bool) -> tuple[bool, float]:
        """One checked stage call; returns (ok, wall seconds)."""
        self.attempted += 1
        span = self.tracer.span(f"stage.{stage}") if traced else nullcontext()
        self.trim_heap(0)
        start = time.perf_counter()
        try:
            with span, redirect_stdout(io.StringIO()):
                rc = self.ig.cli.main([stage, "--config", cfg_path])
        except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        problems = [f"exit code {rc}"] if rc != 0 else self._check(stage, cfg)
        if problems:
            self.failed += 1
            self.problems += [f"{stage}: {p}" for p in problems]
        return not problems, elapsed

    # -- run phases ------------------------------------------------------
    def set_up(self) -> bool:
        """One timed set-up into a fresh directory. The first one feeds the
        passes; later ones are interleaved with the passes so that setup_s
        samples the whole run, not its first second."""
        run_dir = os.path.join(self.work_dir, f"setup{len(self.setup_times)}")
        cfg = self.workload.config(run_dir, self.seed)
        cfg_path = self.workloads.write_config(cfg)
        if self.trace:
            self.tracer.install()
        try:
            ok, elapsed = self.call("generate", cfg, cfg_path, self.trace)
        finally:
            self.tracer.uninstall()
        self.setup_times.append(elapsed)
        if self.cfg is None:
            self.cfg, self.cfg_path = cfg, cfg_path
        else:
            shutil.rmtree(run_dir)
        return ok

    def one_pass(self, traced: bool) -> bool:
        self.tracer.pass_id = len(self.passes)
        stages = {}
        for stage in self.workloads.STAGES:
            ok, elapsed = self.call(stage, self.cfg, self.cfg_path, traced)
            if not ok:
                return False
            stages[stage] = elapsed
        self.passes.append({"traced": traced, "stages": stages})
        return True

    def _time_steps(self) -> None:
        trainer = self.ig.trainer
        original = trainer.train_step

        def timed(anchors, decoder, views, schedule, state, *args, **kwargs):
            phase = trainer.phase_of_step(state.step, schedule).value
            start = time.perf_counter()
            report = original(anchors, decoder, views, schedule, state, *args, **kwargs)
            self.step_times[phase].append(time.perf_counter() - start)
            return report

        trainer.train_step = timed

    def execute(self) -> None:
        if not self.trace:
            self._time_steps()
        if not self.set_up():
            return
        start = time.perf_counter()
        min_passes = 2 if self.trace else 1
        while True:
            # Trace runs alternate traced (even) and plain (odd) passes. The
            # first pass pays the process's warm-up, so it goes to the traced
            # side: trace_overhead_s errs high, not low.
            traced = self.trace and len(self.passes) % 2 == 0
            if traced:
                self.tracer.install()
            pass_start = time.perf_counter()
            try:
                ok = self.one_pass(traced)
            finally:
                self.tracer.uninstall()
            if not ok or (len(self.setup_times) < SETUP_REPEATS and not self.set_up()):
                return
            now = time.perf_counter()
            if len(self.passes) >= min_passes and now - start + (now - pass_start) > self.seconds:
                break
        while len(self.setup_times) < SETUP_REPEATS:
            if not self.set_up():
                return

    # -- metrics ---------------------------------------------------------
    def _pipeline_s(self, traced: bool) -> float:
        return statistics.median(
            sum(p["stages"].values()) for p in self.passes if p["traced"] == traced)

    def end_to_end(self) -> dict:
        main = self.cfg["output"]
        with open(os.path.join(main, "eval", "metrics.json")) as fh:
            quality = json.load(fh)
        stage = {name: statistics.median(p["stages"][name] for p in self.passes)
                 for name in ("train", "instantiate", "associate")}
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            "train_s": stage["train"],
            "instantiate_s": stage["instantiate"],
            "associate_s": stage["associate"],
            "pipeline_s": self._pipeline_s(False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "instance_miou": quality["instance_miou"],
            "semantic_miou": quality["semantic_miou"],
        }
        for phase in ("appearance", "independent", "joint"):
            metrics[f"train_{phase}_steps_per_s"] = 1.0 / statistics.median(self.step_times[phase])
        return metrics

    def per_layer(self) -> dict:
        from tracer import summarize

        summary = summarize(self.tracer.spans)
        missing = [name for name in REQUIRED_SPANS if name not in summary]
        if missing:
            self.problems.append(f"trace: spans never fired: {', '.join(missing)}")
            return {}
        traced_passes = sum(p["traced"] for p in self.passes)
        steps = summary["trainer.train_step"]["calls"]

        def per_call(name, kind="total"):
            return summary[name][kind] / summary[name]["calls"]

        def count(name, key):
            return summary[name]["counts"][key]

        def count_per_call(name, key):
            return count(name, key) / summary[name]["calls"]

        main = self.cfg["output"]
        with open(os.path.join(main, "instantiate", "instances.json")) as fh:
            instances = json.load(fh)["num_instances"]
        with open(os.path.join(main, "scene", "manifest.json")) as fh:
            objects = json.load(fh)["num_objects"]
        metrics = {
            "renderer.render.ms_per_call": 1e3 * per_call("renderer.render", "self"),
            "renderer.project_splats.ms_per_call": 1e3 * per_call("renderer.project_splats"),
            "renderer.render_backward.ms_per_call": 1e3 * per_call("renderer.render_backward"),
            "renderer.render_backward.calls_per_step":
                summary["renderer.render_backward"]["in_step"] / steps,
            "renderer.contributions_per_view": count_per_call("renderer.render", "contributions"),
            "renderer.visible_splats_per_view": count_per_call("renderer.render", "visible"),
            "renderer.clamped_fraction": count("renderer.render", "clamped")
                / count("renderer.render", "contributions"),
            "scene_model.decode_gaussians.ms_per_call": 1e3 * per_call("scene_model.decode_gaussians"),
            "scene_model.decode_backward.ms_per_call": 1e3 * per_call("scene_model.decode_backward"),
            "scene_model.save_checkpoint.s": per_call("scene_model.save_checkpoint"),
            "scene_model.load_checkpoint.s": per_call("scene_model.load_checkpoint"),
            "losses.degenerate_pairs":
                count("losses.loss_contrast_truncated", "degenerate") / traced_passes,
            "trainer.train_step.self_ms": 1e3 * per_call("trainer.train_step", "self"),
            "trainer.adam_update.ms_per_step": 1e3 * summary["trainer.adam_update"]["total"] / steps,
            "trainer.adam_update.calls_per_step": summary["trainer.adam_update"]["in_step"] / steps,
            "instantiation.kmeans_cluster.iterations":
                count_per_call("instantiation.kmeans_cluster", "iterations"),
            "instantiation.kmeans_cluster.tombstones":
                count_per_call("instantiation.kmeans_cluster", "tombstones"),
            "instantiation.graph_edges":
                count_per_call("instantiation.build_connectivity_graph", "edges"),
            "instantiation.merges": count_per_call("instantiation.build_connectivity_graph", "merges"),
            "association.render_instance_id_map.ms_per_view":
                1e3 * per_call("association.render_instance_id_map"),
            "association.covered_instances_ratio":
                count("association.associate_embeddings", "covered")
                / count("association.associate_embeddings", "instances"),
            "evaluation.instance_count_error": abs(instances - objects),
            "trace_overhead_s": self._pipeline_s(True) - self._pipeline_s(False),
        }
        for name in ("loss_rgb", "loss_smooth", "loss_contrast_truncated", "spread_mean_gradient"):
            metrics[f"losses.{name}.ms_per_call"] = 1e3 * per_call(f"losses.{name}")
        for name in ("farthest_point_sample", "kmeans_cluster", "voxelize_subobjects",
                     "build_connectivity_graph", "aggregate_components"):
            metrics[f"instantiation.{name}.s"] = per_call(f"instantiation.{name}")
        for name in ("associate_embeddings", "semantic_assign"):
            metrics[f"association.{name}.s"] = per_call(f"association.{name}")
        for name in ("generate_scene", "write_scene_dir", "load_scene_dir"):
            metrics[f"synthdata.{name}.s"] = per_call(f"synthdata.{name}")
        metrics["evaluation.build_report.s"] = per_call("evaluation.build_report")
        return metrics

    def result(self) -> tuple[dict, dict]:
        complete = self.failed == 0 and self.passes
        section = "per_layer" if self.trace else "end_to_end"
        values = (self.per_layer() if self.trace else self.end_to_end()) if complete else {}
        metrics = {}
        for entry in self.spec[section]:
            value = values.get(entry["name"])
            if value is None or not math.isfinite(value):
                value = None
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        unknown = set(values) - set(metrics)
        if unknown:
            self.problems.append(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        correct = (self.failed == 0 and bool(self.passes) and not unknown
                   and all(m["value"] is not None for m in metrics.values()))
        line = {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}
        details = {
            "workload": self.workload.name, "seed": self.seed, "trace": int(self.trace),
            "environment": _environment(), "problems": self.problems,
            "setup_s": self.setup_times, "passes": self.passes,
            "step_s": dict(self.step_times), "digests": self.ref, "result": line,
        }
        return line, details

    def finish(self, details: dict) -> None:
        """Persist first-run digests, the result details and the spans."""
        os.makedirs(os.path.join(OUT_DIR, "refs"), exist_ok=True)
        if self.failed == 0 and not os.path.exists(self.ref_path):
            with open(self.ref_path, "w") as fh:
                json.dump(self.ref, fh, indent=2, sort_keys=True)
        stem = f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}"
        with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
            json.dump(details, fh, indent=2, sort_keys=True)
        if self.trace:
            self.tracer.write_jsonl(os.path.join(OUT_DIR, f"{stem}.spans.jsonl"))


def _print_result(line: dict, details: dict) -> None:
    env = details["environment"]
    print(f"workload {details['workload']} seed {details['seed']} trace {details['trace']}: "
          f"{len(details['passes'])} passes, {line['attempted']} stage calls, "
          f"{line['failed']} failed (op_failure_ratio {line['failed'] / max(line['attempted'], 1):.4f} "
          f"of {line['attempted']})")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for name, metric in line["metrics"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:<50} {value:>14} {metric['unit']}")


def _run_all(args, names: list[str]) -> int:
    """Every workload in its own fresh process (ru_maxrss is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.environ.update(PINNED_ENV)
    try:
        igsplat = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or 'all'")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(igsplat, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    try:
        run.execute()
        line, details = run.result()
        run.finish(details)
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
    _print_result(line, details)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
