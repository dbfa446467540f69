"""hoicascade benchmark: synth -> train -> infer -> eval through the CLI.

    python3 perfbench/run.py --workload {train,infer,dense} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (the program is imported from `src/`). Every
pipeline step goes through `hoicascade.cli.main` in this process, and every
output is checked as it is produced. With `--trace 0` the last stdout line
is a JSON object holding the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics of a separate traced pass (see perfbench/README.md).
Scratch files live under `.perfbench/` in the repository root and are
removed when the run ends.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: default BLAS threading ties the numbers
# to whatever else shares the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 5         # set-ups per run; setup_s is their median
EPOCHS = (1, 1)        # phase-1, phase-2 epochs of every training
SERVED_SCENES = 16     # corpus of the model infer/dense serve ...
SERVED_SEED = 0        # ... drawn with a fixed seed: the workload seed draws requests
TRACE_SHARDS = 4       # shards in the traced pass (4 x 40 infer images: 16 beyond p90)


@dataclass(frozen=True)
class Workload:
    name: str
    measured: str         # CLI command timed for --seconds: "train" or "infer"
    shards: int           # corpus shards; each timed pass runs the command on one
    shard_scenes: int
    entities: tuple       # (min, max) entities per scene
    top_k: int


# The seed's corpus is cut into shards and the timed loop cycles over them,
# so a run covers more distinct scenes than one pass could; throughputs are
# medians over passes. Per-image work varies several-fold between scenes.
WORKLOADS = {
    # Backward passes, sgd_step and RelationPass do most of the work. Each
    # pass trains a fresh model on one 20-scene shard; the shard-0 model
    # serves 8 x 40 test scenes for the quality block.
    "train": Workload("train", "train", shards=8, shard_scenes=20,
                      entities=(3, 5), top_k=64),
    # Default-density scenes, one-pair-at-a-time forward work
    # (cross_stage_fuse, geometric encoder); top-k never binds.
    "infer": Workload("infer", "infer", shards=8, shard_scenes=40,
                      entities=(3, 5), top_k=64),
    # Crowded scenes with top-k 8: the ranker's cut binds, which separates
    # ranking (every pair) from classification (kept pairs only), and the
    # eval matcher sees many triplets per image.
    "dense": Workload("dense", "infer", shards=8, shard_scenes=15,
                      entities=(8, 12), top_k=8),
}
# test split of the train workload, served by its shard-0 model
QUALITY_SHARDS, QUALITY_SHARD_SCENES = 8, 40

END_TO_END = ("setup_s", "train_scene_steps_per_s", "infer_images_per_s",
              "recall_at_k_mean", "stage_iou_last", "peak_rss_mb", "checkpoint_bytes")
UNITS = {"setup_s": "s", "train_scene_steps_per_s": "1/s",
         "infer_images_per_s": "1/s", "recall_at_k_mean": "1",
         "stage_iou_last": "1", "peak_rss_mb": "MB", "checkpoint_bytes": "bytes"}

# Layers that must (FIRE) or must not (ZERO) record calls in the traced pass.
FIRE_ALWAYS = ("synth.generate_dataset", "synth.render_feature_grid",
               "formats.read_scenes_ndjson", "training.prepare_grids",
               "numerics.FCLayer.forward", "numerics.Conv2D.forward",
               "numerics.MaxPool2x2.forward", "geometry.roi_align",
               "geometry.spatial_pair_encoding", "features.ihsm_enhance",
               "features.efra_attend", "interaction.CascadeModel.__init__",
               "interaction.enumerate_pairs")
FIRE = {
    "train": FIRE_ALWAYS + (
        "numerics.FCLayer.backward", "numerics.Conv2D.backward",
        "numerics.MaxPool2x2.backward", "numerics.sgd_step",
        "numerics.ParamStore.save", "features.efra_attend_backward",
        "cascade.resample_for_stage", "interaction.sample_training_pairs",
        "training.localization_stage_step", "training.relation_losses_multi",
        "training.RelationPass.__init__", "training.RelationPass.forward",
        "training.RelationPass.backward"),
    "infer": FIRE_ALWAYS + (
        "numerics.ParamStore.load", "features.cross_stage_fuse",
        "features.geometric_feature", "cascade.refine_stage",
        "cascade.merge_and_filter", "interaction.infer_image",
        "interaction.run_localization", "interaction.CascadeModel.build_features",
        "interaction.rank_pairs", "interaction.select_topk",
        "interaction.classify_relation", "formats.write_predictions_ndjson",
        "formats.read_predictions_ndjson", "formats.predictions_to_record",
        "metrics.map_rel", "metrics.recall_at_k", "metrics.match_triplets"),
}
FIRE["dense"] = FIRE["infer"]
ZERO = {
    "train": ("features.cross_stage_fuse", "features.geometric_feature",
              "interaction.infer_image"),
    "infer": ("numerics.FCLayer.backward", "numerics.Conv2D.backward",
              "numerics.sgd_step", "features.efra_attend_backward",
              "training.RelationPass.backward"),
}
ZERO["dense"] = ZERO["infer"]


# ------------------------------------------------------------- helpers

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def split_ndjson(path, shards, per_shard):
    """Consecutive line blocks of an NDJSON file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if len(lines) != shards * per_shard:
        raise RuntimeError(f"{path}: {len(lines)} lines, expected {shards * per_shard}")
    return [lines[i * per_shard:(i + 1) * per_shard] for i in range(shards)]


class Tally:
    """Operations attempted and failed; one operation is a scene-step, an
    inferred scene or an eval."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds = {}
        self.problems = []

    def record(self, kind, ops, problem=None):
        row = self.kinds.setdefault(kind, {"attempted": 0, "failed": 0})
        row["attempted"] += ops
        self.attempted += ops
        if problem:
            row["failed"] += ops
            self.failed += ops
            self.problems.append(f"{kind}: {problem}")


class Cli:
    """In-process `hoicascade` commands with captured output and wall time."""

    def __init__(self, main):
        self.main = main

    def __call__(self, *argv, trace=None):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if trace is None:
                    code = self.main(argv)
                else:
                    code = trace.span(f"cli.{argv[0]}", self.main, argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            code = None
            out.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - started
        gc.collect()  # garbage of one command must not raise the next one's peak RSS
        return code, wall, out.getvalue()


def command_problem(name, code, output):
    if code == 0:
        return None
    tail = output.strip().splitlines()[-1:] or [""]
    return f"{name} exited {code}: {tail[0][:200]}"


# -------------------------------------------------------------- checks

class Checker:
    """Output checks against the served model and the request scenes.

    The model and feature grids are loaded only while they are needed, so
    the checker adds nothing to the peak RSS of the commands it checks.
    """

    def __init__(self, hc, data_dir, model_dir, top_k):
        self.hc = hc
        self.model_dir = model_dir
        self.top_k = top_k
        self.spec, _ = hc.formats.read_meta(str(data_dir / "meta.json"))
        self.scenes = hc.formats.read_scenes_ndjson(str(data_dir / "test.ndjson"))
        self.config = hc.formats.RunConfig(top_k=top_k)
        self.pairs = self._pairs_per_image(*self._model_and_grids())
        self.digests = {}

    def _model_and_grids(self):
        hc = self.hc
        model = hc.interaction.CascadeModel.load(str(self.model_dir))
        grids = hc.training.prepare_grids(
            self.scenes, self.spec, self.config.channels or self.spec.min_channels(),
            self.config.grid_size)
        return model, grids

    def _pairs_per_image(self, model, grids):
        """Candidate pairs per image, via the same public steps as inference."""
        hc = self.hc
        pairs = {}
        for scene in self.scenes:
            stages = hc.interaction.run_localization(
                grids[scene.image_id], hc.training.seed_instances(scene), model)
            kept = hc.cascade.dedup_by_lineage(
                hc.cascade.merge_and_filter(stages, model.config.merge_threshold))
            pairs[scene.image_id] = len(hc.interaction.enumerate_pairs(kept, model.person_class))
        return pairs

    def same_as_before(self, path):
        digest = sha256(path)
        first = self.digests.setdefault(path.name, digest)
        return None if digest == first else f"{path.name} differs between identical runs"

    def predictions(self, path, image_ids):
        """Scores finite and in [0, 2]; min(pairs, top_k) x n_verbs triplets
        per image; byte-identical to the first pass over the same scenes."""
        preds = self.hc.formats.read_predictions_ndjson(str(path))
        n_verbs = self.spec.n_verbs
        if set(preds) != set(image_ids):
            return "predicted image ids differ from the request scenes"
        for image_id, triplets in preds.items():
            want = min(self.pairs[image_id], self.top_k) * n_verbs
            if len(triplets) != want:
                return f"{image_id}: {len(triplets)} triplets, expected {want}"
            for t in triplets:
                if not (math.isfinite(t.score) and 0.0 <= t.score <= 2.0):
                    return f"{image_id}: score {t.score} outside [0, 2]"
                if not 0 <= t.verb < n_verbs:
                    return f"{image_id}: verb {t.verb} out of range"
        return self.same_as_before(path)

    def report(self, path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for value in (report["map_rel"]["value"], report["recall_at_k"]["mean"]):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return f"report value {value} outside [0, 1]"
        return self.same_as_before(path)

    def stage_ious(self):
        model, grids = self._model_and_grids()
        ious = self.hc.training.stage_mean_ious(model, self.scenes, self.spec,
                                                self.config, grids=grids)
        bad = [v for v in ious if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
        return ious, (f"stage IoUs {ious} outside [0, 1]" if bad else None)


def train_problem(code, output, model_dir, digests):
    problem = command_problem("train", code, output)
    if problem:
        return problem
    m = re.search(r"phase1 loss (\S+), phase2 loss (\S+)\)", output)
    if not m or not all(math.isfinite(float(v)) for v in m.groups()):
        return "training losses missing or not finite"
    digest = sha256(model_dir / "params.bin")
    first = digests.setdefault(model_dir.name, digest)
    return None if digest == first else "checkpoint differs between identical runs"


# ------------------------------------------------------------- pipeline

class Run:
    def __init__(self, hc, workload, seed, seconds):
        self.hc = hc
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.cli = Cli(hc.cli.main)
        self.tally = Tally()
        self.work = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.data = self.work / "data"          # the seed's corpus, cut into shards
        self.served = self.work / "served"      # corpus of the served model (infer/dense)
        self.models = self.work / "models"
        self.preds = self.work / "preds"
        if workload.measured == "infer":
            self.test_shards, self.test_shard_scenes = workload.shards, workload.shard_scenes
            self.model = self.models / "served"
        else:
            self.test_shards, self.test_shard_scenes = QUALITY_SHARDS, QUALITY_SHARD_SCENES
            self.model = self.models / "train0"
        self.shard_ids = []
        self.walls = {"setup": [], "train": [], "infer": [], "eval": []}
        self.ckpt_digests = {}
        self.checker = None

    # ---- commands

    def synth_args(self):
        w = self.w
        train_scenes = w.shards * w.shard_scenes if w.measured == "train" else 1
        return ("synth", "--out", self.data, "--seed", self.seed,
                "--train-scenes", train_scenes,
                "--test-scenes", self.test_shards * self.test_shard_scenes,
                "--entities-min", w.entities[0], "--entities-max", w.entities[1])

    def split_corpus(self):
        """test.ndjson -> shard<i>.ndjson; train.ndjson -> train<i>/ (train only)."""
        self.shard_ids = []
        for i, lines in enumerate(split_ndjson(self.data / "test.ndjson",
                                               self.test_shards, self.test_shard_scenes)):
            (self.data / f"shard{i}.ndjson").write_text("".join(lines), encoding="utf-8")
            self.shard_ids.append([json.loads(line)["image_id"] for line in lines])
        if self.w.measured != "train":
            return
        for i, lines in enumerate(split_ndjson(self.data / "train.ndjson",
                                               self.w.shards, self.w.shard_scenes)):
            shard = self.data / f"train{i}"
            shard.mkdir(exist_ok=True)
            shutil.copyfile(self.data / "meta.json", shard / "meta.json")
            (shard / "train.ndjson").write_text("".join(lines), encoding="utf-8")

    def run_train(self, data, out, seed, scenes, trace=None):
        code, wall, output = self.cli("train", "--data", data, "--out", out, "--seed", seed,
                                      "--phase1-epochs", EPOCHS[0],
                                      "--phase2-epochs", EPOCHS[1], trace=trace)
        problem = train_problem(code, output, out, self.ckpt_digests)
        steps = scenes * sum(EPOCHS)
        self.tally.record("train_scene_steps", steps, problem)
        if not problem:
            self.walls["train"].append(wall)
        return wall, problem

    def train_shard(self, i, trace=None):
        return self.run_train(self.data / f"train{i}", self.models / f"train{i}",
                              self.seed, self.w.shard_scenes, trace=trace)[0]

    def infer_shard(self, i, trace=None):
        preds = self.preds / f"shard{i}.ndjson"
        code, wall, out = self.cli("infer", "--model", self.model, "--data", self.data,
                                   "--split", f"shard{i}", "--out", preds,
                                   "--top-k", self.w.top_k, trace=trace)
        problem = command_problem("infer", code, out)
        if not problem:
            if self.checker is None:
                self.checker = Checker(self.hc, self.data, self.model, self.w.top_k)
            problem = self.checker.predictions(preds, self.shard_ids[i])
        self.tally.record("inferred_scenes", self.test_shard_scenes, problem)
        if not problem:
            self.walls["infer"].append(wall)
        return wall

    def evaluate(self, split, preds, trace=None):
        report = self.preds / f"report-{split}.json"
        code, wall, out = self.cli("eval", "--data", self.data, "--split", split,
                                   "--preds", preds, "--out", report, trace=trace)
        problem = command_problem("eval", code, out)
        if not problem and self.checker is not None:
            problem = self.checker.report(report)
        self.tally.record("evals", 1, problem)
        if not problem:
            self.walls["eval"].append(wall)
        return wall, report

    # ---- phases

    def setup_once(self):
        """Corpus generation, plus training the served model for infer/dense.
        A failure here ends the run: nothing after it can be measured."""
        started = time.perf_counter()
        code, _, out = self.cli(*self.synth_args())
        if code != 0:
            raise RuntimeError(command_problem("synth", code, out))
        self.split_corpus()
        if self.w.measured == "infer":
            code, _, out = self.cli("synth", "--out", self.served, "--seed", SERVED_SEED,
                                    "--train-scenes", SERVED_SCENES, "--test-scenes", 1)
            if code != 0:
                raise RuntimeError(command_problem("synth", code, out))
            _, problem = self.run_train(self.served, self.model, SERVED_SEED, SERVED_SCENES)
            if problem:
                raise RuntimeError(problem)
        self.walls["setup"].append(time.perf_counter() - started)

    def timed_pass(self, i, trace=None):
        if self.w.measured == "train":
            return self.train_shard(i, trace=trace)
        wall = self.infer_shard(i, trace=trace)
        return wall + self.evaluate(f"shard{i}", self.preds / f"shard{i}.ndjson",
                                    trace=trace)[0]

    def timed_loop(self):
        """Cycle over the shards until --seconds have passed and every shard ran.

        On train, each of the first training passes is followed by one
        quality-block inference with the shard-0 model, so both series are
        sampled across the same stretch of the run; the machine's speed
        drifts over seconds.
        """
        started = time.perf_counter()
        done = 0
        while done < self.w.shards or time.perf_counter() - started < self.seconds:
            if self.w.measured == "train":
                self.train_shard(done % self.w.shards)
                if done < self.test_shards:
                    self.infer_shard(done)
            else:
                self.infer_shard(done % self.w.shards)
            done += 1

    def quality(self):
        """Evaluate the predictions of all test shards together: R@K mean and
        map_rel from the report, last-stage mean IoU."""
        for i in range(self.test_shards):
            if not (self.preds / f"shard{i}.ndjson").exists():
                self.infer_shard(i)
        if self.checker is None:
            return {"recall_at_k_mean": 0.0, "stage_iou_last": 0.0}
        merged = self.preds / "test.ndjson"
        with open(merged, "w", encoding="utf-8") as out:
            for i in range(self.test_shards):
                out.write((self.preds / f"shard{i}.ndjson").read_text(encoding="utf-8"))
        _, report_path = self.evaluate("test", merged)
        ious, problem = self.checker.stage_ious()
        self.tally.record("quality", 1, problem)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        return {"recall_at_k_mean": report["recall_at_k"]["mean"],
                "stage_iou_last": ious[-1], "stage_ious": ious,
                "map_rel": report["map_rel"]["value"]}

    # ---- results

    def end_to_end(self):
        for _ in range(SETUP_REPS):
            self.setup_once()
        self.models.mkdir(exist_ok=True)
        self.preds.mkdir(exist_ok=True)
        self.timed_loop()
        quality = self.quality()
        # infer/dense train only in set-up, on the served corpus
        train_scenes = self.w.shard_scenes if self.w.measured == "train" else SERVED_SCENES
        metrics = {
            "setup_s": median(self.walls["setup"]),
            "train_scene_steps_per_s": median(
                [train_scenes * sum(EPOCHS) / t for t in self.walls["train"]]),
            "infer_images_per_s": median(
                [self.test_shard_scenes / t for t in self.walls["infer"]]),
            "recall_at_k_mean": quality["recall_at_k_mean"],
            "stage_iou_last": quality["stage_iou_last"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 0 when training failed; that failure is already in the tally
            "checkpoint_bytes": float(sum(
                (self.model / f).stat().st_size
                for f in ("params.bin", "params.json", "model.json")
                if (self.model / f).exists())),
        }
        info = {"walls_s": self.walls, "quality": quality}
        return {name: (metrics[name], UNITS[name]) for name in END_TO_END}, info

    def per_layer(self):
        from layertrace import LayerTrace

        self.setup_once()
        self.models.mkdir(exist_ok=True)
        self.preds.mkdir(exist_ok=True)
        untraced = sum(self.timed_pass(i) for i in range(TRACE_SHARDS))
        trace = LayerTrace()
        with trace.installed():
            code, _, out = self.cli(*self.synth_args(), trace=trace)
            if code != 0:
                self.tally.record("trace", 1, command_problem("synth", code, out))
            traced = sum(self.timed_pass(i, trace=trace) for i in range(TRACE_SHARDS))
        metrics, info = layer_metrics(trace)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.coverage"] = (trace.root_coverage(f"cli.{self.w.measured}"), "share")
        problems = trace_problems(trace, self.w)
        self.tally.record("trace", 1, "; ".join(problems) if problems else None)
        info["untraced_wall_s"] = untraced
        info["traced_wall_s"] = traced
        info["spans_file"] = write_spans(trace, self.w.name, self.seed)
        return metrics, info


# -------------------------------------------------------------- trace

def layer_stats():
    """(layer, stat, unit) for every wrapped layer, in a fixed order."""
    from layertrace import LAYERS

    for module, path, stats, _ in LAYERS:
        layer = f"{module}.{path}"
        yield layer, "self_s", "s"
        yield layer, "calls", "count"
        for stat in stats:
            yield layer, stat, "bytes" if stat == "param_bytes" else "count"


def layer_metrics(trace):
    table, per_call = trace.summary()
    metrics = {}
    for layer, stat, unit in layer_stats():
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        name = f"{layer}.{stat}"
        if stat in row:
            metrics[name] = (float(row[stat]), unit)
        else:
            metrics[name] = (float(trace.counts.get(name, 0.0)), unit)
    images_ms = sorted(1000.0 * d for d in per_call.get("interaction.infer_image", []))
    if len(images_ms) >= 2:
        p50, p90 = (statistics.quantiles(images_ms, n=10)[i] for i in (4, 8))
    else:
        p50 = p90 = images_ms[0] if images_ms else 0.0
    metrics["interaction.infer_image.ms_p50"] = (p50, "ms")
    metrics["interaction.infer_image.ms_p90"] = (p90, "ms")
    metrics["interaction.infer_image.samples"] = (float(len(images_ms)), "count")
    roots = {n: {"wall_s": r["total_s"], "self_s": r["self_s"]}
             for n, r in table.items() if n.startswith("cli.")}
    top = sorted(((r["self_s"], n) for n, r in table.items()), reverse=True)[:12]
    info = {"roots": roots, "spans": len(trace.names),
            "top_self_s": [[n, round(s, 4)] for s, n in top]}
    return metrics, info


def trace_problems(trace, workload):
    table, _ = trace.summary()
    problems = []
    for layer in FIRE[workload.name]:
        if table.get(layer, {"calls": 0})["calls"] == 0:
            problems.append(f"{layer} recorded 0 calls")
    for layer in ZERO[workload.name]:
        if table.get(layer, {"calls": 0})["calls"] != 0:
            problems.append(f"{layer} ran on {workload.name}")
    kept = trace.counts.get("interaction.select_topk.kept", 0.0)
    ranked = trace.counts.get("interaction.select_topk.ranked", 0.0)
    if workload.name == "infer" and kept != ranked:
        problems.append("top-k cut bound on infer")
    if workload.name == "dense" and not kept < ranked:
        problems.append("top-k cut never bound on dense")
    return problems


def write_spans(trace, workload, seed):
    """Spans as [name index, start, end, parent index], relative to the first."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-s{seed}.json"
    names = sorted(set(trace.names))
    index = {n: i for i, n in enumerate(names)}
    t0 = trace.starts[0] if trace.starts else 0.0
    spans = [[index[n], round(s - t0, 7), round(e - t0, 7), p]
             for n, s, e, p in zip(trace.names, trace.starts, trace.ends, trace.parents)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": spans}, fh, separators=(",", ":"))
    return str(path.relative_to(ROOT))


# --------------------------------------------------------------- info

def environment(np, seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                  "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def static_sizes(hc, model_dir):
    """Parameter count, float32 checkpoint bytes per block group, src/ lines."""
    if not (model_dir / "model.json").exists():
        return {}
    model = hc.interaction.CascadeModel.load(str(model_dir))
    blocks = {}
    total = 0
    for name, p in model.store.items():
        group = ".".join(name.split(".")[:2])
        blocks[group] = blocks.get(group, 0) + 4 * p.value.size
        total += p.value.size
    seg = sum(v for k, v in blocks.items() if k.endswith(".seg"))
    lines = {}
    for path in sorted((SRC / "hoicascade").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.stem] = sum(1 for _ in fh)
    return {"param_count": total, "param_bytes_by_block": blocks,
            "seg_heads_param_share": seg / (4 * total) if total else 0.0,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


# --------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    if not (SRC / "hoicascade" / "cli.py").is_file():
        raise SystemExit(f"error: no hoicascade sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    from hoicascade import cascade, cli, formats, interaction, training

    hc = argparse.Namespace(cascade=cascade, cli=cli, formats=formats,
                            interaction=interaction, training=training)
    return np, hc


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be at least 1")
    np, hc = load_program()
    workload = WORKLOADS[args.workload]
    run = Run(hc, workload, args.seed, args.seconds)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, info = run.per_layer()
        else:
            metrics, info = run.end_to_end()
        info["sizes"] = static_sizes(hc, run.model)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    info.update(workload=workload.name, seconds=args.seconds, trace=args.trace,
                environment=environment(np, args.seed),
                digests=run.checker.digests if run.checker else {},
                checkpoints=run.ckpt_digests,
                operations=run.tally.kinds, problems=run.tally.problems)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not run.tally.problems,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
