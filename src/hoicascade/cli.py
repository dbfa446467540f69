"""Command-line entry points: synth, train, infer, eval, gradcheck, oracle.

Exit codes: 0 ok, 1 usage error, 2 data/format error, 3 check failure.
Each command takes only the config keys it reads (`COMMAND_KEYS`); flags
override config-file values; all runs are deterministic under a fixed
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import cache, partial

from .errors import DataError, FormatError, TrainingError
from .formats import (
    RunConfig,
    parse_config_file,
    read_meta,
    read_predictions_ndjson,
    read_scenes_ndjson,
    run_config_from,
    scenes_to_gt_records,
    write_meta,
    write_predictions_ndjson,
    write_scenes_ndjson,
)
from .interaction import CascadeModel
from .metrics import format_report_table, map_rel, recall_at_k, report_to_dict
from .synth import SceneSpec, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

COMMAND_KEYS = {
    "synth": ("seed", "train_scenes", "test_scenes", "image_size", "entities_min",
              "entities_max", "jitter", "occlusion_rate", "noise_sigma", "grid_size",
              "channels"),
    "train": ("seed", "mode", "stages", "merge_threshold", "hinge_margin",
              "learning_rate", "phase1_epochs", "phase2_epochs"),
    "infer": ("top_k",),
    "eval": (),
}


def build_run_config(args) -> RunConfig:
    """The RunConfig of `args.command`: its `--config` file values, then its
    flags. Only the command's own keys can be set, so a file key outside
    them exits 2 naming the file and the key; other keys keep defaults."""
    keys = COMMAND_KEYS[args.command]
    values = parse_config_file(args.config) if args.config else {}
    for key in values:
        if key not in keys:
            raise DataError(f"{args.config}: config key {key!r} is not read by "
                            f"{args.command} (it reads {', '.join(keys) or 'none'})")
    for key in keys:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return run_config_from(values)


def scene_spec_from(config: RunConfig, seed=None) -> SceneSpec:
    return SceneSpec(
        image_size=config.image_size,
        entities_range=(config.entities_min, config.entities_max),
        jitter=config.jitter,
        occlusion_rate=config.occlusion_rate,
        noise_sigma=config.noise_sigma,
        seed=config.seed if seed is None else seed,
    )


def read_split(data, split):
    """A data directory's SceneSpec and meta dict, and the scenes of one
    split, whose image size and class and verb indices are checked against
    meta.json."""
    spec, meta = read_meta(os.path.join(data, "meta.json"))
    path = os.path.join(data, split + ".ndjson")
    scenes = read_scenes_ndjson(path)
    for scene in scenes:
        if scene.width != spec.image_size or scene.height != spec.image_size:
            raise DataError(f"{path}: image {scene.image_id!r}: fields 'width' and 'height' "
                            f"must be the image_size {spec.image_size} of meta.json, "
                            f"got {scene.width} and {scene.height}")
        indices = [(f"entities[{i}].class_id", e.class_id, spec.n_classes)
                   for i, e in enumerate(scene.entities)]
        indices += [(f"triplets[{j}].verb", t.verb, spec.n_verbs)
                    for j, t in enumerate(scene.triplets)]
        for name, value, n in indices:
            if not 0 <= value < n:
                raise DataError(f"{path}: image {scene.image_id!r}: field {name!r} must be "
                                f"an integer in [0, {n}), got {value}")
    return spec, meta, scenes


def _add_config_flags(parser, keys):
    parser.add_argument("--config", help="flat key = value config file")
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", help=f"override {key} "
                            f"(default {RunConfig.__dataclass_fields__[key].default})")


def cmd_synth(args):
    config = build_run_config(args)
    out_dir = args.out
    train_spec = scene_spec_from(config)
    test_spec = scene_spec_from(config, seed=config.seed + 1_000_003)
    channels = config.channels or train_spec.min_channels()
    if channels < train_spec.min_channels():
        raise DataError(f"config key 'channels' must be 0 or at least "
                        f"{train_spec.min_channels()}, got {channels}")
    os.makedirs(out_dir, exist_ok=True)
    train = generate_dataset(train_spec, config.train_scenes, prefix="train")
    test = generate_dataset(test_spec, config.test_scenes, prefix="test")
    write_scenes_ndjson(os.path.join(out_dir, "train.ndjson"), train)
    write_scenes_ndjson(os.path.join(out_dir, "test.ndjson"), test)
    write_meta(os.path.join(out_dir, "meta.json"), train_spec,
               extra={"grid_size": config.grid_size, "channels": channels,
                      "test_seed": test_spec.seed})
    n_triplets = sum(len(s.triplets) for s in train)
    print(f"wrote {len(train)} train / {len(test)} test scenes "
          f"({n_triplets} train triplets) to {out_dir}")
    return EXIT_OK


def cmd_train(args):
    from .training import TrainLog, train_model

    config = build_run_config(args)
    spec, meta, scenes = read_split(args.data, "train")
    log = TrainLog()
    started = time.perf_counter()
    model = train_model(scenes, spec, config, meta["channels"], meta["grid_size"], log=log)
    elapsed = time.perf_counter() - started
    model.save(args.out)
    losses = ", ".join(f"{name} loss {epochs[-1]:.4f}" if epochs else f"{name} did not run"
                       for name, epochs in (("phase1", log.phase1), ("phase2", log.phase2)))
    print(f"trained {config.stages}-stage model on {len(scenes)} scenes "
          f"in {elapsed:.1f}s ({losses}); saved to {args.out}")
    return EXIT_OK


def cmd_infer(args):
    from .training import infer_scenes

    config = build_run_config(args)
    model = CascadeModel.load(args.model)
    spec, _, scenes = read_split(args.data, args.split)
    # grid channels and co-occurrence rows are laid out by these
    for key in ("n_classes", "n_verbs", "person_class"):
        if getattr(spec, key) != getattr(model, key):
            raise DataError(f"{os.path.join(args.data, 'meta.json')}: field {key!r} is "
                            f"{getattr(spec, key)}, but the model's "
                            f"{os.path.join(args.model, 'model.json')} has {getattr(model, key)}")
    records = infer_scenes(model, scenes, spec, config)
    write_predictions_ndjson(args.out, records)
    n = sum(len(r["triplets"]) for r in records)
    print(f"wrote {n} scored triplets for {len(records)} scenes to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    build_run_config(args)  # eval reads no config key; a config file may name none
    try:
        ks = tuple(int(k) for k in args.ks.split(","))
    except ValueError:
        ks = (0,)
    if min(ks) < 1:
        raise DataError(f"option 'ks' must list integers >= 1, got {args.ks!r}")
    spec, _, scenes = read_split(args.data, args.split)
    gts = scenes_to_gt_records(scenes)
    sizes = {scene.image_id: (scene.height, scene.width) for scene in scenes}
    preds = read_predictions_ndjson(args.preds)
    for image_id, triplets in preds.items():
        if image_id not in gts:
            raise DataError(f"{args.preds}: image {image_id!r} is not in split {args.split!r} "
                            f"of {args.data}")
        for t in triplets:
            if not 0 <= t.verb < spec.n_verbs:
                raise DataError(f"{args.preds}: image {image_id!r}: verb {t.verb} "
                                f"outside [0, {spec.n_verbs})")
            for m in (t.h_mask, t.o_mask):
                if m is not None and m.bits.shape != sizes[image_id]:
                    raise DataError(f"{args.preds}: image {image_id!r}: field 'mask.size' must be "
                                    f"the image size {list(sizes[image_id])}, got {list(m.bits.shape)}")
    # Recall@K matches masks when the predicted entities carry them
    masked = {m is not None for ts in preds.values() for t in ts for m in (t.h_mask, t.o_mask)}
    if len(masked) > 1:
        raise DataError(f"{args.preds}: some predicted entities carry masks and some do not")
    mode = "mask" if masked == {True} else "box"
    map_report = map_rel(preds, gts, spec.n_verbs, mode="box")
    recall_report = recall_at_k(preds, gts, spec.geometric_verbs, ks=ks, mode=mode)
    payload = report_to_dict(map_report, recall_report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(args.out + ".txt", "w", encoding="utf-8") as fh:
            fh.write(format_report_table(map_report, recall_report))
    print(format_report_table(map_report, recall_report), end="")
    return EXIT_OK


def cmd_gradcheck(args):
    from .gradcheck import run_all_gradchecks

    if args.points < 1:
        raise DataError(f"option 'points' must be >= 1, got {args.points}")
    if not 0 < args.tol < math.inf:
        raise DataError(f"option 'tol' must be finite and > 0, got {args.tol}")
    started = time.perf_counter()
    reports = run_all_gradchecks(points=args.points, tol=args.tol)
    elapsed = time.perf_counter() - started
    worst = 0.0
    ok = True
    for name, report in reports.items():
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {name}: max rel err {report.max_rel_error:.3e}")
        worst = max(worst, report.max_rel_error)
        ok = ok and report.passed
    print(f"gradcheck {'passed' if ok else 'FAILED'} "
          f"(worst {worst:.3e}, tol {args.tol:.1e}, {elapsed:.1f}s)")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_oracle(args):
    from .oracles import run_equivalence_suite

    if args.instances < 1:
        raise DataError(f"option 'instances' must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise DataError(f"option 'seed' must be >= 0, got {args.seed}")
    started = time.perf_counter()
    report = run_equivalence_suite(n_instances=args.instances, seed=args.seed)
    elapsed = time.perf_counter() - started
    status = "passed" if report.passed else "FAILED"
    print(f"oracle equivalence {status}: {report.instances} instances, "
          f"max abs diff {report.max_abs_diff:.2e}, {elapsed:.1f}s")
    for kind, diff in report.mismatches[:10]:
        print(f"  mismatch in {kind}: {diff:.3e}")
    return EXIT_OK if report.passed else EXIT_CHECK


@cache
def make_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hoicascade",
        description="Cascaded human-object interaction recognition on synthetic scenes")
    # no prefix matching: `infer --mode` must not pass for `--model`
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p_synth = sub.add_parser("synth", help="generate a synthetic scene corpus")
    p_synth.add_argument("--out", required=True)
    _add_config_flags(p_synth, COMMAND_KEYS["synth"])
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="two-phase training on a corpus")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    _add_config_flags(p_train, COMMAND_KEYS["train"])
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser("infer", help="write scored triplets for a split")
    p_infer.add_argument("--model", required=True)
    p_infer.add_argument("--data", required=True)
    p_infer.add_argument("--split", default="test")
    p_infer.add_argument("--out", required=True)
    _add_config_flags(p_infer, COMMAND_KEYS["infer"])
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test")
    p_eval.add_argument("--preds", required=True)
    p_eval.add_argument("--out")
    p_eval.add_argument("--ks", default="20,50,100")
    _add_config_flags(p_eval, COMMAND_KEYS["eval"])
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p_grad.add_argument("--points", type=int, default=10)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_oracle = sub.add_parser("oracle", help="oracle equivalence suites")
    p_oracle.add_argument("--instances", type=int, default=500)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap per our contract
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (FormatError, DataError, TrainingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
