"""Bit-exact file formats: scene and prediction NDJSON, dataset metadata,
run-length masks and the flat config format.

All JSON is emitted with sorted keys and repr-float values, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cascade import MAX_STAGES
from .errors import DataError, FormatError
from .geometry import BitMask, Box
from .metrics import TripletRecord
from .synth import MIN_IMAGE_SIZE, Entity, Scene, SceneSpec, SeedProposal, Triplet


# ------------------------------------------------------------------ masks

def rle_encode(mask: BitMask):
    """Alternating run lengths over the row-major bits, starting with zeros."""
    flat = mask.bits.ravel().astype(np.int8)
    if flat.size == 0:
        return []
    changes = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return [int(r) for r in runs]


def rle_decode(runs, height, width) -> BitMask:
    total = sum(runs)
    if total != height * width:
        raise FormatError(f"run lengths sum to {total}, expected {height * width}")
    flat = np.zeros(height * width, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if run < 0:
            raise FormatError("negative run length")
        if value:
            flat[pos:pos + run] = True
        pos += run
        value = not value
    return BitMask(flat.reshape(height, width))


def _box_to_list(box: Box):
    return [box.x1, box.y1, box.x2, box.y2]


def _box_from_list(vals, where):
    """The box of field `where`: four finite numbers x1 < x2, y1 < y2."""
    if (not isinstance(vals, list) or len(vals) != 4
            or not all(_is_number(v) and math.isfinite(v) for v in vals)
            or not (vals[0] < vals[2] and vals[1] < vals[3])):
        raise DataError(f"field '{where}' must be [x1, y1, x2, y2], four finite numbers "
                        f"with x1 < x2 and y1 < y2, got {vals!r}")
    return Box(*(float(v) for v in vals))


def _is_number(value):
    return type(value) in (int, float)


# ---------------------------------------------------------------- scenes

def scene_to_record(scene: Scene) -> dict:
    entities = []
    for ent in scene.entities:
        entities.append({
            "class_id": ent.class_id,
            "box": _box_to_list(ent.box),
            "mask": {"size": [ent.mask.height, ent.mask.width],
                     "rle": rle_encode(ent.mask)},
            "face_box": _box_to_list(ent.face_box) if ent.face_box else None,
        })
    return {
        "image_id": scene.image_id,
        "width": scene.width,
        "height": scene.height,
        "seed": scene.seed,
        "entities": entities,
        "triplets": [{"human": t.human, "verb": t.verb, "object": t.object}
                     for t in scene.triplets],
        "proposals": [{"box": _box_to_list(p.box), "entity": p.entity, "iou": p.iou}
                      for p in scene.proposals],
    }


def _index(obj, key, where="", lo=0, hi=None):
    """obj[key], which must be an integer in [lo, hi), or >= lo without hi."""
    value = obj[key]
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise DataError(f"field '{where}{key}' must be an integer {span}, got {value!r}")
    return value


def _iou(obj, where):
    value = obj["iou"]
    if not _is_number(value) or not 0.0 <= value <= 1.0:
        raise DataError(f"field '{where}iou' must be a number in [0, 1], got {value!r}")
    return float(value)


def record_to_scene(record: dict) -> Scene:
    """A scene from its NDJSON record. Indices into the record's entities
    and the image size are checked here; class and verb indices are checked
    to be integers >= 0, and `cli.read_split` checks them against the
    vocabulary in meta.json."""
    try:
        width, height = _index(record, "width", lo=1), _index(record, "height", lo=1)
        entities = []
        for i, e in enumerate(record["entities"]):
            if e["mask"]["size"] != [height, width]:
                raise DataError(f"field 'entities[{i}].mask.size' must be the image size "
                                f"[{height}, {width}], got {e['mask']['size']!r}")
            face = (_box_from_list(e["face_box"], f"entities[{i}].face_box")
                    if e.get("face_box") else None)
            entities.append(Entity(_index(e, "class_id", f"entities[{i}]."),
                                   _box_from_list(e["box"], f"entities[{i}].box"),
                                   rle_decode(e["mask"]["rle"], height, width), face))
        n = len(entities)
        triplets = [Triplet(_index(t, "human", f"triplets[{j}].", hi=n),
                            _index(t, "verb", f"triplets[{j}]."),
                            _index(t, "object", f"triplets[{j}].", hi=n))
                    for j, t in enumerate(record["triplets"])]
        proposals = [SeedProposal(_box_from_list(p["box"], f"proposals[{k}].box"),
                                  _index(p, "entity", f"proposals[{k}].", hi=n),
                                  _iou(p, f"proposals[{k}]."))
                     for k, p in enumerate(record["proposals"])]
        return Scene(record["image_id"], width, height, entities, triplets, proposals,
                     seed=int(record.get("seed", 0)))
    except DataError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"malformed scene record: {exc}") from exc


def write_scenes_ndjson(path, scenes):
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(json.dumps(scene_to_record(scene), sort_keys=True))
            fh.write("\n")


def read_scenes_ndjson(path):
    scenes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                scenes.append(record_to_scene(record))
            except (FormatError, DataError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return scenes


# ------------------------------------------------------------------- meta

def spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "image_size": spec.image_size,
        "class_names": list(spec.class_names),
        "person_class": spec.person_class,
        "verb_names": list(spec.verb_names),
        "geometric_verbs": sorted(spec.geometric_verbs),
        "entities_range": list(spec.entities_range),
        "jitter": spec.jitter,
        "occlusion_rate": spec.occlusion_rate,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
    }


def write_meta(path, spec: SceneSpec, extra=None):
    data = spec_to_dict(spec)
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_meta(path):
    """A data directory's SceneSpec and its meta dict, in which `channels`
    and `grid_size`, the feature-grid geometry `synth` recorded, are checked
    integers in range. Integer settings must be JSON integers and the noise
    settings JSON numbers in the ranges `synth` accepts for them
    (`RUN_CONFIG_RANGES`); neither is rounded or parsed from a string. The
    geometric verbs must be indices into the verb vocabulary."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        for key in ("image_size", "person_class", "seed", "channels", "grid_size"):
            if type(data[key]) is not int:
                raise FormatError(f"{path}: field {key!r} must be an integer, "
                                  f"got {data[key]!r}")
        for key in ("jitter", "occlusion_rate", "noise_sigma"):
            if type(data[key]) not in (int, float):
                raise FormatError(f"{path}: field {key!r} must be a number, got {data[key]!r}")
            allowed, want = config_range(key)
            if not allowed(data[key]):
                raise FormatError(f"{path}: field {key!r} must be {want}, got {data[key]!r}")
        spec = SceneSpec(
            image_size=data["image_size"],
            class_names=tuple(data["class_names"]),
            person_class=data["person_class"],
            verb_names=tuple(data["verb_names"]),
            geometric_verbs=frozenset(data["geometric_verbs"]),
            entities_range=tuple(data["entities_range"]),
            jitter=float(data["jitter"]),
            occlusion_rate=float(data["occlusion_rate"]),
            noise_sigma=float(data["noise_sigma"]),
            seed=data["seed"],
        )
    except KeyError as exc:
        raise FormatError(f"{path}: dataset meta missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed dataset meta: {exc}") from None
    if not all(type(v) is int and 0 <= v < spec.n_verbs for v in data["geometric_verbs"]):
        raise FormatError(f"{path}: field 'geometric_verbs' must hold verb indices in "
                          f"[0, {spec.n_verbs}), got {data['geometric_verbs']!r}")
    if data["grid_size"] < 1 or data["channels"] < spec.min_channels():
        raise FormatError(f"{path}: dataset meta needs grid_size >= 1 and channels >= "
                          f"{spec.min_channels()}, got {data['grid_size']} and {data['channels']}")
    return spec, data


# ------------------------------------------------------------ predictions

def predictions_to_record(image_id, predictions, with_masks=False) -> dict:
    """One NDJSON line: deduplicated entities plus verb-scored triplets
    referencing them by index."""
    entities = []
    keys = {}

    def entity_ref(inst):
        key = id(inst)
        if key not in keys:
            entry = {"box": _box_to_list(inst.box), "class_id": inst.class_id,
                     "confidence": inst.confidence}
            if with_masks:
                if inst.mask is None:
                    raise DataError("segment-mode predictions need masks")
                entry["mask"] = {"size": [inst.mask.height, inst.mask.width],
                                 "rle": rle_encode(inst.mask)}
            keys[key] = len(entities)
            entities.append(entry)
        return keys[key]

    triplets = []
    for pred in predictions:
        triplets.append({"h": entity_ref(pred.human), "o": entity_ref(pred.object),
                         "verb": pred.verb, "score": pred.score})
    return {"image_id": image_id, "entities": entities, "triplets": triplets}


def write_predictions_ndjson(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_predictions_ndjson(path):
    """Returns {image_id: [TripletRecord, ...]} with global input indices.

    Verbs and entity indices must be JSON integers, the indices in range;
    scores must be finite JSON numbers and every image id may appear on
    one line only. Each referenced entity is decoded once per line."""
    by_image = {}
    index = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                image_id = record["image_id"]
                if image_id in by_image:
                    raise FormatError(f"field 'image_id': duplicate image id {image_id!r}")
                entities = record["entities"]
                decoded, triplets = {}, []  # entity index -> (box, mask or None)
                for t in record["triplets"]:
                    for ref in ("h", "o"):
                        e = t[ref]
                        if not (type(e) is int and 0 <= e < len(entities)):
                            raise FormatError(f"field {ref!r}: entity index {e!r} "
                                              f"outside [0, {len(entities)})")
                        if e not in decoded:
                            ent, mask = entities[e], None
                            if "mask" in ent:
                                mask = rle_decode(ent["mask"]["rle"], *ent["mask"]["size"])
                            decoded[e] = (_box_from_list(ent["box"], f"entities[{e}].box"), mask)
                    if type(t["verb"]) is not int:
                        raise FormatError(f"field 'verb': expected an integer, got {t['verb']!r}")
                    score = t["score"]
                    if not (_is_number(score) and math.isfinite(score)):
                        raise FormatError(f"field 'score': expected a finite number, "
                                          f"got {score!r}")
                    (h_box, h_mask), (o_box, o_mask) = decoded[t["h"]], decoded[t["o"]]
                    triplets.append(TripletRecord(h_box, o_box, t["verb"], float(score),
                                                  index, h_mask, o_mask))
                    index += 1
            except (FormatError, DataError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed prediction record: {exc}") from exc
            by_image[image_id] = triplets
    return by_image


def scenes_to_gt_records(scenes):
    """{image_id: [TripletRecord, ...]} ground truth view of a scene list."""
    by_image = {}
    for scene in scenes:
        records = []
        for i, t in enumerate(scene.triplets):
            h = scene.entities[t.human]
            o = scene.entities[t.object]
            records.append(TripletRecord(h.box, o.box, t.verb, 0.0, i,
                                         h.mask, o.mask))
        by_image[scene.image_id] = records
    return by_image


# ------------------------------------------------------------------ config

def parse_config_file(path) -> dict:
    """Flat UTF-8 `key = value` lines; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise FormatError(f"{path}:{lineno}: empty key")
            values[key] = value.strip()
    return values


@dataclass
class RunConfig:
    """Every run setting, with defaults that mirror the published protocol
    constants. Each command sets only the keys it reads (`cli.COMMAND_KEYS`);
    the others keep their defaults. `grid_size` and `channels` are read by
    `synth` only: it records them in meta.json, `train` takes them from
    there and the checkpoint carries them to inference."""

    mode: str = "detect"              # detect | segment
    stages: int = 3
    merge_threshold: float = 0.3
    top_k: int = 64
    hinge_margin: float = 0.2
    learning_rate: float = 0.02
    phase1_epochs: int = 6
    phase2_epochs: int = 5
    seed: int = 0
    grid_size: int = 32
    channels: int = 0                 # 0 = derive from vocabulary
    train_scenes: int = 300
    test_scenes: int = 100
    jitter: float = 0.25
    occlusion_rate: float = 0.2
    noise_sigma: float = 0.05
    image_size: int = 128
    entities_min: int = 3
    entities_max: int = 5

    def __post_init__(self):
        if self.mode not in ("detect", "segment"):
            raise DataError(f"unknown mode {self.mode!r}")
        for keys, allowed, want in RUN_CONFIG_RANGES:
            for key in keys:
                if not allowed(getattr(self, key)):
                    raise DataError(f"config key {key!r} must be {want}, "
                                    f"got {getattr(self, key)}")
        if self.entities_max < self.entities_min:
            raise DataError(f"config key 'entities_max' must be >= entities_min "
                            f"({self.entities_min}), got {self.entities_max}")


# (keys, test, requirement); NaN fails every test
RUN_CONFIG_RANGES = (
    (("stages",), lambda v: 1 <= v <= MAX_STAGES, f"in [1, {MAX_STAGES}]"),
    (("top_k", "grid_size", "train_scenes", "test_scenes"), lambda v: v >= 1, ">= 1"),
    (("entities_min",), lambda v: v >= 2, ">= 2 (a person and an object)"),
    (("image_size",), lambda v: v >= MIN_IMAGE_SIZE, f">= {MIN_IMAGE_SIZE}"),
    (("phase1_epochs", "phase2_epochs", "seed"), lambda v: v >= 0, ">= 0"),
    (("learning_rate", "hinge_margin"), lambda v: 0 < v < math.inf, "finite and > 0"),
    (("jitter", "noise_sigma"), lambda v: 0 <= v < math.inf, "finite and >= 0"),
    (("merge_threshold", "occlusion_rate"), lambda v: 0 <= v <= 1, "in [0, 1]"),
)


def config_range(key):
    """(test, requirement) of a run setting's row in RUN_CONFIG_RANGES."""
    return next((allowed, want) for keys, allowed, want in RUN_CONFIG_RANGES if key in keys)


def run_config_from(values: dict) -> RunConfig:
    """Build a RunConfig from string key/value pairs (file or CLI)."""
    kwargs = {}
    defaults = RunConfig.__dataclass_fields__
    for key, raw in values.items():
        if key not in defaults:
            raise DataError(f"unknown config key {key!r}")
        try:
            kwargs[key] = type(defaults[key].default)(raw)
        except ValueError as exc:
            raise DataError(f"config key {key!r}: {exc}") from exc
    return RunConfig(**kwargs)
