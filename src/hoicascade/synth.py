"""Synthetic scene corpus: entities with boxes/masks/face regions, verb
annotations derived from deterministic spatial rules, jittered seed
proposals, and planted feature grids.

Verbs are assigned purely by re-applying the rules to the placed entities,
so emitted annotations always agree with a rule re-application oracle.
Feature semantics are planted (one-hot class channels, verb-evidence
channels, a face channel and a two-level part pattern) so every pipeline
mechanism has learnable signal without representation learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import Instance
from .errors import DataError
from .features import face_region
from .geometry import BitMask, Box, FeatureGrid, box_iou, union_box
from .interaction import GroundTruthPair

DEFAULT_CLASSES = ("person", "chair", "cup", "phone", "ball")
DEFAULT_VERBS = ("next_to", "above", "hold", "look_at", "sit_on", "drink_from")
DEFAULT_GEOMETRIC = frozenset({0, 1})  # next_to, above

# per-class (width range, height range) at the 128 px reference scale
SIZE_RANGES = {
    "person": ((24, 40), (48, 80)),
    "chair": ((24, 44), (24, 44)),
    "cup": ((8, 14), (10, 16)),
    "phone": ((8, 16), (8, 16)),
    "ball": ((12, 20), (12, 20)),
}
DEFAULT_SIZE_RANGE = ((12, 28), (12, 28))
# below 48 px the scaled small-object sizes collapse under 3 px
MIN_IMAGE_SIZE = 48
ELLIPTICAL_CLASSES = {"person", "cup", "ball"}

HOLDABLE = ("cup", "phone", "ball")
SITTABLE = ("chair",)
DRINKABLE = ("cup",)


@dataclass(frozen=True)
class SceneSpec:
    image_size: int = 128
    class_names: tuple = DEFAULT_CLASSES
    person_class: int = 0
    verb_names: tuple = DEFAULT_VERBS
    geometric_verbs: frozenset = DEFAULT_GEOMETRIC
    entities_range: tuple = (3, 5)
    jitter: float = 0.25
    occlusion_rate: float = 0.2
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.class_names[self.person_class] != "person":
            raise DataError("person class must be present at person_class index")
        if len(self.verb_names) < 2:
            raise DataError("verb vocabulary must have at least 2 entries")
        lo, hi = self.entities_range
        if lo < 2 or hi < lo:
            raise DataError("entities range must allow at least a person and an object")

    @property
    def n_classes(self):
        return len(self.class_names)

    @property
    def n_verbs(self):
        return len(self.verb_names)

    @property
    def scale(self):
        return self.image_size / 128.0

    def verb_id(self, name):
        return self.verb_names.index(name) if name in self.verb_names else -1

    def class_id(self, name):
        return self.class_names.index(name) if name in self.class_names else -1

    def min_channels(self):
        # one-hot classes + verb evidence + face channel + part pattern
        return self.n_classes + self.n_verbs + 2


@dataclass
class Entity:
    class_id: int
    box: Box
    mask: BitMask
    face_box: Box | None = None


@dataclass(frozen=True)
class Triplet:
    human: int
    verb: int
    object: int


@dataclass
class SeedProposal:
    box: Box
    entity: int
    iou: float


@dataclass
class Scene:
    image_id: str
    width: int
    height: int
    entities: list
    triplets: list
    proposals: list
    seed: int = 0

    def gt_instances(self):
        """Entities as localization targets (class + box + mask)."""
        return [Instance(e.class_id, 1.0, e.box, mask=e.mask) for e in self.entities]


# ----------------------------------------------------------- verb rules

def _h_overlap(a: Box, b: Box):
    return min(a.x2, b.x2) - max(a.x1, b.x1)


def _v_overlap(a: Box, b: Box):
    return min(a.y2, b.y2) - max(a.y1, b.y1)


def _intersection_area(a: Box, b: Box):
    return max(_h_overlap(a, b), 0.0) * max(_v_overlap(a, b), 0.0)


def _dilate(box: Box, amount, size):
    return Box(max(box.x1 - amount, 0.0), max(box.y1 - amount, 0.0),
               min(box.x2 + amount, float(size)), min(box.y2 + amount, float(size)))


def _intersects(a: Box, b: Box):
    return _h_overlap(a, b) > 0 and _v_overlap(a, b) > 0


def rule_fires(verb_name, human: Entity, obj: Entity, spec: SceneSpec) -> bool:
    """Deterministic spatial predicate for one verb on a (person, entity) pair."""
    s = spec.scale
    h_box, o_box = human.box, obj.box
    obj_name = spec.class_names[obj.class_id]
    if verb_name == "next_to":
        gap = max(o_box.x1 - h_box.x2, h_box.x1 - o_box.x2)
        return 0.0 <= gap <= 10.0 * s and _v_overlap(h_box, o_box) >= 0.3 * min(
            h_box.height, o_box.height)
    if verb_name == "above":
        vertical_gap = o_box.y1 - h_box.y2
        return (-4.0 * s <= vertical_gap <= 12.0 * s
                and _h_overlap(h_box, o_box) >= 0.3 * min(h_box.width, o_box.width))
    if verb_name == "hold":
        if obj_name not in HOLDABLE:
            return False
        cx, cy = o_box.center
        band_top = h_box.y1 + 0.35 * h_box.height
        band_bottom = h_box.y1 + 0.85 * h_box.height
        return (_intersection_area(h_box, o_box) >= 0.5 * o_box.area
                and h_box.x1 <= cx < h_box.x2 and band_top <= cy < band_bottom)
    if verb_name == "look_at":
        return _intersects(_dilate(human.face_box, 6.0 * s, spec.image_size), o_box)
    if verb_name == "sit_on":
        if obj_name not in SITTABLE:
            return False
        return (o_box.y1 - 4.0 * s <= h_box.y2 <= o_box.y1 + 0.6 * o_box.height
                and _h_overlap(h_box, o_box) >= 0.5 * h_box.width)
    if verb_name == "drink_from":
        return obj_name in DRINKABLE and _intersects(human.face_box, o_box)
    return False


def derive_triplets(entities, spec: SceneSpec) -> list:
    """All (person, verb, entity) annotations implied by the rules."""
    triplets = []
    for hi, human in enumerate(entities):
        if human.class_id != spec.person_class:
            continue
        for oi, obj in enumerate(entities):
            if oi == hi:
                continue
            for verb, name in enumerate(spec.verb_names):
                if rule_fires(name, human, obj, spec):
                    triplets.append(Triplet(hi, verb, oi))
    return triplets


# ------------------------------------------------------------ placement

def _make_mask(class_name, box: Box, size) -> BitMask:
    bits = np.zeros((size, size), dtype=bool)
    x1 = int(np.floor(box.x1))
    x2 = min(int(np.ceil(box.x2)), size)
    y1 = int(np.floor(box.y1))
    y2 = min(int(np.ceil(box.y2)), size)
    xs = np.arange(x1, x2) + 0.5
    ys = np.arange(y1, y2) + 0.5
    gx, gy = np.meshgrid(xs, ys)
    inside_box = (gx >= box.x1) & (gx < box.x2) & (gy >= box.y1) & (gy < box.y2)
    if class_name in ELLIPTICAL_CLASSES:
        cx, cy = box.center
        rx, ry = box.width / 2.0, box.height / 2.0
        inside = inside_box & (((gx - cx) / rx) ** 2 + ((gy - cy) / ry) ** 2 <= 1.0)
    else:
        inside = inside_box
    bits[y1:y2, x1:x2] = inside
    if not bits.any():
        cx, cy = box.center
        bits[min(int(cy), size - 1), min(int(cx), size - 1)] = True
    return BitMask(bits)


def _sample_box(rng, class_name, spec: SceneSpec, center=None) -> Box:
    (wlo, whi), (hlo, hhi) = SIZE_RANGES.get(class_name, DEFAULT_SIZE_RANGE)
    s = spec.scale
    w = rng.uniform(wlo, whi) * s
    h = rng.uniform(hlo, hhi) * s
    size = spec.image_size
    if center is None:
        cx = rng.uniform(w / 2, size - w / 2)
        cy = rng.uniform(h / 2, size - h / 2)
    else:
        cx, cy = center
    x1 = float(np.clip(cx - w / 2, 0.0, size - w))
    y1 = float(np.clip(cy - h / 2, 0.0, size - h))
    return Box(x1, y1, x1 + w, y1 + h)


def _make_entity(class_name, box, spec: SceneSpec) -> Entity:
    class_id = spec.class_id(class_name)
    face = face_region(box) if class_name == "person" else None
    return Entity(class_id, box, _make_mask(class_name, box, spec.image_size), face)


def _half_extents(class_name, spec):
    (wlo, whi), (hlo, hhi) = SIZE_RANGES.get(class_name, DEFAULT_SIZE_RANGE)
    return (wlo + whi) / 4.0 * spec.scale, (hlo + hhi) / 4.0 * spec.scale


def _place_for_verb(rng, verb_name, person: Entity, spec: SceneSpec):
    """Pick an object class and box intended to satisfy a verb predicate."""
    s = spec.scale
    h_box = person.box
    non_person = [n for n in spec.class_names if n != "person"]
    if verb_name == "hold":
        choices = [n for n in HOLDABLE if n in spec.class_names] or non_person
        name = str(rng.choice(choices))
        cx = h_box.x1 + rng.uniform(0.25, 0.75) * h_box.width
        cy = h_box.y1 + rng.uniform(0.45, 0.75) * h_box.height
        return name, (cx, cy)
    if verb_name == "sit_on":
        choices = [n for n in SITTABLE if n in spec.class_names] or non_person
        name = str(rng.choice(choices))
        cx = h_box.center[0] + rng.uniform(-2, 2) * s
        cy = h_box.y2 + rng.uniform(2, 8) * s
        return name, (cx, cy)
    if verb_name == "drink_from":
        choices = [n for n in DRINKABLE if n in spec.class_names] or non_person
        name = str(rng.choice(choices))
        face = person.face_box
        return name, (face.center[0] + rng.uniform(-2, 2) * s,
                      face.center[1] + rng.uniform(-2, 2) * s)
    if verb_name == "look_at":
        name = str(rng.choice(non_person))
        face = person.face_box
        side = rng.choice([-1.0, 1.0])
        return name, (face.center[0] + side * rng.uniform(6, 14) * s,
                      face.center[1] + rng.uniform(-4, 6) * s)
    if verb_name == "above":
        name = str(rng.choice(non_person))
        _, half_h = _half_extents(name, spec)
        return name, (h_box.center[0] + rng.uniform(-4, 4) * s,
                      h_box.y2 + half_h + rng.uniform(0, 8) * s)
    # default template: next_to (edge gap, so offset by the half width)
    name = str(rng.choice(non_person))
    half_w, _ = _half_extents(name, spec)
    side = rng.choice([-1.0, 1.0])
    gap = rng.uniform(1, 8) * s + half_w
    cx = (h_box.x2 + gap) if side > 0 else (h_box.x1 - gap)
    cy = h_box.center[1] + rng.uniform(-0.2, 0.2) * h_box.height
    return name, (cx, cy)


def _jitter_box(rng, box: Box, jitter, size):
    """Shift the center and rescale log-uniformly by the jitter level."""
    if jitter <= 0.0:
        return box
    for _ in range(50):
        cx, cy = box.center
        w, h = box.width, box.height
        ncx = cx + rng.uniform(-jitter, jitter) * w
        ncy = cy + rng.uniform(-jitter, jitter) * h
        nw = w * np.exp(rng.uniform(-jitter, jitter))
        nh = h * np.exp(rng.uniform(-jitter, jitter))
        x1, y1 = max(ncx - nw / 2, 0.0), max(ncy - nh / 2, 0.0)
        x2, y2 = min(ncx + nw / 2, float(size)), min(ncy + nh / 2, float(size))
        if x2 - x1 > 3.0 and y2 - y1 > 3.0:
            return Box(x1, y1, x2, y2)
    return box


def generate_scene(spec: SceneSpec, index, image_id=None) -> Scene:
    """One deterministic scene; the per-scene rng derives from (seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    size = spec.image_size
    if size < MIN_IMAGE_SIZE:
        raise DataError(f"image size {size} cannot fit the entity size ranges")
    lo, hi = spec.entities_range
    n_entities = int(rng.integers(lo, hi + 1))
    n_persons = 2 if (n_entities >= 4 and rng.uniform() < 0.25) else 1

    entities = []
    for _ in range(n_persons):
        entities.append(_make_entity("person", _sample_box(rng, "person", spec), spec))
    persons = list(entities)

    # geometric templates weighted up: their predicates fire accidentally
    # far less often than the face-centric ones
    template_weights = {"next_to": 0.28, "above": 0.24, "hold": 0.14,
                        "look_at": 0.06, "sit_on": 0.16, "drink_from": 0.12}
    placeable_verbs = [n for n in spec.verb_names if n in template_weights]
    weights = np.array([template_weights[n] for n in placeable_verbs])
    n_objects = n_entities - n_persons
    for _ in range(max(n_objects, 1)):
        if placeable_verbs and rng.uniform() < 0.8:
            person = persons[int(rng.integers(0, len(persons)))]
            verb_name = str(rng.choice(placeable_verbs, p=weights / weights.sum()))
            name, center = _place_for_verb(rng, verb_name, person, spec)
            box = _sample_box(rng, name, spec, center=center)
        else:
            name = str(rng.choice([n for n in spec.class_names if n != "person"]))
            box = _sample_box(rng, name, spec)
        entities.append(_make_entity(name, box, spec))

    if rng.uniform() < spec.occlusion_rate:
        # distractor overlapping a person's box corner: box pooling mixes the
        # signals while the elliptical masks stay largely disjoint
        person = persons[int(rng.integers(0, len(persons)))]
        name = str(rng.choice([n for n in spec.class_names if n != "person"]))
        corner_x = person.box.x1 + rng.choice([0.15, 0.85]) * person.box.width
        corner_y = person.box.y1 + rng.uniform(0.6, 0.95) * person.box.height
        entities.append(_make_entity(name, _sample_box(rng, name, spec,
                                                       center=(corner_x, corner_y)), spec))

    triplets = derive_triplets(entities, spec)
    proposals = []
    for ei, ent in enumerate(entities):
        jittered = _jitter_box(rng, ent.box, spec.jitter, size)
        proposals.append(SeedProposal(jittered, ei, box_iou(jittered, ent.box)))

    scene_seed = int(rng.integers(0, 2 ** 31 - 1))
    return Scene(image_id or f"scene{index:05d}", size, size, entities,
                 triplets, proposals, seed=scene_seed)


def generate_dataset(spec: SceneSpec, n_scenes, prefix="scene") -> list:
    """Deterministic scene corpus; scene i derives its rng from (seed, i)."""
    if n_scenes < 1:
        raise DataError("need at least one scene")
    return [generate_scene(spec, i, image_id=f"{prefix}{i:05d}")
            for i in range(n_scenes)]


# ------------------------------------------------------------- rendering

def interaction_region(human: Entity, obj: Entity, verb_name, spec: SceneSpec) -> Box:
    """Where verb evidence is painted: around the face for face verbs,
    otherwise the (dilated) box intersection of the pair."""
    s = spec.scale
    size = spec.image_size
    if verb_name in ("look_at", "drink_from"):
        a = _dilate(human.face_box, 10.0 * s, size)
        b = obj.box
    else:
        a = _dilate(human.box, 6.0 * s, size)
        b = _dilate(obj.box, 6.0 * s, size)
    x1, y1 = max(a.x1, b.x1), max(a.y1, b.y1)
    x2, y2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if x2 - x1 >= 1.0 and y2 - y1 >= 1.0:
        return Box(x1, y1, x2, y2)
    ux, uy = union_box(human.box, obj.box).center
    r = 4.0 * s
    return Box(max(ux - r, 0.0), max(uy - r, 0.0),
               min(ux + r, float(size)), min(uy + r, float(size)))


def render_feature_grid(scene: Scene, spec: SceneSpec, channels, grid_size) -> FeatureGrid:
    """Planted backbone activations for a scene.

    Channel layout: [0, n_classes) one-hot class inside each entity mask;
    then n_verbs verb-evidence channels painted in the interaction region
    of each annotated triplet; a face channel; a two-level part pattern
    inside person masks. Gaussian noise of the spec's `noise_sigma`, seeded
    by the scene, is added on top of everything.
    """
    needed = spec.min_channels()
    if channels < needed:
        raise DataError(f"need at least {needed} channels, got {channels}")
    gh = gw = grid_size
    size = scene.width
    data = np.zeros((channels, gh, gw))
    cx = (np.arange(gw) + 0.5) * size / gw
    cy = (np.arange(gh) + 0.5) * size / gh
    gx, gy = np.meshgrid(cx, cy)
    px = np.clip(gx.astype(int), 0, size - 1)
    py = np.clip(gy.astype(int), 0, size - 1)

    def box_cells(box):
        return (gx >= box.x1) & (gx < box.x2) & (gy >= box.y1) & (gy < box.y2)

    face_ch = spec.n_classes + spec.n_verbs
    part_ch = face_ch + 1
    for ent in scene.entities:
        inside = ent.mask.bits[py, px]
        data[ent.class_id][inside] = 1.0
        if ent.face_box is not None:
            data[face_ch][box_cells(ent.face_box)] = 1.0
        if ent.class_id == spec.person_class:
            upper = inside & (gy < ent.box.y1 + ent.box.height / 3.0)
            lower = inside & ~upper
            data[part_ch][upper] = 1.0
            data[part_ch][lower] = np.maximum(data[part_ch][lower], 0.5)
    for t in scene.triplets:
        region = interaction_region(scene.entities[t.human], scene.entities[t.object],
                                    spec.verb_names[t.verb], spec)
        data[spec.n_classes + t.verb][box_cells(region)] = 1.0
    if spec.noise_sigma > 0.0:
        noise_rng = np.random.default_rng([scene.seed, 7])
        data += spec.noise_sigma * noise_rng.standard_normal(data.shape)
    return FeatureGrid(data, scene.height, scene.width)


def gt_pairs_of(scene: Scene, spec: SceneSpec):
    """Group the scene's triplets into annotated pairs with verb sets."""
    grouped = {}
    for t in scene.triplets:
        grouped.setdefault((t.human, t.object), set()).add(t.verb)
    pairs = []
    for (hi, oi), verbs in sorted(grouped.items()):
        h, o = scene.entities[hi], scene.entities[oi]
        pairs.append(GroundTruthPair(h.box, o.box, o.class_id, frozenset(verbs)))
    return pairs
