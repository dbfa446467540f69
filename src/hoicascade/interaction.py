"""Relation ranking and triple-stream relation classification: pair
enumeration, the ranking score (RRM), the per-stream verb scores (RCM),
score fusion, the per-stage model bundle and the image-level inference
protocol.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .cascade import (
    MASK_LOGIT_DIM,
    POOLED_HW,
    CascadeConfig,
    Instance,
    dedup_by_lineage,
    head_layer,
    merge_and_filter,
    refine_stage,
    segment_stage,
    stage_weight,
)
from .errors import DataError, FormatError, ShapeError
from .features import (
    GEOMETRIC_DIM,
    assemble_visual,
    cross_stage_fuse,
    efra_attend,
    efra_enhance,
    face_region,
    geometric_feature,
    ihsm_enhance,
)
from .geometry import (
    Box,
    FeatureGrid,
    box_array,
    box_ious,
    roi_align,
    spatial_pair_encoding,
    union_box,
)
from .numerics import ConvPoolEncoder, FCLayer, ParamStore, sigmoid

TOP_K = 64
MAX_TRAIN_PAIRS = 128
POS_NEG_RATIO = (1, 3)
PERSON_CLASS = 0


@dataclass
class RelationFeatures:
    """Relation representation of P candidate pairs, one row per pair."""

    x_s: np.ndarray  # (P, N) verb-frequency priors
    x_g: np.ndarray  # (P, 256) geometric descriptors
    x_v: np.ndarray  # (P, 3C, 7, 7) enhanced visual tensors


@dataclass
class PooledPairs:
    """Pooled inputs of P candidate pairs, before any trained layer, held
    once per distinct (human box, object box, object class): D rows, and
    M <= D distinct pair maps."""

    rows: np.ndarray       # (P,) each candidate's row among the D distinct pairs
    map_rows: np.ndarray   # (P,) each candidate's row among the M distinct maps
    x_s: np.ndarray        # (D, N) verb-frequency priors
    map_bits_rows: np.ndarray  # (M, 2, 64) float32 row indicators of the distinct pair maps
    map_bits_cols: np.ndarray  # (M, 2, 64) float32 column indicators
    h_bar: np.ndarray      # (D, C, 7, 7) IHSM-enhanced human features
    face: np.ndarray       # (D, C, 7, 7) facial-region features
    noface: np.ndarray     # (D, C, 7, 7) face-removed human features
    obj: np.ndarray        # (D, C, 7, 7) object features
    union: np.ndarray      # (D, C, 7, 7) union-region features


@dataclass
class HOICandidate:
    human: Instance
    object: Instance


@dataclass(frozen=True)
class GroundTruthPair:
    """An annotated human-object pair with its multi-label verb set."""

    h_box: Box
    o_box: Box
    o_class: int
    verbs: frozenset


@dataclass
class TripletPrediction:
    human: Instance
    object: Instance
    verb: int
    score: float


def enumerate_pairs(instances, person_class=PERSON_CLASS) -> list[HOICandidate]:
    """All ordered pairs whose first element is a person; an instance never
    pairs with itself. No persons means no candidates."""
    pairs = []
    for i, h in enumerate(instances):
        if h.class_id != person_class:
            continue
        for j, o in enumerate(instances):
            if i == j:
                continue
            pairs.append(HOICandidate(human=h, object=o))
    return pairs


def rank_scores(visual, geometric):
    """Ranking score g(P) = sigmoid(v + u) per pair, v and u the visual and
    geometric halves of the rank logit: column 0 of the rows of a stage's
    relation map and of its geometric map."""
    return sigmoid(visual[:, 0] + geometric[:, 0])


def rank_pairs(visual, geometric) -> np.ndarray:
    """Candidate rows by `rank_scores`, descending, on the rows of one
    stage's relation map and geometric map. The sort is stable, so ties
    keep enumeration order."""
    if visual is None or geometric is None or len(visual) != len(geometric):
        raise DataError("every candidate needs visual and geometric features before ranking")
    return np.argsort(-rank_scores(visual, geometric), kind="stable")


def select_topk(ranked, k=TOP_K):
    if k < 1:
        raise DataError(f"top-k must be >= 1, got {k}")
    return ranked[:k]


def classify_relation(x_s, geometric, visual, semantic):
    """Per-stream verb logits (z_s, z_g, z_v), one row per pair; the
    stream scores (s_s, s_g, s_v) are their sigmoids, multi-label, no
    softmax. `semantic` is one stage's semantic head, run on the priors
    x_s; `geometric` and `visual` are the rows of that stage's geometric
    and relation maps, whose columns after the first are the geometric and
    visual verb logits. Training's BCE reads the logits; inference fuses
    the scores."""
    return semantic.forward(x_s), geometric[:, 1:], visual[:, 1:]


def fuse_scores(s_v, s_g, s_s):
    """Final fusion (s_v + s_g) * s_s, elementwise."""
    s_v = np.asarray(s_v, dtype=np.float64)
    s_g = np.asarray(s_g, dtype=np.float64)
    s_s = np.asarray(s_s, dtype=np.float64)
    if not (s_v.shape == s_g.shape == s_s.shape):
        raise ShapeError("score vectors must share one length")
    return (s_v + s_g) * s_s


@dataclass
class SampledPairBatch:
    """One stage's sampled relation pairs: positive and negative candidates,
    and the (len(positives), N) multi-hot verb targets of the positives
    (a negative's targets are all zeros)."""

    positives: list
    negatives: list
    targets: np.ndarray

    def all_pairs(self):
        return self.positives + self.negatives


def sample_training_pairs(candidates, gt_pairs, iou_threshold, n_verbs,
                          rng) -> SampledPairBatch:
    """Label candidates against annotated pairs at the stage threshold,
    append the annotated pairs themselves, and subsample to MAX_TRAIN_PAIRS
    at the POS_NEG_RATIO positive:negative ratio (negatives fill any slack).
    A candidate is positive when its human and object IoUs (two matrices)
    with some annotated pair both reach the threshold; it takes the verbs
    of the first such pair of highest min(IoU)."""
    match = np.full(len(candidates), -1)
    if candidates and gt_pairs:
        quality = np.minimum(
            box_ious([c.human.box for c in candidates], [g.h_box for g in gt_pairs]),
            box_ious([c.object.box for c in candidates], [g.o_box for g in gt_pairs]))
        quality[quality < iou_threshold] = 0.0
        match = np.where(quality.max(axis=1) > 0.0, quality.argmax(axis=1), -1)
    pos = [c for c, gi in zip(candidates, match) if gi >= 0]
    pos += [HOICandidate(Instance(PERSON_CLASS, 1.0, gt.h_box),
                         Instance(gt.o_class, 1.0, gt.o_box)) for gt in gt_pairs]
    pos_match = np.concatenate([match[match >= 0], np.arange(len(gt_pairs))])
    neg = [c for c, gi in zip(candidates, match) if gi < 0]
    p, n = POS_NEG_RATIO
    n_pos = min(len(pos), MAX_TRAIN_PAIRS * p // (p + n))
    n_neg = min(len(neg), MAX_TRAIN_PAIRS - n_pos)
    if n_pos < len(pos):
        keep = rng.permutation(len(pos))[:n_pos]
        pos, pos_match = [pos[i] for i in keep], pos_match[keep]
    if n_neg < len(neg):
        neg = [neg[i] for i in rng.permutation(len(neg))[:n_neg]]
    targets = np.zeros((len(pos), n_verbs))
    for row, gi in enumerate(pos_match):
        targets[row, list(gt_pairs[gi].verbs)] = 1.0
    return SampledPairBatch(pos, neg, targets)


def total_loss(stage_losses, cfg: CascadeConfig) -> float:
    """Sum over stages t of stage_weight(t) times the sum of stage t's
    losses (loc, and seg, rrm and rcm where the stage has them)."""
    if len(stage_losses) != cfg.stages:
        raise ShapeError(f"expected {cfg.stages} stage losses, got {len(stage_losses)}")
    return sum(stage_weight(t) * sum(losses.values()) for t, losses in enumerate(stage_losses))


# ----------------------------------------------------------------- model

class CascadeModel:
    """One layer per input per stage plus the shared feature machinery
    (geometric encoder, facial attention layers). Stage t owns:

    - `box_heads[t]`, C*7*7 -> 5: the 4 box deltas and the score logit of
      each pooled box (`refine_stage`);
    - `visual_maps[t]`, 3C*7*7 -> 1 + N: the summed visual tensor to the
      visual half of the rank logit (column 0) and the visual verb logits;
    - `geometric_maps[t]`, 256 -> 1 + N: the geometric feature to the
      geometric half of the rank logit (column 0) and the geometric verb
      logits;
    - `semantic_heads[t]`, N -> N: the semantic verb logits;
    - `seg_heads[t]`, segment mode only, C*14*14 -> 14*14 mask logits.

    Every layer is linear: each score is the sigmoid of a logit, taken
    where it is read, and each BCE reads the logits. The paper's FC_x2
    fusion stack and the heads that read it are linear up to their
    sigmoids, so one relation map expresses their product, and each
    one-layer facial-attention map (2C*7*7 -> 1, the logit of an EFRA
    score) stands for an FC_x2 stack in the same way (README, "Paper
    fidelity").
    `channels` and `grid_size` are the feature-grid geometry the model was
    trained on; the checkpoint carries them, and inference renders with them.
    `cooccurrence` is the semantic stream's prior: an (n_classes, n_verbs)
    array whose row c is the verb distribution of object class c.
    With `init` False every block starts at zero and nothing is drawn from
    the seed, for `load` to fill from a checkpoint."""

    def __init__(self, n_classes, n_verbs, channels, config=None, seed=0,
                 person_class=PERSON_CLASS, segment=False, grid_size=32, init=True):
        self.n_classes = n_classes
        self.n_verbs = n_verbs
        self.channels = channels
        self.grid_size = grid_size
        self.config = config or CascadeConfig()
        self.person_class = person_class
        self.segment = segment
        self.cooccurrence = None

        rng = np.random.default_rng(seed) if init else None
        t_stages = self.config.stages
        cells = POOLED_HW[0] * POOLED_HW[1]
        self.box_heads = [head_layer(channels * cells, 5, rng) for _ in range(t_stages)]
        self.geometric_maps = [FCLayer(GEOMETRIC_DIM, 1 + n_verbs, rng)
                               for _ in range(t_stages)]
        self.semantic_heads = [FCLayer(n_verbs, n_verbs, rng) for _ in range(t_stages)]
        self.geo_encoder = ConvPoolEncoder(2, (64, 64), rng=rng)
        self.face_attention = FCLayer(2 * channels * cells, 1, rng)
        self.noface_attention = FCLayer(2 * channels * cells, 1, rng)
        self.visual_maps = [FCLayer(3 * channels * cells, 1 + n_verbs, rng)
                            for _ in range(t_stages)]
        # mask heads exist only in segment mode and draw last, so the other
        # blocks start from the same values in both modes
        self.seg_heads = [head_layer(channels * MASK_LOGIT_DIM, MASK_LOGIT_DIM, rng)
                          for _ in range(t_stages)] if segment else []

        self.store = ParamStore()
        for t in range(t_stages):
            for name, p in (self.box_heads[t].params(f"stage{t + 1}.box")
                            + self.visual_maps[t].params(f"stage{t + 1}.visual")
                            + self.geometric_maps[t].params(f"stage{t + 1}.geometric")
                            + self.semantic_heads[t].params(f"stage{t + 1}.semantic")):
                self.store.add(name, p)
        for name, p in (self.geo_encoder.params("shared.geo_encoder")
                        + self.face_attention.params("shared.face_attention")
                        + self.noface_attention.params("shared.noface_attention")):
            self.store.add(name, p)
        for t, head in enumerate(self.seg_heads):
            for name, p in head.params(f"stage{t + 1}.seg"):
                self.store.add(name, p)

    # ------------------------------------------------------------ features

    @staticmethod
    def noface_cells(grid: FeatureGrid, human_boxes) -> np.ndarray:
        """(n, H, W) grid cells whose centers lie outside each person's
        facial region: the cells the face-removed human feature reads."""
        x1, y1, x2, y2 = box_array([face_region(b) for b in human_boxes]).T[:, :, None, None]
        cx = (np.arange(grid.grid_width) + 0.5) / grid.scale_x
        cy = (np.arange(grid.grid_height)[:, None] + 0.5) / grid.scale_y
        return ~((cx >= x1) & (cx < x2) & (cy >= y1) & (cy < y2))

    def pool_pairs(self, grid: FeatureGrid, candidates) -> PooledPairs:
        """Everything of P candidate pairs that precedes the trained layers,
        shared by training and inference, once per distinct (human box,
        object box, object class) in first-seen order, and each distinct
        pair map once, as its row and column indicators. IHSM runs once per
        human box. The humans, their face crops, the objects and the union
        boxes are pooled in one RoIAlign call; the face-removed features,
        which read each human's own grid cells, in a second."""
        if self.cooccurrence is None:
            raise DataError("model has no co-occurrence prior; train or load first")
        slot = {}
        rows = np.array([slot.setdefault((c.human.box, c.object.box, c.object.class_id),
                                         len(slot)) for c in candidates], dtype=np.intp)
        h_boxes, o_boxes, classes = zip(*slot)
        humans = list(dict.fromkeys(h_boxes))
        human_row = {b: i for i, b in enumerate(humans)}
        of_human = [human_row[b] for b in h_boxes]
        n_h, n_d = len(humans), len(h_boxes)
        human, face, obj, union = np.split(
            roi_align(grid, humans + [face_region(b) for b in humans] + list(o_boxes)
                      + [union_box(h, o) for h, o in zip(h_boxes, o_boxes)], POOLED_HW),
            [n_h, 2 * n_h, 2 * n_h + n_d])
        h_bar = np.stack([ihsm_enhance(h)[0] for h in human])
        noface = roi_align(grid, humans, POOLED_HW, keep=self.noface_cells(grid, humans))
        bits_rows, bits_cols, map_index = spatial_pair_encoding(h_boxes, o_boxes)
        return PooledPairs(
            rows=rows, map_rows=map_index[rows],
            x_s=self.cooccurrence[list(classes)],
            map_bits_rows=bits_rows, map_bits_cols=bits_cols,
            h_bar=h_bar[of_human], face=face[of_human], noface=noface[of_human],
            obj=obj, union=union)

    def visual_tensor(self, pooled: PooledPairs):
        """(D, 3C, 7, 7) visual tensors of the distinct pairs (the IHSM
        human stream, the object stream enhanced by EFRA, and the union
        stream) from one EFRA call, and that call's (D,) scores alpha and
        alpha_bar, which `efra_attend_backward` takes."""
        alpha, alpha_bar = efra_attend(pooled.face, pooled.noface, pooled.obj,
                                       self.face_attention, self.noface_attention)
        o_bar = efra_enhance(pooled.obj, pooled.face, pooled.noface,
                             alpha[:, None, None, None], alpha_bar[:, None, None, None])
        return assemble_visual(pooled.h_bar, o_bar, pooled.union), alpha, alpha_bar

    def build_features(self, grid: FeatureGrid, candidates) -> RelationFeatures:
        """Inference-path relation features of all candidate pairs of one
        image, from one geometric-encoder call on the distinct pair maps and
        one EFRA call on the distinct pairs, gathered back to one row per
        candidate."""
        pooled = self.pool_pairs(grid, candidates)
        return RelationFeatures(
            x_s=pooled.x_s[pooled.rows],
            x_g=geometric_feature(pooled.map_bits_rows, pooled.map_bits_cols,
                                  self.geo_encoder)[pooled.map_rows],
            x_v=self.visual_tensor(pooled)[0][pooled.rows])

    # -------------------------------------------------------------- io

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        meta = {
            "n_classes": self.n_classes,
            "n_verbs": self.n_verbs,
            "channels": self.channels,
            "grid_size": self.grid_size,
            "person_class": self.person_class,
            "segment": self.segment,
            "config": asdict(self.config),
            "cooccurrence": {str(c): row.tolist() for c, row in enumerate(self.cooccurrence)},
        }
        with open(os.path.join(directory, "model.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.store.save(os.path.join(directory, "params.json"),
                        os.path.join(directory, "params.bin"))

    @classmethod
    def load(cls, directory):
        path = os.path.join(directory, "model.json")
        with open(path, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: expected a JSON object")
        try:
            for key in ("n_classes", "n_verbs", "channels", "grid_size"):
                if type(meta[key]) is not int or meta[key] < 1:
                    raise FormatError(f"{path}: field {key!r} must be an integer >= 1, "
                                      f"got {meta[key]!r}")
            if type(meta["segment"]) is not bool:
                raise FormatError(f"{path}: field 'segment' must be true or false, "
                                  f"got {meta['segment']!r}")
            person = meta["person_class"]
            if type(person) is not int or not 0 <= person < meta["n_classes"]:
                raise FormatError(f"{path}: field 'person_class' must be a class index in "
                                  f"[0, {meta['n_classes']}), got {person!r}")
            # relation features are box-pooled; older checkpoints say so
            if meta.get("representation", "box") != "box":
                raise FormatError(f"{path}: field 'representation' must be 'box' or absent, "
                                  f"got {meta['representation']!r}")
            conf = meta["config"]
            if not isinstance(conf, dict):
                raise FormatError(f"{path}: field 'config' must be an object")
            # older checkpoints also carry the training schedule; it is not read
            try:
                cfg = CascadeConfig(conf["stages"], conf["merge_threshold"])
            except DataError as exc:
                raise FormatError(f"{path}: field 'config' {exc}") from None
            model = cls(meta["n_classes"], meta["n_verbs"], meta["channels"], cfg,
                        person_class=person, segment=meta["segment"],
                        grid_size=meta["grid_size"], init=False)
            rows = meta["cooccurrence"]
        except KeyError as exc:
            raise FormatError(f"{path}: missing key {exc.args[0]!r}") from None
        try:
            prior = np.array([rows[str(c)] for c in range(len(rows))], dtype=np.float64)
            shape = prior.shape
        except (KeyError, TypeError, ValueError):
            shape = None
        if shape != (model.n_classes, model.n_verbs):
            raise FormatError(f"{path}: field 'cooccurrence' must be {model.n_classes} rows "
                              f"of {model.n_verbs} verb frequencies")
        for c, row in enumerate(prior):
            # NaN fails the range test; np.array would also parse "0.5" or true
            if (not all(type(v) in (int, float) for v in rows[str(c)])
                    or not np.all((row >= 0.0) & (row <= 1.0))):
                raise FormatError(f"{path}: field 'cooccurrence' row {c} must hold finite "
                                  f"frequencies in [0, 1], got {rows[str(c)]}")
            if abs(row.sum() - 1.0) > 1e-9:
                raise FormatError(f"{path}: field 'cooccurrence' row {c} must sum to 1, "
                                  f"got {row.sum()!r}")
        # the saved rows sum to 1 within 1e-9; divide each by its sum once
        model.cooccurrence = prior / prior.sum(axis=1, keepdims=True)
        model.store.load(os.path.join(directory, "params.json"),
                         os.path.join(directory, "params.bin"))
        return model


# -------------------------------------------------------------- inference

def run_localization(grid: FeatureGrid, seed_proposals, model: CascadeModel):
    """Refine all proposals through every stage; returns per-stage outputs.
    Refinements keep the lineage of their seed (`seed_instances` numbers
    them), which `dedup_by_lineage` reads.

    Each stage is one batched `refine_stage` call over the survivors of the
    stage before, plus, when the model predicts masks, one `segment_stage`
    call whose stage-1 predecessor feature is zeros. A stage with no
    survivors leaves every later stage empty.
    """
    current = seed_proposals
    stage_outputs = []
    for t in range(model.config.stages):
        if current:
            _, _, refined = refine_stage(grid, current, model.box_heads[t], t)
            kept = [i for i, inst in enumerate(refined) if inst is not None]
            nxt = [refined[i] for i in kept]
            if model.segment and nxt:
                prev_boxes = [current[i].box for i in kept] if t > 0 else None
                nxt = segment_stage(grid, nxt, model.seg_heads[t], prev_boxes)
            current = nxt
        stage_outputs.append(current)
    return stage_outputs


def infer_image(grid: FeatureGrid, seed_proposals, model: CascadeModel,
                top_k=TOP_K) -> list[TripletPrediction]:
    """Full image protocol: cascade localization, stage merging and
    filtering, pair ranking, top-k selection, and the final stage's fused
    scores emitted per verb. Relation work is batched over the image's
    pairs: one EFRA call, one `cross_stage_fuse` call into the last stage's
    relation map giving every pair's visual rank and verb logits, one call
    of its geometric map giving their geometric halves, one ranking, and
    one semantic-head call, the last stage's, on the kept rows; earlier
    stages' maps and heads train the shared layers but are not run here.
    The predecessor tensor is the pair's own, or zeros in a one-stage
    model, whose last stage is stage 1.
    """
    stage_outputs = run_localization(grid, seed_proposals, model)
    merged = merge_and_filter(stage_outputs, model.config.merge_threshold)
    kept = dedup_by_lineage(merged)
    candidates = enumerate_pairs(kept, model.person_class)
    if not candidates:
        return []
    last = model.config.stages - 1
    feats = model.build_features(grid, candidates)
    visual = cross_stage_fuse(feats.x_v, feats.x_v if last else np.zeros_like(feats.x_v),
                              model.visual_maps[last])
    geometric = model.geometric_maps[last].forward(feats.x_g)
    top = select_topk(rank_pairs(visual, geometric), top_k)
    s_s, s_g, s_v = map(sigmoid, classify_relation(feats.x_s[top], geometric[top],
                                                   visual[top], model.semantic_heads[last]))
    scores = fuse_scores(s_v, s_g, s_s)
    return [TripletPrediction(candidates[i].human, candidates[i].object, verb,
                              float(scores[row, verb]))
            for row, i in enumerate(top) for verb in range(model.n_verbs)]
