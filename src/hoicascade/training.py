"""Two-phase training in one loop: localization first, then joint
localization and relation recognition, with one SGD step per
SCENES_PER_STEP scenes (image-centric batches). Stage t labels its
proposals and relation pairs at `cascade.iou_threshold(t)` and weighs
its losses by `cascade.stage_weight(t)`; the ranking hinge margin and
the learning rate come from the run's `RunConfig`. The model saves none
of them.

Every binary cross-entropy reads logits: the box score logit, the mask
logits and the three streams' verb logits, so each layer's gradient is
sigmoid(z) - y with no chain rule written by hand. The ranking hinge reads
the scores g = sigmoid(v + u), its margin in score units. Relation
training is one `RelationPass` per scene (pooling, encoder and EFRA) and
one forward-loss-backward loop over the stages in `relation_losses_multi`.

Gradient flow: planted feature grids are constants, so localization
gradients stop at the box and mask maps. Relation gradients flow through
each stage's relation, geometric and semantic layers, the
facial-attention layers and the geometric encoder: the layers inference
runs are the trained parameters. Box coordinates propagate between
stages as data only. A pair's predecessor visual tensor is its own (pairs
are built once from the merged instances), so from stage 2 on the
relation map reads x_v + x_v = 2 x_v, and the gradient flows through both
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import (
    CascadeConfig,
    Instance,
    box_delta_targets,
    iou_threshold,
    mask_cell_targets,
    mask_head_input,
    refine_stage,
    resample_for_stage,
    stage_weight,
)
from .errors import DataError
from .features import cooccurrence_prior, efra_attend_backward
from .formats import RunConfig, predictions_to_record
from .geometry import FeatureGrid, box_ious
from .interaction import (
    CascadeModel,
    classify_relation,
    enumerate_pairs,
    infer_image,
    rank_scores,
    run_localization,
    sample_training_pairs,
    total_loss,
)
from .numerics import binary_cross_entropy, pairwise_hinge_loss, sgd_step, smooth_l1
from .synth import SceneSpec, gt_pairs_of, render_feature_grid


def build_cooccurrence(scenes, spec: SceneSpec) -> np.ndarray:
    """The co-occurrence prior of the annotated triplets of `scenes`."""
    return cooccurrence_prior(((scene.entities[t.object].class_id, t.verb)
                               for scene in scenes for t in scene.triplets),
                              spec.n_classes, spec.n_verbs)


def prepare_grids(scenes, spec: SceneSpec, channels, grid_size):
    return {s.image_id: render_feature_grid(s, spec, channels, grid_size)
            for s in scenes}


def seed_instances(scene) -> list:
    out = []
    for i, prop in enumerate(scene.proposals):
        cls = scene.entities[prop.entity].class_id
        out.append(Instance(cls, 1.0, prop.box, stage_of_origin=0, lineage=i))
    return out


def localization_stage_step(model: CascadeModel, grid: FeatureGrid, proposals,
                            gt_instances, stage):
    """Loss and backward for one localization stage.

    The rows `resample_for_stage` labels (the stage's proposals, then its
    ground-truth boxes) go through the one batched `refine_stage` that
    inference runs, and the loss and backward read its deltas and score
    logits. A row's delta target maps its box onto its matched ground
    truth (exact zeros for a ground-truth row).
    In segment mode the mask loss reads `mask_head_input` on the positive
    rows' refined boxes, as `segment_stage` does. Returns (losses, refined
    instances for the next stage); refined ground-truth rows carry lineage
    -1 and keep flowing to deeper stages.
    """
    rows, match = resample_for_stage(proposals, gt_instances, iou_threshold(stage))
    head = model.box_heads[stage]
    losses = {"loc": 0.0}
    if model.segment:
        losses["seg"] = 0.0
    if not rows:
        return losses, []

    deltas, logits, refined = refine_stage(grid, rows, head, stage)
    bce, d_logits = binary_cross_entropy(logits, (match >= 0).astype(np.float64)[:, None])
    score_loss = bce / len(rows)
    pos = np.flatnonzero(match >= 0)
    reg_loss = 0.0
    d_deltas = np.zeros_like(deltas)
    if len(pos):
        targets = box_delta_targets([rows[i].box for i in pos],
                                    [gt_instances[match[i]].box for i in pos])
        sl1, d_diff = smooth_l1(deltas[pos] - targets)
        reg_loss = sl1 / len(pos)
        d_deltas[pos] = d_diff / len(pos)
    losses["loc"] = reg_loss + score_loss
    weight = stage_weight(stage)
    d_out = np.hstack([d_deltas, d_logits / len(rows)])
    head.backward(weight * d_out, input_grad=False)

    # the refined box is data to the mask loss, a stop-gradient by design
    masked = [i for i in pos if model.segment and refined[i] is not None
              and gt_instances[match[i]].mask is not None]
    if masked:
        feats = mask_head_input(grid, [refined[i].box for i in masked],
                                [rows[i].box for i in masked] if stage > 0 else None)
        targets14 = np.stack([mask_cell_targets(gt_instances[match[i]].mask, refined[i].box)
                              for i in masked])
        seg_head = model.seg_heads[stage]
        seg_bce, d_logits = binary_cross_entropy(seg_head.forward(feats), targets14)
        losses["seg"] = seg_bce / targets14.size
        seg_head.backward(weight / targets14.size * d_logits, input_grad=False)
    return losses, [inst for inst in refined if inst is not None]


class RelationPass:
    """The work the stages' relation losses share, on the features and
    layers inference runs: the sampled pairs of every stage are pooled by
    `CascadeModel.pool_pairs`, the geometric encoder runs once per distinct
    pair map and EFRA once per distinct pair (`visual_tensor`), and their
    outputs are gathered to one row per sampled pair, stage after stage.
    Backward takes the gradients of those rows, folds them back with one
    indexed add each, and runs EFRA's and the encoder's backward.
    """

    def __init__(self, model: CascadeModel, grid: FeatureGrid, stage_pairs):
        """stage_pairs: one list of `HOICandidate`s per stage, in stage
        order; `slices[t]` are stage t's rows."""
        self.model = model
        self.slices = []
        entries = []
        for pairs in stage_pairs:
            self.slices.append(slice(len(entries), len(entries) + len(pairs)))
            entries.extend(pairs)
        self.n = len(entries)
        self.pooled = model.pool_pairs(grid, entries)
        self.x_s = self.pooled.x_s[self.pooled.rows]

    def forward(self):
        model, pooled = self.model, self.pooled
        self.x_g = model.geo_encoder.forward(pooled.map_bits_rows,
                                             pooled.map_bits_cols)[pooled.map_rows]
        x_v, self.alpha, self.alpha_bar = model.visual_tensor(pooled)
        self.x_v = x_v[pooled.rows].reshape(self.n, -1)
        return self

    def backward(self, d_xv, d_xg):
        """Accumulate the EFRA and encoder gradients of the (n, 3C*49) and
        (n, 256) row gradients of x_v and x_g."""
        model, pooled = self.model, self.pooled
        # only the object stream o_bar = o + alpha * face + alpha_bar * noface
        # depends on trained layers, through the EFRA scores
        face, noface = pooled.face, pooled.noface
        d_obar = np.zeros((len(face), face[0].size))
        np.add.at(d_obar, pooled.rows, d_xv.reshape(self.n, 3, -1)[:, 1])
        d_alpha = (d_obar * face.reshape(len(face), -1)).sum(axis=1)
        d_alpha_bar = (d_obar * noface.reshape(len(face), -1)).sum(axis=1)
        efra_attend_backward(d_alpha, d_alpha_bar, self.alpha, self.alpha_bar,
                             model.face_attention, model.noface_attention)
        d_maps = np.zeros((len(pooled.map_bits_rows), d_xg.shape[1]))
        np.add.at(d_maps, pooled.map_rows, d_xg)
        model.geo_encoder.backward(d_maps)


def relation_losses_multi(model, grid: FeatureGrid, stage_batches, hinge_margin):
    """Ranking hinge plus three-stream BCE for every stage's sampled batch
    of one scene, and their backward. One `RelationPass` pools and encodes
    the pairs of all stages; then each stage runs its relation, geometric
    and semantic layers on its own rows, takes its losses and runs those
    layers' backward into its rows of the x_v and x_g gradients, which the
    pass's backward takes last. Returns the per-stage {"rrm", "rcm"}
    losses.

    The hinge reads the ranking scores g = sigmoid(v + u), its margin in
    score units; each BCE reads its stream's verb logits. Losses are
    normalized per pair/element so the learning rate stays stable across
    batch sizes; the stage weights (`stage_weight`) scale the gradients
    here.
    """
    out = [{"rrm": 0.0, "rcm": 0.0} for _ in stage_batches]
    stage_pairs = [b.all_pairs() for b in stage_batches]
    if not any(stage_pairs):
        return out
    rp = RelationPass(model, grid, stage_pairs).forward()
    d_xv = np.zeros_like(rp.x_v)
    d_xg = np.zeros_like(rp.x_g)
    for t, (batch, pairs, sl) in enumerate(zip(stage_batches, stage_pairs, rp.slices)):
        if not pairs:
            continue
        # the prior-stage tensor is the pair's own: zeros at stage 1, x_v
        # afterwards, so the map reads x_v + x_v and the gradient of x_v
        # flows through both terms
        mult = 1.0 if t == 0 else 2.0
        visual_map, geometric_map = model.visual_maps[t], model.geometric_maps[t]
        visual = visual_map.forward(mult * rp.x_v[sl])
        geometric = geometric_map.forward(rp.x_g[sl])
        g = rank_scores(visual, geometric)
        n_pos = len(batch.positives)
        hinge, d_pos, d_neg = pairwise_hinge_loss(g[:n_pos], g[n_pos:], hinge_margin)
        hinge_norm = max(n_pos * (len(g) - n_pos), 1)
        out[t]["rrm"] = hinge / hinge_norm
        weight = stage_weight(t)
        d_rank = np.concatenate([d_pos, d_neg]) * (weight / hinge_norm) * g * (1.0 - g)

        targets = np.zeros((len(pairs), model.n_verbs))
        targets[:n_pos] = batch.targets
        d_logits = []
        for logits in classify_relation(rp.x_s[sl], geometric, visual, model.semantic_heads[t]):
            bce, d = binary_cross_entropy(logits, targets)
            out[t]["rcm"] += bce / targets.size
            d_logits.append(weight * d / targets.size)
        d_zs, d_zg, d_zv = d_logits
        model.semantic_heads[t].backward(d_zs, input_grad=False)
        d_xg[sl] = geometric_map.backward(np.column_stack([d_rank, d_zg]))
        d_xv[sl] = mult * visual_map.backward(np.column_stack([d_rank, d_zv]))
    rp.backward(d_xv, d_xg)
    return out


SCENES_PER_STEP = 8  # image-centric batches: mean gradient over a few scenes


def scene_losses(model: CascadeModel, grid: FeatureGrid, scene, spec: SceneSpec, rng,
                 hinge_margin=None):
    """The per-stage losses of one scene, their gradients accumulated: the
    localization losses and, given the ranking `hinge_margin`, the
    relation losses (`relation_losses_multi`) of the pairs sampled from
    each stage's outputs."""
    gt = scene.gt_instances()
    with_relation = hinge_margin is not None
    gt_pairs = gt_pairs_of(scene, spec) if with_relation else None
    proposals = seed_instances(scene)
    stage_losses, stage_batches = [], []
    for t in range(model.config.stages):
        losses, proposals = localization_stage_step(model, grid, proposals, gt, t)
        stage_losses.append(losses)
        if with_relation:
            # detector outputs are the seed-lineage refinements; the
            # resampled ground-truth boxes only augment localization
            outputs = [inst for inst in proposals if inst.lineage >= 0]
            stage_batches.append(sample_training_pairs(
                enumerate_pairs(outputs, model.person_class), gt_pairs,
                iou_threshold(t), model.n_verbs, rng))
    if with_relation:
        for losses, relation in zip(stage_losses,
                                    relation_losses_multi(model, grid, stage_batches,
                                                          hinge_margin)):
            losses.update(relation)
    return stage_losses


@dataclass
class TrainLog:
    phase1: list = field(default_factory=list)  # per-epoch mean total loss
    phase2: list = field(default_factory=list)


def train_model(train_scenes, spec: SceneSpec, config: RunConfig, channels, grid_size,
                log=None) -> CascadeModel:
    """Phase 1 trains localization (and segmentation); phase 2 is the same
    loop with the relation losses added, under the weighted per-stage
    objective. `channels` and `grid_size` are the data's feature-grid
    geometry; the model keeps them for inference."""
    if not train_scenes:
        raise DataError("no training scenes")
    model = CascadeModel(spec.n_classes, spec.n_verbs, channels,
                         CascadeConfig(config.stages, config.merge_threshold),
                         seed=config.seed, person_class=spec.person_class,
                         segment=config.mode == "segment", grid_size=grid_size)
    model.cooccurrence = build_cooccurrence(train_scenes, spec)
    grids = prepare_grids(train_scenes, spec, channels, grid_size)
    if log is None:
        log = TrainLog()
    rng = np.random.default_rng([config.seed, 101])
    order = np.arange(len(train_scenes))
    for epochs, margin, epoch_log in ((config.phase1_epochs, None, log.phase1),
                                      (config.phase2_epochs, config.hinge_margin, log.phase2)):
        for _ in range(epochs):
            rng.shuffle(order)
            epoch_losses = []
            for start in range(0, len(order), SCENES_PER_STEP):
                step = [train_scenes[si] for si in order[start:start + SCENES_PER_STEP]]
                epoch_losses += [total_loss(scene_losses(model, grids[scene.image_id], scene,
                                                         spec, rng, margin), model.config)
                                 for scene in step]
                sgd_step(model.store, config.learning_rate / len(step))
            epoch_log.append(float(np.mean(epoch_losses)))
    return model


# ------------------------------------------------------- inference & eval

def infer_scenes(model: CascadeModel, scenes, spec: SceneSpec, config: RunConfig,
                 grids=None):
    """Predictions per scene, as NDJSON-ready records."""
    if grids is None:
        grids = prepare_grids(scenes, spec, model.channels, model.grid_size)
    records = []
    for scene in scenes:
        preds = infer_image(grids[scene.image_id], seed_instances(scene), model,
                            top_k=config.top_k)
        records.append(predictions_to_record(scene.image_id, preds,
                                             with_masks=model.segment))
    return records


def stage_mean_ious(model, scenes, spec, config=None, grids=None):
    """Mean best-IoU against ground truth of each stage's outputs. `config`
    is not read: grids are rendered with the model's own geometry."""
    if grids is None:
        grids = prepare_grids(scenes, spec, model.channels, model.grid_size)
    bests = [[] for _ in range(model.config.stages)]
    for scene in scenes:
        gt_boxes = [e.box for e in scene.entities]
        outputs = run_localization(grids[scene.image_id], seed_instances(scene), model)
        for t, stage in enumerate(outputs):
            bests[t].extend(box_ious([inst.box for inst in stage], gt_boxes)
                            .max(axis=1, initial=0.0))
    # a running sum in output order: np.sum adds pairwise and rounds differently
    return [float(np.cumsum(b)[-1] / len(b)) if b else 0.0 for b in bests]
