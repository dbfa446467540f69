"""Multi-stage instance localization: per-stage box maps that regress and
rescore boxes, with increasing-IoU resampling, optional mask maps, and
cross-stage proposal merging/filtering.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .geometry import BitMask, Box, FeatureGrid, box_array, box_ious, roi_align
from .numerics import FCLayer, sigmoid

log = logging.getLogger(__name__)

POOLED_HW = (7, 7)
MASK_POOLED_HW = (14, 14)
MASK_LOGIT_DIM = MASK_POOLED_HW[0] * MASK_POOLED_HW[1]
MAX_STAGES = 5  # a sixth stage would train at IoU 1.0


def iou_threshold(t):
    """The IoU at which stage t (from 0) labels its proposals positive:
    0.5, 0.6, ... rising a tenth per stage."""
    return round(0.5 + 0.1 * t, 2)


def stage_weight(t):
    """The weight of stage t's box, mask and relation losses: 1, 0.5,
    0.25, ... halving per stage."""
    return 0.5 ** t


@dataclass
class Instance:
    """A detected entity at some cascade stage."""

    class_id: int
    confidence: float
    box: Box
    mask: BitMask | None = None
    stage_of_origin: int = 0
    lineage: int = -1  # index of the seed proposal this instance refines

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise DataError(f"confidence {self.confidence} outside [0, 1]")


@dataclass
class CascadeConfig:
    """What inference reads of the cascade: the stage count and the
    confidence cutoff of the cross-stage merge. The training schedule per
    stage is `iou_threshold` and `stage_weight`."""

    stages: int = 3
    merge_threshold: float = 0.3

    def __post_init__(self):
        t, m = self.stages, self.merge_threshold
        if type(t) is not int or not 1 <= t <= MAX_STAGES:
            raise DataError(f"key 'stages': stage count must be an integer in "
                            f"[1, {MAX_STAGES}], got {t!r}")
        if type(m) not in (int, float) or not 0.0 <= m <= 1.0:
            raise DataError(f"key 'merge_threshold': merge threshold must be a number "
                            f"in [0, 1], got {m!r}")


HEAD_INIT_SCALE = 0.01  # near-zero head init keeps early refinements tame


def head_layer(in_dim, out_dim, rng):
    """A linear layer whose initial weights are HEAD_INIT_SCALE of
    `FCLayer`'s: the box and mask maps of each stage."""
    layer = FCLayer(in_dim, out_dim, rng)
    layer.w.value *= HEAD_INIT_SCALE
    return layer


def decode_boxes(boxes, deltas, width, height):
    """Decode (n, 4) deltas against n boxes (a list or an (n, 4) array):
    cx' = cx + dx*w, cy' = cy + dy*h, w' = w*exp(dw), h' = h*exp(dh), then
    clip to the width x height image. Returns the (n, 4) clipped boxes and
    an (n,) keep mask: more than 1 px wide and high before and after the clip."""
    b, d = box_array(boxes), np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    size = b[:, 2:] - b[:, :2]
    center = 0.5 * (b[:, :2] + b[:, 2:]) + d[:, :2] * size
    size = size * np.exp(np.clip(d[:, 2:], -8.0, 8.0))
    out = np.hstack([np.maximum(center - size / 2, 0.0),
                     np.minimum(center + size / 2, [float(width), float(height)])])
    keep = (size > 1.0).all(axis=1) & (out[:, 2:] - out[:, :2] > 1.0).all(axis=1)
    return out, keep


def box_delta_targets(src, dst):
    """Inverse of `decode_boxes` before the clip: the (n, 4) deltas mapping
    each of n boxes src onto the same row of dst (lists or (n, 4) arrays)."""
    s, d = box_array(src), box_array(dst)
    size = s[:, 2:] - s[:, :2]
    return np.hstack([(0.5 * (d[:, :2] + d[:, 2:]) - 0.5 * (s[:, :2] + s[:, 2:])) / size,
                      np.log((d[:, 2:] - d[:, :2]) / size)])


def refine_stage(grid: FeatureGrid, instances, head: FCLayer, stage):
    """One refinement step of a whole stage, shared by training and
    inference: pool every instance box, take the 4 box deltas and the score
    logit of all rows from one call of the stage's box map `head` (C*49 ->
    5), then decode and clip them in one `decode_boxes` call.

    Returns (deltas (n, 4), logits (n, 1), refined), the logits being
    column 4. refined[i] is instance i on its refined box with the sigmoid
    of its logit as the new confidence and stage_of_origin stage + 1, or
    None (logged) when that box degenerates. Training takes its losses
    from deltas and logits; inference keeps the survivors.
    """
    boxes = [inst.box for inst in instances]
    out = head.forward(roi_align(grid, boxes, POOLED_HW).reshape(len(boxes), -1))
    deltas, logits = out[:, :4], out[:, 4:]
    decoded, keep = decode_boxes(boxes, deltas, grid.image_width, grid.image_height)
    refined = []
    for inst, box, ok, score in zip(instances, decoded.tolist(), keep, sigmoid(logits[:, 0])):
        if ok:
            refined.append(replace(inst, box=Box(*box), confidence=float(score),
                                   stage_of_origin=stage + 1))
        else:
            log.info("dropping degenerate refinement of %s at stage %d", inst.box, stage + 1)
            refined.append(None)
    return deltas, logits, refined


def rasterize_mask_into_box(cell_bits, box: Box, width, height) -> BitMask:
    """Paint a cell grid (e.g. 14x14) into the box at image resolution."""
    cells = np.asarray(cell_bits, dtype=bool)
    gh, gw = cells.shape
    bits = np.zeros((height, width), dtype=bool)
    x1 = max(int(np.floor(box.x1)), 0)
    x2 = min(int(np.ceil(box.x2)), width)
    y1 = max(int(np.floor(box.y1)), 0)
    y2 = min(int(np.ceil(box.y2)), height)
    if x2 <= x1 or y2 <= y1:
        return BitMask(bits)
    ys = np.arange(y1, y2)
    xs = np.arange(x1, x2)
    rows = np.floor((ys + 0.5 - box.y1) / box.height * gh).astype(int)
    cols = np.floor((xs + 0.5 - box.x1) / box.width * gw).astype(int)
    ok_r = (rows >= 0) & (rows < gh)
    ok_c = (cols >= 0) & (cols < gw)
    if ok_r.any() and ok_c.any():
        bits[np.ix_(ys[ok_r], xs[ok_c])] = cells[np.ix_(rows[ok_r], cols[ok_c])]
    return BitMask(bits)


def mask_head_input(grid: FeatureGrid, boxes, prev_boxes=None):
    """(n, C*14*14) mask-head rows: the pooled refined box of each instance,
    plus, from stage 2 on, the pooled box it was refined from, both halves
    from one RoIAlign call."""
    pooled = roi_align(grid, list(boxes) + list(prev_boxes or []), MASK_POOLED_HW)
    rows = pooled.reshape(len(pooled), -1)
    return rows if prev_boxes is None else rows[:len(boxes)] + rows[len(boxes):]


def mask_cell_targets(gt_mask: BitMask, box: Box):
    """Flat 14x14 mask-head targets: the ground-truth mask sampled at the
    cell centers of a box."""
    gh, gw = MASK_POOLED_HW
    xs = box.x1 + (np.arange(gw) + 0.5) * box.width / gw
    ys = box.y1 + (np.arange(gh) + 0.5) * box.height / gh
    px = np.clip(xs.astype(int), 0, gt_mask.width - 1)
    py = np.clip(ys.astype(int), 0, gt_mask.height - 1)
    return gt_mask.bits[np.ix_(py, px)].astype(np.float64).ravel()


def segment_stage(grid: FeatureGrid, instances, head: FCLayer, prev_boxes=None):
    """Masks for a stage's refined instances from one call of the stage's
    mask map `head` (C*196 -> 196 logits).

    prev_boxes, from stage 2 on, are the boxes the instances were refined
    from. Logits are thresholded at 0.5 after sigmoid; if every cell of an
    instance falls below the threshold its single max-logit cell is kept,
    so no instance loses its mask. Returns the instances with masks.
    """
    logits = head.forward(mask_head_input(grid, [inst.box for inst in instances], prev_boxes))
    out = []
    for inst, row in zip(instances, logits):
        cells = sigmoid(row).reshape(MASK_POOLED_HW) > 0.5
        if not cells.any():
            flat = int(np.argmax(row))
            cells[flat // MASK_POOLED_HW[1], flat % MASK_POOLED_HW[1]] = True
        mask = rasterize_mask_into_box(cells, inst.box, grid.image_width, grid.image_height)
        if not mask.any():
            # Box smaller than a pixel footprint; mark its center pixel.
            cx, cy = inst.box.center
            bits = np.zeros((grid.image_height, grid.image_width), dtype=bool)
            bits[min(int(cy), grid.image_height - 1), min(int(cx), grid.image_width - 1)] = True
            mask = BitMask(bits)
        out.append(replace(inst, mask=mask))
    return out


def resample_for_stage(proposals, gt_instances, iou_threshold):
    """A localization stage's training rows and their labels, from one IoU
    matrix: (rows, match), rows the proposals, then one Instance per
    ground-truth box; match[i] the first ground truth of highest IoU with
    proposal i when that IoU reaches the threshold, else -1 (negative).
    Ground-truth rows match themselves."""
    if not 0.0 < iou_threshold < 1.0:
        raise DataError(f"stage IoU threshold {iou_threshold} outside (0, 1)")
    rows = list(proposals) + [Instance(g.class_id, 1.0, g.box) for g in gt_instances]
    match = np.concatenate([np.full(len(proposals), -1), np.arange(len(gt_instances))])
    if proposals and gt_instances:
        ious = box_ious([p.box for p in proposals], [g.box for g in gt_instances])
        match[:len(proposals)] = np.where(ious.max(axis=1) >= iou_threshold,
                                          ious.argmax(axis=1), -1)
    return rows, match


def merge_and_filter(per_stage_outputs, threshold=0.3) -> list[Instance]:
    """Concatenate all stages' instances and drop low-confidence ones.

    Order is deterministic: stage first, then input order within a stage.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"confidence threshold {threshold} outside [0, 1]")
    merged = []
    for stage_instances in per_stage_outputs:
        for inst in stage_instances:
            if inst.confidence >= threshold:
                merged.append(inst)
    return merged


def dedup_by_lineage(instances) -> list[Instance]:
    """Keep the latest-stage survivor of each refinement lineage.

    Merged stage outputs contain one instance per (stage, seed proposal);
    evaluating them all as separate detections floods the metrics with
    near-duplicate triplets, so pair building keeps only the deepest
    refinement of each seed.
    """
    best: dict[int, Instance] = {}
    order: list[int] = []
    for inst in instances:
        cur = best.get(inst.lineage)
        if cur is None:
            order.append(inst.lineage)
            best[inst.lineage] = inst
        elif inst.stage_of_origin > cur.stage_of_origin:
            best[inst.lineage] = inst
    return [best[k] for k in order]
