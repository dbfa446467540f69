"""Challenge evaluation: relation-detection mAP and relation-segmentation
Recall@K.

Matching is greedy over score-sorted predictions (ties broken by input
index): a prediction is a true positive iff its verb equals an unmatched
ground truth's verb and both the human and object regions reach the IoU
threshold; each ground truth matches at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataError
from .geometry import BitMask, Box, box_iou, mask_iou

DEFAULT_RECALL_KS = (20, 50, 100)
DEFAULT_RECALL_THRESHOLDS = (0.25, 0.5, 0.75)
GROUP_NAMES = ("geometric", "non_geometric")


@dataclass
class TripletRecord:
    """One scored (or ground-truth) <human, verb, object> triplet."""

    h_box: Box
    o_box: Box
    verb: int
    score: float = 0.0
    index: int = 0
    h_mask: BitMask | None = None
    o_mask: BitMask | None = None


def _pair_iou(pred: TripletRecord, gt: TripletRecord, mode):
    if mode == "mask":
        if (pred.h_mask is None or pred.o_mask is None
                or gt.h_mask is None or gt.o_mask is None):
            raise DataError("mask-mode matching requires masks on both sides")
        return (mask_iou(pred.h_mask, gt.h_mask), mask_iou(pred.o_mask, gt.o_mask))
    return (box_iou(pred.h_box, gt.h_box), box_iou(pred.o_box, gt.o_box))


def sort_predictions(preds):
    """Score-descending, input-index ascending; deterministic."""
    return sorted(preds, key=lambda p: (-p.score, p.index))


def _greedy_match(preds_sorted, gts, iou_threshold, mode):
    """Greedy first-fit matching; returns (tp flags per prediction,
    set of consumed ground-truth indices)."""
    matched = [False] * len(gts)
    flags = []
    for pred in preds_sorted:
        hit = False
        for gi, gt in enumerate(gts):
            if matched[gi] or gt.verb != pred.verb:
                continue
            iou_h, iou_o = _pair_iou(pred, gt, mode)
            if iou_h >= iou_threshold and iou_o >= iou_threshold:
                matched[gi] = True
                hit = True
                break
        flags.append(hit)
    return flags, {gi for gi, m in enumerate(matched) if m}


def match_triplets(preds_sorted, gts, iou_threshold=0.5, mode="box"):
    """TP flag per prediction (in the given order) for one image."""
    return _greedy_match(preds_sorted, gts, iou_threshold, mode)[0]


def precision_envelope(precisions):
    """Monotone non-increasing hull from the right."""
    env = list(precisions)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    return env


def average_precision(scored_flags, total_gt):
    """Area under the enveloped precision-recall curve.

    scored_flags: (score, index, tp) tuples across the whole dataset for
    one verb. Equals sum of enveloped precision at each TP, divided by the
    ground-truth count (exact 1.0 for a perfect run, exact 0.0 for none).
    """
    if total_gt <= 0:
        raise DataError("average precision undefined without ground truth")
    ordered = sorted(scored_flags, key=lambda t: (-t[0], t[1]))
    precisions = []
    tp = 0
    for rank, (_, _, flag) in enumerate(ordered, start=1):
        tp += int(flag)
        precisions.append(tp / rank)
    env = precision_envelope(precisions)
    hits = [env[i] for i, (_, _, flag) in enumerate(ordered) if flag]
    return float(sum(hits) / total_gt)


@dataclass
class MapReport:
    iou_threshold: float
    mode: str
    ap_per_verb: dict = field(default_factory=dict)   # verb -> AP
    zero_gt_verbs: list = field(default_factory=list)
    map_rel: float = 0.0


def map_rel(preds_by_image, gts_by_image, n_verbs, iou_threshold=0.5, mode="box"):
    """Mean average precision over verbs that have at least one ground
    truth; verbs without any are reported separately, never averaged.

    preds_by_image / gts_by_image: mapping image_id -> list[TripletRecord].
    """
    if n_verbs < 1:
        raise DataError("empty verb vocabulary")
    per_verb_flags = {v: [] for v in range(n_verbs)}
    gt_counts = {v: 0 for v in range(n_verbs)}
    for image_id, gts in gts_by_image.items():
        for gt in gts:
            gt_counts[gt.verb] += 1
    for image_id, preds in preds_by_image.items():
        gts = gts_by_image.get(image_id, [])
        ordered = sort_predictions(preds)
        flags = match_triplets(ordered, gts, iou_threshold, mode)
        for pred, flag in zip(ordered, flags):
            per_verb_flags[pred.verb].append((pred.score, pred.index, flag))
    report = MapReport(iou_threshold=iou_threshold, mode=mode)
    values = []
    for verb in range(n_verbs):
        if gt_counts[verb] == 0:
            report.zero_gt_verbs.append(verb)
            continue
        ap = average_precision(per_verb_flags[verb], gt_counts[verb])
        report.ap_per_verb[verb] = ap
        values.append(ap)
    report.map_rel = float(sum(values) / len(values)) if values else 0.0
    return report


@dataclass
class RecallReport:
    ks: tuple
    thresholds: tuple
    mode: str
    # k -> {(threshold, group_name): recall}
    table: dict = field(default_factory=dict)
    # k -> mean over thresholds x groups
    at_k: dict = field(default_factory=dict)
    mean: float = 0.0


def recall_at_k(preds_by_image, gts_by_image, geometric_verbs,
                ks=DEFAULT_RECALL_KS, thresholds=DEFAULT_RECALL_THRESHOLDS,
                mode="box"):
    """Recall of ground-truth triplets among each image's top-K predictions,
    averaged over the two relation groups and the IoU thresholds.

    geometric_verbs: set of verb ids in the geometric group; the rest are
    non-geometric. Groups without any ground truth in the whole dataset are
    skipped from the average.
    """
    geometric_verbs = set(geometric_verbs)
    report = RecallReport(ks=tuple(ks), thresholds=tuple(thresholds), mode=mode)
    for k in ks:
        cell = {}
        for thr in thresholds:
            matched = {g: 0 for g in GROUP_NAMES}
            totals = {g: 0 for g in GROUP_NAMES}
            for image_id, gts in gts_by_image.items():
                preds = sort_predictions(preds_by_image.get(image_id, []))[:k]
                _, hit_gts = _greedy_match(preds, gts, thr, mode)
                for gi, gt in enumerate(gts):
                    group = GROUP_NAMES[0] if gt.verb in geometric_verbs else GROUP_NAMES[1]
                    totals[group] += 1
                    if gi in hit_gts:
                        matched[group] += 1
            for group in GROUP_NAMES:
                if totals[group] > 0:
                    cell[(thr, group)] = matched[group] / totals[group]
        report.table[k] = cell
        report.at_k[k] = float(sum(cell.values()) / len(cell)) if cell else 0.0
    report.mean = float(sum(report.at_k.values()) / len(report.at_k)) if report.at_k else 0.0
    return report


# ------------------------------------------------------------- reporting

def report_to_dict(map_report: MapReport | None, recall_report: RecallReport | None):
    out = {}
    if map_report is not None:
        out["map_rel"] = {
            "iou_threshold": map_report.iou_threshold,
            "mode": map_report.mode,
            "value": map_report.map_rel,
            "ap_per_verb": {str(k): v for k, v in sorted(map_report.ap_per_verb.items())},
            "zero_gt_verbs": list(map_report.zero_gt_verbs),
        }
    if recall_report is not None:
        table = {}
        for k, cell in recall_report.table.items():
            table[str(k)] = {f"{thr}/{group}": val
                             for (thr, group), val in sorted(cell.items())}
        out["recall_at_k"] = {
            "mode": recall_report.mode,
            "thresholds": list(recall_report.thresholds),
            "table": table,
            "at_k": {str(k): v for k, v in sorted(recall_report.at_k.items())},
            "mean": recall_report.mean,
        }
    return out


def format_report_table(map_report: MapReport | None, recall_report: RecallReport | None):
    """Aligned plain-text rendering of the metric report."""
    lines = []
    if map_report is not None:
        lines.append(f"mAP_rel (IoU {map_report.iou_threshold}, {map_report.mode})"
                     f" = {map_report.map_rel:.4f}")
        lines.append(f"{'verb':>6}  {'AP':>8}")
        for verb, ap in sorted(map_report.ap_per_verb.items()):
            lines.append(f"{verb:>6}  {ap:>8.4f}")
        if map_report.zero_gt_verbs:
            lines.append(f"verbs without ground truth: {map_report.zero_gt_verbs}")
    if recall_report is not None:
        header = f"{'K':>5} " + " ".join(
            f"{f'{thr}/{grp[:7]}':>13}" for thr in recall_report.thresholds
            for grp in GROUP_NAMES) + f" {'mean':>8}"
        lines.append(header)
        for k in recall_report.ks:
            cell = recall_report.table[k]
            row = f"{k:>5} "
            for thr in recall_report.thresholds:
                for grp in GROUP_NAMES:
                    val = cell.get((thr, grp))
                    row += f"{val:>13.4f} " if val is not None else f"{'-':>13} "
            row += f"{recall_report.at_k[k]:>8.4f}"
            lines.append(row)
        lines.append(f"grand mean R@K = {recall_report.mean:.4f}")
    return "\n".join(lines) + "\n"
