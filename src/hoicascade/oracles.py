"""Independent brute-force reference implementations and the equivalence
suite that checks the main path against them on seeded small instances.

Every oracle here is written with plain loops and its own arithmetic, on
purpose: none of them may call into the main modules they verify. Inputs
beyond the brute-force bounds (grids over 4x4, more than 10 predictions)
are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MAX_ORACLE_GRID = 4
MAX_ORACLE_PREDS = 10


def oracle_attention(h_grid):
    """Similarity attention and context by explicit double loops."""
    h_grid = np.asarray(h_grid, dtype=np.float64)
    c, gh, gw = h_grid.shape
    if gh > MAX_ORACLE_GRID or gw > MAX_ORACLE_GRID:
        raise DataError(f"attention oracle limited to {MAX_ORACLE_GRID}x{MAX_ORACLE_GRID} grids")
    p = gh * gw
    vecs = []
    for i in range(p):
        vecs.append([float(h_grid[ch, i // gw, i % gw]) for ch in range(c)])
    attn = [[0.0] * p for _ in range(p)]
    for i in range(p):
        z = 0.0
        for j in range(p):
            dot = sum(vecs[i][k] * vecs[j][k] for k in range(c))
            z += math.exp(dot)
        for j in range(p):
            dot = sum(vecs[i][k] * vecs[j][k] for k in range(c))
            attn[i][j] = math.exp(dot) / z
    out = np.zeros_like(h_grid)
    for i in range(p):
        ctx = [0.0] * c
        for j in range(p):
            for k in range(c):
                ctx[k] += attn[i][j] * vecs[j][k]
        for k in range(c):
            out[k, i // gw, i % gw] = vecs[i][k] + ctx[k]
    return out, np.array(attn)


def oracle_hinge(pos, neg, margin=0.2):
    """Pairwise ranking hinge by explicit double loop."""
    total = 0.0
    for p in pos:
        for n in neg:
            term = float(n) - float(p) + margin
            if term > 0.0:
                total += term
    return total


def oracle_fuse(s_v, s_g, s_s):
    """(s_v + s_g) * s_s one element at a time."""
    if not (len(s_v) == len(s_g) == len(s_s)):
        raise DataError("fusion oracle requires equal lengths")
    return np.array([(float(s_v[i]) + float(s_g[i])) * float(s_s[i])
                     for i in range(len(s_v))])


def _oracle_box_iou(a, b):
    # boxes as (x1, y1, x2, y2) tuples
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


@dataclass
class OracleTriplet:
    """Plain-tuple triplet for the matching/AP/recall oracles."""

    h_box: tuple
    o_box: tuple
    verb: int
    score: float = 0.0
    index: int = 0


def oracle_match(preds, gts, iou_threshold, assume_sorted=False):
    """Greedy matching on plain tuples; returns (flags, matched gt ids)."""
    if len(preds) > MAX_ORACLE_PREDS:
        raise DataError(f"matching oracle limited to {MAX_ORACLE_PREDS} predictions")
    if not assume_sorted:
        preds = sorted(preds, key=lambda p: (-p.score, p.index))
    used = set()
    flags = []
    for pred in preds:
        matched = -1
        for gi, gt in enumerate(gts):
            if gi in used or gt.verb != pred.verb:
                continue
            if (_oracle_box_iou(pred.h_box, gt.h_box) >= iou_threshold
                    and _oracle_box_iou(pred.o_box, gt.o_box) >= iou_threshold):
                matched = gi
                break
        if matched >= 0:
            used.add(matched)
            flags.append(True)
        else:
            flags.append(False)
    return flags, used


def oracle_average_precision(scored_flags, total_gt):
    """Area under the right-enveloped PR curve via Riemann increments."""
    if total_gt <= 0:
        raise DataError("AP oracle needs ground truth")
    ordered = sorted(scored_flags, key=lambda t: (-t[0], t[1]))
    if len(ordered) > MAX_ORACLE_PREDS:
        raise DataError(f"AP oracle limited to {MAX_ORACLE_PREDS} predictions")
    precisions, recalls = [], []
    tp = 0
    for rank, (_, _, flag) in enumerate(ordered, start=1):
        tp += int(flag)
        precisions.append(tp / rank)
        recalls.append(tp / total_gt)
    area = 0.0
    prev_recall = 0.0
    for i in range(len(ordered)):
        env = 0.0
        for j in range(i, len(ordered)):
            env = max(env, precisions[j])
        area += (recalls[i] - prev_recall) * env
        prev_recall = recalls[i]
    return area


def oracle_recall_at_k(preds_by_image, gts_by_image, geometric_verbs, k,
                       thresholds=(0.25, 0.5, 0.75)):
    """Mean over thresholds x {geometric, non-geometric} of matched-GT
    fractions using the image-wise top-k predictions."""
    geometric_verbs = set(geometric_verbs)
    values = []
    for thr in thresholds:
        counts = {True: [0, 0], False: [0, 0]}  # group -> [matched, total]
        for image_id, gts in gts_by_image.items():
            preds = sorted(preds_by_image.get(image_id, []),
                           key=lambda p: (-p.score, p.index))[:k]
            _, hit = oracle_match(preds, gts, thr, assume_sorted=True)
            for gi, gt in enumerate(gts):
                group = gt.verb in geometric_verbs
                counts[group][1] += 1
                if gi in hit:
                    counts[group][0] += 1
        for group in (True, False):
            matched, total = counts[group]
            if total > 0:
                values.append(matched / total)
    return sum(values) / len(values) if values else 0.0


# -------------------------------------------------------- equivalence suite

@dataclass
class EquivalenceReport:
    instances: int
    max_abs_diff: float = 0.0
    mismatches: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.mismatches and self.max_abs_diff <= 1e-10

    def note(self, kind, diff):
        self.max_abs_diff = max(self.max_abs_diff, diff)
        if diff > 1e-10:
            self.mismatches.append((kind, diff))


def _random_triplets(rng, n, n_verbs, as_preds):
    out = []
    for i in range(n):
        x1, y1 = rng.uniform(0, 10, 2)
        h = (float(x1), float(y1), float(x1 + rng.uniform(2, 6)), float(y1 + rng.uniform(2, 6)))
        x1, y1 = rng.uniform(0, 10, 2)
        o = (float(x1), float(y1), float(x1 + rng.uniform(2, 6)), float(y1 + rng.uniform(2, 6)))
        score = float(rng.uniform()) if as_preds else 0.0
        out.append(OracleTriplet(h, o, int(rng.integers(0, n_verbs)), score, i))
    return out


def run_equivalence_suite(n_instances=500, seed=0):
    """Compare the main path with the oracles on seeded small instances.

    Covers the similarity attention, the ranking hinge, score fusion,
    triplet matching, AP and R@K. Counting comparisons must be exact;
    real-valued ones must agree within 1e-10.
    """
    from .features import ihsm_enhance
    from .geometry import Box
    from .interaction import fuse_scores
    from .metrics import (TripletRecord, average_precision, match_triplets,
                          recall_at_k, sort_predictions)
    from .numerics import pairwise_hinge_loss

    rng = np.random.default_rng(seed)
    report = EquivalenceReport(instances=n_instances)
    n_verbs = 4
    for _ in range(n_instances):
        # attention
        grid = rng.normal(scale=0.8, size=(int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4))))
        main_out, main_attn = ihsm_enhance(grid)
        ref_out, ref_attn = oracle_attention(grid)
        report.note("attention", float(np.max(np.abs(main_out - ref_out))))
        report.note("attention", float(np.max(np.abs(main_attn - ref_attn))))

        # hinge
        pos = rng.uniform(size=rng.integers(0, 5))
        neg = rng.uniform(size=rng.integers(0, 5))
        main_loss, _, _ = pairwise_hinge_loss(pos, neg, 0.2)
        report.note("hinge", abs(main_loss - oracle_hinge(pos, neg, 0.2)))

        # fusion
        s_v, s_g, s_s = rng.uniform(size=(3, n_verbs))
        report.note("fusion", float(np.max(np.abs(
            fuse_scores(s_v, s_g, s_s) - oracle_fuse(s_v, s_g, s_s)))))

        # matching / AP / recall on one tiny synthetic image set
        gts = _random_triplets(rng, int(rng.integers(1, 6)), n_verbs, as_preds=False)
        preds = _random_triplets(rng, int(rng.integers(0, 11)), n_verbs, as_preds=True)
        # make some predictions real matches so TPs occur
        for pred in preds:
            if rng.uniform() < 0.5:
                gt = gts[int(rng.integers(0, len(gts)))]
                pred.h_box, pred.o_box, pred.verb = gt.h_box, gt.o_box, gt.verb
        main_preds = [TripletRecord(Box(*p.h_box), Box(*p.o_box), p.verb,
                                    p.score, p.index) for p in preds]
        main_gts = [TripletRecord(Box(*g.h_box), Box(*g.o_box), g.verb) for g in gts]
        thr = float(rng.choice([0.25, 0.5, 0.75]))
        main_flags = match_triplets(sort_predictions(main_preds), main_gts, thr)
        ref_flags, _ = oracle_match(preds, gts, thr)
        if main_flags != ref_flags:
            report.mismatches.append(("matching", 1.0))

        verb = int(rng.integers(0, n_verbs))
        total_gt = sum(1 for g in gts if g.verb == verb)
        if total_gt:
            flags = [(p.score, p.index, f) for p, f in
                     zip(sort_predictions(main_preds), main_flags) if p.verb == verb]
            main_ap = average_precision(flags, total_gt)
            ref_ap = oracle_average_precision(flags, total_gt)
            report.note("ap", abs(main_ap - ref_ap))

        k = int(rng.choice([1, 3, 5]))
        geo = {0, 1}
        main_recall = recall_at_k({"img": main_preds}, {"img": main_gts}, geo,
                                  ks=(k,), thresholds=(thr,)).at_k[k]
        ref_recall = oracle_recall_at_k({"img": preds}, {"img": gts}, geo, k, (thr,))
        report.note("recall", abs(main_recall - ref_recall))
    return report

