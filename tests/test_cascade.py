from dataclasses import fields, replace

import numpy as np
import pytest

from hoicascade import cascade, interaction
from hoicascade.cascade import (
    MASK_POOLED_HW,
    MAX_STAGES,
    POOLED_HW,
    CascadeConfig,
    Instance,
    MASK_LOGIT_DIM,
    box_delta_targets,
    decode_boxes,
    dedup_by_lineage,
    head_layer,
    iou_threshold,
    mask_head_input,
    merge_and_filter,
    rasterize_mask_into_box,
    refine_stage,
    resample_for_stage,
    segment_stage,
    stage_weight,
)
from hoicascade.errors import DataError
from hoicascade.features import cooccurrence_prior
from hoicascade.formats import RunConfig
from hoicascade.geometry import BitMask, Box, FeatureGrid, box_iou, roi_align
from hoicascade.numerics import FCLayer, sigmoid


def make_grid(c=3, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureGrid.from_array(rng.normal(size=(c, size, size)))


def box_head(seed, channels=3):
    """A stage's box map: 4 deltas and a score logit per pooled box."""
    return head_layer(channels * POOLED_HW[0] * POOLED_HW[1], 5, np.random.default_rng(seed))


def mask_head(seed, channels=3):
    return head_layer(channels * MASK_LOGIT_DIM, MASK_LOGIT_DIM, np.random.default_rng(seed))


def zero_head(channels=3):
    head = box_head(0, channels)
    head.w.value[...] = 0.0
    head.b.value[...] = 0.0
    return head


class TestCascadeConfig:
    def test_defaults_match_protocol_constants(self):
        cfg = CascadeConfig()
        assert [f.name for f in fields(cfg)] == ["stages", "merge_threshold"]
        assert (cfg.stages, cfg.merge_threshold) == (3, 0.3)

    @pytest.mark.parametrize("stages", [0, MAX_STAGES + 1, 2.0])
    def test_stage_count_outside_one_to_five_rejected(self, stages):
        with pytest.raises(DataError, match=r"stage count must be an integer in \[1, 5\]"):
            CascadeConfig(stages=stages)
        if type(stages) is int:
            with pytest.raises(DataError, match=r"config key 'stages' must be in \[1, 5\]"):
                RunConfig(stages=stages)

    def test_one_to_five_stages_accepted(self):
        assert MAX_STAGES == 5
        for stages in range(1, MAX_STAGES + 1):
            assert CascadeConfig(stages=stages).stages == RunConfig(stages=stages).stages


class TestStageSchedule:
    def test_iou_thresholds_rise_a_tenth_per_stage(self):
        assert [iou_threshold(t) for t in range(MAX_STAGES)] == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_stage_weights_halve_per_stage(self):
        assert [stage_weight(t) for t in range(MAX_STAGES)] == [1.0, 0.5, 0.25, 0.125, 0.0625]


class TestRefineStage:
    def test_zero_head_keeps_box_and_half_confidence(self):
        grid = make_grid()
        inst = Instance(1, 0.9, Box(2, 2, 8, 9), lineage=0)
        _, _, [out] = refine_stage(grid, [inst], zero_head(), 0)
        assert out.box == inst.box
        assert out.confidence == 0.5
        assert out.stage_of_origin == 1
        # idempotent under the zero head
        _, _, [again] = refine_stage(grid, [out], zero_head(), 1)
        assert again.box == inst.box
        assert again.stage_of_origin == 2

    def test_dx_shifts_center(self):
        [shifted], [keep] = decode_boxes([Box(0, 0, 10, 10)], [[0.1, 0.0, 0.0, 0.0]], 64, 64)
        assert keep and shifted.tolist() == [1.0, 0.0, 11.0, 10.0]

    def test_dw_doubles_width(self):
        [wider], [keep] = decode_boxes(np.array([[10.0, 0.0, 20.0, 10.0]]),
                                       [[0.0, 0.0, np.log(2.0), 0.0]], 64, 64)
        assert keep
        np.testing.assert_allclose(wider, [5.0, 0.0, 25.0, 10.0])

    def test_delta_roundtrip(self):
        rng = np.random.default_rng(3)
        corners = rng.uniform(0, 5, (2, 25, 2))
        src, dst = np.concatenate([corners, corners + rng.uniform(2, 8, (2, 25, 2))], axis=2)
        back, keep = decode_boxes(src, box_delta_targets(src, dst), 64, 64)
        assert keep.all()
        np.testing.assert_allclose(back, dst, atol=1e-9)

    def test_degenerate_refinement_dropped(self):
        grid = make_grid()
        head = zero_head()
        head.b.value[:4] = [0.0, 0.0, -9.0, 0.0]  # shrink to nothing
        inst = Instance(1, 0.9, Box(2, 2, 8, 8))
        assert refine_stage(grid, [inst], head, 0)[2] == [None]


def decode_one(box, deltas, width, height):
    """Per-row reference of decode_boxes: the center/log-size decode of
    one box in scalar arithmetic, then the clip; None when either side of
    either box is at most 1 px."""
    dx, dy, dw, dh = (float(v) for v in deltas)
    (cx, cy), w, h = box.center, box.width, box.height
    cx, cy = cx + dx * w, cy + dy * h
    w, h = w * np.exp(np.clip(dw, -8.0, 8.0)), h * np.exp(np.clip(dh, -8.0, 8.0))
    if w <= 1.0 or h <= 1.0:
        return None
    x1, y1 = max(cx - w / 2, 0.0), max(cy - h / 2, 0.0)
    x2, y2 = min(cx + w / 2, width), min(cy + h / 2, height)
    if x2 - x1 <= 1.0 or y2 - y1 <= 1.0:
        return None
    return (x1, y1, x2, y2)


class TestDecodeBoxes:
    def test_matches_per_row_reference_across_each_image_edge(self):
        width, height = 32, 24
        boxes = [Box(1, 5, 9, 15),      # moves past the left edge
                 Box(5, 1, 15, 9),      # grows past the top edge
                 Box(25, 5, 31, 15),    # moves and grows past the right edge
                 Box(5, 18, 15, 23),    # grows past the bottom edge
                 Box(-4, -3, 40, 30),   # crosses all four
                 Box(10, 10, 14, 14),   # stays inside
                 Box(10, 10, 14, 14),   # moves off the image: degenerate after the clip
                 Box(10, 10, 14, 14)]   # shrinks to nothing: degenerate before the clip
        deltas = [[-0.3, 0.0, 0.0, 0.0], [0.0, -0.1, 0.2, 0.4], [0.2, 0.0, 0.1, 0.0],
                  [0.0, 0.1, 0.0, 0.3], [0.0, 0.0, 0.0, 0.0], [0.1, -0.2, -0.3, 0.2],
                  [10.0, 0.0, 0.0, 0.0], [0.0, 0.0, -9.0, 0.0]]
        got, keep = decode_boxes(boxes, np.array(deltas), width, height)
        expected = [decode_one(b, d, width, height) for b, d in zip(boxes, deltas)]
        assert got.shape == (8, 4) and keep.tolist() == [e is not None for e in expected]
        assert keep.tolist() == [True] * 6 + [False] * 2
        # the same arithmetic in the same order: equal bit for bit
        assert got[keep].tolist() == [list(e) for e in expected if e is not None]
        # each edge clips the box that crosses it
        assert (got[0, 0], got[1, 1], got[2, 2], got[3, 3]) == (0.0, 0.0, width, height)
        assert got[4].tolist() == [0.0, 0.0, width, height]

    def test_exactly_one_pixel_wide_before_the_clip_dropped(self):
        # a 1 px box moved across x = 16: its decoded width is exactly 1.0,
        # but its corners round to more than 1 px apart, so only the rule on
        # the unclipped size drops it
        boxes = [Box(15, 10, 16, 14), Box(10, 15, 14, 16), Box(15, 10, 16.5, 14)]
        deltas = [[0.03, 0.0, 0.0, 0.0], [0.0, 0.03, 0.0, 0.0], [0.02, 0.0, 0.0, 0.0]]
        got, keep = decode_boxes(boxes, np.array(deltas), 32, 32)
        assert got[0, 2] - got[0, 0] > 1.0 and got[1, 3] - got[1, 1] > 1.0
        assert keep.tolist() == [False, False, True]

    def test_exactly_one_pixel_wide_after_the_clip_dropped(self):
        boxes = [Box(-2, 10, 1, 14), Box(31, 10, 34, 14), Box(10, 31, 14, 40),
                 Box(-2, 10, 1.5, 14)]
        got, keep = decode_boxes(boxes, np.zeros((4, 4)), 32, 32)
        assert got[:3].tolist() == [[0, 10, 1, 14], [31, 10, 32, 14], [10, 31, 14, 32]]
        assert keep.tolist() == [False, False, False, True]

    def test_no_rows(self):
        got, keep = decode_boxes([], np.zeros((0, 4)), 32, 32)
        assert got.shape == (0, 4) and keep.shape == (0,)


class TestSegmentStage:
    def test_positive_logits_fill_box(self):
        grid = make_grid(size=32)
        head = mask_head(0)
        head.w.value[...] = 0.0
        head.b.value[...] = 5.0
        inst = Instance(1, 0.9, Box(4, 4, 20, 24), stage_of_origin=1)
        [out] = segment_stage(grid, [inst], head)
        assert out.mask is not None
        inside = out.mask.bbox()
        assert box_iou(inside, inst.box) > 0.8

    def test_zero_weights_single_cell_fallback(self):
        grid = make_grid(size=32)
        head = mask_head(0)
        head.w.value[...] = 0.0
        head.b.value[...] = 0.0
        inst = Instance(1, 0.9, Box(4, 4, 18, 18), stage_of_origin=1)
        [out] = segment_stage(grid, [inst], head)
        # argmax of an all-zero logit vector is cell 0: top-left corner only
        assert out.mask.any()
        expected_cells = np.zeros((14, 14), dtype=bool)
        expected_cells[0, 0] = True
        ref = rasterize_mask_into_box(expected_cells, inst.box, 32, 32)
        assert out.mask == ref

    def test_checkerboard_vs_rasterization_oracle(self):
        cells = np.indices((14, 14)).sum(axis=0) % 2 == 0
        box = Box(3.0, 5.0, 17.0, 19.0)
        mask = rasterize_mask_into_box(cells, box, 24, 24)
        for py in range(24):
            for px in range(24):
                cx, cy = px + 0.5, py + 0.5
                inside = box.x1 <= cx < box.x2 and box.y1 <= cy < box.y2
                if not inside:
                    assert not mask.bits[py, px]
                else:
                    row = int((cy - box.y1) / box.height * 14)
                    col = int((cx - box.x1) / box.width * 14)
                    assert mask.bits[py, px] == cells[row, col]

    def test_prev_pooled_shifts_logits(self):
        grid = make_grid(size=32, seed=5)
        head = mask_head(1)
        inst = Instance(1, 0.9, Box(4, 4, 20, 20), stage_of_origin=2)
        [a] = segment_stage(grid, [inst], head)
        [b] = segment_stage(grid, [inst], head, prev_boxes=[Box(10, 2, 30, 26)])
        assert a.mask != b.mask


def test_mask_head_input_pools_both_halves_in_one_call(monkeypatch):
    grid = FeatureGrid(np.random.default_rng(2).normal(size=(3, 16, 16)), 32, 32)
    boxes, prev = [Box(2, 3, 12, 20), Box(14, 6, 31, 14)], [Box(1, 1, 20, 20), Box(10, 4, 28, 18)]
    want = (roi_align(grid, boxes, MASK_POOLED_HW).reshape(2, -1)
            + roi_align(grid, prev, MASK_POOLED_HW).reshape(2, -1))
    calls = []
    monkeypatch.setattr(cascade, "roi_align", lambda *a: calls.append(a) or roi_align(*a))
    got = mask_head_input(grid, boxes, prev)
    assert len(calls) == 1 and got.tobytes() == want.tobytes()
    assert mask_head_input(grid, boxes).tobytes() == roi_align(grid, boxes,
                                                               MASK_POOLED_HW).tobytes()


def refine_one(grid, inst, head):
    """One-instance refinement, the reference for the batched refine_stage."""
    out = head.forward(roi_align(grid, [inst.box], POOLED_HW).reshape(1, -1))
    [box], [keep] = decode_boxes([inst.box], out[:, :4], grid.image_width, grid.image_height)
    if not keep:
        return None
    return replace(inst, box=Box(*box), confidence=float(sigmoid(out[0, 4])),
                   stage_of_origin=inst.stage_of_origin + 1)


def segment_one(grid, inst, head, prev_box=None):
    """One-instance segmentation, the reference for the batched segment_stage."""
    total = roi_align(grid, [inst.box], MASK_POOLED_HW).reshape(1, -1)
    if prev_box is not None:
        total = total + roi_align(grid, [prev_box], MASK_POOLED_HW).reshape(1, -1)
    logits = head.forward(total)[0]
    cells = sigmoid(logits).reshape(MASK_POOLED_HW) > 0.5
    if not cells.any():
        flat = int(np.argmax(logits))
        cells[flat // MASK_POOLED_HW[1], flat % MASK_POOLED_HW[1]] = True
    mask = rasterize_mask_into_box(cells, inst.box, grid.image_width, grid.image_height)
    if not mask.any():
        cx, cy = inst.box.center
        bits = np.zeros((grid.image_height, grid.image_width), dtype=bool)
        bits[min(int(cy), grid.image_height - 1), min(int(cx), grid.image_width - 1)] = True
        mask = BitMask(bits)
    return replace(inst, mask=mask)


def stage_instances():
    """A stage of five instances on a 32 x 32 image; the fourth lies right
    of the image, so clipping leaves it degenerate."""
    boxes = [Box(2, 2, 12, 22), Box(14, 6, 22, 14), Box(5.5, 18.25, 29, 31),
             Box(36, 4, 44, 12), Box(0, 0, 32, 32)]
    return [Instance(i % 3, 1.0, box, stage_of_origin=1, lineage=i)
            for i, box in enumerate(boxes)]


def loc_model(seed=0, **kw):
    model = interaction.CascadeModel(n_classes=3, n_verbs=4, channels=3, seed=seed, **kw)
    model.cooccurrence = cooccurrence_prior([(1, 0), (1, 2), (2, 3)], 3, 4)
    return model


class TestOneLocalizationPath:
    """The batched per-stage refinement and segmentation against the
    one-instance-at-a-time reference, and the calls they make per image."""

    def test_refine_stage_matches_one_instance_reference(self):
        grid = FeatureGrid(np.random.default_rng(1).normal(size=(3, 16, 16)), 32, 32)
        head = box_head(2)
        head.w.value[:4] *= 30.0  # refinements that move the boxes
        instances = stage_instances()
        deltas, logits, refined = refine_stage(grid, instances, head, 1)
        assert deltas.shape == (5, 4) and logits.shape == (5, 1)
        expected = [refine_one(grid, inst, head) for inst in instances]
        assert [r is None for r in refined] == [False, False, False, True, False]
        assert [e is None for e in expected] == [r is None for r in refined]
        for got, ref in zip(refined, expected):
            if got is None:
                continue
            assert got.box != instances[got.lineage].box
            assert (got.class_id, got.lineage, got.stage_of_origin) == (
                ref.class_id, ref.lineage, 2)
            np.testing.assert_allclose(got.box.as_tuple(), ref.box.as_tuple(), atol=1e-12)
            np.testing.assert_allclose(got.confidence, ref.confidence, atol=1e-12)
            assert got.confidence == float(sigmoid(logits[got.lineage, 0]))

    @pytest.mark.parametrize("with_prev", [False, True])
    def test_segment_stage_matches_one_instance_reference(self, with_prev):
        grid = FeatureGrid(np.random.default_rng(3).normal(size=(3, 16, 16)), 32, 32)
        head = mask_head(4)
        head.w.value *= 20.0
        instances = [inst for i, inst in enumerate(stage_instances()) if i != 3]
        instances.append(Instance(1, 1.0, Box(10.2, 10.2, 10.6, 10.6), lineage=5))
        prev = [Box(1, 1, 20, 20)] * len(instances) if with_prev else None
        got = segment_stage(grid, instances, head, prev)
        expected = [segment_one(grid, inst, head, prev[0] if with_prev else None)
                    for inst in instances]
        assert [g.mask for g in got] == [e.mask for e in expected]
        assert [g.box for g in got] == [inst.box for inst in instances]
        assert got[-1].mask.bits.sum() == 1  # sub-pixel box: its center pixel

    @pytest.mark.parametrize("segment", [False, True])
    def test_run_localization_matches_one_instance_reference(self, segment):
        model = loc_model(seed=9, segment=segment)
        for head in model.box_heads:
            head.w.value[:4] *= 30.0
        for head in model.seg_heads:
            head.w.value *= 20.0
        grid = FeatureGrid(np.random.default_rng(10).normal(size=(3, 16, 16)), 32, 32)
        expected, current = [], [replace(inst, stage_of_origin=0) for inst in stage_instances()]
        for t in range(model.config.stages):
            nxt = []
            for inst in current:
                out = refine_one(grid, inst, model.box_heads[t])
                if out is not None and segment:
                    out = segment_one(grid, out, model.seg_heads[t], inst.box if t > 0 else None)
                if out is not None:
                    nxt.append(out)
            expected.append(nxt)
            current = nxt
        got = interaction.run_localization(grid, stage_instances(), model)
        assert [len(stage) for stage in got] == [len(stage) for stage in expected] == [4, 4, 4]
        for got_stage, ref_stage in zip(got, expected):
            for g, e in zip(got_stage, ref_stage):
                assert (g.lineage, g.stage_of_origin, g.mask) == (e.lineage, e.stage_of_origin, e.mask)
                np.testing.assert_allclose(g.box.as_tuple(), e.box.as_tuple(), atol=1e-12)
                np.testing.assert_allclose(g.confidence, e.confidence, atol=1e-12)

    @pytest.mark.parametrize("segment", [False, True])
    def test_localization_layers_run_once_per_stage(self, monkeypatch, segment):
        calls = {}
        forward = FCLayer.forward
        refine = interaction.refine_stage

        def counting_forward(self, x):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return forward(self, x)

        def counting_refine(*args):
            calls["refine_stage"] = calls.get("refine_stage", 0) + 1
            return refine(*args)

        monkeypatch.setattr(FCLayer, "forward", counting_forward)
        monkeypatch.setattr(interaction, "refine_stage", counting_refine)
        model = loc_model(seed=5, segment=segment)
        grid = FeatureGrid(0.05 * np.random.default_rng(6).normal(size=(3, 16, 16)), 32, 32)
        layers = model.box_heads + model.seg_heads
        for run, seeds in ((interaction.run_localization, stage_instances()[:1]),
                           (interaction.run_localization, stage_instances()),
                           (interaction.infer_image, stage_instances())):
            calls.clear()
            run(grid, seeds, model)
            assert calls["refine_stage"] == model.config.stages
            assert [calls.get(id(layer), 0) for layer in layers] == [1] * len(layers)

    def test_all_degenerate_at_stage_one(self, monkeypatch):
        model = loc_model(seed=7)
        model.box_heads[0].b.value[:4] = [0.0, 0.0, -9.0, 0.0]
        grid = FeatureGrid(np.random.default_rng(8).normal(size=(3, 16, 16)), 32, 32)
        refine = interaction.refine_stage
        calls = []
        monkeypatch.setattr(interaction, "refine_stage",
                            lambda *args: calls.append(args[3]) or refine(*args))
        assert interaction.run_localization(grid, stage_instances(), model) == [[], [], []]
        assert calls == [0]
        assert interaction.infer_image(grid, stage_instances(), model) == []


def reference_resample(proposals, gt_instances, iou_threshold):
    """The per-row labeling loop: each proposal's first best-IoU ground
    truth when it reaches the threshold, then the ground-truth rows as
    their own matches. Returns (box, gt index or -1) per row."""
    labeled = []
    for prop in proposals:
        best_iou, best_idx = 0.0, -1
        for gi, gt in enumerate(gt_instances):
            v = box_iou(prop.box, gt.box)
            if v > best_iou:
                best_iou, best_idx = v, gi
        labeled.append((prop.box, best_idx if best_iou >= iou_threshold else -1))
    return labeled + [(gt.box, gi) for gi, gt in enumerate(gt_instances)]


def random_instances(rng, n, lo=0.0, hi=24.0):
    out = []
    for _ in range(n):
        x1, y1 = rng.uniform(lo, hi, 2)
        out.append(Instance(int(rng.integers(0, 3)), 1.0,
                            Box(x1, y1, x1 + rng.uniform(2, 10), y1 + rng.uniform(2, 10))))
    return out


class TestResampleForStage:
    def test_gt_proposal_positive_at_any_threshold(self):
        gt = [Instance(2, 1.0, Box(1, 1, 9, 9))]
        for mu in (0.5, 0.6, 0.7, 0.95):
            rows, match = resample_for_stage([Instance(2, 0.8, Box(1, 1, 9, 9))], gt, mu)
            assert match.tolist() == [0, 0]
            np.testing.assert_array_equal(box_delta_targets([rows[0].box], [gt[0].box]),
                                          np.zeros((1, 4)))

    def test_iou_55_crosses_schedule(self):
        # box (0,0,10,10) vs (0,0,10,5.5): inter 55, union 100 -> IoU 0.55
        gt = [Instance(1, 1.0, Box(0, 0, 10, 10))]
        prop = Instance(1, 0.8, Box(0, 0, 10, 5.5))
        np.testing.assert_allclose(box_iou(prop.box, gt[0].box), 0.55)
        assert resample_for_stage([prop], gt, 0.5)[1][0] == 0
        assert resample_for_stage([prop], gt, 0.6)[1][0] == -1

    def test_iou_exactly_at_threshold_is_positive(self):
        # inter 50, union 100: IoU 0.5 exactly
        gt = [Instance(1, 1.0, Box(0, 0, 10, 10))]
        prop = Instance(1, 0.8, Box(0, 0, 10, 5))
        assert box_iou(prop.box, gt[0].box) == 0.5
        assert resample_for_stage([prop], gt, 0.5)[1][0] == 0

    def test_tie_between_two_ground_truths_takes_the_first(self):
        # the proposal overlaps both ground truths by the same IoU 1/3
        gt = [Instance(1, 1.0, Box(0, 0, 4, 4)), Instance(2, 1.0, Box(4, 0, 8, 4))]
        prop = Instance(1, 0.8, Box(2, 0, 6, 4))
        assert box_iou(prop.box, gt[0].box) == box_iou(prop.box, gt[1].box) > 0.0
        assert resample_for_stage([prop], gt + gt[:1], 0.3)[1].tolist() == [0, 0, 1, 2]
        assert resample_for_stage([prop], gt[::-1], 0.3)[1].tolist() == [0, 0, 1]

    def test_gt_boxes_appended_as_positives(self):
        gt = [Instance(1, 1.0, Box(0, 0, 4, 4)), Instance(2, 1.0, Box(6, 6, 9, 9))]
        rows, match = resample_for_stage([], gt, 0.5)
        assert [(r.class_id, r.confidence, r.box, r.lineage) for r in rows] == [
            (1, 1.0, gt[0].box, -1), (2, 1.0, gt[1].box, -1)]
        assert match.tolist() == [0, 1]

    def test_no_ground_truth_all_negative(self):
        props = [Instance(1, 0.8, Box(0, 0, 2, 2)), Instance(1, 0.8, Box(1, 1, 3, 3))]
        rows, match = resample_for_stage(props, [], 0.5)
        assert rows == props and match.tolist() == [-1, -1]

    def test_nothing_to_label(self):
        rows, match = resample_for_stage([], [], 0.5)
        assert rows == [] and match.shape == (0,)

    def test_positives_always_reach_threshold(self):
        rng = np.random.default_rng(9)
        gt = [Instance(1, 1.0, Box(2, 2, 10, 10))]
        props = []
        for _ in range(40):
            x1, y1 = rng.uniform(0, 8, 2)
            props.append(Instance(1, 0.8, Box(x1, y1, x1 + rng.uniform(2, 10),
                                              y1 + rng.uniform(2, 10))))
        for mu in (0.5, 0.6, 0.7):
            rows, match = resample_for_stage(props, gt, mu)
            for row, gi in zip(rows, match):
                if gi >= 0:
                    assert box_iou(row.box, gt[gi].box) >= mu

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        gt = random_instances(rng, int(rng.integers(0, 6)))
        # proposals around the ground truth, plus some anywhere
        props = [Instance(g.class_id, 0.8, Box(g.box.x1 + dx, g.box.y1 + dy,
                                               g.box.x2 + dx, g.box.y2 + dy))
                 for g in gt for dx, dy in rng.uniform(-2, 2, (3, 2))]
        props += random_instances(rng, int(rng.integers(0, 8)))
        for mu in (0.5, 0.6, 0.7):
            rows, match = resample_for_stage(props, gt, mu)
            assert [(r.box, int(m)) for r, m in zip(rows, match)] == \
                reference_resample(props, gt, mu)
            assert rows[:len(props)] == props

    def test_bad_threshold(self):
        with pytest.raises(DataError):
            resample_for_stage([], [], 1.5)


class TestMergeAndFilter:
    def test_all_confident_kept_in_order(self):
        s1 = [Instance(1, 0.9, Box(0, 0, 2, 2), stage_of_origin=1, lineage=0)]
        s2 = [Instance(1, 0.9, Box(1, 1, 3, 3), stage_of_origin=2, lineage=0),
              Instance(2, 0.9, Box(4, 4, 6, 6), stage_of_origin=2, lineage=1)]
        merged = merge_and_filter([s1, s2], 0.3)
        assert [m.stage_of_origin for m in merged] == [1, 2, 2]

    def test_default_threshold_03(self):
        dropped = Instance(1, 0.29, Box(0, 0, 2, 2))
        kept = Instance(1, 0.30, Box(0, 0, 2, 2))
        merged = merge_and_filter([[dropped, kept]])
        assert merged == [kept]

    def test_mixed_vs_filter_oracle(self):
        rng = np.random.default_rng(13)
        stages = []
        for t in range(3):
            stages.append([Instance(1, float(rng.uniform()), Box(0, 0, 2, 2),
                                    stage_of_origin=t + 1, lineage=i)
                           for i in range(5)])
        tau = 0.4
        merged = merge_and_filter(stages, tau)
        expected = [i for stage in stages for i in stage if i.confidence >= tau]
        assert merged == expected
        assert all(i.confidence >= tau for i in merged)

    def test_empty_result_allowed(self):
        assert merge_and_filter([[Instance(1, 0.1, Box(0, 0, 2, 2))]], 0.3) == []


class TestLineageDedup:
    def test_latest_stage_wins(self):
        a1 = Instance(1, 0.8, Box(0, 0, 2, 2), stage_of_origin=1, lineage=0)
        a3 = Instance(1, 0.7, Box(0, 0, 2.2, 2.2), stage_of_origin=3, lineage=0)
        b2 = Instance(2, 0.9, Box(5, 5, 7, 7), stage_of_origin=2, lineage=1)
        kept = dedup_by_lineage([a1, a3, b2])
        assert kept == [a3, b2]
