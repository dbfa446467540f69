import numpy as np
import pytest

from hoicascade.cascade import (
    MASK_POOLED_HW,
    POOLED_HW,
    CascadeConfig,
    Instance,
    box_delta_targets,
    decode_boxes,
    iou_threshold,
    mask_cell_targets,
    stage_weight,
)
from hoicascade.features import cooccurrence_prior, cross_stage_fuse
from hoicascade.formats import RunConfig
from hoicascade.geometry import BitMask, Box, FeatureGrid, roi_align, spatial_pair_encoding
from hoicascade.interaction import (
    CascadeModel,
    GroundTruthPair,
    enumerate_pairs,
    rank_scores,
    run_localization,
    SampledPairBatch,
    sample_training_pairs,
    total_loss,
)
from hoicascade.numerics import (
    binary_cross_entropy,
    finite_diff_check,
    smooth_l1,
)
from hoicascade import training
from hoicascade.training import (
    RelationPass,
    localization_stage_step,
    prepare_grids,
    relation_losses_multi,
    seed_instances,
    train_model,
)
from test_cascade import reference_resample

MARGIN = RunConfig().hinge_margin


def tiny_model(seed=0, **kw):
    model = CascadeModel(n_classes=3, n_verbs=4, channels=3, seed=seed, **kw)
    model.cooccurrence = cooccurrence_prior([(1, 0), (1, 2), (2, 3)], 3, 4)
    return model


def sampled_batches(model, seed=0, people=2):
    """A scene with one or two people and two objects, and the sampled
    relation pairs of every stage: candidate pairs plus the appended
    annotated pairs, one per person."""
    rng = np.random.default_rng(seed)
    grid = FeatureGrid(0.05 * rng.normal(size=(model.channels, 32, 32)), 64, 64)
    humans = [Instance(0, 1.0, Box(2, 4, 14, 30)), Instance(0, 1.0, Box(30, 4, 42, 30))]
    objects = [Instance(1, 1.0, Box(4, 36, 14, 46)), Instance(2, 1.0, Box(34, 36, 44, 46))]
    gt = [GroundTruthPair(humans[0].box, objects[0].box, 1, frozenset({0, 2})),
          GroundTruthPair(humans[1].box, objects[1].box, 2, frozenset({3}))][:people]
    candidates = enumerate_pairs(humans[:people] + objects)
    batches = [sample_training_pairs(candidates, gt, thr, model.n_verbs, rng)
               for thr in map(iou_threshold, range(model.config.stages))]
    return grid, batches


def overlapping_stage_batches(model, seed=2):
    """Stage batches over the six pairs of a two-person, two-object scene:
    no pair twice within a stage, most pairs in more than one stage."""
    rng = np.random.default_rng(seed)
    grid = FeatureGrid(0.05 * rng.normal(size=(model.channels, 32, 32)), 64, 64)
    entities = [Instance(0, 1.0, Box(2, 4, 14, 30)), Instance(0, 1.0, Box(30, 4, 42, 30)),
                Instance(1, 1.0, Box(4, 36, 14, 46)), Instance(2, 1.0, Box(34, 36, 44, 46))]
    pairs = enumerate_pairs(entities)

    def batch(rows):
        positives = [pairs[i] for i in rows if i % 2 == 0]
        return SampledPairBatch(positives, [pairs[i] for i in rows if i % 2],
                                rng.integers(0, 2, (len(positives), model.n_verbs)).astype(float))

    return grid, [batch([0, 1, 2, 3]), batch([2, 3, 4, 5]), batch([5, 4, 3, 2, 1, 0])]


class TestRelationPass:
    def test_repeated_pairs_accumulate_the_gradients_of_separate_passes(self):
        model = tiny_model(seed=35)
        grid, batches = overlapping_stage_batches(model)
        empty = SampledPairBatch([], [], np.zeros((0, model.n_verbs)))
        alone = [[b if s == t else empty for s, b in enumerate(batches)] for t in range(3)]

        def distinct_rows(stage_batches):
            rp = RelationPass(model, grid, [b.all_pairs() for b in stage_batches])
            return rp.n, len(rp.pooled.x_s)

        assert distinct_rows(batches) == (14, 6)
        assert [distinct_rows(b) for b in alone] == [(4, 4), (4, 4), (6, 6)]

        def gradients(stage_batches):
            for _, p in model.store.items():
                p.grad = None
            relation_losses_multi(model, grid, stage_batches, MARGIN)
            return {name: p.grad.copy() for name, p in model.store.items()}

        joint = gradients(batches)
        separate = [gradients(b) for b in alone]
        assert all(np.any(joint[name]) for name in joint if ".box." not in name)
        for name, got in joint.items():
            want = sum(g[name] for g in separate)
            # the conv layers run in float32 on the pair maps
            rtol = 1e-5 if ".conv" in name else 1e-12
            assert np.abs(got - want).max() <= rtol * np.abs(want).max(), name

    def test_pass_encodes_each_distinct_map_once(self, monkeypatch):
        model = tiny_model(seed=36)
        grid, batches = sampled_batches(model)
        encoded = []
        forward = model.geo_encoder.forward
        monkeypatch.setattr(model.geo_encoder, "forward",
                            lambda rows, cols: encoded.append((rows, cols)) or forward(rows, cols))
        stage_pairs = [b.all_pairs() for b in batches]
        rp = RelationPass(model, grid, stage_pairs).forward()

        def key(rows, cols):
            return rows.tobytes() + cols.tobytes()

        per_pair = [key(*(a[0] for a in spatial_pair_encoding([c.human.box], [c.object.box])[:2]))
                    for pairs in stage_pairs for c in pairs]
        [(rows, cols)] = encoded
        # the maps reach the encoder as indicators; no 64x64 map is built
        assert rows.shape == cols.shape == (len(rows), 2, 64)
        assert [key(r, c) for r, c in zip(rows, cols)] == list(dict.fromkeys(per_pair))
        assert len(rows) < rp.n == len(per_pair)

    def test_trained_features_are_deployed_features(self, monkeypatch):
        model = tiny_model(seed=31)
        grid, batches = sampled_batches(model)
        stage_pairs = [b.all_pairs() for b in batches]
        rp = RelationPass(model, grid, stage_pairs).forward()
        candidates = [c for pairs in stage_pairs for c in pairs]
        last = rp.slices[-1]
        assert rp.slices[0].stop > 0 and last.stop > last.start

        feats = model.build_features(grid, candidates)
        np.testing.assert_array_equal(rp.x_s, feats.x_s)
        np.testing.assert_array_equal(rp.x_g, feats.x_g)
        np.testing.assert_array_equal(rp.x_v, feats.x_v.reshape(len(candidates), -1))
        # the last stage trains the rows inference ranks and classifies
        visual = cross_stage_fuse(feats.x_v[last], feats.x_v[last], model.visual_maps[-1])
        geometric = model.geometric_maps[-1].forward(feats.x_g[last])
        trained = {}

        def recorded(name, fn):
            def call(*args):
                trained.setdefault(name, []).append(fn(*args))
                return trained[name][-1]
            return call

        for name, layer in (("visual", model.visual_maps[-1]),
                            ("geometric", model.geometric_maps[-1])):
            monkeypatch.setattr(layer, "forward", recorded(name, layer.forward))
        monkeypatch.setattr(training, "rank_scores", recorded("rank", training.rank_scores))
        relation_losses_multi(model, grid, batches, MARGIN)
        [trained_visual], [trained_geometric] = trained["visual"], trained["geometric"]
        np.testing.assert_array_equal(trained_visual, visual)
        np.testing.assert_array_equal(trained_geometric, geometric)
        # one ranking per stage, the last stage's last
        assert len(trained["rank"]) == model.config.stages
        np.testing.assert_array_equal(trained["rank"][-1], rank_scores(visual, geometric))

    def test_backward_matches_finite_differences(self):
        model = tiny_model(seed=33)
        grid, batches = sampled_batches(model, seed=1, people=1)

        # sigmoid scores lie in (0, 1), so a margin of 1 keeps every
        # (positive, negative) hinge term active, away from its kink: each
        # stage's ranker gets a gradient whatever the initial weights
        def loss():
            out = relation_losses_multi(model, grid, batches, 1.0)
            return sum(stage_weight(t) * (o["rrm"] + o["rcm"]) for t, o in enumerate(out))

        # every relation block except the conv layers, whose max-pool ties
        # on binary pair maps make central differences unreliable
        blocks = {name: p for name, p in model.store.items()
                  if ".box." not in name and ".conv" not in name}
        assert len(blocks) == 24
        report = finite_diff_check(loss, blocks, tol=1e-4, max_entries=1, seed=0)
        assert report.passed, str(report)
        assert all(np.any(p.grad) for p in blocks.values())  # analytic grads left in place

    def test_scenes_of_one_step_add_their_gradients(self):
        model = tiny_model(seed=39)
        scenes = [sampled_batches(model, seed=4), overlapping_stage_batches(model, seed=6)]

        def gradients(scene_batches):
            for _, p in model.store.items():
                p.grad = None
            for grid, stage_batches in scene_batches:
                relation_losses_multi(model, grid, stage_batches, MARGIN)
            return {name: p.grad.copy() for name, p in model.store.items()}

        joint = gradients(scenes)
        separate = [gradients([scene]) for scene in scenes]
        assert all(np.any(joint[name]) for name in joint if ".box." not in name)
        for name, got in joint.items():
            want = separate[0][name] + separate[1][name]
            # the conv layers run in float32 on the pair maps
            rtol = 1e-5 if ".conv" in name else 1e-12
            assert np.abs(got - want).max() <= rtol * np.abs(want).max(), name


def localization_scene(seed=0):
    """A 64 x 64 image with three masked entities and seven seed proposals:
    jittered copies of the entities, loose boxes, one stray box and one
    box off the image, whose refinement degenerates."""
    rng = np.random.default_rng(seed)
    grid = FeatureGrid(rng.normal(size=(3, 32, 32)), 64, 64)
    gt = []
    for cls, box in ((0, Box(4, 6, 22, 40)), (1, Box(28, 30, 44, 46)), (2, Box(40, 4, 60, 20))):
        bits = np.zeros((64, 64), dtype=bool)
        bits[int(box.y1) + 2:int(box.y2) - 2, int(box.x1) + 1:int(box.x2) - 1] = True
        gt.append(Instance(cls, 1.0, box, mask=BitMask(bits)))
    boxes = [Box(5, 7, 23, 41), Box(27, 31, 45, 47), Box(41, 5, 59, 21),
             Box(2, 3, 26, 44), Box(26, 26, 50, 50), Box(30, 48, 40, 60),
             Box(70, 10, 80, 20)]
    seeds = [Instance(gt[i % 3].class_id, 1.0, box, lineage=i) for i, box in enumerate(boxes)]
    return grid, gt, seeds


class TestLocalizationStageStep:
    def test_seed_lineage_outputs_are_inference_outputs(self):
        model = tiny_model(seed=41)
        for head in model.box_heads:
            head.w.value[:4] *= 20.0  # refinements that move the boxes
        grid, gt, seeds = localization_scene(seed=2)
        stage_outputs = run_localization(grid, seeds, model)
        assert [len(stage) for stage in stage_outputs] == [6, 6, 6]
        proposals = seeds
        for t, expected in enumerate(stage_outputs):
            _, proposals = localization_stage_step(model, grid, proposals, gt, t)
            got = [inst for inst in proposals if inst.lineage >= 0]
            assert [(g.class_id, g.lineage, g.stage_of_origin) for g in got] == [
                (e.class_id, e.lineage, t + 1) for e in expected]
            for g, e in zip(got, expected):
                assert g.box != seeds[g.lineage].box
                np.testing.assert_allclose(g.box.as_tuple(), e.box.as_tuple(), atol=1e-12)
                np.testing.assert_allclose(g.confidence, e.confidence, atol=1e-12)

    @pytest.mark.parametrize("segment", [False, True])
    def test_loss_reads_the_rows_of_resample_for_stage(self, segment):
        model = tiny_model(seed=42, segment=segment)
        grid, gt, seeds = localization_scene(seed=4)
        proposals = seeds
        for t, head in enumerate(model.box_heads):
            # the labeling loop: proposals, then the ground-truth boxes
            labeled = reference_resample(proposals, gt, iou_threshold(t))
            rows = np.concatenate([head.forward(roi_align(grid, [box], POOLED_HW)
                                                .reshape(1, -1)) for box, _ in labeled])
            deltas, logits = rows[:, :4], rows[:, 4:]
            pos = [i for i, (_, gi) in enumerate(labeled) if gi >= 0]
            assert 0 < len(pos) - len(gt) < len(proposals)
            bce, _ = binary_cross_entropy(logits, [[float(gi >= 0)] for _, gi in labeled])
            targets = box_delta_targets([labeled[i][0] for i in pos],
                                        [gt[labeled[i][1]].box for i in pos])
            assert not targets[-len(gt):].any()  # ground-truth rows target themselves
            sl1, _ = smooth_l1(deltas[pos] - targets)
            losses, proposals = localization_stage_step(model, grid, proposals, gt, t)
            np.testing.assert_allclose(losses["loc"], bce / len(labeled) + sl1 / len(pos),
                                       atol=1e-12)
            if not segment:
                continue
            # mask rows: the refined box plus, from stage 2 on, the input box
            decoded, keep = decode_boxes([labeled[i][0] for i in pos], deltas[pos], 64, 64)
            assert keep.all()
            refined = [Box(*box) for box in decoded]
            feats = np.stack([roi_align(grid, [box], MASK_POOLED_HW).ravel() for box in refined])
            if t > 0:
                feats += np.stack([roi_align(grid, [labeled[i][0]], MASK_POOLED_HW).ravel()
                                   for i in pos])
            targets = np.stack([mask_cell_targets(gt[labeled[i][1]].mask, box)
                                for i, box in zip(pos, refined)])
            seg, _ = binary_cross_entropy(model.seg_heads[t].forward(feats), targets)
            np.testing.assert_allclose(losses["seg"], seg / targets.size, atol=1e-12)

    @pytest.mark.parametrize("segment", [False, True])
    def test_backward_matches_finite_differences(self, segment):
        model = tiny_model(seed=43, segment=segment)
        grid, gt, seeds = localization_scene(seed=3)
        # training passes boxes between stages as data, so each stage's
        # input proposals are recorded once and held fixed
        inputs, proposals = [], seeds
        for t in range(model.config.stages):
            inputs.append(proposals)
            _, proposals = localization_stage_step(model, grid, proposals, gt, t)

        def loss(m=model):
            return total_loss([localization_stage_step(m, grid, props, gt, t)[0]
                               for t, props in enumerate(inputs)], m.config)

        blocks = {name: p for name, p in model.store.items() if ".box." in name}
        if segment:
            # the deltas reach the mask loss only through the refined box,
            # which the mask map reads as data: a stop-gradient by design,
            # so central differences on a box map see a path backward leaves
            # out. The mask loss must add nothing to the box maps: their
            # gradients are those of the detect model of the same draws.
            def box_gradients(m):
                for _, p in m.store.items():
                    p.grad = None
                loss(m)
                return {name: p.grad.copy() for name, p in m.store.items() if ".box." in name}

            want = box_gradients(tiny_model(seed=43))
            got = box_gradients(model)
            assert list(got) == list(want) == list(blocks) and all(np.any(g) for g in got.values())
            for name, grad in got.items():
                np.testing.assert_array_equal(grad, want[name], err_msg=name)
            blocks = {name: p for name, p in model.store.items() if ".seg." in name}
        # one box (or mask) map per stage; six probes in each block
        assert len(blocks) == 6
        report = finite_diff_check(loss, blocks, tol=1e-4, max_entries=6, seed=0)
        assert report.passed, str(report)
        assert all(np.any(p.grad) for p in blocks.values())


def held_out_setting(data_seed=11):
    """30 training scenes of SceneSpec(data_seed), 40 held-out scenes,
    their ground truth and feature grids."""
    from hoicascade.formats import scenes_to_gt_records
    from hoicascade.synth import SceneSpec, generate_dataset

    spec = SceneSpec(seed=data_seed)
    train = generate_dataset(spec, 30, prefix="train")
    test = generate_dataset(SceneSpec(seed=data_seed + 1_000_003), 40, prefix="test")
    return (spec, train, test, scenes_to_gt_records(test),
            prepare_grids(test, spec, spec.min_channels(), 32))


def held_out_quality(model, setting, config, path):
    """(mAP_rel, mean Recall@K) of `model` on the held-out scenes, read
    back from the prediction file it writes to `path`."""
    from hoicascade.formats import read_predictions_ndjson, write_predictions_ndjson
    from hoicascade.metrics import map_rel, recall_at_k
    from hoicascade.training import infer_scenes

    spec, _, test, gts, grids = setting
    write_predictions_ndjson(path, infer_scenes(model, test, spec, config, grids))
    preds = read_predictions_ndjson(path)
    return (map_rel(preds, gts, spec.n_verbs).map_rel,
            recall_at_k(preds, gts, spec.geometric_verbs).mean)


def test_training_beats_the_untrained_model(tmp_path):
    """One phase-1 and two phase-2 epochs on 30 scenes lift mAP_rel and
    Recall@K on 40 held-out scenes above the untrained (0 + 0 epoch) model,
    and lower the relation losses of every stage on held-out scenes.

    Measured gains of this setting (training seed 0, data seeds 11 to 18):
    mAP_rel -0.028 to +0.097 and R@K -0.009 to +0.095. The short run costs
    momentum SGD on the direct relation maps: the trained model reads
    below the untrained one at seeds 13 (mAP_rel 0.119 -> 0.091, R@K
    0.534 -> 0.525), 14 (mAP_rel 0.130 -> 0.124) and 18 (0.183 -> 0.181),
    and mean trained mAP_rel is 0.179. At data seed 11, mAP_rel 0.085 ->
    0.182 and R@K 0.476 -> 0.571. The 0.02 margins sit well under the
    seed-11 gains, so a change of float summation order cannot trip them.
    These metrics also rise when the relation gradients are dropped or
    negated (localization training alone lifts them), so the relation
    losses of six held-out scenes are checked directly: at seed 11 they
    fall from 2.6 / 3.0 / 2.9 per stage to 1.7 / 1.8 / 1.8, stay put
    without relation gradients and grow tenfold when those are negated. `test_default_epochs_learn_the_
    relations` checks what the relation training reaches.
    """
    from hoicascade.training import scene_losses

    setting = held_out_setting()
    spec, train, test, _, grids = setting

    def quality(phase1_epochs, phase2_epochs):
        config = RunConfig(phase1_epochs=phase1_epochs, phase2_epochs=phase2_epochs)
        model = train_model(train, spec, config, spec.min_channels(), 32)
        path = tmp_path / f"{phase1_epochs}-{phase2_epochs}.ndjson"
        rng = np.random.default_rng(0)
        relation = np.mean([[loss["rrm"] + loss["rcm"]
                             for loss in scene_losses(model, grids[scene.image_id], scene, spec,
                                                      rng, config.hinge_margin)]
                            for scene in test[:6]], axis=0)
        return (*held_out_quality(model, setting, config, path), relation)

    untrained_map, untrained_recall, untrained_relation = quality(0, 0)
    trained_map, trained_recall, trained_relation = quality(1, 2)
    assert trained_map >= untrained_map + 0.02, (untrained_map, trained_map)
    assert trained_recall >= untrained_recall + 0.02, (untrained_recall, trained_recall)
    assert np.all(trained_relation <= 0.8 * untrained_relation), (untrained_relation,
                                                                 trained_relation)


def test_default_epochs_learn_the_relations(tmp_path):
    """The CLI default 6 + 5 epochs on the 30 scenes of the test above
    reach mAP_rel 0.455 on its 40 held-out scenes at data seed 11
    (training seed 0), against 0.194 for plain SGD on the factored FC_x2
    relation stacks that momentum SGD on the direct maps replaced. Over
    data seeds 11 to 15 this model reads 0.455 / 0.747 / 0.568 / 0.513 /
    0.614 and the replaced one 0.194 / 0.295 / 0.204 / 0.235 / 0.343, so
    the 0.40 bound separates the two at every seed.
    """
    setting = held_out_setting()
    spec, train, _, _, _ = setting
    config = RunConfig()
    assert (config.phase1_epochs, config.phase2_epochs) == (6, 5)
    model = train_model(train, spec, config, spec.min_channels(), 32)
    trained_map, _ = held_out_quality(model, setting, config, tmp_path / "preds.ndjson")
    assert trained_map >= 0.40, trained_map
