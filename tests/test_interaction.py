import json

import numpy as np
import pytest

from hoicascade import cascade, interaction
from hoicascade.cascade import CascadeConfig, Instance, stage_weight
from hoicascade.errors import DataError, FormatError, ShapeError
from hoicascade.features import (
    cooccurrence_prior,
    cross_stage_fuse,
    face_region,
)
from hoicascade.geometry import Box, FeatureGrid, box_iou, roi_align
from hoicascade.interaction import (
    MAX_TRAIN_PAIRS,
    POS_NEG_RATIO,
    TOP_K,
    CascadeModel,
    GroundTruthPair,
    HOICandidate,
    RelationFeatures,
    classify_relation,
    enumerate_pairs,
    fuse_scores,
    infer_image,
    merge_and_filter,
    rank_pairs,
    rank_scores,
    run_localization,
    sample_training_pairs,
    select_topk,
    total_loss,
    dedup_by_lineage,
)
from hoicascade.numerics import sgd_step, sigmoid


def inst(class_id, box, conf=0.9, **kw):
    return Instance(class_id, conf, box, **kw)


def tiny_model(channels=3, seed=0, **kw):
    model = CascadeModel(n_classes=3, n_verbs=4, channels=channels, seed=seed, **kw)
    model.cooccurrence = cooccurrence_prior([(1, 0), (1, 2), (2, 3)], 3, 4)
    return model


def fake_features(model, rng, n=1):
    """A batch of n random relation rows and their relation-map rows: a
    visual rank logit and N visual verb logits each."""
    feats = RelationFeatures(
        x_s=rng.uniform(size=(n, model.n_verbs)),
        x_g=rng.normal(size=(n, 256)),
        x_v=rng.normal(size=(n, 3 * model.channels, 7, 7)),
    )
    return feats, rng.normal(size=(n, 1 + model.n_verbs))


class TestEnumeratePairs:
    def test_one_human_two_objects(self):
        items = [inst(0, Box(0, 0, 4, 8)), inst(1, Box(5, 5, 7, 7)), inst(2, Box(1, 1, 3, 3))]
        pairs = enumerate_pairs(items)
        assert len(pairs) == 2
        assert all(p.human is items[0] for p in pairs)
        assert [p.object.class_id for p in pairs] == [1, 2]

    def test_two_humans_pair_each_other(self):
        items = [inst(0, Box(0, 0, 4, 8)), inst(0, Box(5, 0, 9, 8))]
        pairs = enumerate_pairs(items)
        assert len(pairs) == 2
        assert pairs[0].human is items[0] and pairs[0].object is items[1]
        assert pairs[1].human is items[1] and pairs[1].object is items[0]

    def test_no_humans(self):
        assert enumerate_pairs([inst(1, Box(0, 0, 2, 2))]) == []


class TestRankAndSelect:
    def test_zero_weights_preserve_order(self):
        rng = np.random.default_rng(0)
        model = tiny_model()
        layer = model.geometric_maps[0]
        layer.w.value[...] = 0.0
        layer.b.value[...] = 0.0
        feats, fused = fake_features(model, rng, 4)
        fused[:, 0] = 0.0
        geometric = layer.forward(feats.x_g)
        assert rank_pairs(fused, geometric).tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(rank_scores(fused, geometric), np.full(4, 0.5))

    def test_sorting_by_score(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        feats, fused = fake_features(model, rng, 3)
        geometric = model.geometric_maps[0].forward(feats.x_g)
        scores = []
        for i in range(3):
            scores.append(float(rank_scores(fused[i:i + 1], geometric[i:i + 1])[0]))
        ranked = rank_pairs(fused, geometric)
        expected = np.argsort([-s for s in scores], kind="stable")
        assert ranked.tolist() == expected.tolist()

    def test_random_heads_vs_sort_oracle(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(5)
        feats, fused = fake_features(model, rng, 10)
        layer = model.geometric_maps[1]
        ranked = rank_pairs(fused, layer.forward(feats.x_g))
        # the rank logit sums the visual and geometric column 0
        logit = fused[:, 0] + feats.x_g @ layer.w.value[0] + layer.b.value[0]
        got = sigmoid(logit)[ranked].tolist()
        assert got == sorted(got, reverse=True)
        assert sorted(ranked.tolist()) == list(range(10))

    def test_missing_features_error(self):
        model = tiny_model()
        feats, fused = fake_features(model, np.random.default_rng(0), 2)
        geometric = model.geometric_maps[0].forward(feats.x_g)
        with pytest.raises(DataError):
            rank_pairs(None, geometric)
        with pytest.raises(DataError):
            rank_pairs(fused[:1], geometric)

    def test_topk(self):
        assert TOP_K == 64
        items = list(range(3))
        assert select_topk(items, 64) == items
        assert select_topk(items, 1) == [0]
        with pytest.raises(DataError):
            select_topk(items, 0)


class TestClassifyAndFuse:
    def test_zero_weights_half_everywhere(self):
        model = tiny_model()
        for layer in (model.semantic_heads[0], model.geometric_maps[0]):
            layer.w.value[...] = 0.0
            layer.b.value[...] = 0.0
        feats, fused = fake_features(model, np.random.default_rng(2))
        fused[...] = 0.0
        logits = classify_relation(feats.x_s, model.geometric_maps[0].forward(feats.x_g),
                                   fused, model.semantic_heads[0])
        for z in logits:
            assert z.shape == (1, model.n_verbs)
            np.testing.assert_array_equal(z, np.zeros((1, model.n_verbs)))
            np.testing.assert_array_equal(sigmoid(z), np.full((1, model.n_verbs), 0.5))

    def test_matches_matmul_sigmoid_oracle(self):
        model = tiny_model(seed=7)
        semantic, geometric = model.semantic_heads[2], model.geometric_maps[2]
        feats, fused = fake_features(model, np.random.default_rng(3))
        z_s, z_g, z_v = classify_relation(feats.x_s, geometric.forward(feats.x_g), fused,
                                          semantic)
        z = semantic.w.value @ feats.x_s[0] + semantic.b.value
        np.testing.assert_allclose(z_s[0], z, atol=1e-12)
        np.testing.assert_allclose(sigmoid(z_s)[0], 1 / (1 + np.exp(-z)), atol=1e-12)
        # the verb columns follow the rank column of the geometric and visual rows
        z = geometric.w.value[1:] @ feats.x_g[0] + geometric.b.value[1:]
        np.testing.assert_allclose(z_g[0], z, atol=1e-12)
        np.testing.assert_allclose(sigmoid(z_g)[0], 1 / (1 + np.exp(-z)), atol=1e-12)
        np.testing.assert_array_equal(z_v, fused[:, 1:])
        np.testing.assert_allclose(sigmoid(z_v)[0], 1 / (1 + np.exp(-fused[0, 1:])), atol=1e-12)

    def test_fuse_with_unit_semantic(self):
        s_v, s_g = np.array([0.2, 0.3]), np.array([0.1, 0.5])
        np.testing.assert_allclose(fuse_scores(s_v, s_g, np.ones(2)), s_v + s_g)

    def test_fuse_zero_visual_geo(self):
        np.testing.assert_array_equal(fuse_scores(np.zeros(3), np.zeros(3),
                                                  np.array([0.5, 0.2, 0.9])), np.zeros(3))

    def test_positive_scaling_keeps_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s_v, s_g, s_s = rng.uniform(0.01, 1, (3, 5))
            base = fuse_scores(s_v, s_g, s_s)
            for lam in (0.25, 2.0, 7.5):
                scaled = fuse_scores(s_v, s_g, lam * s_s)
                np.testing.assert_allclose(scaled, lam * base, atol=1e-12)
                assert np.argmax(scaled) == np.argmax(base)

    def test_fuse_length_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_scores(np.zeros(2), np.zeros(3), np.zeros(2))


class TestSampleTrainingPairs:
    def _gt(self):
        return [GroundTruthPair(Box(0, 0, 10, 20), Box(12, 4, 18, 10), 1, frozenset({0, 2}))]

    def test_exact_match_positive_at_all_stages(self):
        gt = self._gt()
        cand = HOICandidate(inst(0, Box(0, 0, 10, 20)), inst(1, Box(12, 4, 18, 10)))
        for mu in (0.5, 0.6, 0.7):
            batch = sample_training_pairs([cand], gt, mu, 4, np.random.default_rng(0))
            assert len(batch.positives) == 2  # the candidate, then the annotated pair
            assert batch.positives[0] is cand
            np.testing.assert_array_equal(batch.targets, [[1, 0, 1, 0], [1, 0, 1, 0]])

    def test_gt_pairs_appended(self):
        batch = sample_training_pairs([], self._gt(), 0.5, 4, np.random.default_rng(0))
        assert len(batch.positives) == 1
        assert batch.positives[0].human.class_id == 0
        assert batch.positives[0].object.class_id == 1
        assert batch.negatives == [] and batch.targets.shape == (1, 4)

    def test_annotated_person_pooled_once(self, monkeypatch):
        h_box = Box(2, 4, 14, 30)
        gt = [GroundTruthPair(h_box, Box(16, 4, 26, 14), 1, frozenset({0})),
              GroundTruthPair(h_box, Box(16, 18, 26, 28), 2, frozenset({3})),
              GroundTruthPair(Box(30, 4, 42, 30), Box(44, 4, 54, 14), 1, frozenset({2}))]
        pairs = sample_training_pairs([], gt, 0.5, 4, np.random.default_rng(0)).all_pairs()
        humans = [c.human for c in pairs]
        assert humans[0].box == humans[1].box and humans[2].box != humans[0].box

        calls = []
        ihsm = interaction.ihsm_enhance
        monkeypatch.setattr(interaction, "ihsm_enhance",
                            lambda x: calls.append(1) or ihsm(x))
        model = tiny_model(seed=3)
        grid = FeatureGrid(np.random.default_rng(5).normal(size=(3, 32, 32)), 64, 64)
        pooled = model.pool_pairs(grid, pairs)
        assert len(calls) == 2
        np.testing.assert_array_equal(pooled.h_bar[0], pooled.h_bar[1])

    def test_batch_constants_and_cap(self):
        assert MAX_TRAIN_PAIRS == 128
        assert POS_NEG_RATIO == (1, 3)
        gt = [GroundTruthPair(Box(0, 0, 10, 20), Box(float(12 + i), 4, float(18 + i), 10), 1,
                              frozenset({0})) for i in range(50)]
        cands = []
        for i in range(200):
            # negatives far away from every annotated pair
            cands.append(HOICandidate(inst(0, Box(0, 30, 10, 50)),
                                      inst(1, Box(40 + (i % 50), 30, 46 + (i % 50), 36))))
        batch = sample_training_pairs(cands, gt, 0.5, 4, np.random.default_rng(0))
        assert len(batch.positives) == 32
        assert len(batch.negatives) == 96
        assert len(batch.all_pairs()) == 128

    def test_negatives_fill_when_positives_scarce(self):
        gt = self._gt()
        cands = [HOICandidate(inst(0, Box(0, 30, 10, 50)),
                              inst(1, Box(40, 30 + i, 46, 36 + i))) for i in range(150)]
        batch = sample_training_pairs(cands, gt, 0.5, 4, np.random.default_rng(0))
        assert len(batch.positives) == 1  # only the appended GT pair
        assert len(batch.negatives) == 127

    def test_matches_exhaustive_matching_oracle(self):
        rng = np.random.default_rng(13)
        gt = [GroundTruthPair(Box(0, 0, 10, 20), Box(12, 0, 20, 10), 1, frozenset({1})),
              GroundTruthPair(Box(30, 30, 40, 50), Box(42, 30, 50, 40), 2, frozenset({3}))]
        cands = []
        for _ in range(40):
            hx, hy = rng.uniform(0, 30, 2)
            ox, oy = rng.uniform(0, 40, 2)
            cands.append(HOICandidate(
                inst(0, Box(hx, hy, hx + rng.uniform(5, 15), hy + rng.uniform(10, 25))),
                inst(1, Box(ox, oy, ox + rng.uniform(4, 10), oy + rng.uniform(4, 12)))))
        mu = 0.5
        batch = sample_training_pairs(cands, gt, mu, 4, rng)
        expected_pos = set()
        for i, c in enumerate(cands):
            for g in gt:
                if (box_iou(c.human.box, g.h_box) >= mu
                        and box_iou(c.object.box, g.o_box) >= mu):
                    expected_pos.add(i)
        index = {id(c): i for i, c in enumerate(cands)}
        got_pos = {index[id(c)] for c in batch.positives if id(c) in index}
        assert got_pos == expected_pos
        assert len(batch.positives) == len(expected_pos) + len(gt)  # annotated pairs appended


def reference_sample(candidates, gt_pairs, iou_threshold, n_verbs, rng):
    """The per-candidate labeling loop: a candidate matches the first
    annotated pair of highest min(IoU) whose human and object IoUs both
    reach the threshold. Returns (positives, negatives) as lists of
    (candidate, verb targets), subsampled with the same draws as
    `sample_training_pairs`."""
    pos, neg = [], []
    for cand in candidates:
        best_idx, best_quality = -1, 0.0
        for gi, gt in enumerate(gt_pairs):
            qh = box_iou(cand.human.box, gt.h_box)
            qo = box_iou(cand.object.box, gt.o_box)
            if qh >= iou_threshold and qo >= iou_threshold and min(qh, qo) > best_quality:
                best_idx, best_quality = gi, min(qh, qo)
        targets = np.zeros(n_verbs)
        if best_idx >= 0:
            targets[list(gt_pairs[best_idx].verbs)] = 1.0
            pos.append((cand, targets))
        else:
            neg.append((cand, targets))
    for gt in gt_pairs:
        targets = np.zeros(n_verbs)
        targets[list(gt.verbs)] = 1.0
        pos.append((HOICandidate(Instance(0, 1.0, gt.h_box), Instance(gt.o_class, 1.0, gt.o_box)),
                    targets))
    p, n = POS_NEG_RATIO
    n_pos = min(len(pos), MAX_TRAIN_PAIRS * p // (p + n))
    n_neg = min(len(neg), MAX_TRAIN_PAIRS - n_pos)
    if n_pos < len(pos):
        pos = [pos[i] for i in rng.permutation(len(pos))[:n_pos]]
    if n_neg < len(neg):
        neg = [neg[i] for i in rng.permutation(len(neg))[:n_neg]]
    return pos, neg


def assert_same_sample(batch, expected):
    """`batch` holds the reference's candidates (annotated pairs compared by
    box and class) and its targets bit for bit."""
    pos, neg = expected
    assert batch.negatives == [c for c, _ in neg]
    assert len(batch.positives) == len(pos) == len(batch.targets)

    def key(c):
        return (c.human.box, c.human.class_id, c.object.box, c.object.class_id)

    assert [key(c) for c in batch.positives] == [key(c) for c, _ in pos]
    if pos:
        assert batch.targets.tobytes() == np.stack([t for _, t in pos]).tobytes()


def random_pair_scene(rng, n_gt, n_cands, verbs=4):
    """Annotated pairs on a small integer lattice and candidates around
    them: jittered copies, exact copies and unrelated pairs."""
    def box():
        x, y = rng.integers(0, 20, 2)
        return Box(float(x), float(y), float(x + rng.integers(2, 8)), float(y + rng.integers(2, 8)))

    def near(b):
        dx, dy = rng.integers(-1, 2, 2)
        return Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)

    gt = [GroundTruthPair(box(), box(), int(rng.integers(1, 3)),
                          frozenset(rng.choice(verbs, rng.integers(1, 3), replace=False).tolist()))
          for _ in range(n_gt)]
    cands = []
    for _ in range(n_cands):
        if gt and rng.uniform() < 0.7:
            g = gt[rng.integers(len(gt))]
            h, o = (g.h_box, g.o_box) if rng.uniform() < 0.3 else (near(g.h_box), near(g.o_box))
        else:
            h, o = box(), box()
        cands.append(HOICandidate(inst(0, h), inst(1, o)))
    return cands, gt


class TestSampleTrainingPairsMatchesTheLoop:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_scenes(self, seed):
        rng = np.random.default_rng(seed)
        cands, gt = random_pair_scene(rng, int(rng.integers(0, 5)), int(rng.integers(0, 60)))
        for mu in (0.5, 0.6, 0.7):
            batch = sample_training_pairs(cands, gt, mu, 4, np.random.default_rng([seed, 1]))
            assert_same_sample(batch, reference_sample(cands, gt, mu, 4,
                                                       np.random.default_rng([seed, 1])))

    def test_subsampled_positives_keep_their_targets(self):
        rng = np.random.default_rng(21)
        cands, gt = random_pair_scene(rng, 4, 240)
        batch = sample_training_pairs(cands, gt, 0.5, 4, np.random.default_rng(3))
        assert len(batch.positives) == 32 and len(batch.negatives) == 96
        assert_same_sample(batch, reference_sample(cands, gt, 0.5, 4, np.random.default_rng(3)))

    def test_tie_between_two_annotated_pairs_takes_the_first(self):
        h, o = Box(0, 0, 10, 20), Box(12, 4, 18, 10)
        gt = [GroundTruthPair(h, o, 1, frozenset({0})), GroundTruthPair(h, o, 1, frozenset({2}))]
        cand = HOICandidate(inst(0, Box(0, 0, 10, 19)), inst(1, o))
        batch = sample_training_pairs([cand], gt, 0.5, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.targets[0], [1, 0, 0, 0])
        batch = sample_training_pairs([cand], gt[::-1], 0.5, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.targets[0], [0, 0, 1, 0])

    def test_higher_min_iou_wins_over_order(self):
        o = Box(12, 4, 18, 10)
        gt = [GroundTruthPair(Box(0, 0, 10, 16), o, 1, frozenset({0})),
              GroundTruthPair(Box(0, 0, 10, 19), o, 1, frozenset({3}))]
        cand = HOICandidate(inst(0, Box(0, 0, 10, 20)), inst(1, o))
        batch = sample_training_pairs([cand], gt, 0.5, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.targets[0], [0, 0, 0, 1])

    def test_iou_exactly_at_threshold_is_positive(self):
        # human IoU 1, object IoU 50 / 100 = 0.5 exactly
        h = Box(0, 0, 10, 20)
        gt = [GroundTruthPair(h, Box(20, 0, 30, 10), 1, frozenset({1}))]
        cand = HOICandidate(inst(0, h), inst(1, Box(20, 0, 30, 5)))
        assert box_iou(cand.object.box, gt[0].o_box) == 0.5
        assert sample_training_pairs([cand], gt, 0.5, 4,
                                     np.random.default_rng(0)).positives[0] is cand
        assert sample_training_pairs([cand], gt, 0.6, 4,
                                     np.random.default_rng(0)).negatives == [cand]

    def test_no_candidates_and_no_annotations(self):
        cands, gt = random_pair_scene(np.random.default_rng(4), 3, 10)
        for c, g in (([], gt), (cands, []), ([], [])):
            batch = sample_training_pairs(c, g, 0.5, 4, np.random.default_rng(0))
            assert batch.targets.shape == (len(batch.positives), 4)
            assert_same_sample(batch, reference_sample(c, g, 0.5, 4, np.random.default_rng(0)))
        assert sample_training_pairs(cands, [], 0.5, 4, np.random.default_rng(0)).negatives == cands


class TestTotalLoss:
    def test_paper_coefficients(self):
        assert [stage_weight(t) for t in range(CascadeConfig().stages)] == [1.0, 0.5, 0.25]

    def test_all_zero(self):
        cfg = CascadeConfig()
        assert total_loss([{"loc": 0, "rrm": 0, "rcm": 0}] * 3, cfg) == 0.0

    def test_hand_evaluated_unit_losses(self):
        cfg = CascadeConfig()
        losses = [{"loc": 1.0, "rrm": 1.0, "rcm": 1.0} for _ in range(3)]
        np.testing.assert_allclose(total_loss(losses, cfg), 5.25)

    def test_linearity_by_perturbation(self):
        cfg = CascadeConfig()
        rng = np.random.default_rng(17)
        base = [{"loc": rng.uniform(), "rrm": rng.uniform(), "rcm": rng.uniform()}
                for _ in range(3)]
        v0 = total_loss(base, cfg)
        for t in range(3):
            for key in ("loc", "rrm", "rcm"):
                bumped = [dict(d) for d in base]
                bumped[t][key] += 1.0
                np.testing.assert_allclose(total_loss(bumped, cfg) - v0, stage_weight(t),
                                           atol=1e-12)

    def test_seg_terms_use_seg_weights(self):
        cfg = CascadeConfig()
        losses = [{"loc": 0.0, "rrm": 0.0, "rcm": 0.0, "seg": 1.0} for _ in range(3)]
        np.testing.assert_allclose(total_loss(losses, cfg), 1.75)


class TestInferImage:
    def _scene(self, model, seed=0):
        rng = np.random.default_rng(seed)
        grid = FeatureGrid(0.05 * rng.normal(size=(model.channels, 16, 16)), 32, 32)
        seeds = [inst(0, Box(2, 2, 12, 22), 1.0, lineage=0),
                 inst(1, Box(14, 6, 22, 14), 1.0, lineage=1)]
        return grid, seeds

    def test_empty_scene(self):
        model = tiny_model()
        grid = FeatureGrid(np.zeros((model.channels, 16, 16)), 32, 32)
        assert infer_image(grid, [], model) == []

    def test_no_instances_above_threshold(self):
        model = tiny_model()
        for head in model.box_heads:
            head.w.value[4] = 0.0
            head.b.value[4] = -9.0  # confidence ~ 0
        grid, seeds = self._scene(model)
        assert infer_image(grid, seeds, model) == []

    def test_final_stage_scores_emitted(self):
        model = tiny_model(seed=5)
        grid, seeds = self._scene(model, seed=1)
        preds = infer_image(grid, seeds, model)
        assert preds
        # every candidate pair emits one score per verb, final-stage fused
        by_pair = {}
        for p in preds:
            by_pair.setdefault((id(p.human), id(p.object)), []).append(p)
        for group in by_pair.values():
            assert [g.verb for g in group] == list(range(model.n_verbs))

    def test_matches_scripted_protocol_trace(self):
        from hoicascade.features import cross_stage_fuse as fuse_step
        from hoicascade.interaction import classify_relation as classify

        model = tiny_model(seed=9)
        grid, seeds = self._scene(model, seed=2)
        preds = infer_image(grid, seeds, model)

        # step-by-step manual trace of the published protocol
        stage_outputs = run_localization(grid, seeds, model)
        merged = merge_and_filter(stage_outputs, model.config.merge_threshold)
        kept = dedup_by_lineage(merged)
        cands = enumerate_pairs(kept, model.person_class)
        # one-pair batches throughout: features, relation maps, ranking,
        # classification
        feats = [model.build_features(grid, [c]) for c in cands]
        ranking = [float(rank_scores(fuse_step(f.x_v, f.x_v, model.visual_maps[-1]),
                                     model.geometric_maps[-1].forward(f.x_g))[0])
                   for f in feats]
        ranked = sorted(range(len(cands)), key=lambda i: -ranking[i])
        top = select_topk(ranked, 64)
        expected = []
        for i in top:
            c, f = cands[i], feats[i]
            prev = np.zeros_like(f.x_v)
            fused_scores = None
            for t in range(model.config.stages):
                fused = fuse_step(f.x_v, prev, model.visual_maps[t])
                s_s, s_g, s_v = map(sigmoid, classify(
                    f.x_s, model.geometric_maps[t].forward(f.x_g), fused, model.semantic_heads[t]))
                fused_scores = ((s_v + s_g) * s_s)[0]
                prev = f.x_v
            for verb in range(model.n_verbs):
                expected.append((c.human.box, c.object.box, verb, fused_scores[verb]))

        assert len(preds) == len(expected)
        for got, (hbox, obox, verb, score) in zip(preds, expected):
            assert got.human.box == hbox and got.object.box == obox
            assert got.verb == verb
            np.testing.assert_allclose(got.score, score, atol=1e-12)

    def test_lineage_dedup_keeps_one_instance_per_seed(self):
        model = tiny_model(seed=11)
        grid, seeds = self._scene(model, seed=3)
        stage_outputs = run_localization(grid, seeds, model)
        merged = merge_and_filter(stage_outputs, 0.0)
        kept = dedup_by_lineage(merged)
        assert len(kept) == len(seeds)
        assert sorted(i.lineage for i in kept) == [0, 1]


def per_pair_reference(grid, seeds, model, top_k=TOP_K):
    """(human box, object box, verb, score) rows of the inference protocol,
    built, mapped, ranked and classified one pair at a time, on the
    stages' own relation, geometric and semantic layers."""
    kept = dedup_by_lineage(merge_and_filter(run_localization(grid, seeds, model),
                                             model.config.merge_threshold))
    cands = enumerate_pairs(kept, model.person_class)
    feats = [model.build_features(grid, [c]) for c in cands]

    def fused(f, stage):  # zero predecessor at stage 1, the pair's own tensor after
        prev = f.x_v if stage > 0 else np.zeros_like(f.x_v)
        return cross_stage_fuse(f.x_v, prev, model.visual_maps[stage])

    last = model.config.stages - 1
    ranking = [float(rank_scores(fused(f, last), model.geometric_maps[last].forward(f.x_g))[0])
               for f in feats]
    rows = []
    for i in sorted(range(len(cands)), key=lambda i: -ranking[i])[:top_k]:
        f = feats[i]
        for t, semantic in enumerate(model.semantic_heads):
            s_s, s_g, s_v = map(sigmoid, classify_relation(
                f.x_s, model.geometric_maps[t].forward(f.x_g), fused(f, t), semantic))
            scores = ((s_v + s_g) * s_s)[0]
        rows += [(cands[i].human.box, cands[i].object.box, verb, scores[verb])
                 for verb in range(model.n_verbs)]
    return rows


def crowded_scene(model, seed=0):
    """Three people and three objects: 15 candidate pairs."""
    rng = np.random.default_rng(seed)
    grid = FeatureGrid(0.05 * rng.normal(size=(model.channels, 32, 32)), 64, 64)
    seeds = [inst(0, Box(2 + 20 * i, 4, 14 + 20 * i, 30), 1.0, lineage=i) for i in range(3)]
    seeds += [inst(1 + i % 2, Box(4 + 20 * i, 36, 14 + 20 * i, 46), 1.0, lineage=3 + i)
              for i in range(3)]
    return grid, seeds


def assert_matches_reference(preds, reference):
    assert len(preds) == len(reference)
    for got, (hbox, obox, verb, score) in zip(preds, reference):
        assert got.human.box == hbox and got.object.box == obox
        assert got.verb == verb
        np.testing.assert_allclose(got.score, score, atol=1e-12)


class TestBatchedInference:
    """Per-image batched inference against the one-pair-at-a-time protocol."""

    def test_topk_binds_in_crowded_scene(self):
        model = tiny_model(seed=21)
        grid, seeds = crowded_scene(model)
        reference = per_pair_reference(grid, seeds, model, top_k=4)
        assert len(reference) == 4 * model.n_verbs
        assert len(per_pair_reference(grid, seeds, model)) == 15 * model.n_verbs
        assert_matches_reference(infer_image(grid, seeds, model, top_k=4), reference)

    def test_one_stage_model(self):
        model = tiny_model(seed=22, config=CascadeConfig(stages=1))
        grid, seeds = crowded_scene(model, seed=1)
        assert_matches_reference(infer_image(grid, seeds, model, top_k=6),
                                 per_pair_reference(grid, seeds, model, top_k=6))

    def test_segment_mode_model(self):
        model = tiny_model(seed=23, segment=True)
        grid, seeds = crowded_scene(model, seed=2)
        preds = infer_image(grid, seeds, model, top_k=5)
        assert preds and all(p.human.mask is not None for p in preds)
        assert_matches_reference(preds, per_pair_reference(grid, seeds, model, top_k=5))

    def test_relation_layers_run_once_per_image(self, monkeypatch):
        from hoicascade.numerics import FCLayer

        calls = {}
        forward = FCLayer.forward

        def counting_forward(self, x):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return forward(self, x)

        monkeypatch.setattr(FCLayer, "forward", counting_forward)
        model = tiny_model(seed=24)
        once = [model.visual_maps[-1], model.geometric_maps[-1], model.semantic_heads[-1],
                model.face_attention, model.noface_attention, model.geo_encoder.fc]
        # only the emitted stage maps, ranks and classifies
        unused = model.visual_maps[:-1] + model.geometric_maps[:-1] + model.semantic_heads[:-1]
        grid, seeds = crowded_scene(model)
        pair_counts = []
        for image_seeds in (seeds[:1] + seeds[3:4], seeds):  # one person and one object, all
            calls.clear()
            preds = infer_image(grid, image_seeds, model)
            pair_counts.append(len(preds) // model.n_verbs)
            assert [calls.get(id(layer), 0) for layer in once] == [1] * len(once)
            assert [calls.get(id(layer), 0) for layer in unused] == [0] * len(unused)
        assert pair_counts == [1, 15]

    @pytest.mark.parametrize("segment", [False, True])
    def test_scores_equal_to_per_box_pooling(self, monkeypatch, segment):
        """Served scores are bitwise those of pooling every box on its own
        and stacking the results, as the per-box loop reference does."""
        from test_geometry import roi_align_one

        def per_box(grid, boxes, out=(7, 7), keep=None):
            grids = [grid if keep is None else
                     FeatureGrid(grid.data * keep[i], grid.image_height, grid.image_width)
                     for i in range(len(boxes))]
            return np.stack([roi_align_one(g, box, out) for g, box in zip(grids, boxes)])

        model = tiny_model(channels=6, seed=28, segment=segment)
        grid, seeds = crowded_scene(model, seed=4)
        grid.data *= 20.0  # activations large enough for rounding to show
        batched = infer_image(grid, seeds, model)
        monkeypatch.setattr(interaction, "roi_align", per_box)
        monkeypatch.setattr(cascade, "roi_align", per_box)
        looped = infer_image(grid, seeds, model)
        assert len(batched) == len(looped) > 0
        for a, b in zip(batched, looped):
            assert (a.human.box, a.object.box, a.verb) == (b.human.box, b.object.box, b.verb)
            assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()

    def test_pairs_pool_once_per_boxes_and_object_class(self):
        model = tiny_model(seed=27)
        grid = FeatureGrid(np.random.default_rng(6).normal(size=(3, 32, 32)), 64, 64)
        h_box, o_box = Box(2, 4, 14, 30), Box(16, 4, 26, 14)
        # the same boxes under another object class, and as other instances
        candidates = [HOICandidate(inst(0, h_box), inst(1, o_box)),
                      HOICandidate(inst(0, h_box), inst(2, o_box)),
                      HOICandidate(inst(0, h_box, conf=0.5), inst(1, o_box, conf=0.4))]
        pooled = model.pool_pairs(grid, candidates)
        assert pooled.rows.tolist() == [0, 1, 0] and pooled.map_rows.tolist() == [0, 0, 0]
        feats = model.build_features(grid, candidates)
        for row, c in zip(feats.x_s, candidates):
            np.testing.assert_array_equal(row, model.cooccurrence[c.object.class_id])
        assert not np.array_equal(feats.x_s[0], feats.x_s[1])
        np.testing.assert_array_equal(feats.x_v[0], feats.x_v[2])

    def test_noface_features_pool_face_zeroed_grids(self):
        model = tiny_model(seed=26)
        grid, seeds = crowded_scene(model, seed=5)
        candidates = enumerate_pairs(seeds)
        pooled = model.pool_pairs(grid, candidates)
        for row, c in enumerate(candidates):
            face = face_region(c.human.box)
            data = grid.data.copy()
            for r in range(grid.grid_height):
                for col in range(grid.grid_width):
                    x, y = (col + 0.5) / grid.scale_x, (r + 0.5) / grid.scale_y
                    if face.x1 <= x < face.x2 and face.y1 <= y < face.y2:
                        data[:, r, col] = 0.0
            zeroed = FeatureGrid(data, grid.image_height, grid.image_width)
            assert (data != grid.data).any()
            np.testing.assert_array_equal(pooled.noface[row],
                                          roi_align(zeroed, [c.human.box])[0])

    def test_inference_follows_a_weight_update(self):
        model = tiny_model(seed=25)
        grid, seeds = crowded_scene(model, seed=3)
        before = infer_image(grid, seeds, model)
        assert_matches_reference(before, per_pair_reference(grid, seeds, model))
        rng = np.random.default_rng(0)
        for _, p in model.store.items():
            p.grad[...] = rng.normal(size=p.grad.shape)
        sgd_step(model.store, 0.05)
        after = infer_image(grid, seeds, model)
        assert_matches_reference(after, per_pair_reference(grid, seeds, model))
        assert [p.score for p in after] != [p.score for p in before]


class TestModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = tiny_model(seed=13)
        grid = FeatureGrid(np.random.default_rng(4).normal(size=(3, 16, 16)), 32, 32)
        seeds = [inst(0, Box(2, 2, 12, 22), 1.0, lineage=0),
                 inst(1, Box(14, 6, 22, 14), 1.0, lineage=1)]
        model.save(tmp_path / "model")
        # float32 storage slightly perturbs weights: reload twice and compare
        first = CascadeModel.load(tmp_path / "model")
        second = CascadeModel.load(tmp_path / "model")
        p1 = infer_image(grid, seeds, first)
        p2 = infer_image(grid, seeds, second)
        assert [(q.verb, q.score) for q in p1] == [(q.verb, q.score) for q in p2]
        assert first.config == model.config == CascadeConfig()
        np.testing.assert_allclose(first.cooccurrence, model.cooccurrence,
                                   rtol=0, atol=1e-15)

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        from hoicascade import numerics

        model = tiny_model(seed=14, segment=True)
        grid, seeds = crowded_scene(model, seed=4)
        model.save(tmp_path / "model")
        expected = infer_image(grid, seeds, CascadeModel.load(tmp_path / "model"))

        def no_generator(*args):
            raise AssertionError("load created a random generator")

        init_uniform = numerics.init_uniform

        def zeros_only(rng, *args):
            assert rng is None, "load drew initial values"
            return init_uniform(rng, *args)

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(numerics, "init_uniform", zeros_only)
        loaded = CascadeModel.load(tmp_path / "model")
        got = infer_image(grid, seeds, loaded)
        assert [(p.verb, p.score) for p in got] == [(p.verb, p.score) for p in expected]
        for name, p in loaded.store.items():
            np.testing.assert_allclose(p.value, model.store[name].value, rtol=1e-6, atol=1e-7)

    def test_loaded_model_holds_no_gradient_buffers(self, tmp_path):
        model = tiny_model(seed=15)
        grid, seeds = crowded_scene(model, seed=5)
        model.save(tmp_path / "model")
        loaded = CascadeModel.load(tmp_path / "model")
        infer_image(grid, seeds, loaded)
        assert [name for name, p in loaded.store.items() if p._grad is not None] == []

    def test_checkpoint_carries_grid_geometry_and_cascade_config(self, tmp_path):
        config = CascadeConfig(stages=2, merge_threshold=0.4)
        tiny_model(grid_size=16, config=config).save(tmp_path / "m")
        loaded = CascadeModel.load(tmp_path / "m")
        assert (loaded.channels, loaded.grid_size) == (3, 16)
        assert loaded.config == config

    @pytest.mark.parametrize("segment, params", [(False, 583_075), (True, 2_081_887)])
    def test_checkpoint_layout_of_the_default_model(self, segment, params):
        """One layer per input per stage: 8 blocks each, 10 shared, and a
        mask map per stage in segment mode, at the CLI's default data."""
        from hoicascade.synth import SceneSpec

        spec = SceneSpec()
        model = CascadeModel(spec.n_classes, spec.n_verbs, spec.min_channels(), segment=segment)
        c, n = spec.min_channels(), spec.n_verbs
        c49 = c * 49
        assert (c, n) == (13, 6)
        stage = {"box.w": (5, c49), "box.b": (5,), "visual.w": (1 + n, 3 * c49),
                 "visual.b": (1 + n,), "geometric.w": (1 + n, 256), "geometric.b": (1 + n,),
                 "semantic.w": (n, n), "semantic.b": (n,)}
        shared = {"geo_encoder.conv1.w": (8, 2, 3, 3), "geo_encoder.conv1.b": (8,),
                  "geo_encoder.conv2.w": (8, 8, 3, 3), "geo_encoder.conv2.b": (8,),
                  "geo_encoder.fc.w": (256, 2048), "geo_encoder.fc.b": (256,),
                  "face_attention.w": (1, 2 * c49), "face_attention.b": (1,),
                  "noface_attention.w": (1, 2 * c49), "noface_attention.b": (1,)}
        expected = {f"stage{t}.{name}": shape for t in (1, 2, 3) for name, shape in stage.items()}
        expected.update({f"shared.{name}": shape for name, shape in shared.items()})
        if segment:
            for t in (1, 2, 3):
                expected.update({f"stage{t}.seg.w": (196, c * 196), f"stage{t}.seg.b": (196,)})
        assert {name: p.value.shape for name, p in model.store.items()} == expected
        assert sum(p.value.size for _, p in model.store.items()) == params

    def test_seg_blocks_only_in_segment_mode(self):
        detect = tiny_model()
        assert detect.seg_heads == []
        assert not [n for n in detect.store.names() if ".seg." in n]
        seg = tiny_model(segment=True)
        stages = {n.split(".")[0] for n in seg.store.names() if ".seg." in n}
        assert stages == {f"stage{t + 1}" for t in range(seg.config.stages)}
        assert len(seg.seg_heads) == seg.config.stages

    def test_shared_blocks_identical_across_modes(self):
        # mask heads draw from the seed RNG after every other block
        detect = tiny_model(seed=3)
        seg = tiny_model(seed=3, segment=True)
        for name, p in detect.store.items():
            np.testing.assert_array_equal(p.value, seg.store[name].value)

    def test_load_rejects_blocks_of_other_mode(self, tmp_path):
        tiny_model(segment=True).save(tmp_path / "model")
        meta_path = tmp_path / "model" / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["segment"] = False
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=r"extra=\[.*'stage1\.seg\."):
            CascadeModel.load(tmp_path / "model")
