import numpy as np

from hoicascade.cascade import Instance
from hoicascade.features import CooccurrenceTable
from hoicascade.geometry import Box, FeatureGrid
from hoicascade.interaction import (
    CascadeModel,
    GroundTruthPair,
    enumerate_pairs,
    sample_training_pairs,
)
from hoicascade.numerics import finite_diff_check
from hoicascade.training import RelationPass, relation_losses_multi


def tiny_model(seed=0):
    model = CascadeModel(n_classes=3, n_verbs=4, channels=3, seed=seed)
    model.cooccurrence = CooccurrenceTable.from_triplets(
        [(1, 0), (1, 2), (2, 3)], 3, 4)
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
    batches = [sample_training_pairs(candidates, gt, thr, model.n_verbs, stage=t + 1)
               for t, thr in enumerate(model.config.iou_thresholds)]
    return grid, batches


class TestRelationPass:
    def test_trained_features_are_deployed_features(self):
        model = tiny_model(seed=31)
        grid, batches = sampled_batches(model)
        stage_pairs = [(t, b.all_pairs()) for t, b in enumerate(batches)]
        rp = RelationPass(model, grid, stage_pairs).forward()
        candidates = [lab.candidate for _, pairs in stage_pairs for lab in pairs]
        later = np.arange(rp.slices[1].start, rp.n)  # stages >= 2
        assert rp.slices[0].stop > 0 and later.size > 0

        feats = model.build_features(grid, candidates)
        np.testing.assert_array_equal(rp.x_s, feats.x_s)
        np.testing.assert_array_equal(rp.x_g, feats.x_g)
        np.testing.assert_array_equal(rp.x_v, feats.x_v.reshape(len(candidates), -1))
        np.testing.assert_array_equal(rp.fused[later], model.fuse_visual(feats.x_v)[later])

    def test_backward_matches_finite_differences(self):
        model = tiny_model(seed=33)
        grid, batches = sampled_batches(model, seed=1, people=1)

        def loss():
            out = relation_losses_multi(model, grid, batches)
            return sum(g * (o["rrm"] + o["rcm"]) for g, o in zip(model.config.gamma, out))

        # every relation block except the conv layers, whose max-pool ties
        # on binary pair maps make central differences unreliable
        blocks = {name: p for name, p in model.store.items()
                  if ".box." not in name and ".conv" not in name}
        assert len(blocks) == 38
        report = finite_diff_check(loss, blocks, tol=1e-4, max_entries=1, seed=0)
        assert report.passed, str(report)
        assert all(np.any(p.grad) for p in blocks.values())  # analytic grads left in place
