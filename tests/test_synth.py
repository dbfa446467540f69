import numpy as np
import pytest

from hoicascade.errors import DataError
from hoicascade.geometry import box_iou
from hoicascade.numerics import FCLayer, Param, ParamStore, binary_cross_entropy, sgd_step
from hoicascade.synth import (
    DEFAULT_GEOMETRIC,
    DEFAULT_VERBS,
    SceneSpec,
    derive_triplets,
    generate_dataset,
    generate_scene,
    interaction_region,
    render_feature_grid,
    rule_fires,
)


def scenes_equal(a, b):
    if (a.image_id, a.width, a.height, a.seed) != (b.image_id, b.width, b.height, b.seed):
        return False
    if len(a.entities) != len(b.entities) or a.triplets != b.triplets:
        return False
    for ea, eb in zip(a.entities, b.entities):
        if (ea.class_id, ea.box, ea.face_box) != (eb.class_id, eb.box, eb.face_box):
            return False
        if ea.mask != eb.mask:
            return False
    for pa, pb in zip(a.proposals, b.proposals):
        if (pa.box, pa.entity, pa.iou) != (pb.box, pb.entity, pb.iou):
            return False
    return True


class TestGeneration:
    def test_same_seed_identical_corpora(self):
        spec = SceneSpec(seed=42)
        a = generate_dataset(spec, 10)
        b = generate_dataset(spec, 10)
        assert all(scenes_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = generate_dataset(SceneSpec(seed=1), 5)
        b = generate_dataset(SceneSpec(seed=2), 5)
        assert not all(scenes_equal(x, y) for x, y in zip(a, b))

    def test_zero_jitter_proposals_equal_gt(self):
        spec = SceneSpec(jitter=0.0, seed=3)
        for scene in generate_dataset(spec, 5):
            for prop in scene.proposals:
                assert prop.iou == 1.0
                assert prop.box == scene.entities[prop.entity].box

    def test_jitter_recorded_iou(self):
        spec = SceneSpec(jitter=0.3, seed=4)
        for scene in generate_dataset(spec, 5):
            for prop in scene.proposals:
                np.testing.assert_allclose(
                    prop.iou, box_iou(prop.box, scene.entities[prop.entity].box))

    def test_triplets_match_rule_reapplication_oracle(self):
        spec = SceneSpec(seed=5)
        for scene in generate_dataset(spec, 20):
            assert scene.triplets == derive_triplets(scene.entities, spec)

    def test_every_person_has_contained_face(self):
        spec = SceneSpec(seed=6)
        for scene in generate_dataset(spec, 10):
            for ent in scene.entities:
                if ent.class_id == spec.person_class:
                    f, b = ent.face_box, ent.box
                    assert f is not None
                    assert b.x1 <= f.x1 and f.x2 <= b.x2
                    assert b.y1 <= f.y1 and f.y2 <= b.y2
                else:
                    assert ent.face_box is None

    def test_masks_nonempty_and_inside_box(self):
        spec = SceneSpec(seed=7)
        for scene in generate_dataset(spec, 10):
            for ent in scene.entities:
                assert ent.mask.any()
                bbox = ent.mask.bbox()
                assert bbox.x1 >= ent.box.x1 - 2 and bbox.x2 <= ent.box.x2 + 2
                assert bbox.y1 >= ent.box.y1 - 2 and bbox.y2 <= ent.box.y2 + 2

    def test_interactions_exist_in_corpus(self):
        scenes = generate_dataset(SceneSpec(seed=8), 30)
        total = sum(len(s.triplets) for s in scenes)
        assert total > 20
        verbs = {t.verb for s in scenes for t in s.triplets}
        assert len(verbs) >= 4  # most verbs fire somewhere

    def test_infeasible_spec_errors(self):
        with pytest.raises(DataError):
            generate_scene(SceneSpec(image_size=16), 0)

    def test_vocabulary_defaults(self):
        spec = SceneSpec()
        assert spec.n_classes == 5 and spec.class_names[spec.person_class] == "person"
        assert spec.n_verbs == 6
        assert DEFAULT_GEOMETRIC == {0, 1}
        assert set(DEFAULT_VERBS[i] for i in DEFAULT_GEOMETRIC) == {"next_to", "above"}


class TestRules:
    def test_rules_and_regions_consistent(self):
        # wherever a rule fired, the painted interaction region is valid
        spec = SceneSpec(seed=9)
        for scene in generate_dataset(spec, 15):
            for t in scene.triplets:
                region = interaction_region(scene.entities[t.human],
                                            scene.entities[t.object],
                                            spec.verb_names[t.verb], spec)
                assert region.area > 0

    def test_drink_requires_cup(self):
        spec = SceneSpec(seed=10)
        verb = spec.verb_id("drink_from")
        for scene in generate_dataset(spec, 20):
            for t in scene.triplets:
                if t.verb == verb:
                    assert spec.class_names[scene.entities[t.object].class_id] == "cup"

    def test_unknown_verb_never_fires(self):
        spec = SceneSpec(seed=11)
        scene = generate_scene(spec, 0)
        persons = [e for e in scene.entities if e.class_id == spec.person_class]
        others = [e for e in scene.entities if e.class_id != spec.person_class]
        assert not rule_fires("juggle", persons[0], others[0], spec)


class TestRendering:
    def test_class_channel_exact_inside_entities(self):
        spec = SceneSpec(seed=12, noise_sigma=0.0)
        scene = generate_scene(spec, 0)
        grid = render_feature_grid(scene, spec, spec.min_channels(), 32)
        size = scene.width
        for ent in scene.entities:
            ch = grid.data[ent.class_id]
            vals = []
            for r in range(32):
                for c in range(32):
                    px = min(int((c + 0.5) * size / 32), size - 1)
                    py = min(int((r + 0.5) * size / 32), size - 1)
                    if ent.mask.bits[py, px]:
                        vals.append(ch[r, c])
            assert vals and np.mean(vals) == 1.0

    def test_outside_everything_is_zero(self):
        spec = SceneSpec(seed=13, noise_sigma=0.0)
        scene = generate_scene(spec, 1)
        grid = render_feature_grid(scene, spec, spec.min_channels(), 32)
        size = scene.width
        covered = np.zeros((32, 32), dtype=bool)
        for ent in scene.entities:
            x1, y1, x2, y2 = ent.box.as_tuple()
            for r in range(32):
                for c in range(32):
                    px, py = (c + 0.5) * size / 32, (r + 0.5) * size / 32
                    if x1 - 16 <= px < x2 + 16 and y1 - 16 <= py < y2 + 16:
                        covered[r, c] = True
        outside = ~covered
        if outside.any():
            np.testing.assert_array_equal(grid.data[:, outside], 0.0)

    def test_channel_contents_vs_rasterization_oracle(self):
        spec = SceneSpec(seed=14, noise_sigma=0.0)
        scene = generate_scene(spec, 2)
        grid = render_feature_grid(scene, spec, spec.min_channels(), 32)
        size = scene.width
        verb_offset = spec.n_classes
        for t in scene.triplets:
            region = interaction_region(scene.entities[t.human], scene.entities[t.object],
                                        spec.verb_names[t.verb], spec)
            ch = grid.data[verb_offset + t.verb]
            for r in range(0, 32, 3):
                for c in range(0, 32, 3):
                    px, py = (c + 0.5) * size / 32, (r + 0.5) * size / 32
                    if region.x1 <= px < region.x2 and region.y1 <= py < region.y2:
                        assert ch[r, c] == 1.0

    def test_noise_is_deterministic_per_scene(self):
        spec = SceneSpec(seed=15, noise_sigma=0.1)
        scene = generate_scene(spec, 3)
        a = render_feature_grid(scene, spec, spec.min_channels(), 32)
        b = render_feature_grid(scene, spec, spec.min_channels(), 32)
        assert a.data.tobytes() == b.data.tobytes()

    def test_too_few_channels(self):
        spec = SceneSpec(seed=16)
        scene = generate_scene(spec, 0)
        with pytest.raises(DataError):
            render_feature_grid(scene, spec, spec.min_channels() - 1, 32)

    def test_part_pattern_two_levels(self):
        spec = SceneSpec(seed=17, noise_sigma=0.0)
        scene = generate_scene(spec, 4)
        grid = render_feature_grid(scene, spec, spec.min_channels(), 32)
        part = grid.data[spec.n_classes + spec.n_verbs + 1]
        levels = set(np.unique(part))
        assert levels <= {0.0, 0.5, 1.0}
        assert 0.5 in levels and 1.0 in levels


class TestLearnability:
    def test_logistic_probe_class_accuracy(self):
        spec = SceneSpec(seed=18)
        scenes = generate_dataset(spec, 60)
        channels = spec.min_channels()
        pool_res = 64  # fine enough that small occluded objects keep own-channel mass
        feats, labels = [], []
        for scene in scenes:
            grid = render_feature_grid(scene, spec, channels, pool_res)
            size = scene.width
            cx = (np.arange(pool_res) + 0.5) * size / pool_res
            gx, gy = np.meshgrid(cx, cx)
            px = np.clip(gx.astype(int), 0, size - 1)
            py = np.clip(gy.astype(int), 0, size - 1)
            for ent in scene.entities:
                inside = ent.mask.bits[py, px]
                if inside.any():
                    feats.append(grid.data[:, inside].mean(axis=1))
                    labels.append(ent.class_id)
        feats = np.asarray(feats)
        labels = np.asarray(labels)
        split = int(0.7 * len(feats))

        probe = FCLayer(channels, spec.n_classes, np.random.default_rng(0))
        store = ParamStore()
        for name, p in probe.params("probe"):
            store.add(name, p)
        onehot = np.eye(spec.n_classes)[labels[:split]]
        for _ in range(400):
            logits = probe.forward(feats[:split])
            _, grad = binary_cross_entropy(logits, onehot)
            probe.backward(grad / len(logits))
            sgd_step(store, 0.5)
        test_logits = probe.forward(feats[split:])
        acc = np.mean(np.argmax(test_logits, axis=1) == labels[split:])
        assert acc >= 0.99
