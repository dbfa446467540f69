import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hoicascade.errors import DataError, FormatError
from hoicascade.formats import (
    RunConfig,
    parse_config_file,
    predictions_to_record,
    read_meta,
    read_predictions_ndjson,
    read_scenes_ndjson,
    rle_decode,
    rle_encode,
    run_config_from,
    scenes_to_gt_records,
    write_meta,
    write_predictions_ndjson,
    write_scenes_ndjson,
)
from hoicascade.cascade import Instance
from hoicascade.geometry import BitMask, Box
from hoicascade.interaction import TripletPrediction
from hoicascade.synth import SceneSpec, generate_dataset


class TestRle:
    @settings(max_examples=80)
    @given(st.integers(1, 12).flatmap(lambda h: st.integers(1, 12).flatmap(
        lambda w: arrays(bool, (h, w)))))
    def test_roundtrip_property(self, bits):
        mask = BitMask(bits)
        assert rle_decode(rle_encode(mask), *bits.shape) == mask

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            bits = rng.uniform(size=(7, 9)) < rng.uniform(0.1, 0.9)
            mask = BitMask(bits)
            back = rle_decode(rle_encode(mask), 7, 9)
            assert back == mask

    def test_starts_with_zero_count(self):
        mask = BitMask(np.array([[1, 1, 0, 0]], dtype=bool))
        assert rle_encode(mask) == [0, 2, 2]

    def test_bad_total(self):
        with pytest.raises(FormatError):
            rle_decode([3, 2], 2, 2)


class TestSceneNdjson:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(seed=21)
        scenes = generate_dataset(spec, 6)
        path = tmp_path / "scenes.ndjson"
        write_scenes_ndjson(path, scenes)
        back = read_scenes_ndjson(path)
        assert len(back) == len(scenes)
        for a, b in zip(scenes, back):
            assert a.image_id == b.image_id
            assert a.triplets == b.triplets
            assert len(a.entities) == len(b.entities)
            for ea, eb in zip(a.entities, b.entities):
                assert ea.class_id == eb.class_id
                assert ea.box == eb.box
                assert ea.mask == eb.mask
                assert ea.face_box == eb.face_box
            for pa, pb in zip(a.proposals, b.proposals):
                assert pa.box == pb.box and pa.entity == pb.entity and pa.iou == pb.iou

    def test_write_is_deterministic(self, tmp_path):
        scenes = generate_dataset(SceneSpec(seed=22), 4)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_scenes_ndjson(p1, scenes)
        write_scenes_ndjson(p2, scenes)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"image_id": "x"}\n')
        with pytest.raises(FormatError, match="bad.ndjson:1"):
            read_scenes_ndjson(path)

    def test_dangling_triplet_ref(self, tmp_path):
        scenes = generate_dataset(SceneSpec(seed=23), 1)
        record_path = tmp_path / "scenes.ndjson"
        write_scenes_ndjson(record_path, scenes)
        import json
        record = json.loads(record_path.read_text().splitlines()[0])
        record["triplets"] = [{"human": 0, "verb": 0, "object": 99}]
        record_path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataError):
            read_scenes_ndjson(record_path)


class TestMeta:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(seed=5, jitter=0.4, occlusion_rate=0.5)
        path = tmp_path / "meta.json"
        write_meta(path, spec, extra={"grid_size": 32, "channels": 13})
        back, raw = read_meta(path)
        assert back == spec
        assert raw["grid_size"] == 32


class TestPredictions:
    def _preds(self):
        h = Instance(0, 0.9, Box(0, 0, 10, 20))
        o = Instance(2, 0.8, Box(12, 2, 18, 8))
        return [TripletPrediction(h, o, 0, 0.75), TripletPrediction(h, o, 1, 0.25)]

    def test_roundtrip_box_mode(self, tmp_path):
        record = predictions_to_record("img0", self._preds())
        assert len(record["entities"]) == 2  # deduplicated
        path = tmp_path / "preds.ndjson"
        write_predictions_ndjson(path, [record])
        back = read_predictions_ndjson(path)
        assert list(back) == ["img0"]
        assert [t.verb for t in back["img0"]] == [0, 1]
        assert [t.score for t in back["img0"]] == [0.75, 0.25]
        assert back["img0"][0].h_box == Box(0, 0, 10, 20)
        assert [t.index for t in back["img0"]] == [0, 1]

    def test_mask_mode_requires_masks(self):
        with pytest.raises(DataError):
            predictions_to_record("img0", self._preds(), with_masks=True)

    def test_mask_roundtrip(self, tmp_path):
        bits = np.zeros((24, 24), dtype=bool)
        bits[0:20, 0:10] = True
        h = Instance(0, 0.9, Box(0, 0, 10, 20), mask=BitMask(bits))
        o_bits = np.zeros((24, 24), dtype=bool)
        o_bits[2:8, 12:18] = True
        o = Instance(2, 0.8, Box(12, 2, 18, 8), mask=BitMask(o_bits))
        record = predictions_to_record("x", [TripletPrediction(h, o, 3, 0.5)],
                                       with_masks=True)
        path = tmp_path / "preds.ndjson"
        write_predictions_ndjson(path, [record])
        back = read_predictions_ndjson(path)
        assert back["x"][0].h_mask == h.mask
        assert back["x"][0].o_mask == o.mask

    def test_gt_records_from_scenes(self):
        scenes = generate_dataset(SceneSpec(seed=24), 3)
        gt = scenes_to_gt_records(scenes)
        assert set(gt) == {s.image_id for s in scenes}
        for scene in scenes:
            assert len(gt[scene.image_id]) == len(scene.triplets)


class TestConfig:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("""
# training run
mode = segment
learning_rate = 0.05
train_scenes = 40   # small corpus
""")
        values = parse_config_file(path)
        cfg = run_config_from(values)
        assert cfg.mode == "segment"
        assert cfg.learning_rate == 0.05 and cfg.train_scenes == 40
        assert cfg.top_k == 64 and cfg.merge_threshold == 0.3  # defaults stay

    def test_defaults_are_protocol_constants(self):
        cfg = RunConfig()
        assert (cfg.stages, cfg.merge_threshold, cfg.top_k, cfg.hinge_margin) == \
            (3, 0.3, 64, 0.2)

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            run_config_from({"warp_speed": "9"})

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(FormatError):
            parse_config_file(path)
