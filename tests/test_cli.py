import json
import re
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hoicascade.cli import COMMAND_KEYS, main
from hoicascade.features import cooccurrence_prior
from hoicascade.formats import RunConfig, rle_decode, rle_encode
from hoicascade.geometry import BitMask
from hoicascade.interaction import CascadeModel
from hoicascade.synth import SceneSpec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth -> train -> infer -> eval pipeline shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model"
    preds = root / "preds.ndjson"
    report = root / "report.json"
    flags = {"synth": ["--train-scenes", "16", "--test-scenes", "6", "--seed", "3"],
             "train": ["--seed", "3", "--phase1-epochs", "2", "--phase2-epochs", "1"],
             "infer": [], "eval": []}
    assert main(["synth", "--out", str(data)] + flags["synth"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model)] + flags["train"]) == 0
    assert main(["infer", "--model", str(model), "--data", str(data),
                 "--out", str(preds)] + flags["infer"]) == 0
    assert main(["eval", "--data", str(data), "--preds", str(preds),
                 "--out", str(report)] + flags["eval"]) == 0
    return {"data": data, "model": model, "preds": preds, "report": report,
            "flags": flags, "root": root}


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline["data"] / "train.ndjson").exists()
        assert (pipeline["data"] / "meta.json").exists()
        assert (pipeline["model"] / "params.bin").exists()
        assert pipeline["preds"].exists()
        report = json.loads(pipeline["report"].read_text())
        assert "map_rel" in report and "recall_at_k" in report
        assert (pipeline["report"].parent / "report.json.txt").exists()

    def test_eval_on_ground_truth_is_perfect(self, pipeline, tmp_path):
        # feed the ground truth back as predictions: mAP must be exactly 1.0
        from hoicascade.formats import (read_scenes_ndjson, scenes_to_gt_records,
                                        write_predictions_ndjson)
        scenes = read_scenes_ndjson(pipeline["data"] / "test.ndjson")
        records = []
        for scene in scenes:
            entities = [{"box": [e.box.x1, e.box.y1, e.box.x2, e.box.y2],
                         "class_id": e.class_id, "confidence": 1.0}
                        for e in scene.entities]
            triplets = [{"h": t.human, "o": t.object, "verb": t.verb, "score": 0.9}
                        for t in scene.triplets]
            records.append({"image_id": scene.image_id, "entities": entities,
                            "triplets": triplets})
        gt_preds = tmp_path / "gt_preds.ndjson"
        write_predictions_ndjson(gt_preds, records)
        out = tmp_path / "gt_report.json"
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(gt_preds),
                     "--out", str(out)] + pipeline["flags"]["eval"]) == 0
        report = json.loads(out.read_text())
        assert report["map_rel"]["value"] == 1.0
        assert report["recall_at_k"]["mean"] == 1.0

    def test_determinism_byte_identical(self, pipeline, tmp_path_factory):
        root2 = tmp_path_factory.mktemp("cli2")
        data2, model2 = root2 / "data", root2 / "model"
        preds2, report2 = root2 / "p.ndjson", root2 / "r.json"
        flags = pipeline["flags"]
        assert main(["synth", "--out", str(data2)] + flags["synth"]) == 0
        assert main(["train", "--data", str(data2), "--out", str(model2)] + flags["train"]) == 0
        assert main(["infer", "--model", str(model2), "--data", str(data2),
                     "--out", str(preds2)] + flags["infer"]) == 0
        assert main(["eval", "--data", str(data2), "--preds", str(preds2),
                     "--out", str(report2)] + flags["eval"]) == 0
        assert preds2.read_bytes() == pipeline["preds"].read_bytes()
        assert report2.read_bytes() == pipeline["report"].read_bytes()

    def test_grid_geometry_travels_from_data_to_checkpoint(self, pipeline, tmp_path):
        data, model, preds = tmp_path / "data", tmp_path / "model", tmp_path / "p.ndjson"
        flags = pipeline["flags"]
        assert main(["synth", "--out", str(data), "--grid-size", "16"] + flags["synth"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model)] + flags["train"]) == 0
        assert main(["infer", "--model", str(model), "--data", str(data),
                     "--out", str(preds)] + flags["infer"]) == 0
        channels = SceneSpec().min_channels()
        for checkpoint, grid_size in ((model, 16), (pipeline["model"], 32)):
            meta = json.loads((checkpoint / "model.json").read_text())
            assert (meta["grid_size"], meta["channels"]) == (grid_size, channels)
        assert preds.read_bytes() != pipeline["preds"].read_bytes()

    def test_checkpoint_that_names_box_representation_predicts_the_same(self, pipeline,
                                                                        tmp_path):
        # checkpoints written while relation features had a `representation`
        # option carry "representation": "box"; they load as before
        model, preds = tmp_path / "model", tmp_path / "p.ndjson"
        shutil.copytree(pipeline["model"], model)
        meta = json.loads((model / "model.json").read_text())
        assert "representation" not in meta
        with open(model / "model.json", "w", encoding="utf-8") as fh:
            json.dump({**meta, "representation": "box"}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(preds)] + pipeline["flags"]["infer"]) == 0
        assert preds.read_bytes() == pipeline["preds"].read_bytes()

    def test_checkpoint_with_the_training_schedule_predicts_the_same(self, pipeline, tmp_path):
        # older checkpoints also carry the per-stage schedules, the hinge
        # margin and the seed; inference never read them, and load ignores them
        model, preds = tmp_path / "model", tmp_path / "p.ndjson"
        shutil.copytree(pipeline["model"], model)
        meta = json.loads((model / "model.json").read_text())
        assert set(meta["config"]) == {"stages", "merge_threshold"} and "seed" not in meta
        meta["config"].update(iou_thresholds=[0.5, 0.6, 0.7], beta=[1.0, 0.5, 0.25],
                              gamma=[1.0, 0.5, 0.25], seg_weights=[1.0, 0.5, 0.25],
                              hinge_margin=0.2)
        with open(model / "model.json", "w", encoding="utf-8") as fh:
            json.dump({**meta, "seed": 3}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(preds)] + pipeline["flags"]["infer"]) == 0
        assert preds.read_bytes() == pipeline["preds"].read_bytes()

    @pytest.mark.parametrize("empty, ran", [("phase1", "phase2"), ("phase2", "phase1")])
    def test_zero_epoch_phase_saves_a_loadable_model(self, pipeline, tmp_path, capsys,
                                                     empty, ran):
        model, preds = tmp_path / "model", tmp_path / "p.ndjson"
        assert main(["train", "--data", str(pipeline["data"]), "--out", str(model),
                     "--seed", "3", f"--{empty}-epochs", "0", f"--{ran}-epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert f"{empty} did not run" in out and f"{ran} loss " in out
        assert CascadeModel.load(str(model)).store.names() == \
            CascadeModel.load(str(pipeline["model"])).store.names()
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(preds)]) == 0


def test_every_run_config_field_is_read_by_some_command():
    # a field no command reads would be an option nothing can set
    assert set().union(*COMMAND_KEYS.values()) == {f.name for f in fields(RunConfig)}


@pytest.fixture(scope="module")
def segment_pipeline(tmp_path_factory):
    """The same pipeline in segment mode with box-pooled relation features."""
    root = tmp_path_factory.mktemp("cli_segment")
    data = root / "data"
    model = root / "model"
    preds = root / "preds.ndjson"
    report = root / "report.json"
    assert main(["synth", "--out", str(data), "--train-scenes", "8", "--test-scenes", "3",
                 "--seed", "5"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--seed", "5",
                 "--phase1-epochs", "1", "--phase2-epochs", "1", "--mode", "segment"]) == 0
    assert main(["infer", "--model", str(model), "--data", str(data),
                 "--out", str(preds)]) == 0
    assert main(["eval", "--data", str(data), "--preds", str(preds),
                 "--out", str(report)]) == 0
    return {"data": data, "model": model, "preds": preds, "report": report}


class TestSegmentMode:
    def test_predicted_entities_carry_masks(self, segment_pipeline):
        records = [json.loads(line)
                   for line in segment_pipeline["preds"].read_text().splitlines()]
        entities = [e for r in records for e in r["entities"]]
        assert entities
        assert all(rle_decode(e["mask"]["rle"], *e["mask"]["size"]).any() for e in entities)
        report = json.loads(segment_pipeline["report"].read_text())
        assert 0.0 <= report["recall_at_k"]["mean"] <= 1.0

    def test_eval_matches_masks_of_masked_predictions(self, segment_pipeline, pipeline):
        # the prediction file, not a flag, says which match mode Recall@K uses
        for run, mode in ((segment_pipeline, "mask"), (pipeline, "box")):
            assert json.loads(run["report"].read_text())["recall_at_k"]["mode"] == mode

    def test_eval_rejects_partly_masked_predictions(self, segment_pipeline, tmp_path, capsys):
        records = [json.loads(line)
                   for line in segment_pipeline["preds"].read_text().splitlines()]
        record = next(r for r in records if r["triplets"])
        del record["entities"][record["triplets"][0]["h"]]["mask"]
        mixed = tmp_path / "mixed.ndjson"
        mixed.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "r.json"
        assert main(["eval", "--data", str(segment_pipeline["data"]), "--preds", str(mixed),
                     "--out", str(out)]) == 2
        assert f"{mixed}: some predicted entities carry masks" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_masks_of_another_size(self, segment_pipeline, tmp_path, capsys):
        records = [json.loads(line)
                   for line in segment_pipeline["preds"].read_text().splitlines()]
        record = next(r for r in records if r["triplets"])
        entity = record["entities"][record["triplets"][0]["o"]]
        height, width = entity["mask"]["size"]
        bits = rle_decode(entity["mask"]["rle"], height, width).bits
        entity["mask"] = {"size": [height, width + 1],
                          "rle": rle_encode(BitMask(np.pad(bits, ((0, 0), (0, 1)))))}
        resized = tmp_path / "resized.ndjson"
        resized.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["eval", "--data", str(segment_pipeline["data"]),
                     "--preds", str(resized)]) == 2
        err = capsys.readouterr().err
        assert f"{resized}: image {record['image_id']!r}: field 'mask.size'" in err
        assert f"[{height}, {width + 1}]" in err

    def test_checkpoint_blocks_must_match_mode(self, segment_pipeline, tmp_path, capsys):
        # a checkpoint with mask heads whose model.json says detect mode
        stale = tmp_path / "model"
        shutil.copytree(segment_pipeline["model"], stale)
        meta = json.loads((stale / "model.json").read_text())
        meta["segment"] = False
        (stale / "model.json").write_text(json.dumps(meta))
        assert main(["infer", "--model", str(stale), "--data", str(segment_pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        assert "stage1.seg" in capsys.readouterr().err


def edit_first_block(text, block=None, **fields):
    """params.json text with its first block replaced by `block`, or with
    `fields` set in it."""
    manifest = json.loads(text)
    first = min(manifest["blocks"])
    manifest["blocks"][first] = block if block is not None else {**manifest["blocks"][first],
                                                                 **fields}
    return json.dumps(manifest)


def saved_model_json_fields():
    """(section, key) of every field a freshly saved model.json holds: each
    top-level key, and each key of its `config`."""
    model = CascadeModel(n_classes=2, n_verbs=2, channels=1)
    model.cooccurrence = cooccurrence_prior([(1, 0)], 2, 2)
    with tempfile.TemporaryDirectory() as tmp:
        model.save(tmp)
        meta = json.loads((Path(tmp) / "model.json").read_text())
    return ([(None, key) for key in sorted(meta)]
            + [("config", key) for key in sorted(meta["config"])])


def edit_cooccurrence(text, row, column, value):
    """model.json text with one co-occurrence frequency replaced."""
    meta = json.loads(text)
    meta["cooccurrence"][str(row)][column] = value
    return json.dumps(meta)


def edit_model_json(text, config=None, **fields):
    """model.json text with `fields` set in it and `config` merged into its
    config object."""
    meta = {**json.loads(text), **fields}
    meta["config"] = {**meta["config"], **(config or {})}
    return json.dumps(meta)


class TestErrorPaths:
    def test_usage_error_exit_1(self):
        assert main(["definitely-not-a-command"]) == 1
        assert main(["train"]) == 1  # missing required flags

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    def test_malformed_data_exit_2(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "meta.json").write_text("{}")
        (data / "train.ndjson").write_text("not json\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m")]) == 2

    def test_bad_config_value_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train_scenes = not_a_number\n")
        assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2

    @staticmethod
    def io_flags(command, pipeline, tmp_path):
        """The required non-config flags of each command, writing under tmp_path."""
        return {"synth": ["--out", str(tmp_path / "d")],
                "train": ["--data", str(pipeline["data"]), "--out", str(tmp_path / "m")],
                "infer": ["--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
                          "--out", str(tmp_path / "p.ndjson")],
                "eval": ["--data", str(pipeline["data"]), "--preds", str(pipeline["preds"]),
                         "--out", str(tmp_path / "r.json")]}[command]

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--mode", "segment"),
        ("train", "--grid-size", "16"),
        ("train", "--top-k", "8"),
        ("train", "--representation", "box"),  # relation features are box-pooled only
        ("infer", "--phase1-epochs", "99"),
        ("infer", "--channels", "40"),
        ("infer", "--mode", "segment"),  # no prefix match against --model
        ("eval", "--seed", "1"),
        ("eval", "--mode", "segment"),  # the match mode comes from the predictions
    ])
    def test_flag_of_another_command_exit_1(self, pipeline, tmp_path, capsys,
                                            command, flag, value):
        assert main([command, flag, value] + self.io_flags(command, pipeline, tmp_path)) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", [("infer", "phase1_epochs"), ("synth", "mode"),
                                              ("train", "channels"), ("train", "representation")])
    def test_config_file_key_of_another_command_exit_2(self, pipeline, tmp_path, capsys,
                                                       command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# written for another command\n{key} = 1\n")
        flags = ["--config", str(cfg)] + self.io_flags(command, pipeline, tmp_path)
        assert main([command] + flags) == 2
        assert f"{cfg}: config key '{key}' is not read by {command}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_synth_channels_below_minimum_exit_2(self, tmp_path, capsys):
        minimum = SceneSpec().min_channels()
        assert main(["synth", "--out", str(tmp_path / "d"), "--channels",
                     str(minimum - 1)]) == 2
        err = capsys.readouterr().err
        assert "'channels'" in err and f"at least {minimum}" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("ks", ["20,abc", "0,-5"])
    def test_eval_bad_ks_exit_2(self, pipeline, tmp_path, capsys, ks):
        flags = ["--ks", ks] + self.io_flags("eval", pipeline, tmp_path)
        assert main(["eval"] + flags) == 2
        assert "'ks'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--stages", "0"),
        ("train", "--stages", "6"),
        ("infer", "--top-k", "0"),
        ("synth", "--grid-size", "0"),
        ("train", "--hinge-margin", "0"),
        ("train", "--hinge-margin", "-1"),
        ("train", "--learning-rate", "nan"),
        ("train", "--learning-rate", "-0.5"),
        ("train", "--phase1-epochs", "-2"),
        ("train", "--phase2-epochs", "-1"),
        ("synth", "--jitter", "-1"),
        ("synth", "--occlusion-rate", "2"),
        ("synth", "--noise-sigma", "-1"),
        ("synth", "--seed", "-1"),
        ("train", "--seed", "-1"),
        ("synth", "--train-scenes", "-1"),
        ("synth", "--test-scenes", "0"),
        ("synth", "--entities-min", "0"),
        ("synth", "--image-size", "0"),
        ("synth", "--image-size", "40"),
    ])
    def test_impossible_run_setting_exit_2(self, pipeline, tmp_path, capsys,
                                           command, flag, value):
        key = flag[2:].replace("-", "_")
        assert main([command, flag, value] + self.io_flags(command, pipeline, tmp_path)) == 2
        assert f"config key '{key}' must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_entities_max_below_entities_min_exit_2(self, pipeline, tmp_path, capsys):
        flags = ["--entities-min", "4", "--entities-max", "3"]
        assert main(["synth"] + flags + self.io_flags("synth", pipeline, tmp_path)) == 2
        assert ("config key 'entities_max' must be >= entities_min (4), got 3"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag, value", [
        ("gradcheck", "--points", "0"),
        ("gradcheck", "--tol", "0"),
        ("gradcheck", "--tol", "nan"),
        ("gradcheck", "--tol", "inf"),
        ("oracle", "--instances", "0"),
        ("oracle", "--seed", "-1"),
    ])
    def test_bad_check_option_exit_2(self, capsys, command, flag, value):
        assert main([command, flag, value]) == 2
        assert f"option '{flag[2:]}' must be" in capsys.readouterr().err


    # every field save writes is one load requires: a write-only field fails
    @pytest.mark.parametrize("section, key", saved_model_json_fields())
    def test_model_json_missing_key_exit_2(self, pipeline, tmp_path, capsys, section, key):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        meta = json.loads((model / "model.json").read_text())
        del (meta[section] if section else meta)[key]
        (model / "model.json").write_text(json.dumps(meta))
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        err = capsys.readouterr().err
        assert f"{model / 'model.json'}: missing key '{key}'" in err

    # every field load reads has its JSON type checked: a string or a null
    # in its place exits 2 naming the field
    @pytest.mark.parametrize("value", ["x", None])
    @pytest.mark.parametrize("section, key", saved_model_json_fields())
    def test_model_json_wrong_type_exit_2(self, pipeline, tmp_path, capsys, section, key,
                                          value):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        meta = json.loads((model / "model.json").read_text())
        (meta[section] if section else meta)[key] = value
        (model / "model.json").write_text(json.dumps(meta))
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        err = capsys.readouterr().err
        assert f"{model / 'model.json'}: field '{section or key}'" in err and f"'{key}'" in err
        assert not (tmp_path / "p.ndjson").exists()

    @pytest.mark.parametrize("name, corrupt, message", [
        ("model.json", lambda text: text[:-10], "invalid JSON"),
        ("params.json", lambda text: text[:-10], "invalid JSON"),
        ("params.json", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "blocks"}), "missing key 'blocks'"),
        ("params.json", lambda text: text.replace('"shape"', '"dims"'), "missing key 'shape'"),
        ("params.json", lambda text: text.replace('"offset"', '"start"'), "missing key 'offset'"),
        ("params.json", lambda text: "[]", "bad checkpoint magic"),
        ("params.json", lambda text: edit_first_block(text, offset=-4),
         "field 'offset' must be a non-negative integer, got -4"),
        ("params.json", lambda text: edit_first_block(text, offset="8"),
         "field 'offset' must be a non-negative integer, got '8'"),
        ("params.json", lambda text: edit_first_block(text, offset=8.0),
         "field 'offset' must be a non-negative integer, got 8.0"),
        ("params.json", lambda text: json.dumps(
            {**json.loads(text), "blocks": list(json.loads(text)["blocks"].values())}),
         "field 'blocks' must be an object"),
        ("params.json", lambda text: edit_first_block(text, block=5),
         "field 'blocks' must hold an object per block, got 5"),
        ("model.json", lambda text: "[]", "expected a JSON object"),
        ("model.json", lambda text: json.dumps({**json.loads(text), "channels": "13"}),
         "field 'channels' must be an integer >= 1, got '13'"),
        ("model.json", lambda text: json.dumps({**json.loads(text), "grid_size": 0}),
         "field 'grid_size' must be an integer >= 1, got 0"),
        ("model.json", lambda text: json.dumps(
            {**json.loads(text), "cooccurrence": {k: v[:-1] for k, v in
                                                  json.loads(text)["cooccurrence"].items()}}),
         "field 'cooccurrence' must be"),
        ("model.json", lambda text: json.dumps(
            {**json.loads(text), "cooccurrence": {**json.loads(text)["cooccurrence"],
                                                  "5": [0.5, 0.5, 0, 0, 0, 0]}}),
         "field 'cooccurrence' must be"),
        ("model.json", lambda text: edit_cooccurrence(text, 1, 0, float("nan")),
         "field 'cooccurrence' row 1 must hold finite frequencies in [0, 1], got [nan, "),
        ("model.json", lambda text: edit_model_json(text, config={"stages": 6}),
         "field 'config' key 'stages': stage count must be an integer in [1, 5], got 6"),
        ("model.json", lambda text: edit_model_json(text, segment=1),
         "field 'segment' must be true or false, got 1"),
        ("model.json", lambda text: edit_model_json(text, config={"merge_threshold": True}),
         "field 'config' key 'merge_threshold': merge threshold must be a number in [0, 1], "
         "got True"),
        ("model.json", lambda text: edit_model_json(text, person_class=99),
         "field 'person_class' must be a class index in [0, 5), got 99"),
        ("model.json", lambda text: edit_model_json(text, representation="mask"),
         "field 'representation' must be 'box' or absent, got 'mask'"),
        ("model.json", lambda text: edit_cooccurrence(text, 2, 1, -5.0),
         "field 'cooccurrence' row 2 must hold finite frequencies in [0, 1], got ["),
        ("model.json", lambda text: edit_cooccurrence(text, 0, 0, 0.5),
         "field 'cooccurrence' row 0 must sum to 1, got "),
        ("model.json", lambda text: edit_cooccurrence(text, 3, 0, "0.0"),
         "field 'cooccurrence' row 3 must hold finite frequencies in [0, 1], got ["),
    ])
    def test_corrupt_checkpoint_exit_2(self, pipeline, tmp_path, capsys, name, corrupt, message):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        (model / name).write_text(corrupt((model / name).read_text()))
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        assert f"{model / name}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.ndjson").exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    @pytest.mark.parametrize("corrupt, message", [
        (lambda meta: "{not json", "invalid JSON"),
        (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "jitter"}),
         "dataset meta missing field 'jitter'"),
        (lambda meta: "[]", "malformed dataset meta"),
        (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "grid_size"}),
         "dataset meta missing field 'grid_size'"),
        (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "channels"}),
         "dataset meta missing field 'channels'"),
        (lambda meta: json.dumps({**meta, "grid_size": 0}),
         "dataset meta needs grid_size >= 1 and channels >= 13, got 0 and 13"),
        (lambda meta: json.dumps({**meta, "channels": 5}),
         "dataset meta needs grid_size >= 1 and channels >= 13, got 32 and 5"),
        (lambda meta: json.dumps({**meta, "grid_size": 32.9}),
         "field 'grid_size' must be an integer, got 32.9"),
        (lambda meta: json.dumps({**meta, "image_size": 128.7}),
         "field 'image_size' must be an integer, got 128.7"),
        (lambda meta: json.dumps({**meta, "person_class": 0.4}),
         "field 'person_class' must be an integer, got 0.4"),
        (lambda meta: json.dumps({**meta, "person_class": 999}),
         "field 'person_class' must index 'class_names', in [0, 5), got 999"),
        (lambda meta: json.dumps({**meta, "person_class": -1}),
         "field 'person_class' must index 'class_names', in [0, 5), got -1"),
        (lambda meta: json.dumps({**meta, "channels": "13"}),
         "field 'channels' must be an integer, got '13'"),
        (lambda meta: json.dumps({**meta, "seed": 1.5}),
         "field 'seed' must be an integer, got 1.5"),
        (lambda meta: json.dumps({**meta, "seed": True}),
         "field 'seed' must be an integer, got True"),
        (lambda meta: json.dumps({**meta, "jitter": "0.25"}),
         "field 'jitter' must be a number, got '0.25'"),
        (lambda meta: json.dumps({**meta, "noise_sigma": False}),
         "field 'noise_sigma' must be a number, got False"),
    ])
    def test_bad_meta_exit_2(self, pipeline, tmp_path, capsys, command, corrupt, message):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        meta = data / "meta.json"
        meta.write_text(corrupt(json.loads(meta.read_text())))
        io_flags = {"train": ["--out", str(tmp_path / "m")],
                    "infer": ["--model", str(pipeline["model"]),
                              "--out", str(tmp_path / "p.ndjson")]}[command]
        assert main([command, "--data", str(data)] + io_flags) == 2
        assert f"{meta}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    @pytest.mark.parametrize("key, value, message", [
        ("geometric_verbs", [99], "must hold verb indices in [0, 6), got [99]"),
        ("geometric_verbs", ["a"], "must hold verb indices in [0, 6), got ['a']"),
        ("jitter", -3, "must be finite and >= 0, got -3"),
        ("occlusion_rate", 7, "must be in [0, 1], got 7"),
        ("noise_sigma", "1e400", "must be finite and >= 0, got inf"),
    ])
    def test_meta_out_of_range_exit_2(self, pipeline, tmp_path, capsys, command, key, value,
                                      message):
        """A `meta.json` setting that `synth` would have refused; 1e400 is
        written as a JSON number and parses as inf."""
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        meta = data / "meta.json"
        fields = json.loads(meta.read_text())
        fields[key] = "@" if value == "1e400" else value
        meta.write_text(json.dumps(fields).replace('"@"', "1e400"))
        io_flags = {"train": ["--out", str(tmp_path / "m")],
                    "infer": ["--model", str(pipeline["model"]),
                              "--out", str(tmp_path / "p.ndjson")],
                    "eval": ["--preds", str(pipeline["preds"])]}[command]
        assert main([command, "--data", str(data)] + io_flags) == 2
        assert f"{meta}: field '{key}' {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_classes", "n_verbs", "person_class"])
    def test_infer_on_a_corpus_of_another_vocabulary_exit_2(self, pipeline, tmp_path, capsys,
                                                            key):
        """A corpus whose classes or verbs differ from the model's: its
        feature grids lay their channels out otherwise, and the model reads
        co-occurrence rows by class. Here one verb fewer (its triplets
        gone), one class more, or the person at another class index."""
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        meta_path = data / "meta.json"
        meta = json.loads(meta_path.read_text())
        if key == "n_verbs":
            last = len(meta["verb_names"]) - 1
            meta["verb_names"].pop()
            meta["geometric_verbs"] = [v for v in meta["geometric_verbs"] if v != last]
            test = data / "test.ndjson"
            records = [json.loads(line) for line in test.read_text().splitlines()]
            for record in records:
                record["triplets"] = [t for t in record["triplets"] if t["verb"] != last]
            test.write_text("".join(json.dumps(record) + "\n" for record in records))
        elif key == "n_classes":
            meta["class_names"].append("kite")
            meta["channels"] += 1  # the grids need one more class channel
        else:
            names = meta["class_names"]
            names[0], names[1] = names[1], names[0]
            meta["person_class"] = 1
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "p.ndjson"
        assert main(["infer", "--model", str(pipeline["model"]), "--data", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{meta_path}: field '{key}' is " in err
        assert f"but the model's {pipeline['model'] / 'model.json'} has " in err
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["separate_heads", "factored_stacks"])
    def test_checkpoint_of_an_older_layout_exit_2(self, pipeline, tmp_path, capsys, layout):
        """Checkpoints of the older layouts load no longer, and the error
        names every missing and every extra block: the one with separate
        box regressor and scorer, ranker and verb heads, and the one before
        it, which also held the FC_x2 fusion and EFRA stacks and the heads
        on the fused vector."""
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        manifest = json.loads((model / "params.json").read_text())
        stage = {"box.reg.w": [4, 637], "box.reg.b": [4], "box.score.w": [1, 637],
                 "box.score.b": [1], "visual.w": [7, 1911], "visual.b": [7],
                 "rrm.geo.w": [1, 256], "rrm.geo.b": [1], "rcm.sem.w": [6, 6], "rcm.sem.b": [6],
                 "rcm.geo.w": [6, 256], "rcm.geo.b": [6]}
        shared = {f"{name}_attention.{p}": shape for name in ("face", "noface")
                  for p, shape in (("w", [1, 1274]), ("b", [1]))}
        if layout == "factored_stacks":
            for name in ("visual.w", "visual.b", "rrm.geo.w", "rrm.geo.b"):
                del stage[name]
            stage.update({"rrm.fc.w": [1, 1280], "rrm.fc.b": [1],
                          "rcm.vis.w": [6, 1024], "rcm.vis.b": [6]})
            shared = {}
            for stack, (width, hidden, out) in {"face_stack": (1274, 256, 1),
                                                "noface_stack": (1274, 256, 1),
                                                "fusion": (1911, 1024, 1024)}.items():
                shared.update({f"{stack}.fc1.w": [hidden, width], f"{stack}.fc1.b": [hidden],
                               f"{stack}.fc2.w": [out, hidden], f"{stack}.fc2.b": [out]})
        # the geometric encoder is the same in every layout
        old = {name: info["shape"] for name, info in manifest["blocks"].items()
               if name.startswith("shared.geo_encoder.")}
        old.update({f"stage{t}.{name}": shape for t in (1, 2, 3) for name, shape in stage.items()})
        old.update({f"shared.{name}": shape for name, shape in shared.items()})
        new = sorted(set(manifest["blocks"]) - set(old))
        extra = sorted(set(old) - set(manifest["blocks"]))
        for name in new:
            del manifest["blocks"][name]
        manifest["blocks"].update({name: {"shape": old[name], "offset": 0} for name in extra})
        (model / "params.json").write_text(json.dumps(manifest))
        assert (len(new), len(extra)) == {"separate_heads": (18, 30),
                                          "factored_stacks": (28, 48)}[layout]
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        assert (f"{model / 'params.json'}: checkpoint block mismatch: missing={new} "
                f"extra={extra}") in capsys.readouterr().err
        assert not (tmp_path / "p.ndjson").exists()

    @pytest.mark.parametrize("field, value", [
        ("entities[1].class_id", 99), ("entities[1].class_id", 7),
        ("entities[1].class_id", -1), ("entities[1].class_id", "x"),
        ("triplets[0].verb", 99), ("triplets[0].verb", -1),
        ("proposals[0].entity", 99), ("proposals[0].entity", -1),
        ("entities[0].mask.size", [64, 256]), ("width", 0),
        ("entities[1].box", ["x", 0, 10, 10]), ("entities[1].box", [50, 50, 10, 10]),
        ("entities[1].box", [float("nan"), 0, 10, 10]), ("entities[1].box", [0, 0, 10]),
        ("entities[1].face_box", [50, 50, 10, 10]), ("proposals[0].box", [0, 30, 10, 20]),
        ("proposals[0].iou", "x"), ("proposals[0].iou", float("nan")),
        ("image_id", []), ("image_id", {}), ("image_id", None), ("seed", -1), ("seed", 1.5),
    ])
    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    def test_malformed_scene_record_exit_2(self, pipeline, tmp_path, capsys,
                                           command, field, value):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        split = data / ("train.ndjson" if command == "train" else "test.ndjson")
        lines = split.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if json.loads(line)["triplets"])
        record = json.loads(lines[lineno - 1])
        *path, key = re.findall(r"\w+", field)  # entities[1].class_id: entities, 1, class_id
        target = record
        for step in path:
            target = target[int(step)] if step.isdigit() else target[step]
        target[key] = value
        lines[lineno - 1] = json.dumps(record)
        split.write_text("\n".join(lines) + "\n")
        flags = {"train": ["--out", str(tmp_path / "m"), "--phase1-epochs", "0",
                           "--phase2-epochs", "0"],
                 "infer": ["--model", str(pipeline["model"]), "--out", str(tmp_path / "p.ndjson")],
                 "eval": ["--preds", str(pipeline["preds"])]}[command]
        assert main([command, "--data", str(data)] + flags) == 2
        err = capsys.readouterr().err
        assert f"{split}:{lineno}: " in err or f"{split}: image {record['image_id']!r}: " in err
        assert f"field '{field}'" in err
        assert not (tmp_path / "m").exists() and not (tmp_path / "p.ndjson").exists()

    def test_scene_of_another_image_size_exit_2(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        split = data / "train.ndjson"
        lines = split.read_text().splitlines()
        record = json.loads(lines[0])
        record.update(width=128, height=100)
        for entity in record["entities"]:
            entity["mask"] = {"size": [100, 128], "rle": [100 * 128]}
        split.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                     "--phase1-epochs", "1", "--phase2-epochs", "0"]) == 2
        err = capsys.readouterr().err
        assert f"{split}: image {record['image_id']!r}: fields 'width' and 'height'" in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("name, corrupt, message", [
        ("params.bin", lambda raw: raw[:1000], "blob truncated"),
        ("params.json", lambda raw: raw.replace(b'"stage1.box.w"', b'"stage1.box.v"'),
         "checkpoint block mismatch"),
        # blocks lie in the blob in model order: the first value is stage 1's
        # box map, the last the face-removed attention bias
        ("params.bin", lambda raw: np.float32(np.nan).tobytes() + raw[4:],
         "block 'stage1.box.w': non-finite value"),
        ("params.bin", lambda raw: raw[:-4] + np.float32(-np.inf).tobytes(),
         "block 'shared.noface_attention.b': non-finite value"),
    ])
    def test_checkpoint_load_error_names_file(self, pipeline, tmp_path, capsys,
                                              name, corrupt, message):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        (model / name).write_bytes(corrupt((model / name).read_bytes()))
        assert main(["infer", "--model", str(model), "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / "p.ndjson")]) == 2
        err = capsys.readouterr().err
        assert f"{model / name}: " in err and message in err
        assert not (tmp_path / "p.ndjson").exists()


def _first_scored_record(preds_path):
    for line in preds_path.read_text().splitlines():
        record = json.loads(line)
        if record["triplets"]:
            return record
    raise AssertionError("no predicted triplets")


class TestPredictionFileContract:
    """Malformed prediction files exit 2 and name where the fault is."""

    @pytest.mark.parametrize("field, value", [
        ("h", -1), ("o", -1), ("score", float("nan")), ("score", float("inf")),
    ])
    def test_bad_triplet_field(self, pipeline, tmp_path, capsys, field, value):
        record = _first_scored_record(pipeline["preds"])
        record["triplets"][0][field] = value
        bad = tmp_path / "bad.ndjson"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err and f"'{field}'" in err

    def test_bad_entity_box(self, pipeline, tmp_path, capsys):
        record = _first_scored_record(pipeline["preds"])
        o = record["triplets"][0]["o"]
        record["entities"][o]["box"] = [50, 50, 10, 10]
        bad = tmp_path / "bad.ndjson"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: field 'entities[{o}].box'" in err

    def test_duplicate_image_id(self, pipeline, tmp_path, capsys):
        line = json.dumps(_first_scored_record(pipeline["preds"]))
        bad = tmp_path / "dup.ndjson"
        bad.write_text(line + "\n" + line + "\n")
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "'image_id'" in err

    @pytest.mark.parametrize("verb", [999, -1])
    def test_verb_out_of_range(self, pipeline, tmp_path, capsys, verb):
        record = _first_scored_record(pipeline["preds"])
        record["triplets"][0]["verb"] = verb
        bad = tmp_path / "verb.ndjson"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert record["image_id"] in err and f"verb {verb}" in err


    @pytest.mark.parametrize("field, value", [
        ("verb", 2.9), ("verb", True), ("verb", "1"), ("h", True), ("o", False),
        ("score", "0.5"), ("score", True), ("score", None),
    ])
    def test_fields_take_json_types_only(self, pipeline, tmp_path, capsys, field, value):
        record = _first_scored_record(pipeline["preds"])
        record["triplets"][-1][field] = value
        bad = tmp_path / "typed.ndjson"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["eval", "--data", str(pipeline["data"]), "--preds", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: field '{field}'" in err and repr(value) in err

    def test_predictions_of_another_split_exit_2(self, pipeline, tmp_path, capsys):
        preds = tmp_path / "train_preds.ndjson"
        assert main(["infer", "--model", str(pipeline["model"]), "--data", str(pipeline["data"]),
                     "--split", "train", "--out", str(preds)]) == 0
        first = json.loads(preds.read_text().splitlines()[0])["image_id"]
        capsys.readouterr()
        assert main(["eval", "--data", str(pipeline["data"]), "--split", "test",
                     "--preds", str(preds)]) == 2
        err = capsys.readouterr().err
        assert f"{preds}: image {first!r} is not in split 'test'" in err
        assert main(["eval", "--data", str(pipeline["data"]), "--split", "train",
                     "--preds", str(preds)]) == 0

    def test_each_entity_decoded_once_per_line(self, segment_pipeline, monkeypatch):
        from hoicascade import formats

        decoded = []
        rle_decode_ = formats.rle_decode
        monkeypatch.setattr(formats, "rle_decode",
                            lambda *args: decoded.append(args) or rle_decode_(*args))
        by_image = formats.read_predictions_ndjson(segment_pipeline["preds"])
        records = [json.loads(line) for line in segment_pipeline["preds"].read_text().splitlines()]
        referenced = sum(len({t[ref] for t in r["triplets"] for ref in ("h", "o")})
                         for r in records)
        assert len(decoded) == referenced < sum(len(ts) for ts in by_image.values())
        for record in records:
            for t, got in zip(record["triplets"], by_image[record["image_id"]]):
                for ref, mask in (("h", got.h_mask), ("o", got.o_mask)):
                    rle = record["entities"][t[ref]]["mask"]
                    assert mask == rle_decode_(rle["rle"], *rle["size"])


class TestChecks:
    def test_oracle_subcommand(self):
        assert main(["oracle", "--instances", "30", "--seed", "2"]) == 0

    def test_gradcheck_small(self):
        assert main(["gradcheck", "--points", "2"]) == 0

    def test_parser_is_built_once(self):
        from hoicascade.cli import make_parser

        assert main(["oracle", "--instances", "0"]) == 2
        assert make_parser() is make_parser()
        assert make_parser.cache_info().misses == 1
