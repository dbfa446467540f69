"""The benchmark's layer trace (`perfbench/layertrace.py`) wraps program
entry points by name; each name must stay a real callable, so that a
rename fails here and not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from hoicascade.training import RelationPass

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_callable():
    layertrace = load_layertrace()
    missing = []
    for module_name, path, _, _ in layertrace.LAYERS:
        module = importlib.import_module(f"{layertrace.PACKAGE}.{module_name}")
        if "." in path:  # a method, wrapped on the class that defines it
            cls_name, meth = path.split(".")
            owner = getattr(module, cls_name, None)
            found = vars(owner).get(meth) if isinstance(owner, type) else None
        else:
            found = getattr(module, path, None)
        if not callable(found):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_relation_pass_exposes_its_row_count():
    from test_training import sampled_batches, tiny_model

    layertrace = load_layertrace()
    model = tiny_model(seed=37)
    grid, batches = sampled_batches(model)
    stage_pairs = [b.all_pairs() for b in batches]
    rp = RelationPass(model, grid, stage_pairs)
    assert rp.n == sum(len(pairs) for pairs in stage_pairs)
    assert layertrace._pass_rows((rp,), None) == (rp.n,)
    rp.forward()
    assert len(rp.x_v) == len(rp.x_g) == rp.n
