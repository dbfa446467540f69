"""Layer trace recorded from outside the program.

`LayerTrace.installed()` replaces public functions and methods of the
hoicascade modules with timing wrappers for the duration of a `with`
block, and puts the originals back afterwards. Modules import names
directly (`from .geometry import roi_align`), so a function wrapper is
written into every loaded hoicascade module that binds the original
object; a method wrapper is set on its class.

Each call becomes a span (layer, start, end, parent span). Counters are
taken at the same boundaries from the call's arguments and result.
Spans stay in memory until `summary()` turns them into per-layer self
times, call counts and the counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(x):
    """Leading batch length of an array; 1 for a single vector."""
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else int(x.shape[0])


def _single_or_batch(x):
    """Rows of a (3C, H, W) / (D,) single tensor or a batch of them."""
    x = np.asarray(x)
    return 1 if x.ndim in (1, 3) else int(x.shape[0])


# Counters: each takes the call's positional arguments and its result and
# returns one increment per stat named beside it in LAYERS.

def _fc_rows(args, result):
    return (_rows(args[1]),)


def _conv_maps(args, result):
    return (int(np.asarray(args[1]).shape[0]),)


def _sgd_bytes(args, result):
    return (sum(p.value.nbytes for _, p in args[0].items()),)


def _roi_boxes(args, result):
    box = args[1]
    return (len(box) if isinstance(box, (list, tuple)) else 1,)


def _fuse_rows(args, result):
    return (_single_or_batch(args[0]),)


def _dropped(args, result):
    return (int(result is None),)


def _merge(args, result):
    return (len(result), sum(len(stage) for stage in args[0]))


def _pairs(args, result):
    return (len(result),)


def _topk(args, result):
    return (len(result), len(args[0]))


def _sampled(args, result):
    return (len(result.positives), len(result.negatives))


def _pass_rows(args, result):
    return (args[0].n,)


# (module, attribute path, counter stats, counter). Sub-microsecond leaves
# such as box_iou and Box.area are left out on purpose: a wrapper costs
# about as much as they do.
LAYERS = (
    ("numerics", "FCLayer.forward", ("rows",), _fc_rows),
    ("numerics", "FCLayer.backward", ("rows",), _fc_rows),
    ("numerics", "Conv2D.forward", ("maps",), _conv_maps),
    ("numerics", "Conv2D.backward", ("maps",), _conv_maps),
    ("numerics", "MaxPool2x2.forward", (), None),
    ("numerics", "MaxPool2x2.backward", (), None),
    ("numerics", "sgd_step", ("param_bytes",), _sgd_bytes),
    ("numerics", "ParamStore.save", (), None),
    ("numerics", "ParamStore.load", (), None),
    ("geometry", "roi_align", ("boxes",), _roi_boxes),
    ("geometry", "spatial_pair_encoding", (), None),
    ("features", "cross_stage_fuse", ("rows",), _fuse_rows),
    ("features", "geometric_feature", (), None),
    ("features", "ihsm_enhance", (), None),
    ("features", "efra_attend", (), None),
    ("features", "efra_attend_backward", (), None),
    ("cascade", "refine_stage", ("dropped",), _dropped),
    ("cascade", "resample_for_stage", (), None),
    ("cascade", "merge_and_filter", ("kept", "in"), _merge),
    ("interaction", "infer_image", (), None),
    ("interaction", "run_localization", (), None),
    ("interaction", "CascadeModel.__init__", (), None),
    ("interaction", "CascadeModel.build_features", (), None),
    ("interaction", "rank_pairs", (), None),
    ("interaction", "select_topk", ("kept", "ranked"), _topk),
    ("interaction", "classify_relation", (), None),
    ("interaction", "enumerate_pairs", ("pairs",), _pairs),
    ("interaction", "sample_training_pairs", ("positives", "negatives"), _sampled),
    ("training", "localization_stage_step", (), None),
    ("training", "relation_losses_multi", (), None),
    ("training", "RelationPass.__init__", ("rows",), _pass_rows),
    ("training", "RelationPass.forward", ("rows",), _pass_rows),
    ("training", "RelationPass.backward", ("rows",), _pass_rows),
    ("training", "prepare_grids", (), None),
    ("synth", "generate_dataset", (), None),
    ("synth", "render_feature_grid", (), None),
    ("formats", "read_scenes_ndjson", (), None),
    ("formats", "write_scenes_ndjson", (), None),
    ("formats", "write_predictions_ndjson", (), None),
    ("formats", "read_predictions_ndjson", (), None),
    ("formats", "predictions_to_record", (), None),
    ("metrics", "map_rel", (), None),
    ("metrics", "recall_at_k", (), None),
    ("metrics", "match_triplets", (), None),
)

LAYER_NAMES = tuple(f"{module}.{path}" for module, path, _, _ in LAYERS)

PACKAGE = "hoicascade"


class LayerTrace:
    """In-memory spans and counters for the wrapped layers."""

    def __init__(self):
        self.names: list[str] = []     # span name, one per span
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []   # index of the enclosing span, -1 at a root
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- spans

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name, fn, stats, counter):
        keys = [f"{name}.{stat}" for stat in stats]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                for key, inc in zip(keys, counter(args, result)):
                    self.counts[key] += inc
            return result
        return wrapper

    # ------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for module_name, _, _, _ in LAYERS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, stats, counter in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], stats, counter))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, stats, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the `with` block, originals restored after."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------ summary

    def summary(self):
        """Per-name totals: {name: {"calls", "total_s", "self_s"}} plus the
        per-call durations of every name, in seconds."""
        n = len(self.names)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        self_times = durations - child
        table = {}
        per_call = defaultdict(list)
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(durations[i])
            row["self_s"] += float(self_times[i])
            per_call[name].append(float(durations[i]))
        return table, per_call

    def root_coverage(self, root_name):
        """Share of the root spans' wall time spent inside wrapped layers."""
        table, _ = self.summary()
        row = table.get(root_name)
        if not row or row["total_s"] <= 0.0:
            return 0.0
        return 1.0 - row["self_s"] / row["total_s"]

