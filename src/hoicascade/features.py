"""Human-centric relation features: the class-verb co-occurrence prior
(one array whose rows are the object classes' verb distributions, indexed
by object class), geometric pair encoding, attention-enhanced visual
features and the cross-stage step into a stage's relation map.

The EFRA scores are the sigmoids of two linear layers' logits:
`efra_attend` takes them and `efra_attend_backward` applies their
derivative, given the scores it returned.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError
from .geometry import Box
from .numerics import sigmoid, softmax_rows

GEOMETRIC_DIM = 256

FACE_TOP_FRACTION = 0.30
FACE_WIDTH_FRACTION = 0.50


def cooccurrence_prior(pairs, n_classes, n_verbs):
    """(n_classes, n_verbs) array whose row c is the verb distribution of
    object class c over the annotated (object_class, verb) pairs; a class
    never annotated gets the uniform row."""
    counts = np.zeros((n_classes, n_verbs))
    for obj_class, verb in pairs:
        counts[obj_class, verb] += 1
    totals = counts.sum(axis=1, keepdims=True)
    if not totals.any():
        raise DataError("no annotated triplets to build a co-occurrence prior")
    return np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / n_verbs)


def geometric_feature(rows, cols, encoder):
    """(B, 256) descriptors of B two-channel pair maps, given as their
    (B, 2, 64) row and (B, 2, 64) column indicators (float32 from
    `geometry.spatial_pair_encoding`, as in training); the encoder never
    builds the (B, 2, 64, 64) maps."""
    return encoder.forward(rows, cols)


def face_region(human_box: Box) -> Box:
    """Facial region of a person: the top 30% of the box height over the
    middle 50% of its width."""
    w = human_box.width
    x1 = human_box.x1 + (1.0 - FACE_WIDTH_FRACTION) / 2.0 * w
    x2 = x1 + FACE_WIDTH_FRACTION * w
    y2 = human_box.y1 + FACE_TOP_FRACTION * human_box.height
    return Box(x1, human_box.y1, x2, y2)


# ------------------------------------------------------------------- IHSM

def ihsm_enhance(h_grid):
    """Self-similarity context pooling over a pooled human feature.

    Every spatial position attends to all positions with weights
    softmax_j(h_i . h_j); the context is added back onto the input.
    Returns (enhanced grid, attention matrix [(H*W) x (H*W)]).
    """
    h_grid = np.asarray(h_grid, dtype=np.float64)
    c, gh, gw = h_grid.shape
    x = h_grid.reshape(c, gh * gw).T            # (P, C)
    attn = softmax_rows(x @ x.T)                # (P, P)
    ctx = attn @ x                              # (P, C)
    out = (x + ctx).T.reshape(c, gh, gw)
    return out, attn


# ------------------------------------------------------------------- EFRA

def efra_attend(face_feat, noface_feat, obj_feat, face_layer, noface_layer):
    """Attention scores (alpha, alpha_bar), each (B,) in (0, 1), for the
    facial and face-removed human features against the object feature:
    the sigmoid of a 2C*H*W -> 1 `FCLayer` on the flattened (face-derived,
    object) concatenation.

    Takes batches (B, C, H, W); the layers cache this forward, so call the
    matching backward before reusing them.
    """
    face_feat = np.asarray(face_feat, dtype=np.float64)
    noface_feat = np.asarray(noface_feat, dtype=np.float64)
    obj_feat = np.asarray(obj_feat, dtype=np.float64)
    if not (face_feat.shape == noface_feat.shape == obj_feat.shape):
        raise ShapeError("EFRA features must share one shape")
    if face_feat.ndim != 4:
        raise ShapeError(f"EFRA expects (B, C, H, W) features, got {face_feat.shape}")
    b = face_feat.shape[0]
    fo = np.concatenate([face_feat.reshape(b, -1), obj_feat.reshape(b, -1)], axis=1)
    no = np.concatenate([noface_feat.reshape(b, -1), obj_feat.reshape(b, -1)], axis=1)
    return sigmoid(face_layer.forward(fo)[:, 0]), sigmoid(noface_layer.forward(no)[:, 0])


def efra_attend_backward(d_alpha, d_alpha_bar, alpha, alpha_bar, face_layer, noface_layer):
    """Backpropagate (B,) score gradients through the sigmoids, at the
    scores (alpha, alpha_bar) of the matching `efra_attend`, and both
    layers, whose gradients accumulate; the features are data, so no input
    gradient is computed."""
    for d, score, layer in ((d_alpha, alpha, face_layer),
                            (d_alpha_bar, alpha_bar, noface_layer)):
        layer.backward((np.asarray(d, dtype=np.float64) * score * (1.0 - score))[:, None],
                       input_grad=False)


def efra_enhance(obj_feat, face_feat, noface_feat, alpha, alpha_bar):
    """Object feature enriched by the weighted face-derived features."""
    obj_feat = np.asarray(obj_feat, dtype=np.float64)
    if obj_feat.shape != np.shape(face_feat) or obj_feat.shape != np.shape(noface_feat):
        raise ShapeError("EFRA enhance requires matching shapes")
    return obj_feat + alpha * np.asarray(face_feat) + alpha_bar * np.asarray(noface_feat)


# ------------------------------------------------------------- assembly

def assemble_visual(human_feat, obj_feat, union_feat):
    """Channel concatenation (human, object, union) -> (3C, H, W), or
    (B, 3C, H, W) for batches."""
    parts = [np.asarray(a, dtype=np.float64) for a in (human_feat, obj_feat, union_feat)]
    if not (parts[0].shape == parts[1].shape == parts[2].shape):
        raise ShapeError("visual parts must share one shape")
    return np.concatenate(parts, axis=-3)


def cross_stage_fuse(x_v, x_v_prev, layer):
    """`layer` applied to the sum of the current and prior-stage tensors.

    Inference passes the last stage's relation map, one of
    `CascadeModel.visual_maps`, and gets, per pair, the visual half of the
    rank logit and the visual verb logits. Stage 1 passes a zero tensor as
    predecessor; later stages pass the pair's own tensor, so the map reads
    2 x_v, and training's gradient flows through both terms. Takes
    batches, (B, D) rows or (B, 3C, H, W) tensors, one row of output per
    pair.
    """
    x_v = np.asarray(x_v, dtype=np.float64)
    x_v_prev = np.asarray(x_v_prev, dtype=np.float64)
    if x_v.shape != x_v_prev.shape:
        raise ShapeError(f"stage tensors differ: {x_v.shape} vs {x_v_prev.shape}")
    if x_v.ndim not in (2, 4):
        raise ShapeError(f"cross-stage fusion expects (B, D) or (B, 3C, H, W), got {x_v.shape}")
    total = x_v + x_v_prev
    return layer.forward(total.reshape(total.shape[0], -1))
