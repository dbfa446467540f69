"""Finite-difference gradient suites for the layers and losses training
is built from: fully connected layers, the conv+pool encoder, the facial
attention scores (the sigmoid of each attention layer, differentiated in
`efra_attend_backward`), the ranking hinge and the binary cross-entropy on
logits. The composed relation objective is checked by the
finite-difference test of `training.relation_losses_multi`.
"""

from __future__ import annotations

import numpy as np

from .features import efra_attend, efra_attend_backward
from .numerics import (
    ConvPoolEncoder,
    FCLayer,
    GradCheckReport,
    Param,
    binary_cross_entropy,
    finite_diff_check,
    pairwise_hinge_loss,
)


def _merge(target: GradCheckReport, source: GradCheckReport, point):
    for name, err in source.per_block.items():
        key = f"{name}@p{point}"
        target.per_block[key] = err


def check_fc(points=10, tol=1e-4):
    """The loss sums two batches, each with its own forward and backward,
    so the gradient checked is the one two backward calls add up. Their
    terms can cancel to an entry far smaller than either, so the central
    difference takes a step of 1e-4: at 1e-3 its truncation error alone
    is 1.5e-4 of such an entry (at the second point)."""
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([11, point])
        fc = FCLayer(6, 4, rng)
        batches = [(rng.normal(size=(rows, 6)), rng.normal(size=(rows, 4))) for rows in (1, 2)]

        def run():
            loss = 0.0
            for x, w in batches:
                y = fc.forward(x)
                fc.backward(w)
                loss += float((y * w).sum())
            return loss

        _merge(report, finite_diff_check(run, dict(fc.params("fc")), tol=tol, step=1e-4),
               point)
    return report


def box_indicators(rng, shape, n):
    """float64 0/1 indicators of random intervals of [0, n), one per
    index of `shape`, possibly empty or reaching an edge: the row or
    column indicators of a box per channel, as pair maps have."""
    lo, hi = np.sort(rng.integers(0, n + 1, size=(2, *shape)), axis=0)
    return ((np.arange(n) >= lo[..., None]) & (np.arange(n) < hi[..., None])).astype(np.float64)


def check_conv_pool(points=10, tol=1e-4):
    """The encoder on float64 row and column indicators of two-channel box
    maps, the input it is given in training. Binary maps tie pool windows
    often, so the check keeps off the kinks: the biases are drawn (at zero
    biases the cells outside both boxes read exactly 0 after conv1, and
    conv2's border and interior cells then tie in pool2 with different
    slopes), and the loss, piecewise linear in every block, is differenced
    with a step of 1e-5 (at 1e-3, near-ties flipped within the step at 3
    of 50 points, with the full-map conv and pool as well)."""
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([13, point])
        enc = ConvPoolEncoder(2, (8, 8), channels=(3, 3), rng=rng)
        for layer in (enc.conv1, enc.conv2, enc.fc):
            layer.b.value[...] = rng.normal(size=layer.b.value.shape)
        rows, cols = (box_indicators(rng, (2, 2), 8) for _ in range(2))
        w = rng.normal(size=(2, 256))

        def run():
            y = enc.forward(rows, cols)
            enc.backward(w)
            return float((y * w).sum())

        _merge(report, finite_diff_check(run, dict(enc.params("enc")), tol=tol,
                                         step=1e-5, max_entries=6), point)
    return report


def check_efra(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([23, point])
        face, noface = (FCLayer(16, 1, rng) for _ in range(2))
        f, fb, o = (rng.normal(size=(1, 2, 2, 2)) for _ in range(3))
        blocks = dict(face.params("face") + noface.params("noface"))

        def run():
            alpha, alpha_bar = efra_attend(f, fb, o, face, noface)
            efra_attend_backward(np.ones(1), np.full(1, 0.5), alpha, alpha_bar, face, noface)
            return float(alpha[0] + 0.5 * alpha_bar[0])

        _merge(report, finite_diff_check(run, blocks, tol=tol, max_entries=6), point)
    return report


def check_hinge(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([41, point])
        # resample until every pair sits away from the hinge kink
        while True:
            pos = Param(rng.uniform(0.2, 0.8, size=3))
            neg = Param(rng.uniform(0.2, 0.8, size=3))
            slack = neg.value[None, :] - pos.value[:, None] + 0.2
            if np.all(np.abs(slack) > 1e-2):
                break

        def run():
            loss, dp, dn = pairwise_hinge_loss(pos.value, neg.value, 0.2)
            pos.grad += dp
            neg.grad += dn
            return loss

        _merge(report, finite_diff_check(run, {"pos": pos, "neg": neg}, tol=tol), point)
    return report


def check_bce(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([43, point])
        logits = Param(rng.uniform(-12.0, 12.0, size=6))
        targets = (rng.uniform(size=6) < 0.5).astype(float)

        def run():
            loss, grad = binary_cross_entropy(logits.value, targets)
            logits.grad += grad
            return loss

        _merge(report, finite_diff_check(run, {"logits": logits}, tol=tol), point)
    return report


ALL_CHECKS = {
    "fc_forward": check_fc,
    "conv_pool_encoder": check_conv_pool,
    "efra_attention": check_efra,
    "pairwise_hinge": check_hinge,
    "binary_cross_entropy": check_bce,
}


def run_all_gradchecks(points=10, tol=1e-4):
    return {name: fn(points=points, tol=tol) for name, fn in ALL_CHECKS.items()}
