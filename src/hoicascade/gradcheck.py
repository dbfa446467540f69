"""Finite-difference gradient suites for the layers and losses training
is built from: fully connected layers, the conv+pool encoder, the facial
attention stacks, the ranking and classification heads, the fusion stack,
the ranking hinge and the binary cross-entropy.

Training runs the attention stacks, the fusion stack and the heads that
read it folded (`FCStack.folded`). Their suites check the factored layers
the fold is built from; the fold-adjoint suite checks the path training
runs, a folded stack's gradient taken back to its blocks.
"""

from __future__ import annotations

import numpy as np

from .features import (
    build_efra_stack,
    build_fusion_stack,
    efra_attend,
    efra_attend_backward,
)
from .interaction import RCMHeads, RRMHead
from .numerics import (
    ConvPoolEncoder,
    FCLayer,
    FCStack,
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
        fc = FCLayer(6, 4, "sigmoid" if point % 2 else "none", rng)
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


def check_conv_pool(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([13, point])
        enc = ConvPoolEncoder(2, (8, 8), channels=(3, 3), rng=rng)
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(1, 256))

        def run():
            y = enc.forward(x)
            enc.backward(w)
            return float((y * w).sum())

        _merge(report, finite_diff_check(run, dict(enc.params("enc")), tol=tol,
                                         max_entries=6), point)
    return report


def check_efra(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([23, point])
        face_stack = build_efra_stack(2, (2, 2), rng, hidden=6)
        noface_stack = build_efra_stack(2, (2, 2), rng, hidden=6)
        f, fb, o = (rng.normal(size=(1, 2, 2, 2)) for _ in range(3))
        blocks = dict(face_stack.params("face") + noface_stack.params("noface"))

        def run():
            alpha, alpha_bar = efra_attend(f, fb, o, face_stack, noface_stack)
            efra_attend_backward(np.ones(1), np.full(1, 0.5), face_stack, noface_stack)
            return float(alpha[0] + 0.5 * alpha_bar[0])

        _merge(report, finite_diff_check(run, blocks, tol=tol, max_entries=6), point)
    return report


def check_rrm(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([29, point])
        head = RRMHead(rng)
        fused = rng.normal(size=(1, 1024))
        geo = rng.normal(size=(1, 256))

        def run():
            g = head.score(fused, geo)
            head.fc.backward(np.ones((1, 1)))
            return float(g[0])

        _merge(report, finite_diff_check(run, dict(head.params("rrm")), tol=tol,
                                         max_entries=6), point)
    return report


def check_rcm(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([31, point])
        heads = RCMHeads(4, rng)
        x_s = rng.uniform(size=(1, 4))
        x_g = rng.normal(size=(1, 256))
        fused = rng.normal(size=(1, 1024))
        w = rng.normal(size=(1, 4))

        def run():
            s_s = heads.semantic.forward(x_s)
            s_g = heads.geometric.forward(x_g)
            s_v = heads.visual.forward(fused)
            heads.semantic.backward(w)
            heads.geometric.backward(w)
            heads.visual.backward(w)
            return float(((s_s + s_g + s_v) * w).sum())

        _merge(report, finite_diff_check(run, dict(heads.params("rcm")), tol=tol,
                                         max_entries=6), point)
    return report


def check_fusion(points=10, tol=1e-4):
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([37, point])
        stack = build_fusion_stack(12, rng, hidden=8)
        x = rng.normal(size=12)
        w = rng.normal(size=1024)

        def run():
            y = stack.forward(x[None])
            stack.backward(w[None])
            return float((y[0] * w).sum())

        _merge(report, finite_diff_check(run, dict(stack.params("fusion")), tol=tol,
                                         max_entries=6), point)
    return report


def check_fold_adjoint(points=10, tol=1e-4):
    """A loss of a folded layer's outputs, taken back through
    `FCStack.unfold_grad` onto the stack's blocks: at even points the fold
    has a linear head, whose gradient is checked too (the fusion stack and
    its heads); at odd points a sigmoid stack folds alone (EFRA)."""
    report = GradCheckReport(tol=tol)
    for point in range(points):
        rng = np.random.default_rng([47, point])
        with_head = point % 2 == 0
        stack = FCStack(6, 5, 4, rng, out_activation="none" if with_head else "sigmoid")
        blocks = dict(stack.params("stack"))
        for name, p in blocks.items():  # the biases start at zero
            if name.endswith(".b"):
                p.value[...] = rng.normal(size=p.value.shape)
        head_w, head_b = Param(rng.normal(size=(3, 4))), Param(rng.normal(size=3))
        if with_head:
            blocks.update({"head.w": head_w, "head.b": head_b})
        x = rng.normal(size=(2, 6))
        w = rng.normal(size=(2, 3 if with_head else 4))

        def run():
            if with_head:
                layer = stack.folded(head_w.value, head_b.value)
            else:
                layer = stack.folded()
            y = layer.forward(x)
            layer.backward(w, input_grad=False)
            d_head = stack.unfold_grad(layer.w.grad, layer.b.grad,
                                       head_w.value if with_head else None)
            if with_head:
                head_w.grad += d_head[0]
                head_b.grad += d_head[1]
            return float((y * w).sum())

        _merge(report, finite_diff_check(run, blocks, tol=tol), point)
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
        # keep scores away from the clamp: the log's curvature near 0/1
        # swamps the central-difference truncation budget
        scores = Param(rng.uniform(0.15, 0.85, size=6))
        targets = (rng.uniform(size=6) < 0.5).astype(float)

        def run():
            loss, grad = binary_cross_entropy(scores.value, targets)
            scores.grad += grad
            return loss

        _merge(report, finite_diff_check(run, {"scores": scores}, tol=tol), point)
    return report


ALL_CHECKS = {
    "fc_forward": check_fc,
    "conv_pool_encoder": check_conv_pool,
    "efra_attention": check_efra,
    "rrm_head": check_rrm,
    "rcm_heads": check_rcm,
    "fusion_stack": check_fusion,
    "fold_adjoint": check_fold_adjoint,
    "pairwise_hinge": check_hinge,
    "binary_cross_entropy": check_bce,
}


def run_all_gradchecks(points=10, tol=1e-4):
    return {name: fn(points=points, tol=tol) for name, fn in ALL_CHECKS.items()}
