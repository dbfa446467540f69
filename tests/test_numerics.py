import math
import tracemalloc

import numpy as np
import pytest

from hoicascade.errors import ShapeError, TrainingError, FormatError
from hoicascade.geometry import Box, spatial_pair_encoding
from hoicascade.gradcheck import box_indicators
from hoicascade.numerics import (
    MAX_GRAD_NORM,
    MOMENTUM,
    Conv2D,
    ConvPoolEncoder,
    FCLayer,
    MaxPool2x2,
    Param,
    ParamStore,
    binary_cross_entropy,
    finite_diff_check,
    indicator_map,
    pairwise_hinge_loss,
    sgd_step,
    sigmoid,
    smooth_l1,
    softmax_rows,
)


# ---------------------------------------------------------------- oracles

def matmul_oracle(w, x, b):
    """Double-loop matrix-vector product; independent of numpy matmul."""
    out = []
    for i in range(len(b)):
        acc = b[i]
        for j in range(len(x)):
            acc += w[i][j] * x[j]
        out.append(acc)
    return np.array(out)


def conv_same_oracle(x, w, b):
    """Direct same-padded convolution, one output value at a time."""
    cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    out = np.zeros((cout, h, ww))
    for co in range(cout):
        for i in range(h):
            for j in range(ww):
                acc = b[co]
                for ci in range(cin):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - pad, j + dj - pad
                            if 0 <= ii < h and 0 <= jj < ww:
                                acc += w[co, ci, di, dj] * x[ci, ii, jj]
                out[co, i, j] = acc
    return out


def bce_oracle(logits, targets):
    """Elementwise cross-entropy of the probabilities 1 / (1 + e^-z)."""
    total = 0.0
    for z, t in zip(logits, targets):
        s = 1.0 / (1.0 + math.exp(-z))
        total += -(t * math.log(s) + (1 - t) * math.log(1 - s))
    return total


# ---------------------------------------------------------------- fc layer

class TestFCLayer:
    def test_identity_weights(self):
        fc = FCLayer(2, 2)
        fc.w.value[...] = np.eye(2)
        fc.b.value[...] = 0.0
        np.testing.assert_array_equal(fc.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_zero_weights_give_zero_logits(self):
        fc = FCLayer(3, 4, rng=np.random.default_rng(0))
        fc.w.value[...] = 0.0
        fc.b.value[...] = 0.0
        y = fc.forward(np.array([[5.0, -2.0, 0.1]]))
        np.testing.assert_array_equal(y, np.zeros((1, 4)))
        np.testing.assert_array_equal(sigmoid(y), np.full((1, 4), 0.5))

    def test_random_vs_matmul_oracle(self):
        rng = np.random.default_rng(7)
        fc = FCLayer(5, 3, rng)
        x = rng.normal(size=(1, 5))
        expected = matmul_oracle(fc.w.value, x[0], fc.b.value)
        np.testing.assert_allclose(fc.forward(x), expected[None], atol=1e-12)

    def test_dimension_mismatch(self):
        fc = FCLayer(3, 2)
        with pytest.raises(ShapeError):
            fc.forward(np.zeros((1, 4)))

    def test_backward_checks_the_gradient_shape(self):
        fc = FCLayer(3, 2)
        fc.forward(np.zeros((4, 3)))
        for shape in ((4, 3), (3, 2), (4,)):
            with pytest.raises(ShapeError, match=r"\(4, 2\)"):
                fc.backward(np.zeros(shape))
        assert fc.backward(np.zeros((4, 2))).shape == (4, 3)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        fc = FCLayer(4, 2, rng)
        xb = rng.normal(size=(6, 4))
        yb = fc.forward(xb)
        for i in range(6):
            np.testing.assert_allclose(fc.forward(xb[i:i + 1])[0], yb[i], atol=1e-12)


# ------------------------------------------------------------ conv encoder

def outer_maps(rows, cols):
    """(B, C, H, W) maps whose channel c is rows[:, c] cols[:, c]ᵀ."""
    return rows[:, :, :, None] * cols[:, :, None, :]


def identity_map(x):
    """A dense (B, C, H, W) input as a factored map: its cells as the
    table, row ids 0..H-1 and column ids 0..W-1."""
    b, _, h, w = x.shape
    return x.transpose(0, 2, 3, 1), np.tile(np.arange(h), (b, 1)), np.tile(np.arange(w), (b, 1))


def dense_map(table, rows, cols):
    """A factored map expanded to (B, C, H, W)."""
    maps = np.arange(len(table))[:, None, None]
    return np.ascontiguousarray(table[maps, rows[:, :, None], cols[:, None, :]].transpose(0, 3, 1, 2))


def table_grad(dx, table, rows, cols):
    """A (B, C, H, W) gradient summed onto the cells of a factored map's
    table."""
    out = np.zeros(table.shape)
    maps = np.arange(len(table))[:, None, None]
    np.add.at(out, (maps, rows[:, :, None], cols[:, None, :]), dx.transpose(0, 2, 3, 1))
    return out


class TestConvPoolEncoder:
    def test_zero_input_zero_bias(self):
        enc = ConvPoolEncoder(2, (8, 8), rng=np.random.default_rng(0))
        y = enc.forward(np.zeros((1, 2, 8)), np.zeros((1, 2, 8)))
        np.testing.assert_array_equal(y, np.zeros((1, 256)))

    def test_constant_propagation_vs_hand_conv(self):
        rng = np.random.default_rng(1)
        enc = ConvPoolEncoder(1, (4, 4), channels=(1, 1), kernel_size=1, rng=rng)
        enc.conv1.w.value[...] = 1.0
        enc.conv1.b.value[...] = 0.0
        enc.conv2.w.value[...] = 1.0
        enc.conv2.b.value[...] = 0.0
        rows, cols = np.ones((1, 1, 4)), np.ones((1, 1, 4))
        x = outer_maps(rows, cols)[0]
        ref = conv_same_oracle(x, enc.conv1.w.value, enc.conv1.b.value)
        # 1x1 kernel of value 1: conv is identity, pools keep the constant.
        np.testing.assert_allclose(ref, x)
        y = enc.forward(rows, cols)
        expected = enc.fc.forward(np.ones((1, enc.flat_dim)))
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_conv_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        enc = ConvPoolEncoder(2, (4, 4), channels=(3, 2), rng=rng)
        enc.conv1.b.value[...] = rng.normal(size=3)
        rows, cols = (box_indicators(rng, (1, 2), 4) for _ in range(2))
        got = dense_map(*enc.pool1.forward(*enc.conv1.forward(*indicator_map(rows, cols))))[0]
        ref = conv_same_oracle(outer_maps(rows, cols)[0], enc.conv1.w.value, enc.conv1.b.value)
        pooled = ref.reshape(3, 2, 2, 2, 2).max(axis=(2, 4))
        np.testing.assert_allclose(got, pooled, atol=1e-10)

    def test_paper_scale_shape(self):
        rng = np.random.default_rng(2)
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        y = enc.forward(*(box_indicators(rng, (1, 2), 64) for _ in range(2)))
        assert y.shape == (1, 256)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            ConvPoolEncoder(2, (6, 6))

    def test_indicators_must_be_binary(self):
        enc = ConvPoolEncoder(2, (8, 8), rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="0/1"):
            enc.forward(np.full((1, 2, 8), 0.5), np.ones((1, 2, 8)))


# ------------------------------------------- loop references for the encoder

def conv_loop_forward(conv, x):
    """Per-column im2col loop on a dense input: the reference the table
    Conv2D must match bit for bit. Returns (y, cols)."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64)
    b, _, h, w = x.shape
    k, pad = conv.k, conv.k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, h, w, conv.cin * k * k), dtype=x.dtype)
    col = 0
    for ci in range(conv.cin):
        for di in range(k):
            for dj in range(k):
                cols[:, :, :, col] = xp[:, ci, di:di + h, dj:dj + w]
                col += 1
    flat = cols.reshape(-1, cols.shape[-1])
    wmat = conv.w.value.reshape(conv.cout, -1).astype(x.dtype)
    y = (flat @ wmat.T + conv.b.value.astype(x.dtype)).reshape(b, h, w, conv.cout)
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2)), flat


def conv_loop_backward(conv, cols, xshape, dy):
    """Per-column col2im loop (k*k*C_in adds). Returns (dW, db, dx), the
    gradients accumulated into zeroed buffers."""
    dtype = cols.dtype
    dy = dy.astype(dtype)
    b, _, h, w = xshape
    k, pad = conv.k, conv.k // 2
    dmat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, conv.cout)
    dw = np.zeros_like(conv.w.value) + (dmat.T @ cols).reshape(conv.w.value.shape)
    db = np.zeros_like(conv.b.value) + dmat.sum(axis=0)
    dcols = (dmat @ conv.w.value.reshape(conv.cout, -1).astype(dtype)).reshape(b, h, w, -1)
    dxp = np.zeros((b, conv.cin, h + 2 * pad, w + 2 * pad), dtype=dtype)
    col = 0
    for ci in range(conv.cin):
        for di in range(k):
            for dj in range(k):
                dxp[:, ci, di:di + h, dj:dj + w] += dcols[:, :, :, col]
                col += 1
    return dw, db, dxp[:, :, pad:pad + h, pad:pad + w]


def maxpool_argmax_reference(x, dy):
    """Window transpose + argmax + put_along_axis max pooling. Returns
    (y, dx)."""
    b, c, h, w = x.shape
    windows = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = np.ascontiguousarray(windows).reshape(b, c, h // 2, w // 2, 4)
    argmax = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    dflat = np.zeros((b, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dflat, argmax[..., None], dy[..., None], axis=-1)
    dx = dflat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return y, np.ascontiguousarray(dx).reshape(b, c, h, w)


def binary_pair_maps(rng, n, hw=64):
    """Float32 occupancy maps like the encoder's real input: one box per
    channel, so long runs of tied zeros and ones."""
    maps = np.zeros((n, 2, hw, hw), dtype=np.float32)
    for m in maps:
        for ch in m:
            r0, c0 = rng.integers(0, hw - 4, size=2)
            r1, c1 = r0 + rng.integers(2, hw - r0), c0 + rng.integers(2, hw - c0)
            ch[r0:r1, c0:c1] = 1.0
    return maps


def assert_within(got, ref, bound):
    """|got - ref| is at most `bound` of max|ref| everywhere."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= bound * np.abs(ref).max()


# Bounds, relative to max|ref|, on what the GEMM may reassociate: the
# weight and bias gradient sums, and the float64 forward. The float32
# forward, the columns and dx stay bit for bit.
GRAD_BOUND = {np.float32: 1e-5, np.float64: 1e-13}


class TestEncoderKernelsMatchLoops:
    """The table conv and pool kernels, fed dense inputs as identity-
    factored maps, match the loop implementations: bit for bit where the
    pipeline's served outputs depend on them (the float32 forward, the
    columns and the pool), and within a stated bound of max|ref| where
    only summation order differs (dW, db and dx)."""

    @pytest.mark.parametrize("kind", ["pair_maps", "float64"])
    @pytest.mark.parametrize("cin, cout, k", [(2, 8, 3), (8, 8, 3), (3, 2, 5), (2, 4, 1)])
    def test_conv_forward_and_backward(self, kind, cin, cout, k, batch=3):
        rng = np.random.default_rng([cin, cout, k])
        conv = Conv2D(cin, cout, k, rng)
        if kind == "pair_maps" and cin == 2:
            x = binary_pair_maps(rng, batch)
        elif kind == "pair_maps":
            # conv2's input: pooled float32 activations of the pair maps
            x = rng.normal(size=(batch, cin, 32, 32)).astype(np.float32)
        else:
            x = rng.normal(size=(batch, cin, 12, 10))
        table, rows, cols = conv.forward(*identity_map(x))
        y = dense_map(table, rows, cols)
        y_ref, cols_ref = conv_loop_forward(conv, x)
        bound = GRAD_BOUND[y_ref.dtype.type]
        assert rows.tolist() == identity_map(x)[1].tolist()
        assert cols.tolist() == identity_map(x)[2].tolist()
        if x.dtype == np.float32:
            assert y.dtype == y_ref.dtype
            assert y.tobytes() == y_ref.tobytes()
        else:
            assert_within(y, y_ref, bound)
        assert conv._cells.shape == cols_ref.shape
        assert conv._cells.tobytes() == cols_ref.tobytes()
        dy = rng.normal(size=table.shape)
        dw, db, dx_ref = conv_loop_backward(conv, cols_ref, x.shape, dy.transpose(0, 3, 1, 2))
        dx = conv.backward(dy).transpose(0, 3, 1, 2)
        assert_within(conv.w.grad, dw, bound)
        assert_within(conv.b.grad, db, bound)
        assert_within(np.ascontiguousarray(dx), np.ascontiguousarray(dx_ref), bound)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("kind", ["pair_maps", "float64"])
    @pytest.mark.parametrize("cin, cout, k", [(2, 8, 3), (8, 8, 3), (3, 2, 5), (2, 4, 1)])
    def test_conv_forward_and_backward_small_batches(self, kind, cin, cout, k, batch):
        self.test_conv_forward_and_backward(kind, cin, cout, k, batch)

    def test_encoder_chain_matches_composed_loops(self):
        """conv1+pool1 -> conv2 -> pool2 -> fc on box-pair indicators,
        forward and backward, against the loop references composed by hand
        on the outer-product maps."""
        rng = np.random.default_rng(43)
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        rows, cols = (box_indicators(rng, (4, 2), 64).astype(np.float32) for _ in range(2))
        x = outer_maps(rows, cols)
        y1, cols1 = conv_loop_forward(enc.conv1, x)
        p1, _ = maxpool_argmax_reference(y1, np.zeros_like(y1[:, :, ::2, ::2]))
        y2, cols2 = conv_loop_forward(enc.conv2, p1)
        p2, _ = maxpool_argmax_reference(y2, np.zeros_like(y2[:, :, ::2, ::2]))
        flat = p2.reshape(4, -1).astype(np.float64)
        out = flat @ enc.fc.w.value.T + enc.fc.b.value
        assert enc.forward(rows, cols).tobytes() == out.tobytes()

        dy = rng.normal(size=out.shape)
        enc.backward(dy)
        fc_dw = np.zeros_like(enc.fc.w.value) + dy.T @ flat
        fc_db = np.zeros_like(enc.fc.b.value) + dy.sum(axis=0)
        assert enc.fc.w.grad.tobytes() == fc_dw.tobytes()
        assert enc.fc.b.grad.tobytes() == fc_db.tobytes()
        _, dp2 = maxpool_argmax_reference(y2, (dy @ enc.fc.w.value).reshape(p2.shape))
        dw2, db2, dx2 = conv_loop_backward(enc.conv2, cols2, p1.shape, dp2)
        _, dp1 = maxpool_argmax_reference(y1, dx2)
        dw1, db1, _ = conv_loop_backward(enc.conv1, cols1, x.shape, dp1)
        for param, ref in [(enc.conv2.w, dw2), (enc.conv2.b, db2),
                           (enc.conv1.w, dw1), (enc.conv1.b, db1)]:
            assert_within(param.grad, ref, GRAD_BOUND[np.float32])

    @pytest.mark.parametrize("layer, dy", [
        (Conv2D(2, 4, 3, None), np.zeros((1, 4, 4, 4))),
        (MaxPool2x2(), np.zeros((1, 2, 2, 2))),
        (FCLayer(3, 2), np.zeros(2)),
    ])
    def test_backward_before_forward(self, layer, dy):
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(dy)

    @pytest.mark.parametrize("window, winner", [
        ([1, 1, 0, 0], 0), ([0, 1, 1, 0], 1), ([0, 0, 1, 1], 2), ([1, 0, 0, 1], 0),
        ([1, 1, 1, 0], 0), ([0, 1, 1, 1], 1), ([1, 0, 1, 1], 0),
        ([1, 1, 1, 1], 0), ([0, 0, 0, 1], 3), ([-2, -2, -2, -2], 0),
    ])
    def test_pool_ties_go_to_first_row_major_cell(self, window, winner):
        x = np.array(window, dtype=np.float64).reshape(1, 1, 2, 2)
        pool = MaxPool2x2()
        assert dense_map(*pool.forward(*identity_map(x))).ravel().tolist() == [max(window)]
        dx = pool.backward(np.full((1, 1, 1, 1), -1.5))
        expected = np.zeros(4)
        expected[winner] = -1.5
        assert dx.transpose(0, 3, 1, 2).ravel().tolist() == expected.tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_matches_argmax_reference(self, dtype):
        rng = np.random.default_rng(29)
        # three levels over many windows give 2-, 3- and 4-way ties
        x = rng.integers(0, 3, size=(3, 4, 16, 12)).astype(dtype)
        dy = rng.normal(size=(3, 4, 8, 6)).astype(dtype)
        dy[0, 0] = -0.0
        pool = MaxPool2x2()
        y = dense_map(*pool.forward(*identity_map(x)))
        y_ref, dx_ref = maxpool_argmax_reference(x, dy)
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
        # one output per window: every input cell gets its winner's value or 0
        dx = pool.backward(dy.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert np.array_equal(dx, dx_ref)
        counts = (x.reshape(3, 4, 8, 2, 6, 2) == y[:, :, :, None, :, None]).sum(axis=(3, 5))
        assert {2, 3, 4} <= set(np.unique(counts).tolist())


# Box pairs whose maps exercise the first block's edge cases. Cell (y, x)
# of a map is set iff its center lies in the box, in the union frame, so
# every map has a box flush with each side of the frame.
def _box(x1, y1, x2, y2):
    return Box(float(x1), float(y1), float(x2), float(y2))


PAIR_CASES = {
    # a human narrower and shorter than one cell: both its indicators are empty
    "empty_channel": [(_box(50, 50, 50.2, 50.1), _box(0, 0, 64, 64))],
    # both boxes flush with the frame on two sides: the padding is read
    "flush": [(_box(0, 0, 30, 64), _box(30, 10, 64, 64))],
    "same_box": [(_box(3, 4, 20, 30), _box(3, 4, 20, 30))],
    "one_map": [(_box(2, 3, 17, 40), _box(11, 1, 60, 22))],
    # maps from 2 to many distinct row and column patterns in one batch
    "mixed": [(_box(3, 4, 20, 30), _box(3, 4, 20, 30)),
              (_box(0, 0, 10, 10), _box(10, 0, 20, 10)),
              (_box(2, 3, 17, 40), _box(11, 1, 60, 22)),
              (_box(0.0, 0.0, 7.3, 5.1), _box(1.9, 0.7, 6.2, 9.9)),
              (_box(50, 50, 50.2, 50.1), _box(0, 0, 64, 64)),
              (_box(5, 5, 9, 61), _box(1, 30, 63, 33))],
}


class TestEncoderBlocks:
    """The encoder's blocks on pair maps, from the indicator map: conv1 +
    pool1 against `conv_loop_forward` and `maxpool_argmax_reference` on
    the outer-product maps, the pooled output bit for bit in float32 and
    within GRAD_BOUND of max|ref| in float64, dW and db within
    GRAD_BOUND."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_first_block_matches_conv_and_pool_loops(self, case, dtype):
        rng = np.random.default_rng(len(case))
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        conv = enc.conv1
        conv.b.value[...] = rng.normal(size=8)
        h_boxes, o_boxes = zip(*PAIR_CASES[case])
        rows, cols, _ = spatial_pair_encoding(h_boxes, o_boxes)
        assert rows.shape == cols.shape == (len(h_boxes), 2, 64)
        rows, cols = rows.astype(dtype), cols.astype(dtype)
        x = outer_maps(rows, cols)
        y_conv, cols_ref = conv_loop_forward(conv, x)
        dy = rng.normal(size=(len(x), 8, 32, 32)).astype(dtype)
        y_ref, dconv = maxpool_argmax_reference(y_conv, dy)
        pooled = enc.pool1.forward(*conv.forward(*indicator_map(rows, cols)))
        y = dense_map(*pooled)
        assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
        if dtype == np.float32:
            assert y.tobytes() == y_ref.tobytes()
        else:
            assert_within(y, y_ref, GRAD_BOUND[np.float64])
        dw, db, _ = conv_loop_backward(conv, cols_ref, x.shape, dconv)
        assert conv.backward(enc.pool1.backward(table_grad(dy, *pooled)),
                             input_grad=False) is None
        assert_within(conv.w.grad, dw, GRAD_BOUND[dtype])
        assert_within(conv.b.grad, db, GRAD_BOUND[dtype])

    def test_a_box_within_one_cell_has_empty_indicators(self):
        rows, cols, _ = spatial_pair_encoding(*zip(*PAIR_CASES["empty_channel"]))
        assert not rows[0, 0].any() and not cols[0, 0].any() and rows[0, 1].all()

    def test_a_map_is_the_same_in_any_batch(self):
        """Every block's output of a map is the same bits alone as in a
        batch whose tables are larger; the float64 `fc` GEMM may only
        reassociate."""
        rng = np.random.default_rng(61)
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        rows, cols, _ = spatial_pair_encoding(*zip(*PAIR_CASES["mixed"]))
        blocks = (enc.conv1, enc.pool1, enc.conv2, enc.pool2)

        def outputs(m):
            x, out = indicator_map(rows[m], cols[m]), []
            for block in blocks:
                x = block.forward(*x)
                out.append(dense_map(*x))
            return out

        batch = outputs(slice(None))
        descriptors = enc.forward(rows, cols)
        for m in range(len(rows)):
            for alone, batched in zip(outputs(slice(m, m + 1)), batch):
                assert alone.tobytes() == np.ascontiguousarray(batched[m:m + 1]).tobytes()
            assert_within(enc.forward(rows[m:m + 1], cols[m:m + 1]), descriptors[m:m + 1],
                          GRAD_BOUND[np.float64])

    # Measured 6.9 MB on 64 random box maps; between calls the encoder
    # holds 14.6 MB, 9.7 MB of it conv2's columns. On the 64 x 64 maps,
    # `Conv2D`'s im2col columns alone were 18.9 MB for conv1 and for
    # conv2, so neither can be built under this bound.
    FORWARD_PEAK_BOUND = 8e6

    def test_encoder_forward_peak_memory(self):
        rng = np.random.default_rng(47)
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        rows, cols = (box_indicators(rng, (64, 2), 64).astype(np.float32) for _ in range(2))
        tracemalloc.start()
        try:
            enc.forward(rows, cols)  # its tables stay held, as before a backward
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            enc.forward(rows, cols)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= self.FORWARD_PEAK_BOUND, peak


# ------------------------------------------------------------------ softmax

class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3)))[0], [1 / 3] * 3)

    def test_large_values_stable(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out[0], [0.5, 0.5])
        assert np.all(np.isfinite(out))

    def test_direct_formula(self):
        row = np.array([1.0, 2.0, 3.0])
        e = np.exp(row)
        np.testing.assert_allclose(softmax_rows(row[None])[0], e / e.sum(), atol=1e-12)

    def test_rows_sum_to_one_many_seeds(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = rng.normal(scale=10.0, size=(rng.integers(1, 5), rng.integers(2, 6)))
            sums = softmax_rows(m).sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
            assert np.all(softmax_rows(m) >= 0.0)


# --------------------------------------------------------------------- bce

class TestBinaryCrossEntropy:
    def test_confident_right_prediction_costs_almost_nothing(self):
        n = 8
        # the logits of the probabilities 1 - 1e-7 and 1e-7
        z = math.log((1.0 - 1e-7) / 1e-7)
        logits = np.array([z, -z] * (n // 2))
        targets = np.array([1.0, 0.0] * (n // 2))
        loss, _ = binary_cross_entropy(logits, targets)
        assert 0.0 <= loss <= 2e-7 * n

    def test_midpoint_is_ln2_per_element(self):
        loss, grad = binary_cross_entropy(np.zeros(5), np.ones(5))
        np.testing.assert_allclose(loss, 5 * np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(grad, np.full(5, -0.5), atol=1e-12)

    def test_random_vs_elementwise_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.uniform(-4.6, 4.6, size=20)
        targets = (rng.uniform(size=20) < 0.5).astype(float)
        loss, grad = binary_cross_entropy(logits, targets)
        np.testing.assert_allclose(loss, bce_oracle(logits, targets), atol=1e-10)
        np.testing.assert_allclose(grad, 1.0 / (1.0 + np.exp(-logits)) - targets, atol=1e-12)

    def test_confident_wrong_prediction_keeps_its_gradient(self):
        # sigmoid(-40) is 4e-18: a probability clamped at 1e-7 would read
        # a loss of 16.1 and a gradient of exactly 0
        loss, grad = binary_cross_entropy(np.array([-40.0]), np.array([1.0]))
        np.testing.assert_allclose(loss, 40.0, rtol=1e-12)
        np.testing.assert_allclose(grad, [-1.0], rtol=1e-12)

    def test_finite_at_extreme_logits(self):
        logits = np.array([1e3, -1e3, 1e3, -1e3])
        targets = np.array([1.0, 1.0, 0.0, 0.0])
        loss, grad = binary_cross_entropy(logits, targets)
        np.testing.assert_allclose(loss, 2e3, rtol=1e-12)
        np.testing.assert_array_equal(grad, [0.0, -1.0, 1.0, 0.0])

    def test_nonnegative_and_mismatch(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            z = rng.normal(scale=5.0, size=6)
            t = (rng.uniform(size=6) < 0.5).astype(float)
            loss, _ = binary_cross_entropy(z, t)
            assert loss >= 0.0
        with pytest.raises(ShapeError):
            binary_cross_entropy(np.zeros(3), np.zeros(4))


# ------------------------------------------------------------------- hinge

class TestPairwiseHinge:
    def test_margin_satisfied(self):
        loss, dp, dn = pairwise_hinge_loss([0.9], [0.1], 0.2)
        assert loss == 0.0
        assert dp[0] == 0.0 and dn[0] == 0.0

    def test_hand_evaluated_case(self):
        loss, dp, dn = pairwise_hinge_loss([0.5], [0.6], 0.2)
        np.testing.assert_allclose(loss, 0.3, atol=1e-12)
        assert dp[0] == -1.0 and dn[0] == 1.0

    def test_empty_side_means_no_supervision(self):
        assert pairwise_hinge_loss([], [0.5])[0] == 0.0
        assert pairwise_hinge_loss([0.5], [])[0] == 0.0

    def test_zero_iff_separated_by_margin(self):
        rng = np.random.default_rng(23)
        eps = 0.2
        for _ in range(200):
            pos = rng.uniform(size=rng.integers(1, 5))
            neg = rng.uniform(size=rng.integers(1, 5))
            loss, _, _ = pairwise_hinge_loss(pos, neg, eps)
            separated = pos.min() >= neg.max() + eps
            assert (loss == 0.0) == separated

    def test_bad_margin(self):
        with pytest.raises(ValueError):
            pairwise_hinge_loss([0.5], [0.1], 0.0)


# --------------------------------------------------------------------- sgd

class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        store = ParamStore()
        p = store.add("a", Param(np.array([1.0, 2.0])))
        p.grad[...] = 5.0
        sgd_step(store, 0.0)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])

    def test_scalar_rule(self):
        store = ParamStore()
        p = store.add("a", Param(np.array([1.0])))
        p.grad[...] = 2.0
        sgd_step(store, 0.1)
        np.testing.assert_allclose(p.value, [0.8])

    def test_momentum_rule(self):
        store = ParamStore()
        p = store.add("a", Param(np.array([1.0])))
        p.grad[...] = 2.0
        sgd_step(store, 0.1)  # v = 2
        p.grad[...] = 1.0
        sgd_step(store, 0.1)  # v = 0.9 * 2 + 1
        np.testing.assert_allclose(p.value, [1.0 - 0.2 - 0.28], rtol=1e-15)
        sgd_step(store, 0.1)  # no gradient: neither value nor velocity moves
        np.testing.assert_allclose(p.value, [0.52], rtol=1e-15)
        np.testing.assert_allclose(p._vel, [2.8], rtol=1e-15)

    def test_multiblock_equals_per_block(self):
        rng = np.random.default_rng(31)
        vals = {n: rng.normal(size=s) for n, s in [("a", (3,)), ("b", (2, 2))]}
        grads = {n: rng.normal(size=v.shape) for n, v in vals.items()}

        joint = ParamStore()
        for n, v in vals.items():
            joint.add(n, Param(v))
            joint[n].grad[...] = grads[n]
        sgd_step(joint, 0.05)

        for n, v in vals.items():
            solo = ParamStore()
            solo.add(n, Param(v))
            solo[n].grad[...] = grads[n]
            sgd_step(solo, 0.05)
            np.testing.assert_array_equal(joint[n].value, solo[n].value)

    def test_block_without_gradient_is_skipped(self):
        store = ParamStore()
        idle = store.add("idle", Param(np.array([-0.0, 1.5])))
        used = store.add("used", Param(np.array([1.0])))
        used.grad += 2.0
        sgd_step(store, 0.1)
        assert idle.value.tobytes() == np.array([-0.0, 1.5]).tobytes()
        assert idle._grad is None
        np.testing.assert_allclose(used.value, [0.8])

    def test_param_copies_its_value(self):
        value = np.array([1.0, 2.0])
        p = Param(value)
        value[0] = 7.0
        assert p.value.tolist() == [1.0, 2.0]

    def test_nan_gradient_names_block(self):
        store = ParamStore()
        store.add("good", Param(np.zeros(2)))
        bad = store.add("head.w", Param(np.zeros(2)))
        bad.grad[0] = np.nan
        with pytest.raises(TrainingError, match="head.w"):
            sgd_step(store, 0.1)

    def test_nan_gradient_moves_no_block(self):
        store = ParamStore()
        good = store.add("good", Param(np.ones(2)))
        bad = store.add("bad", Param(np.zeros(2)))
        good.grad += 1.0
        bad.grad[1] = np.inf
        with pytest.raises(TrainingError, match="'bad'"):
            sgd_step(store, 0.1)
        assert good.value.tolist() == [1.0, 1.0]

    def test_finite_gradient_whose_norm_overflows_moves_no_block(self):
        store = ParamStore()
        p = store.add("w", Param(np.zeros(2)))
        p.grad += 1e200
        with pytest.raises(TrainingError, match="overflows"):
            sgd_step(store, 0.1)
        assert p.value.tolist() == [0.0, 0.0]

    def test_huge_gradient_moves_a_block_by_at_most_the_bound(self):
        store = ParamStore()
        p = store.add("w", Param(np.zeros((3, 4))))
        q = store.add("b", Param(np.zeros(4)))
        p.grad += 1e6
        q.grad[0] = -1e6
        sgd_step(store, 0.01)
        step = np.sqrt((p.value ** 2).sum() + (q.value ** 2).sum())
        assert step <= 0.01 * MAX_GRAD_NORM * (1 + 1e-12)
        assert step >= 0.01 * MAX_GRAD_NORM * (1 - 1e-12)
        # the direction is kept: every entry scaled by one factor
        np.testing.assert_allclose(p.value / q.value[0], -np.ones((3, 4)), rtol=1e-12)

    def test_step_within_the_bound_is_the_plain_step(self):
        rng = np.random.default_rng(57)
        shapes = {"a": (5, 3), "b": (7,)}
        values = {n: rng.normal(size=s) for n, s in shapes.items()}
        # a norm just under the bound, over two steps of momentum
        grads = [{n: rng.normal(size=s) for n, s in shapes.items()} for _ in range(2)]
        for g in grads:
            total = np.sqrt(sum((a ** 2).sum() for a in g.values()))
            for a in g.values():
                a *= 0.999 * MAX_GRAD_NORM / total
        store = ParamStore()
        for n, v in values.items():
            store.add(n, Param(v))
        want = {n: v.copy() for n, v in values.items()}
        vel = {n: np.zeros(s) for n, s in shapes.items()}
        for g in grads:
            for n in shapes:
                store[n].grad += g[n]
                vel[n] *= MOMENTUM
                vel[n] += g[n]
                want[n] -= vel[n] * 0.05
            sgd_step(store, 0.05)
        for n in shapes:
            assert store[n].value.tobytes() == want[n].tobytes()

    def test_param_takes_over_an_array_without_copy(self):
        value = np.zeros(2)
        assert Param(value, copy=False).value is value
        fc = FCLayer(3, 2, rng=np.random.default_rng(0))
        assert fc.w.value.flags.owndata and fc.b.value.flags.owndata


def scene_rows(rng, fc, batches=(4, 1, 7)):
    """Forward and backward of one FC layer over a few scenes; returns the
    summed per-scene weight and bias gradients."""
    dw = np.zeros_like(fc.w.value)
    db = np.zeros_like(fc.b.value)
    for rows in batches:
        x = rng.normal(size=(rows, fc.in_dim))
        dy = rng.normal(size=(rows, fc.out_dim))
        y = fc.forward(x)
        fc.backward(dy)
        dw += dy.T @ x
        db += dy.sum(axis=0)
    return dw, db


class TestFCWeightGradients:
    def test_gradient_equals_per_scene_accumulation(self):
        rng = np.random.default_rng(40)
        fc = FCLayer(5, 3, rng)
        dw, db = scene_rows(rng, fc)
        np.testing.assert_allclose(fc.b._grad, db, rtol=1e-12)
        np.testing.assert_allclose(fc.w._grad, dw, rtol=1e-12)

    def test_backward_adds_to_the_gradient_in_the_buffer(self):
        rng = np.random.default_rng(41)
        fc = FCLayer(4, 2, rng=rng)
        fc.w.grad[...] = 1.0
        buffer = fc.w.grad
        dw, _ = scene_rows(rng, fc, batches=(3,))
        assert fc.w.grad is buffer
        np.testing.assert_allclose(fc.w.grad, dw + 1.0, rtol=1e-12)

    def test_writing_the_inputs_after_backward_leaves_the_gradient(self):
        rng = np.random.default_rng(47)
        fc = FCLayer(4, 3, rng)
        x, dy = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        fc.forward(x)
        fc.backward(dy)
        want = dy.T @ x
        x[...] = 0.0
        dy[...] = 0.0
        np.testing.assert_allclose(fc.w.grad, want, rtol=1e-12)

    def test_sgd_step_takes_the_product(self):
        rng = np.random.default_rng(42)
        fc = FCLayer(6, 2, rng)
        store = ParamStore()
        for name, p in fc.params("fc"):
            store.add(name, p)
        w0, b0 = fc.w.value.copy(), fc.b.value.copy()
        dw, db = scene_rows(rng, fc)
        sgd_step(store, 0.1)
        np.testing.assert_allclose(fc.w.value, w0 - 0.1 * dw, rtol=1e-12)
        np.testing.assert_allclose(fc.b.value, b0 - 0.1 * db, rtol=1e-12)
        assert not np.any(fc.w.grad)

    def test_the_next_step_writes_into_the_kept_buffer(self):
        rng = np.random.default_rng(46)
        fc = FCLayer(5, 3, rng=rng)
        store = ParamStore()
        for name, p in fc.params("fc"):
            store.add(name, p)
        g1, _ = scene_rows(rng, fc)
        sgd_step(store, 0.1)
        spare = fc.w._spare
        assert fc.w._grad is None and spare is not None
        w0 = fc.w.value.copy()
        dw, _ = scene_rows(rng, fc, batches=(2,))  # the stale spare is not added
        assert fc.w.grad is spare
        sgd_step(store, 0.1)
        # the momentum step: the velocity after the first step is g1
        np.testing.assert_allclose(fc.w.value, w0 - 0.1 * (0.9 * g1 + dw), rtol=1e-12)
        assert fc.w._spare is spare

    def test_sgd_step_checks_the_product(self):
        fc = FCLayer(2, 1, rng=np.random.default_rng(43))
        store = ParamStore()
        for name, p in fc.params("head"):
            store.add(name, p)
        fc.forward(np.array([[np.inf, 1.0]]))
        with np.errstate(invalid="ignore"):
            fc.backward(np.array([[0.0]]))  # 0 * inf in the product
        assert not np.any(fc.b.grad)
        with pytest.raises(TrainingError, match="head.w"):
            sgd_step(store, 0.1)

    def test_load_drops_the_gradient(self, tmp_path):
        rng = np.random.default_rng(44)
        fc = FCLayer(3, 2, rng=rng)
        store = ParamStore()
        for name, p in fc.params("fc"):
            store.add(name, p)
        store.save(tmp_path / "p.json", tmp_path / "p.bin")
        scene_rows(rng, fc)
        store.load(tmp_path / "p.json", tmp_path / "p.bin")
        assert fc.w._grad is None and fc.b._grad is None

    def test_load_drops_the_gradient_and_the_velocity(self, tmp_path):
        rng = np.random.default_rng(49)
        fc = FCLayer(3, 2, rng=rng)
        store = ParamStore()
        for name, p in fc.params("fc"):
            store.add(name, p)
        store.save(tmp_path / "p.json", tmp_path / "p.bin")
        scene_rows(rng, fc)
        sgd_step(store, 0.1)
        scene_rows(rng, fc)
        assert all(p._vel is not None and p._grad is not None for _, p in store.items())
        store.load(tmp_path / "p.json", tmp_path / "p.bin")
        assert all(p._vel is None and p._grad is None for _, p in store.items())
        # the next step starts from zero velocity: a plain gradient step
        w0 = fc.w.value.copy()
        dw, _ = scene_rows(rng, fc, batches=(3,))
        sgd_step(store, 0.1)
        np.testing.assert_allclose(fc.w.value, w0 - 0.1 * dw, rtol=1e-12)

    def test_without_input_grad_accumulates_the_same_weights(self):
        rng = np.random.default_rng(45)
        x, dy = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        layers = [FCLayer(4, 3, np.random.default_rng(1)) for _ in range(2)]
        for layer in layers:
            layer.forward(x)
        assert layers[0].backward(dy).shape == (5, 4)
        assert layers[1].backward(dy, input_grad=False) is None
        assert layers[0].w.grad.tobytes() == layers[1].w.grad.tobytes()
        assert layers[0].b.grad.tobytes() == layers[1].b.grad.tobytes()


class TestGradientBuffers:
    def test_sgd_step_keeps_the_buffers(self):
        store = ParamStore()
        w = store.add("w", Param(np.ones((2, 3))))
        untouched = store.add("untouched", Param(np.ones(2)))
        w.grad += np.full((2, 3), 4.0)
        sgd_step(store, 0.25)
        np.testing.assert_array_equal(w.value, np.zeros((2, 3)))
        np.testing.assert_array_equal(untouched.value, np.ones(2))
        assert w._grad is None and w._spare is not None
        assert untouched._grad is None and untouched._spare is None
        np.testing.assert_array_equal(w.grad, np.zeros((2, 3)))  # the spare, zeroed

    def test_first_product_becomes_the_buffer(self):
        rng = np.random.default_rng(46)
        fc = FCLayer(4, 3, rng=rng)
        dw, _ = scene_rows(rng, fc, batches=(2, 3))
        grad = fc.w.grad
        assert grad.base is None and grad.flags.c_contiguous
        np.testing.assert_allclose(grad, dw, rtol=1e-12)


# --------------------------------------------------------- gradient checks

def _fc_loss(fc, x, weights):
    def run():
        y = fc.forward(x)
        loss = float((y * weights).sum())
        fc.backward(weights)
        return loss
    return run


class TestFiniteDiffCheck:
    def test_fc_forward_gradients(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            fc = FCLayer(4, 3, rng)
            x = rng.normal(size=(1, 4))
            weights = rng.normal(size=(1, 3))
            blocks = dict(fc.params("fc"))
            report = finite_diff_check(_fc_loss(fc, x, weights), blocks, tol=1e-4)
            assert report.passed, str(report)

    def test_fc_with_bce_on_logits_gradients(self):
        # a sigmoid output trained with BCE: the layer's logits go to the
        # loss, whose gradient sigmoid(z) - y is the one backward takes
        for seed in range(3):
            rng = np.random.default_rng(seed)
            fc = FCLayer(4, 3, rng)
            x = rng.normal(size=(2, 4))
            targets = (rng.uniform(size=(2, 3)) < 0.5).astype(float)

            def run():
                loss, grad = binary_cross_entropy(fc.forward(x), targets)
                fc.backward(grad)
                return loss

            report = finite_diff_check(run, dict(fc.params("fc")), tol=1e-4)
            assert report.passed, str(report)

    def test_conv_pool_gradients(self):
        # float64 box indicators, as `hoicascade gradcheck` takes them, with
        # drawn biases and a small step to keep off pool kinks (see
        # `gradcheck.check_conv_pool`)
        rng = np.random.default_rng(41)
        enc = ConvPoolEncoder(2, (8, 8), channels=(3, 3), rng=rng)
        for layer in (enc.conv1, enc.conv2, enc.fc):
            layer.b.value[...] = rng.normal(size=layer.b.value.shape)
        rows, cols = (box_indicators(rng, (1, 2), 8) for _ in range(2))
        weights = rng.normal(size=(1, 256))

        def run():
            y = enc.forward(rows, cols)
            enc.backward(weights)
            return float((y * weights).sum())

        report = finite_diff_check(run, dict(enc.params("enc")), tol=1e-4, step=1e-5)
        assert report.passed, str(report)

    def test_paper_size_encoder_gradients(self):
        # the composed conv+pool -> conv -> pool -> fc chain at the deployed
        # 64x64 size, on float64 box indicators with drawn biases; conv1 has
        # no input gradient to lean on
        rng = np.random.default_rng(53)
        enc = ConvPoolEncoder(2, (64, 64), rng=rng)
        for layer in (enc.conv1, enc.conv2, enc.fc):
            layer.b.value[...] = rng.normal(size=layer.b.value.shape)
        rows, cols = (box_indicators(rng, (2, 2), 64) for _ in range(2))
        weights = rng.normal(size=(2, 256))

        def run():
            y = enc.forward(rows, cols)
            enc.backward(weights)
            return float((y * weights).sum())

        report = finite_diff_check(run, dict(enc.params("enc")), tol=1e-4,
                                   step=1e-5, max_entries=6)
        assert set(report.per_block) == {f"enc.{layer}.{p}" for layer in ("conv1", "conv2", "fc")
                                         for p in ("w", "b")}
        assert report.passed, str(report)

    def test_hinge_gradients_away_from_kink(self):
        rng = np.random.default_rng(43)
        pos = Param(rng.uniform(0.3, 0.7, size=3))
        neg = Param(rng.uniform(0.3, 0.7, size=3))

        def run():
            loss, dp, dn = pairwise_hinge_loss(pos.value, neg.value, 0.2)
            pos.grad += dp
            neg.grad += dn
            return loss

        # Keep every pair's slack away from the hinge kink.
        slack = neg.value[None, :] - pos.value[:, None] + 0.2
        assert np.all(np.abs(slack) > 1e-2)
        report = finite_diff_check(run, {"pos": pos, "neg": neg}, tol=1e-4)
        assert report.passed, str(report)


# ------------------------------------------------------------- determinism

def test_deterministic_construction_and_forward():
    def build():
        rng = np.random.default_rng(99)
        enc = ConvPoolEncoder(2, (8, 8), rng=rng)
        data = np.random.default_rng(1)
        return enc.forward(*(box_indicators(data, (3, 2), 8) for _ in range(2)))

    a, b = build(), build()
    assert a.tobytes() == b.tobytes()


def test_smooth_l1_values():
    loss, grad = smooth_l1(np.array([0.5, -2.0]))
    np.testing.assert_allclose(loss, 0.5 * 0.25 + (2.0 - 0.5))
    np.testing.assert_allclose(grad, [0.5, -1.0])


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    store = ParamStore()
    store.add("layer.w", Param(rng.normal(size=(3, 4))))
    store.add("layer.b", Param(rng.normal(size=3)))
    manifest, blob = tmp_path / "p.json", tmp_path / "p.bin"
    store.save(manifest, blob)

    other = ParamStore()
    other.add("layer.w", Param(np.zeros((3, 4))))
    other.add("layer.b", Param(np.zeros(3)))
    other.load(manifest, blob)
    # float32 storage: round-trip is exact at float32 resolution
    np.testing.assert_allclose(other["layer.w"].value, store["layer.w"].value, atol=1e-6)

    bad = ParamStore()
    bad.add("layer.w", Param(np.zeros((2, 2))))
    bad.add("layer.b", Param(np.zeros(3)))
    with pytest.raises(FormatError):
        bad.load(manifest, blob)


def test_checkpoint_bad_magic(tmp_path):
    manifest, blob = tmp_path / "p.json", tmp_path / "p.bin"
    manifest.write_text('{"magic": "nope", "version": 1, "blocks": {}}')
    blob.write_bytes(b"")
    store = ParamStore()
    with pytest.raises(FormatError):
        store.load(manifest, blob)
