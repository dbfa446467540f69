import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicascade.errors import DataError, ShapeError
from hoicascade.geometry import (
    BitMask,
    Box,
    FeatureGrid,
    box_array,
    box_iou,
    box_ious,
    mask_iou,
    roi_align,
    spatial_pair_encoding,
    union_box,
)


# ---------------------------------------------------------------- oracles

def iou_enumeration_oracle(a, b, cells=200):
    """Count sub-cells inside each box over their hull; independent of the
    closed-form intersection arithmetic."""
    hull = union_box(a, b)
    xs = hull.x1 + (np.arange(cells) + 0.5) * hull.width / cells
    ys = hull.y1 + (np.arange(cells) + 0.5) * hull.height / cells
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a.x1) & (gx < a.x2) & (gy >= a.y1) & (gy < a.y2)
    in_b = (gx >= b.x1) & (gx < b.x2) & (gy >= b.y1) & (gy < b.y2)
    inter = np.sum(in_a & in_b)
    union = np.sum(in_a | in_b)
    return inter / union


def mask_iou_pixel_oracle(a, b):
    inter = union = 0
    for r in range(a.height):
        for c in range(a.width):
            pa, pb = a.bits[r, c], b.bits[r, c]
            inter += int(pa and pb)
            union += int(pa or pb)
    return inter / union if union else 0.0


def bilinear_oracle(grid, box, out):
    """One sample per cell center, computed scalar by scalar."""
    c, gh, gw = grid.data.shape
    oh, ow = out
    res = np.zeros((c, oh, ow))
    for i in range(oh):
        for j in range(ow):
            x = (box.x1 + (j + 0.5) * box.width / ow) * grid.scale_x
            y = (box.y1 + (i + 0.5) * box.height / oh) * grid.scale_y
            u = min(max(x - 0.5, 0.0), gw - 1.0)
            v = min(max(y - 0.5, 0.0), gh - 1.0)
            c0, r0 = int(np.floor(u)), int(np.floor(v))
            c1, r1 = min(c0 + 1, gw - 1), min(r0 + 1, gh - 1)
            wc, wr = u - c0, v - r0
            for ch in range(c):
                top = grid.data[ch, r0, c0] * (1 - wc) + grid.data[ch, r0, c1] * wc
                bot = grid.data[ch, r1, c0] * (1 - wc) + grid.data[ch, r1, c1] * wc
                res[ch, i, j] = top * (1 - wr) + bot * wr
    return res


# ------------------------------------------------------------------- boxes

PROPERTY = settings(max_examples=60)

BOXES = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                  *[st.floats(-1e3, 1e3)] * 2, *[st.floats(1e-3, 1e3)] * 2)


class TestBoxIoU:
    @PROPERTY
    @given(a=BOXES, b=BOXES)
    def test_symmetric_bounded_and_one_against_itself(self, a, b):
        iou = box_iou(a, b)
        assert iou == box_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert box_iou(a, a) == 1.0

    def test_identical(self):
        b = Box(1, 2, 5, 7)
        assert box_iou(b, b) == 1.0

    def test_disjoint(self):
        assert box_iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0

    def test_one_seventh(self):
        a, b = Box(0, 0, 2, 2), Box(1, 1, 3, 3)
        np.testing.assert_allclose(box_iou(a, b), 1 / 7)
        np.testing.assert_allclose(iou_enumeration_oracle(a, b), 1 / 7, atol=2e-2)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x1, y1 = rng.uniform(0, 10, 2)
            a = Box(x1, y1, x1 + rng.uniform(1, 5), y1 + rng.uniform(1, 5))
            x1, y1 = rng.uniform(0, 10, 2)
            b = Box(x1, y1, x1 + rng.uniform(1, 5), y1 + rng.uniform(1, 5))
            v = box_iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == box_iou(b, a)

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            Box(0, 0, 0, 1)


# small integer boxes: shared edges, nesting and equal boxes are common
GRID_BOXES = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                       *[st.integers(0, 6)] * 2, *[st.integers(1, 4)] * 2)


def related_boxes(box):
    """The box itself, one nested in it, one touching its right edge and
    one disjoint from it."""
    w, h = box.width, box.height
    return [box,
            Box(box.x1 + w / 4, box.y1 + h / 4, box.x2 - w / 4, box.y2 - h / 4),
            Box(box.x2, box.y1, box.x2 + w, box.y2),
            Box(box.x2 + w, box.y2 + h, box.x2 + 2 * w, box.y2 + 2 * h)]


class TestBoxArray:
    def test_box_list_gives_its_corners(self):
        got = box_array([Box(1, 2, 3, 4), Box(0.5, 0.25, 8, 9.75)])
        assert got.dtype == np.float64
        assert got.tolist() == [[1, 2, 3, 4], [0.5, 0.25, 8, 9.75]]

    def test_array_passes_through_as_float64(self):
        corners = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 5.0, 6.0]])
        assert np.shares_memory(box_array(corners), corners)  # no copy
        got = box_array(np.array([[1, 2, 3, 4]], dtype=np.float32))
        assert got.dtype == np.float64 and got.tolist() == [[1, 2, 3, 4]]

    def test_empty_list_gives_zero_rows(self):
        got = box_array([])
        assert got.shape == (0, 4) and got.dtype == np.float64


class TestBoxIoUs:
    @PROPERTY
    @given(a=st.lists(st.one_of(BOXES, GRID_BOXES), max_size=5),
           b=st.lists(st.one_of(BOXES, GRID_BOXES), max_size=5))
    def test_every_entry_is_box_iou_bit_for_bit(self, a, b):
        b = b + [r for box in a for r in related_boxes(box)]
        ious = box_ious(a, b)
        expected = np.array([[box_iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        assert ious.shape == expected.shape and ious.dtype == np.float64
        assert ious.tobytes() == expected.tobytes()

    def test_disjoint_touching_nested_identical(self):
        box = Box(0, 0, 4, 4)
        assert box_ious([box], related_boxes(box)).tolist() == [[1.0, 0.25, 0.0, 0.0]]

    def test_empty_lists(self):
        assert box_ious([], [Box(0, 0, 1, 1)]).shape == (0, 1)
        assert box_ious([Box(0, 0, 1, 1)], []).shape == (1, 0)


class TestUnionBox:
    def test_same_box(self):
        b = Box(0, 0, 1, 1)
        assert union_box(b, b) == b

    def test_hull(self):
        assert union_box(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == Box(0, 0, 3, 3)

    def test_nested(self):
        outer, inner = Box(0, 0, 10, 10), Box(2, 2, 3, 3)
        assert union_box(outer, inner) == outer


class TestMaskIoU:
    def test_equal(self):
        m = BitMask(np.eye(4, dtype=bool))
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = BitMask([[1, 0], [0, 0]])
        b = BitMask([[0, 0], [0, 1]])
        assert mask_iou(a, b) == 0.0

    def test_random_vs_pixel_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = BitMask(rng.uniform(size=(6, 5)) < 0.5)
            b = BitMask(rng.uniform(size=(6, 5)) < 0.5)
            assert mask_iou(a, b) == mask_iou_pixel_oracle(a, b)
            assert mask_iou(a, b) == mask_iou(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            mask_iou(BitMask(np.ones((2, 2), bool)), BitMask(np.ones((3, 2), bool)))


# --------------------------------------------------------------- roi align

class TestRoiAlign:
    def test_constant_grid(self):
        grid = FeatureGrid.from_array(np.full((2, 6, 6), 3.5))
        pooled = roi_align(grid, [Box(0.7, 1.2, 4.9, 5.3)], out=(3, 4))[0]
        np.testing.assert_allclose(pooled, 3.5)

    def test_full_grid_identity(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 5, 4))
        grid = FeatureGrid.from_array(data)
        pooled = roi_align(grid, [Box(0, 0, 4, 5)], out=(5, 4))[0]
        np.testing.assert_allclose(pooled, data, atol=1e-12)

    def test_matches_bilinear_oracle(self):
        rng = np.random.default_rng(5)
        grid = FeatureGrid.from_array(rng.normal(size=(3, 8, 8)))
        for _ in range(10):
            x1, y1 = rng.uniform(0, 5, 2)
            box = Box(x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))
            out = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            np.testing.assert_allclose(roi_align(grid, [box], out)[0],
                                       bilinear_oracle(grid, box, out), atol=1e-12)

    def test_image_to_grid_scaling(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(1, 4, 4))
        small = FeatureGrid(data, image_height=16, image_width=16)
        big = FeatureGrid.from_array(data)
        # The same relative box must pool identically under a 4x coordinate scale.
        np.testing.assert_allclose(roi_align(small, [Box(4, 4, 12, 12)]),
                                   roi_align(big, [Box(1, 1, 3, 3)]), atol=1e-12)

    def test_default_out_is_7x7(self):
        grid = FeatureGrid.from_array(np.zeros((2, 8, 8)))
        assert roi_align(grid, [Box(1, 1, 5, 5)]).shape == (1, 2, 7, 7)

    def test_degenerate_box_clamps(self):
        grid = FeatureGrid.from_array(np.arange(16, dtype=float).reshape(1, 4, 4))
        pooled = roi_align(grid, [Box(0.0, 0.0, 0.2, 0.2)], out=(2, 2))
        assert np.all(np.isfinite(pooled))


def roi_align_one(grid, box, out):
    """Single-box RoIAlign with 1-d sample positions: the per-box loop
    reference the batched roi_align must match bit for bit."""
    oh, ow = out
    gx1, gx2 = box.x1 * grid.scale_x, box.x2 * grid.scale_x
    gy1, gy2 = box.y1 * grid.scale_y, box.y2 * grid.scale_y
    u = np.clip(gx1 + (np.arange(ow) + 0.5) * (gx2 - gx1) / ow - 0.5, 0.0, grid.grid_width - 1.0)
    v = np.clip(gy1 + (np.arange(oh) + 0.5) * (gy2 - gy1) / oh - 0.5, 0.0, grid.grid_height - 1.0)
    c0, r0 = np.floor(u).astype(int), np.floor(v).astype(int)
    c1 = np.minimum(c0 + 1, grid.grid_width - 1)
    r1 = np.minimum(r0 + 1, grid.grid_height - 1)
    wc, wr = u - c0, v - r0
    rows0, rows1 = grid.data[:, r0, :], grid.data[:, r1, :]
    top = rows0[:, :, c0] * (1 - wc) + rows0[:, :, c1] * wc
    bot = rows1[:, :, c0] * (1 - wc) + rows1[:, :, c1] * wc
    return top * (1 - wr[:, None]) + bot * wr[:, None]


class TestBatchedRoiAlign:
    @pytest.mark.parametrize("out", [(7, 7), (14, 14), (3, 5)])
    def test_bitwise_equal_to_per_box_loop(self, out):
        rng = np.random.default_rng(21)
        grid = FeatureGrid(rng.normal(size=(4, 16, 20)), image_height=64, image_width=80)
        boxes = [Box(10.0, 12.0, 10.5, 12.25),   # smaller than one cell
                 Box(0.0, 0.0, 0.1, 0.1),        # sub-cell, at the corner
                 Box(-9.0, -3.0, 30.0, 20.0),    # clamped at the top-left edge
                 Box(60.0, 50.0, 95.0, 70.0),    # clamped at the bottom-right edge
                 Box(0.0, 0.0, 80.0, 64.0)]      # the whole image
        for _ in range(20):
            x1, y1 = rng.uniform(-5, 75), rng.uniform(-5, 60)
            boxes.append(Box(x1, y1, x1 + rng.uniform(0.05, 40), y1 + rng.uniform(0.05, 40)))
        got = roi_align(grid, boxes, out)
        ref = np.stack([roi_align_one(grid, box, out) for box in boxes])
        assert got.shape == (len(boxes), 4, *out)
        assert got.tobytes() == ref.tobytes()

    def test_keep_cells_bitwise_equal_to_zeroed_grid_copies(self):
        rng = np.random.default_rng(23)
        grid = FeatureGrid(rng.normal(size=(3, 16, 20)), image_height=64, image_width=80)
        boxes = [Box(4.0, 2.0, 40.0, 50.0), Box(30.0, 10.0, 79.0, 63.0), Box(0.0, 0.0, 80.0, 64.0)]
        keep = rng.uniform(size=(3, 16, 20)) > 0.3
        got = roi_align(grid, boxes, (7, 7), keep=keep)
        for i, box in enumerate(boxes):
            zeroed = FeatureGrid(grid.data * keep[i], image_height=64, image_width=80)
            assert got[i].tobytes() == roi_align_one(zeroed, box, (7, 7)).tobytes()

    @pytest.mark.parametrize("keep", [False, True])
    def test_output_is_c_contiguous(self, keep):
        # The matmuls downstream (IHSM's x @ x.T, the relation maps) sum in
        # an order that depends on their operands' memory layout, so a
        # strided result would move served scores by ULPs.
        rng = np.random.default_rng(24)
        grid = FeatureGrid(rng.normal(size=(5, 16, 20)), image_height=64, image_width=80)
        boxes = [Box(4.0, 2.0, 40.0, 50.0), Box(30.0, 10.0, 79.0, 63.0)]
        cells = rng.uniform(size=(2, 16, 20)) > 0.3 if keep else None
        got = roi_align(grid, boxes, (7, 7), keep=cells)
        assert got.shape == (2, 5, 7, 7) and got.flags.c_contiguous

    def test_one_box_list(self):
        rng = np.random.default_rng(22)
        grid = FeatureGrid.from_array(rng.normal(size=(3, 9, 9)))
        box = Box(1.3, 2.2, 7.9, 5.1)
        got = roi_align(grid, [box], (7, 7))
        assert got.shape == (1, 3, 7, 7)
        assert got[0].tobytes() == roi_align_one(grid, box, (7, 7)).tobytes()


# ----------------------------------------------------- pair encoding (2ch)

def pair_map_reference(h_box, o_box):
    """One pair's (2, 64, 64) map, cell by cell: a cell is set iff its
    center in the union-box frame lies in the entity's box."""
    frame = union_box(h_box, o_box)
    n = 64
    cx = frame.x1 + (np.arange(n) + 0.5) * frame.width / n
    cy = frame.y1 + (np.arange(n) + 0.5) * frame.height / n
    out = np.zeros((2, n, n), dtype=np.float32)
    for ch, box in enumerate((h_box, o_box)):
        for r in range(n):
            for c in range(n):
                out[ch, r, c] = box.x1 <= cx[c] < box.x2 and box.y1 <= cy[r] < box.y2
    return out


def outer_products(rows, cols):
    """The (M, 2, 64, 64) maps of (M, 2, 64) row and column indicators."""
    return rows[:, :, :, None] * cols[:, :, None, :]


def encode_one(h_box, o_box):
    """One pair's map, rebuilt from the indicators it is returned as."""
    rows, cols, index = spatial_pair_encoding([h_box], [o_box])
    assert rows.shape == cols.shape == (1, 2, 64)
    assert rows.dtype == cols.dtype == np.float32
    assert index.tolist() == [0]
    return outer_products(rows, cols)[0]


class TestSpatialPairEncoding:
    def test_same_box_all_ones(self):
        b = Box(2, 3, 9, 11)
        enc = encode_one(b, b)
        np.testing.assert_array_equal(enc, np.ones((2, 64, 64)))

    def test_disjoint_halves(self):
        h, o = Box(0, 0, 10, 10), Box(10, 0, 20, 10)
        enc = encode_one(h, o)
        assert np.all(enc[0, :, :32] == 1) and np.all(enc[0, :, 32:] == 0)
        assert np.all(enc[1, :, 32:] == 1) and np.all(enc[1, :, :32] == 0)
        assert not np.any((enc[0] > 0) & (enc[1] > 0))

    def test_values_binary(self):
        enc = encode_one(Box(0, 0, 3, 3), Box(1, 1, 7, 5))
        assert set(np.unique(enc)) <= {0.0, 1.0}

    def test_translation_and_scale_invariance(self):
        h, o = Box(1, 2, 4, 6), Box(3, 5, 9, 8)
        base = encode_one(h, o)
        for dx, dy, s in [(5, 7, 1.0), (0, 0, 3.0), (2, 1, 0.5)]:
            h2 = Box(h.x1 * s + dx, h.y1 * s + dy, h.x2 * s + dx, h.y2 * s + dy)
            o2 = Box(o.x1 * s + dx, o.y1 * s + dy, o.x2 * s + dx, o.y2 * s + dy)
            np.testing.assert_array_equal(base, encode_one(h2, o2))
            # in one call the two pairs share one map
            rows, cols, index = spatial_pair_encoding([h, h2], [o, o2])
            assert len(rows) == len(cols) == 1 and index.tolist() == [0, 0]

    @PROPERTY
    @given(h=st.tuples(*[st.integers(-50, 50)] * 2, *[st.integers(1, 40)] * 2),
           o=st.tuples(*[st.integers(-50, 50)] * 2, *[st.integers(1, 40)] * 2),
           shift=st.tuples(st.integers(-500, 500), st.integers(-500, 500)),
           log2_scale=st.integers(-4, 4))
    def test_translation_and_scale_invariance_property(self, h, o, shift, log2_scale):
        # integer boxes, integer shifts and power-of-two scales keep every
        # cell center exact, so no rounding can move one across a box edge
        def box(x, y, w, hgt, s=1.0, dx=0, dy=0):
            return Box(x * s + dx, y * s + dy, (x + w) * s + dx, (y + hgt) * s + dy)

        s = 2.0 ** log2_scale
        np.testing.assert_array_equal(encode_one(box(*h), box(*o)),
                                      encode_one(box(*h, s, *shift), box(*o, s, *shift)))

    def test_batch_matches_per_pair_reference_in_first_seen_order(self):
        rng = np.random.default_rng(4)

        def rand_box():
            x, y = rng.uniform(0, 100, 2)
            w, h = rng.uniform(1, 40, 2)
            return Box(x, y, x + w, y + h)

        h_boxes = [rand_box() for _ in range(12)]
        o_boxes = [rand_box() for _ in range(12)]
        # repeats: the same pair again, a shifted copy, and a swapped pair
        shifted = [Box(b.x1 + 16, b.y1 + 8, b.x2 + 16, b.y2 + 8) for b in (h_boxes[2], o_boxes[2])]
        h_boxes += [h_boxes[5], shifted[0], o_boxes[0]]
        o_boxes += [o_boxes[5], shifted[1], h_boxes[0]]
        # maps that share their row (then column) occupancy but not the other
        h_boxes += [Box(0, 0, 10, 10)] * 2 + [Box(0, 0, 10, 10)] * 2
        o_boxes += [Box(10, 0, 20, 10), Box(5, 0, 20, 10), Box(0, 10, 10, 20), Box(0, 5, 10, 20)]
        rows, cols, index = spatial_pair_encoding(h_boxes, o_boxes)
        assert rows.shape == cols.shape == (17, 2, 64)  # no 64x64 map is returned
        maps = outer_products(rows, cols)
        refs = [pair_map_reference(h, o) for h, o in zip(h_boxes, o_boxes)]
        for ref, i in zip(refs, index):
            assert maps[i].tobytes() == ref.tobytes()
        assert len(maps) == 17 and index[12:14].tolist() == [5, 2] and index[14] == 12
        assert index[15:].tolist() == [13, 14, 15, 16]
        # distinct maps appear in the order of their first pair
        firsts = [int(np.flatnonzero(index == m)[0]) for m in range(len(maps))]
        assert firsts == sorted(firsts)
        assert len({r.tobytes() for r in refs}) == len(maps)


def test_bitmask_bbox():
    bits = np.zeros((5, 6), bool)
    bits[1:3, 2:5] = True
    assert BitMask(bits).bbox() == Box(2, 1, 5, 3)
    with pytest.raises(DataError):
        BitMask(np.zeros((2, 2), bool)).bbox()
