"""Boxes, bitmasks, IoU, RoI feature pooling and the two-channel
spatial pair encoding.

Coordinate conventions: boxes live in continuous image coordinates with
x to the right and y down. A feature-grid pixel (r, c) covers the square
[c, c+1) x [r, r+1) in grid-index space; its center sits at (c+0.5, r+0.5).
Image coordinates map to grid-index space by a pure scale
(grid_dim / image_dim), no offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise DataError(f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})")

    @property
    def width(self):
        return self.x2 - self.x1

    @property
    def height(self):
        return self.y2 - self.y1

    @property
    def area(self):
        return self.width * self.height

    @property
    def center(self):
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_tuple(self):
        return (self.x1, self.y1, self.x2, self.y2)


def box_iou(a: Box, b: Box) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def box_array(boxes) -> np.ndarray:
    """The (n, 4) float64 (x1, y1, x2, y2) corners of a list of n `Box`es,
    or the (n, 4) array given: every array computation on boxes reads
    them through this one conversion."""
    if isinstance(boxes, np.ndarray):
        return boxes.astype(np.float64, copy=False).reshape(-1, 4)
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def box_ious(boxes_a, boxes_b) -> np.ndarray:
    """(n, m) IoU matrix of two box lists (or (n, 4) arrays): entry (i, j)
    is box_iou(boxes_a[i], boxes_b[j]), bit for bit."""
    a, b = box_array(boxes_a), box_array(boxes_b)
    ax1, ay1, ax2, ay2 = a.T[:, :, None]
    bx1, by1, bx2, by2 = b.T[:, None, :]
    ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    overlap = (ix > 0.0) & (iy > 0.0)
    inter = np.where(overlap, ix * iy, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return np.where(overlap, inter / union, 0.0)


def union_box(a: Box, b: Box) -> Box:
    return Box(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


class BitMask:
    """Row-major binary occupancy grid at image resolution."""

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ShapeError(f"mask must be 2-d, got shape {bits.shape}")
        self.bits = bits

    @property
    def height(self):
        return self.bits.shape[0]

    @property
    def width(self):
        return self.bits.shape[1]

    def any(self):
        return bool(self.bits.any())

    def bbox(self) -> Box:
        """Tight box around the set bits (pixel edges)."""
        if not self.any():
            raise DataError("empty mask has no bounding box")
        rows = np.flatnonzero(self.bits.any(axis=1))
        cols = np.flatnonzero(self.bits.any(axis=0))
        return Box(float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))

    def __eq__(self, other):
        return isinstance(other, BitMask) and np.array_equal(self.bits, other.bits)


def mask_iou(a: BitMask, b: BitMask) -> float:
    if a.bits.shape != b.bits.shape:
        raise ShapeError(f"mask grids differ: {a.bits.shape} vs {b.bits.shape}")
    inter = int(np.logical_and(a.bits, b.bits).sum())
    union = int(np.logical_or(a.bits, b.bits).sum())
    return inter / union if union else 0.0


@dataclass
class FeatureGrid:
    """Dense C x H x W activation array tied to an image extent."""

    data: np.ndarray
    image_height: int
    image_width: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeError(f"feature grid must be (C, H, W), got {self.data.shape}")

    @classmethod
    def from_array(cls, data):
        """Grid whose image extent equals its own resolution."""
        data = np.asarray(data, dtype=np.float64)
        return cls(data, data.shape[1], data.shape[2])

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def grid_height(self):
        return self.data.shape[1]

    @property
    def grid_width(self):
        return self.data.shape[2]

    @property
    def scale_x(self):
        return self.data.shape[2] / self.image_width

    @property
    def scale_y(self):
        return self.data.shape[1] / self.image_height


def _sample_positions(grid: FeatureGrid, boxes, out_hw):
    """Bilinear sample rows/columns and weights for n RoIs.

    Returns (r0, r1, wr) and (c0, c1, wc): rows (n, out_h, 1), columns
    (n, 1, out_w), and weights with a trailing channel axis; the sampling
    factorizes by axis. Positions clamp to the grid edge, which also
    covers boxes smaller than one feature cell.
    """
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise ShapeError(f"pooling target must be >= 1x1, got {out_hw}")
    x1, y1, x2, y2 = box_array(boxes).T[:, :, None, None]
    gx1, gx2 = x1 * grid.scale_x, x2 * grid.scale_x
    gy1, gy2 = y1 * grid.scale_y, y2 * grid.scale_y
    cx = gx1 + (np.arange(ow) + 0.5) * (gx2 - gx1) / ow
    cy = gy1 + (np.arange(oh)[:, None] + 0.5) * (gy2 - gy1) / oh
    # shift to pixel-center space, clamp to edges
    u = np.clip(cx - 0.5, 0.0, grid.grid_width - 1.0)
    v = np.clip(cy - 0.5, 0.0, grid.grid_height - 1.0)
    c0 = np.floor(u).astype(int)
    r0 = np.floor(v).astype(int)
    c1 = np.minimum(c0 + 1, grid.grid_width - 1)
    r1 = np.minimum(r0 + 1, grid.grid_height - 1)
    return r0, r1, (v - r0)[..., None], c0, c1, (u - c0)[..., None]


def roi_align(grid: FeatureGrid, boxes, out=(7, 7), keep=None) -> np.ndarray:
    """Pool n boxes (a list or an (n, 4) array) into (n, C, out_h, out_w),
    one bilinear sample per cell center.

    `keep`, an optional (n, H, W) boolean array, gives each box its own
    grid cells: the others read as zero, as if pooled from a copy of the
    grid with them zeroed."""
    r0, r1, wr, c0, c1, wc = _sample_positions(grid, boxes, out)
    d = grid.data.transpose(1, 2, 0)  # channels last: one sample reads its C values
    box = np.arange(len(r0))[:, None, None]

    def at(r, c):
        return d[r, c] if keep is None else d[r, c] * keep[box, r, c][..., None]

    top = at(r0, c0) * (1 - wc) + at(r0, c1) * wc
    bot = at(r1, c0) * (1 - wc) + at(r1, c1) * wc
    # C-contiguous: the matmuls downstream sum in an order set by the layout
    return np.ascontiguousarray((top * (1 - wr) + bot * wr).transpose(0, 3, 1, 2))


PAIR_MAP_SIZE = 64


def spatial_pair_encoding(h_boxes, o_boxes):
    """Distinct two-channel occupancy maps of P box pairs, each in the
    union-box frame of its pair, as their row and column indicators.

    Channel 0 holds the human, channel 1 the object; cell (y, x) of a
    channel is set iff its center lies in the entity's box, so the channel
    is the outer product of its 64 row bits (is the center row inside the
    box's y-extent) and its 64 column bits. The pairs are keyed on those
    bits. Returns the (M, 2, 64) float32 row and (M, 2, 64) column
    indicators of the distinct maps in first-seen order, and the (P,) map
    index of each pair; no (M, 2, 64, 64) map is built.
    """
    h, o = box_array(h_boxes), box_array(o_boxes)
    boxes = np.stack([h, o], axis=1)[:, :, :, None]  # (P, 2, 4, 1)
    x1, y1 = np.minimum(h[:, :2], o[:, :2]).T[:, :, None]  # union frames
    x2, y2 = np.maximum(h[:, 2:], o[:, 2:]).T[:, :, None]
    n = PAIR_MAP_SIZE
    steps = np.arange(n) + 0.5
    cx = (x1 + steps * (x2 - x1) / n)[:, None]              # (P, 1, n)
    cy = (y1 + steps * (y2 - y1) / n)[:, None]
    cols = (cx >= boxes[:, :, 0]) & (cx < boxes[:, :, 2])  # (P, 2, n)
    rows = (cy >= boxes[:, :, 1]) & (cy < boxes[:, :, 3])
    slots, first = {}, []
    index = np.empty(len(h), dtype=np.intp)
    for p, key in enumerate(np.concatenate([rows, cols], axis=2)):
        index[p] = slots.setdefault(key.tobytes(), len(slots))
        if index[p] == len(first):
            first.append(p)
    return rows[first].astype(np.float32), cols[first].astype(np.float32), index
