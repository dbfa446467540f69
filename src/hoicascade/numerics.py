"""Minimal dense-tensor math: layers with hand-written backward passes,
losses, a momentum SGD step, and a central finite-difference gradient
checker.

Arithmetic is float64, except that the conv encoder runs in float32 on
the float32 pair-map indicators it is given. Its first block,
`OuterProductConvPool`, takes each binary two-channel map as its row and
column indicators and evaluates conv1 and pool1 on a table of the map's
distinct cells, bit for bit what `Conv2D` + `MaxPool2x2` give on the
full map in float32. Layers cache their most recent forward inputs, so
each forward must be followed by its backward before the layer is reused
(the training loops respect this ordering).

No layer applies a sigmoid: a caller that wants probabilities takes the
sigmoid of a layer's outputs, and `binary_cross_entropy` reads the
outputs as logits, so its gradient sigmoid(z) - y is the one the layer's
backward takes.

Every gradient is added to its block's buffer when it is computed: by a
layer's backward and by the losses' callers. `sgd_step` takes the buffers
into each block's velocity, and `ParamStore.load` drops both.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError, FormatError

CHECKPOINT_MAGIC = "hoicascade-params"
CHECKPOINT_VERSION = 1
MOMENTUM = 0.9  # SGD momentum, as in the R-CNN family's training recipe
# Bound on the global L2 norm of one step's gradient (Pascanu et al., arXiv
# 1211.5063). Without it the geometric stream diverges late in some default
# trainings (data seed 15, training seed 2); below it the step is unchanged.
MAX_GRAD_NORM = 200.0


class Param:
    """One trainable block: a value array, a same-shaped gradient buffer
    and the block's SGD velocity.

    Every gradient is added to the buffer when it is computed. The buffer
    is allocated on first use, so a loaded model that only infers holds
    none. `sgd_step` keeps it as the spare the next step's first gradient
    is written into, neither zeroed nor freed: buffers freed and allocated
    again every step left the heap, and the page faults of whatever the
    process ran next, different from one training to the next. A block
    keeps its own copy of `value`, unless `copy` is False: then it takes
    over the float64 array it is given, as the layers do with the arrays
    `init_uniform` builds for them. The velocity exists from a block's
    first step on, and is never saved."""

    __slots__ = ("value", "_grad", "_spare", "_vel")

    def __init__(self, value, copy=True):
        self.value = np.array(value, dtype=np.float64) if copy else value
        self._grad = None
        self._spare = None  # the buffer of a gradient `sgd_step` has taken
        self._vel = None

    def _buffer(self):
        """The spare buffer, or a new one; its contents are stale."""
        buf, self._spare = self._spare, None
        return np.empty(self.value.shape) if buf is None else buf

    def add_product(self, a, b):
        """Add a @ b to the gradient; the first is written straight into
        the buffer."""
        if self._grad is None:
            self._grad = np.matmul(a, b, out=self._buffer())
        else:
            self._grad += a @ b

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._buffer()
            self._grad.fill(0.0)
        return self._grad

    @grad.setter
    def grad(self, grad):
        self._grad = grad


class ParamStore:
    """Named parameter blocks with paired gradient buffers."""

    def __init__(self):
        self._blocks: dict[str, Param] = {}

    def add(self, name: str, param: Param) -> Param:
        if name in self._blocks:
            raise ValueError(f"duplicate parameter block {name!r}")
        self._blocks[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._blocks[name]

    def names(self):
        return list(self._blocks)

    def items(self):
        return self._blocks.items()

    def save(self, manifest_path, blob_path):
        """JSON manifest {name -> shape, offset} plus one little-endian
        float32 flat blob. Offsets are in bytes into the blob."""
        manifest = {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
                    "blocks": {}}
        offset = 0
        chunks = []
        for name, p in self._blocks.items():
            flat = p.value.astype("<f4").ravel()
            manifest["blocks"][name] = {"shape": list(p.value.shape),
                                        "offset": offset}
            chunks.append(flat.tobytes())
            offset += flat.nbytes
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(blob_path, "wb") as fh:
            fh.write(b"".join(chunks))

    def load(self, manifest_path, blob_path):
        """Load values into existing blocks; shapes must match exactly and
        every value must be finite. Every block is left with no gradient
        and no velocity."""
        with open(manifest_path, encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{manifest_path}: invalid JSON: {exc}") from None
        if not isinstance(manifest, dict) or manifest.get("magic") != CHECKPOINT_MAGIC:
            raise FormatError(f"{manifest_path}: bad checkpoint magic")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"{manifest_path}: unsupported checkpoint version "
                              f"{manifest.get('version')}")
        try:
            blocks = manifest["blocks"]
            if not isinstance(blocks, dict):
                raise FormatError(f"{manifest_path}: field 'blocks' must be an object")
            layout = {}
            for name, info in blocks.items():
                if not isinstance(info, dict):
                    raise FormatError(f"{manifest_path}: field 'blocks' must hold an object "
                                      f"per block, got {info!r} for {name!r}")
                shape, offset = tuple(info["shape"]), info["offset"]
                if type(offset) is not int or offset < 0:
                    raise FormatError(f"{manifest_path}: field 'offset' must be a non-negative "
                                      f"integer, got {offset!r} for block {name!r}")
                layout[name] = (shape, offset)
        except KeyError as exc:
            raise FormatError(f"{manifest_path}: missing key {exc.args[0]!r}") from None
        if set(blocks) != set(self._blocks):
            missing = set(self._blocks) - set(blocks)
            extra = set(blocks) - set(self._blocks)
            raise FormatError(f"{manifest_path}: checkpoint block mismatch: "
                              f"missing={sorted(missing)} extra={sorted(extra)}")
        for name, (shape, _) in layout.items():
            want = self._blocks[name].value.shape
            if shape != want:
                raise FormatError(f"block {name!r}: shape {shape} != {want}")
        with open(blob_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for name, (shape, offset) in layout.items():
                p = self._blocks[name]
                if offset + 4 * p.value.size > size:
                    raise FormatError(f"{blob_path}: block {name!r}: blob truncated")
                # one block read at a time, widened into the block's array
                fh.seek(offset)
                p.value[...] = np.fromfile(fh, "<f4", count=p.value.size).reshape(shape)
                if not np.isfinite(p.value).all():
                    raise FormatError(f"{blob_path}: block {name!r}: non-finite value")
                p.grad = p._vel = None


def sgd_step(store: ParamStore, lr: float):
    """v <- MOMENTUM * v + grad and p <- p - lr * v for every block, with
    v zero before a block's first step (Sutskever et al., 2013). When the
    global L2 norm of the step's gradients exceeds MAX_GRAD_NORM, every
    gradient is first scaled by MAX_GRAD_NORM / norm; a step within the
    bound is the plain one. A non-finite gradient raises `TrainingError`
    naming the first block that holds one, before any block moves. lr * v
    is written into the gradient buffer, which is then kept as the block's
    spare. A block without a gradient this step is skipped, velocity and
    all, as torch.optim.SGD skips a parameter whose grad is None."""
    blocks = [(name, p) for name, p in store.items() if p._grad is not None]
    sq_norm = sum(float(np.vdot(p._grad, p._grad)) for _, p in blocks)
    if not np.isfinite(sq_norm):
        bad = next((name for name, p in blocks if not np.all(np.isfinite(p._grad))), None)
        raise TrainingError(f"non-finite gradient in block {bad!r}" if bad
                            else "gradient norm overflows float64")
    scale = MAX_GRAD_NORM / np.sqrt(sq_norm) if sq_norm > MAX_GRAD_NORM ** 2 else None
    for _, p in blocks:
        grad = p._grad
        if scale is not None:
            grad *= scale
        if p._vel is None:
            p._vel = np.zeros_like(grad)
        p._vel *= MOMENTUM
        p._vel += grad
        np.multiply(p._vel, lr, out=grad)
        p.value -= grad
        p._grad, p._spare = None, grad


def init_uniform(rng, shape, fan_in, fan_out):
    """Glorot-style uniform values (the reference method never states an
    init scheme), or zeros without drawing when `rng` is None: the blocks
    of a loaded checkpoint get their values afterwards."""
    if rng is None:
        return np.zeros(shape)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class FCLayer:
    """Fully connected layer y = Wx + b. A caller that wants a probability
    takes the sigmoid of y itself, and its loss reads y as logits.

    Takes batches (B, in_dim) only; a single input is a batch of one.
    Without a generator the weights start at zero (`init_uniform`).
    """

    def __init__(self, in_dim, out_dim, rng=None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = Param(init_uniform(rng, (out_dim, in_dim), in_dim, out_dim), copy=False)
        self.b = Param(np.zeros(out_dim), copy=False)
        self._x = None

    def params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"FCLayer expects (B, {self.in_dim}), got {x.shape}")
        self._x = x
        return x @ self.w.value.T + self.b.value

    def backward(self, dy, input_grad=True):
        """Accumulate dW and db; return dx unless input_grad is False."""
        dy = np.asarray(dy, dtype=np.float64)
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if dy.shape != (len(self._x), self.out_dim):
            raise ShapeError(f"FCLayer backward expects {(len(self._x), self.out_dim)}, "
                             f"got {dy.shape}")
        self.w.add_product(dy.T, self._x)
        self.b.grad += dy.sum(axis=0)
        if input_grad:
            return dy @ self.w.value


class Conv2D:
    """Same-padded 2-D convolution (odd kernel) over (B, C, H, W).

    Forward fills the C-contiguous (C*k*k, B*H*W) im2col matrix, rows in
    (c, di, dj) order, from k*k shifted copies of the channel-major padded
    input, and returns W @ cols as an NCHW view. Backward reads the same
    layout: dW = dY @ cols.T, and W.T @ dY is scattered back with k*k
    shifted adds over all channels at once.
    """

    def __init__(self, in_channels, out_channels, kernel_size, rng):
        if kernel_size % 2 != 1:
            raise ShapeError("kernel size must be odd")
        self.cin = in_channels
        self.cout = out_channels
        self.k = kernel_size
        fan_in = in_channels * kernel_size * kernel_size
        self.w = Param(init_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                    fan_in, out_channels), copy=False)
        self.b = Param(np.zeros(out_channels), copy=False)
        self._cols = None
        self._xshape = None

    def params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]

    def forward(self, x):
        # float32 inputs (the binary pair maps) stay float32 in training and
        # inference alike; anything else runs in float64
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = x.astype(np.float64, copy=False)
        if x.ndim != 4 or x.shape[1] != self.cin:
            raise ShapeError(f"Conv2D expects (B, {self.cin}, H, W), got {x.shape}")
        self._cols = None  # the previous call's columns go before the next are built
        b, _, h, w = x.shape
        k, pad = self.k, self.k // 2
        xp = np.pad(x.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # row (c, di, dj) holds channel c of every map shifted by (di, dj)
        cols = np.stack([xp[:, :, di:di + h, dj:dj + w] for di in range(k) for dj in range(k)],
                        axis=1).reshape(self.cin * k * k, b * h * w)
        wmat = self.w.value.reshape(self.cout, -1).astype(x.dtype, copy=False)
        y = wmat @ cols
        y += self.b.value.astype(x.dtype, copy=False)[:, None]
        self._cols = cols
        self._xshape = x.shape
        return y.reshape(self.cout, b, h, w).transpose(1, 0, 2, 3)

    def backward(self, dy):
        """Accumulate dW and db; return dx."""
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        dtype = self._cols.dtype
        dy = np.asarray(dy).astype(dtype, copy=False)
        b, _, h, w = self._xshape
        k, pad = self.k, self.k // 2
        dmat = dy.transpose(1, 0, 2, 3).reshape(self.cout, -1)
        self.w.grad += (dmat @ self._cols.T).reshape(self.w.value.shape)
        self.b.grad += dmat.sum(axis=1)
        wmat = self.w.value.reshape(self.cout, -1).astype(dtype, copy=False)
        # channel-major; each element sums its k*k offsets in (di, dj) order
        dcols = (wmat.T @ dmat).reshape(self.cin, k, k, b, h, w)
        dxp = np.zeros((self.cin, b, h + 2 * pad, w + 2 * pad), dtype=dtype)
        for di in range(k):
            for dj in range(k):
                dxp[:, :, di:di + h, dj:dj + w] += dcols[:, di, dj]
        return dxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)


class MaxPool2x2:
    """2x2 max pooling with stride 2; spatial dims must be even.

    Forward keeps only its input. Backward routes each window's gradient
    to the first cell in row-major window order that holds the max: each
    strided view's mask keeps only the maxima that no earlier view took.
    """

    OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self):
        self._x = None

    def _views(self, x):
        views = [x[:, :, i::2, j::2] for i, j in self.OFFSETS]
        return views, np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def forward(self, x):
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ShapeError(f"MaxPool2x2 needs even dims, got {h}x{w}")
        self._x = x
        return self._views(x)[1]

    def backward(self, dy):
        if self._x is None:
            raise RuntimeError("backward called before forward")
        views, m = self._views(self._x)
        dx = np.zeros(self._x.shape, dtype=np.asarray(dy).dtype)
        taken = np.zeros(m.shape, dtype=bool)
        for (i, j), v in zip(self.OFFSETS, views):
            mask = (v == m) & ~taken
            taken |= mask
            dx[:, :, i::2, j::2] = np.where(mask, dy, 0)
        return dx


class OuterProductConvPool:
    """A same-padded k x k convolution followed by 2x2 max pooling, on maps
    whose every channel is the outer product r qᵀ of a 0/1 row indicator r
    and a 0/1 column indicator q: the binary pair maps, given as their
    (B, C, H) row and (B, C, W) column indicators.

    The im2col column of cell (y, x) holds, at (c, di, dj), the row bit
    r_c[y + di - pad] times the column bit q_c[x + dj - pad]. So it is
    fixed by the cell's row pattern (its C*k row bits) and column pattern
    (its C*k column bits), and each map has only a few distinct patterns
    of each. Forward runs one GEMM over the 0/1 columns of every map's
    distinct (row pattern, column pattern) cells, padded to the batch's
    largest pattern counts, and gathers the pool from that table: the
    values are `Conv2D` + `MaxPool2x2`'s bit for bit, as each 0/1 column
    is summed in the same order. Backward routes each pooled gradient to
    the first cell in row-major window order that holds the max, as
    `MaxPool2x2` does, sums it per table cell and takes dW and db from the
    table. No (B, C, H, W) map, im2col columns or conv-size gradient is
    built. float32 indicators run in float32, anything else in float64.
    """

    def __init__(self, in_channels, out_channels, kernel_size, rng):
        if kernel_size % 2 != 1:
            raise ShapeError("kernel size must be odd")
        self.cin = in_channels
        self.cout = out_channels
        self.k = kernel_size
        fan_in = in_channels * kernel_size * kernel_size
        self.w = Param(init_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                    fan_in, out_channels), copy=False)
        self.b = Param(np.zeros(out_channels), copy=False)
        self._y = None

    def params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]

    @staticmethod
    def _distinct(codes, span):
        """Each map's distinct values of its (B, n) codes, all below `span`:
        the (B, m) values in ascending order, padded with zeros to the
        batch's largest count, and the (B, n) position of each code there."""
        b = len(codes)
        # the map's index above the code: one sort finds every map's values
        uniq, inverse = np.unique(codes + span * np.arange(b)[:, None], return_inverse=True)
        owner = uniq // span
        start = np.searchsorted(owner, np.arange(b))
        local = np.arange(len(uniq)) - start[owner]
        table = np.zeros((b, local.max() + 1), dtype=codes.dtype)
        table[owner, local] = uniq % span
        return table, inverse.reshape(codes.shape) - start[:, None]

    def _patterns(self, ind):
        """Each map's distinct patterns of k shifted indicator bits: their
        (B, np, C*k) bits in (c, d) order, zero-padded to the batch's
        largest count, and the (B, n) pattern id of every position."""
        b, c, n = ind.shape
        k, pad = self.k, self.k // 2
        on = np.zeros((b, c, n + 2 * pad), dtype=np.int64)
        on[:, :, pad:pad + n] = ind
        # bit c*k + d of position y is channel c's indicator at y + d - pad
        code = sum(on[:, ch, d:d + n] << (ch * k + d) for ch in range(c) for d in range(k))
        table, ids = self._distinct(code, 1 << c * k)
        return ((table[..., None] >> np.arange(c * k)) & 1).astype(ind.dtype), ids

    def forward(self, rows, cols):
        rows, cols = np.asarray(rows), np.asarray(cols)
        dtype = np.float32 if rows.dtype == np.float32 else np.float64
        rows, cols = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
        if (rows.ndim != 3 or cols.ndim != 3 or rows.shape[:2] != cols.shape[:2]
                or rows.shape[1] != self.cin):
            raise ShapeError(f"expects (B, {self.cin}, H) rows and (B, {self.cin}, W) "
                             f"columns, got {rows.shape} and {cols.shape}")
        h, w = rows.shape[2], cols.shape[2]
        if h % 2 or w % 2:
            raise ShapeError(f"2x2 pooling needs even dims, got {h}x{w}")
        for ind in (rows, cols):
            if np.any((ind != 0) & (ind != 1)):
                raise ValueError("indicators must be 0/1")
        self._y = None  # the previous call's table goes before the next is built
        c, k, cout = self.cin, self.k, self.cout
        rt, rid = self._patterns(rows)
        ct, cid = self._patterns(cols)
        b, nv, nu = len(rt), rt.shape[1], ct.shape[1]
        # bit (c, di, dj) of a cell's column: row bit (c, di) times column bit (c, dj)
        rbits = np.repeat(rt.reshape(b, nv, 1, c, k), k, axis=-1)
        cbits = np.tile(ct.reshape(b, 1, nu, c, k), k)
        cells = (rbits * cbits).reshape(b * nv * nu, c * k * k)
        wmat = self.w.value.reshape(cout, -1).astype(dtype, copy=False)
        y = cells @ wmat.T
        y += self.b.value.astype(dtype, copy=False)
        # the table row of every (map, row pattern, column x); each
        # pattern's column-pair maxima, (map, row pattern) rows of colmax
        xrow = (np.arange(b)[:, None, None] * nv + np.arange(nv)[:, None]) * nu + cid[:, None]
        colmax = np.maximum(np.take(y, xrow[..., 0::2], axis=0),
                            np.take(y, xrow[..., 1::2], axis=0)).reshape(b * nv, w // 2, cout)
        # each map's distinct (top, bottom) pattern pairs of its pooled rows
        pairs, pair_id = self._distinct(rid[:, 0::2] * nv + rid[:, 1::2], nv * nv)
        top, bottom = (np.arange(b)[:, None] * nv + np.divmod(pairs, nv)).reshape(2, -1)
        self._cells, self._y, self._xrow = cells, y, xrow
        self._top, self._bottom, self._pair_id = top, bottom, pair_id
        pooled = np.maximum(np.take(colmax, top, axis=0), np.take(colmax, bottom, axis=0))
        flat_id = np.arange(b)[:, None] * pairs.shape[1] + pair_id
        return np.take(pooled, flat_id, axis=0).transpose(0, 3, 1, 2)

    def backward(self, dy):
        """Accumulate dW and db of the (B, cout, H/2, W/2) pooled gradient.
        The indicators are data, so no input gradient is computed."""
        if self._y is None:
            raise RuntimeError("backward called before forward")
        left, right = self._xrow[..., 0::2], self._xrow[..., 1::2]
        yl, yr = np.take(self._y, left, axis=0), np.take(self._y, right, axis=0)
        colmax = np.maximum(yl, yr)
        # the table row of each column pair's first max, then of each window's:
        # ties go left, then up, the first cell in row-major window order
        first = np.where(yl == colmax, left[..., None], right[..., None])
        colmax, first = (a.reshape(-1, left.shape[2], self.cout) for a in (colmax, first))
        top, bottom = self._top, self._bottom
        cell = np.where(np.take(colmax, top, axis=0) >= np.take(colmax, bottom, axis=0),
                        np.take(first, top, axis=0), np.take(first, bottom, axis=0))
        # the pooled gradient summed over each map's rows of one pattern pair
        b, half = self._pair_id.shape
        dy = np.asarray(dy)
        onehot = (self._pair_id[:, None] == np.arange(len(top) // b)[:, None]).astype(dy.dtype)
        dpair = onehot @ dy.transpose(0, 2, 1, 3).reshape(b, half, -1)
        index = cell.transpose(0, 2, 1) * self.cout + np.arange(self.cout)[:, None]
        grad = np.bincount(index.ravel(), dpair.ravel(), self._y.size).reshape(self._y.shape)
        self.w.grad += (grad.T @ self._cells).reshape(self.w.value.shape)
        self.b.grad += grad.sum(axis=0)


class ConvPoolEncoder:
    """Two conv+pool blocks followed by one FC layer; output length 256.

    Takes binary two-channel maps as their row and column indicators: the
    first block is an `OuterProductConvPool`, the second a `Conv2D` and a
    `MaxPool2x2` on its output. Input spatial dims must be divisible by 4
    (two 2x2 pools). Without a generator every block starts at zero.
    """

    OUT_DIM = 256

    def __init__(self, in_channels, in_hw, channels=(8, 8), kernel_size=3, rng=None):
        h, w = in_hw
        if h % 4 or w % 4:
            raise ShapeError(f"encoder input dims must be divisible by 4, got {h}x{w}")
        self.in_channels = in_channels
        self.in_hw = (h, w)
        self.conv1 = OuterProductConvPool(in_channels, channels[0], kernel_size, rng)
        self.conv2 = Conv2D(channels[0], channels[1], kernel_size, rng)
        self.pool2 = MaxPool2x2()
        self.flat_dim = channels[1] * (h // 4) * (w // 4)
        self.fc = FCLayer(self.flat_dim, self.OUT_DIM, rng)

    def params(self, prefix):
        return (self.conv1.params(f"{prefix}.conv1")
                + self.conv2.params(f"{prefix}.conv2")
                + self.fc.params(f"{prefix}.fc"))

    def forward(self, rows, cols):
        """(B, 256) descriptors of B maps given as (B, C, H) row and
        (B, C, W) column indicators."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        c, (h, w) = self.in_channels, self.in_hw
        if rows.shape[1:] != (c, h) or cols.shape[1:] != (c, w) or len(rows) != len(cols):
            raise ShapeError(f"encoder expects (B, {c}, {h}) rows and (B, {c}, {w}) columns, "
                             f"got {rows.shape} and {cols.shape}")
        x = self.pool2.forward(self.conv2.forward(self.conv1.forward(rows, cols)))
        self._pooled_shape = x.shape
        return self.fc.forward(x.reshape(x.shape[0], -1))

    def backward(self, dy):
        """Accumulate the gradients of every block. The input is data, so
        no input gradient is computed or returned."""
        dh = self.fc.backward(dy).reshape(self._pooled_shape)
        self.conv1.backward(self.conv2.backward(self.pool2.backward(dh)))


def softmax_rows(m):
    """Row-wise softmax with row-max subtraction for stability."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def binary_cross_entropy(logits, targets):
    """Summed binary cross-entropy of sigmoid(logits) against the targets,
    sum(log(1 + e^z) - y z), and its gradient w.r.t. the logits,
    sigmoid(z) - y. Finite at any finite logit: no clamp, and no flat
    region where the gradient vanishes."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    loss = (np.logaddexp(0.0, logits) - targets * logits).sum()
    return loss, sigmoid(logits) - targets


def pairwise_hinge_loss(pos, neg, margin=0.2):
    """Sum over all (pos, neg) pairs of max(0, neg - pos + margin).

    Returns (loss, dpos, dneg). Empty pos or neg means no supervision:
    loss 0 with zero gradients. Subgradient at the kink is 0.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    pos = np.asarray(pos, dtype=np.float64).ravel()
    neg = np.asarray(neg, dtype=np.float64).ravel()
    dpos = np.zeros_like(pos)
    dneg = np.zeros_like(neg)
    if pos.size == 0 or neg.size == 0:
        return 0.0, dpos, dneg
    slack = neg[None, :] - pos[:, None] + margin
    active = slack > 0.0
    loss = float(slack[active].sum())
    dpos -= active.sum(axis=1).astype(np.float64)
    dneg += active.sum(axis=0).astype(np.float64)
    return loss, dpos, dneg


def smooth_l1(diff, delta=1.0):
    """Elementwise Huber loss and gradient on a difference array."""
    diff = np.asarray(diff, dtype=np.float64)
    a = np.abs(diff)
    quad = a <= delta
    loss = np.where(quad, 0.5 * diff * diff / delta, a - 0.5 * delta).sum()
    grad = np.where(quad, diff / delta, np.sign(diff))
    return float(loss), grad


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    tol: float
    per_block: dict = field(default_factory=dict)

    @property
    def max_rel_error(self):
        return max(self.per_block.values()) if self.per_block else 0.0

    @property
    def passed(self):
        return self.max_rel_error <= self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"gradcheck {status}: max rel err {self.max_rel_error:.3e} (tol {self.tol:.1e})"


def finite_diff_check(loss_fn, blocks, tol=1e-4, step=1e-3, max_entries=20, seed=0):
    """Compare analytic gradients against central finite differences.

    loss_fn() must run the full forward and backward, accumulating fresh
    gradients into `blocks` (a mapping name -> Param with zeroed grads).
    Up to max_entries coordinates per block are probed (seeded choice).
    """
    for p in blocks.values():
        p.grad[...] = 0.0
    loss_fn()
    analytic = {name: p.grad.copy() for name, p in blocks.items()}
    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol=tol)
    for name, p in blocks.items():
        flat = p.value.ravel()
        n = flat.size
        idx = np.arange(n) if n <= max_entries else np.sort(rng.choice(n, max_entries, replace=False))
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn()
            flat[i] = orig - step
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = analytic[name].ravel()[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        report.per_block[name] = worst
        for q, g in zip(blocks.values(), analytic.values()):
            q.grad[...] = 0.0
    # Leave the analytic gradients in place for the caller.
    for name, p in blocks.items():
        p.grad[...] = analytic[name]
    return report
