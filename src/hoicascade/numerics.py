"""Minimal dense-tensor math: layers with hand-written backward passes,
losses, a momentum SGD step, and a central finite-difference gradient
checker.

Arithmetic is float64, except that the conv encoder runs in float32 on
the float32 pair-map indicators it is given. `Conv2D` and `MaxPool2x2`
take and return factored maps: a table of each map's cells
with the row and column ids that place them. The encoder's blocks run on
the tables, bit for bit what the same layers give on the full maps in
float32. Layers cache their most recent forward inputs, so each forward
must be followed by its backward before the layer is reused (the
training loops respect this ordering).

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
import math
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
# Fewest outputs of a conv GEMM: OpenBLAS (0.3.31, AVX-512) sums a float32
# GEMM of at most 1,200 outputs and K >= 32 in a small-matrix kernel, which
# can differ in the last bit, so a map's output would depend on its batch.
GEMM_MIN_OUTPUTS = 2048


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


def _runs(line, k, step, n_rows, col_start):
    """Ids of the row and column windows of B factored maps, both axes in
    one pass. `line` is (B, L): each map's row ids, then its column ids;
    window s is line[:, s * step + d] for d < k, the row windows are the
    first n_rows and the column windows start at col_start. Along each
    axis a window opens a new id where it differs from the window before
    it, so a run of equal windows shares one id. Returns, per axis, the
    (B, count, k) window of each id, zero-padded to the batch's largest
    count, and the id of every window."""
    b, n = len(line), (line.shape[1] - k) // step + 1
    views = [line[:, d:d + step * (n - 1) + 1:step] for d in range(k)]
    new = np.zeros((b, n), dtype=bool)
    for view in views:
        new[:, 1:] |= view[:, 1:] != view[:, :-1]
    new[:, 0] = new[:, col_start] = True
    ids = np.cumsum(new, axis=1)
    windows = np.stack(views, axis=2)
    out = []
    for axis in (slice(0, n_rows), slice(col_start, None)):
        part = ids[:, axis] - ids[:, axis.start:axis.start + 1]
        count = part[:, -1].max() + 1
        src = np.zeros((b, count, k), dtype=np.intp)
        src.reshape(-1, k)[(np.arange(b)[:, None] * count + part).ravel()] = (
            windows[:, axis].reshape(-1, k))
        out.append((src, part))
    return out


def _factored(layer, table, rows, cols):
    """A factored map's arrays, checked: the (B, R, Q, C) table, float32
    kept and anything else as float64, and the (B, H) row and (B, W)
    column ids."""
    table, rows, cols = np.asarray(table), np.asarray(rows), np.asarray(cols)
    if table.dtype != np.float32:
        table = table.astype(np.float64, copy=False)
    if (table.ndim != 4 or rows.ndim != 2 or cols.ndim != 2
            or not len(table) == len(rows) == len(cols)
            or (layer.cin is not None and table.shape[3] != layer.cin)):
        raise ShapeError(f"{type(layer).__name__} expects a (B, R, Q, {layer.cin or 'C'}) table "
                         f"with (B, H) row and (B, W) column ids, got {table.shape}, "
                         f"{rows.shape} and {cols.shape}")
    return table, rows, cols


class Conv2D:
    """Same-padded 2-D convolution (odd kernel) of factored maps.

    B maps are factored as a (B, R, Q, C) table of cells with
    (B, H) row and (B, W) column ids: channel c of map b at (y, x) is
    table[b, rows[b, y], cols[b, x], c]. An output cell is fixed by the
    ids of its k-row and k-column windows. Forward gives each run of equal
    windows along an axis one id (`_runs`), gathers the (c, di, dj)
    im2col column of every (row window, column window) cell from the
    table with a zero border, and runs one GEMM: each output is the full
    map's im2col GEMM output, bit for bit. Backward maps the output
    table's gradient to the input table's. float32 tables run in
    float32, anything else in float64.
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
        self._cells = None

    def params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]

    def forward(self, table, rows, cols):
        table, rows, cols = _factored(self, table, rows, cols)
        self._cells = None  # the previous call's columns go before the next are built
        b, nr, nq, c = table.shape
        k, pad = self.k, self.k // 2
        # ids nr and nq read the zero border
        padded = np.zeros((b, nr + 1, nq + 1, c), dtype=table.dtype)
        padded[:, :nr, :nq] = table
        n, m = rows.shape[1], cols.shape[1]
        # each map's row ids then column ids, each between borders of the
        # id that reads the zero border
        line = np.empty((b, n + m + 4 * pad), dtype=np.intp)
        line[:, :n + 2 * pad] = nr
        line[:, n + 2 * pad:] = nq
        line[:, pad:pad + n] = rows
        line[:, n + 3 * pad:n + 3 * pad + m] = cols
        (rsrc, rows), (qsrc, cols) = _runs(line, k, 1, n, n + 2 * pad)
        # the columns one window offset (di, dj) at a time; at least
        # GEMM_MIN_OUTPUTS outputs, the zero cells past the batch's unread
        at_row = (np.arange(b)[:, None, None] * (nr + 1) + rsrc) * (nq + 1)
        n_cells = b * rsrc.shape[1] * qsrc.shape[1]
        cells = np.zeros((max(n_cells, -(-GEMM_MIN_OUTPUTS // self.cout)), c, k * k),
                         dtype=table.dtype)
        grid = cells[:n_cells].reshape(b, rsrc.shape[1], qsrc.shape[1], c, k * k)
        for di in range(k):
            for dj in range(k):
                grid[..., di * k + dj] = np.take(padded.reshape(-1, c), at_row[:, :, None, di]
                                                 + qsrc[:, None, :, dj], axis=0)
        cells = cells.reshape(len(cells), -1)
        wmat = self.w.value.reshape(self.cout, -1).astype(table.dtype, copy=False)
        y = cells @ wmat.T
        y += self.b.value.astype(table.dtype, copy=False)
        self._cells, self._rsrc, self._qsrc = cells[:n_cells], rsrc, qsrc
        self._in_shape = table.shape
        return y[:n_cells].reshape(b, rsrc.shape[1], qsrc.shape[1], self.cout), rows, cols

    def backward(self, dy, input_grad=True):
        """Accumulate dW and db of the output table's gradient; return the
        input table's gradient unless input_grad is False."""
        if self._cells is None:
            raise RuntimeError("backward called before forward")
        dtype = self._cells.dtype
        dmat = np.asarray(dy).astype(dtype, copy=False).reshape(-1, self.cout)
        if len(dmat) != len(self._cells):
            raise ShapeError(f"Conv2D backward expects the forward's {len(self._cells)} "
                             f"output cells, got {np.shape(dy)}")
        self.w.grad += (dmat.T @ self._cells).reshape(self.w.value.shape)
        self.b.grad += dmat.sum(axis=0)
        if not input_grad:
            return None
        # W^T dY summed onto the ids each offset reads with one-hot
        # matrices (the border matches none): columns, W, then rows
        b, nr, nq, c = self._in_shape
        rsrc, qsrc, o, k = self._rsrc, self._qsrc, self.cout, self.k
        nr2, nq2 = rsrc.shape[1], qsrc.shape[1]
        onehot = (qsrc[..., None] == np.arange(nq)).astype(dtype).reshape(b, nq2, k * nq)
        by_col = dmat.reshape(b, nr2, nq2, o).transpose(0, 1, 3, 2).reshape(b, nr2 * o, nq2)
        by_col = (by_col @ onehot).reshape(b, nr2, o * k, nq).transpose(0, 1, 3, 2)
        wmat = self.w.value.astype(dtype, copy=False).transpose(0, 3, 1, 2).reshape(o * k, c * k)
        by_row = (by_col.reshape(-1, o * k) @ wmat).reshape(b, nr2, nq, c, k)
        by_row = by_row.transpose(0, 1, 4, 2, 3).reshape(b, nr2 * k, nq * c)
        onehot = (rsrc[..., None] == np.arange(nr)).astype(dtype).reshape(b, nr2 * k, nr)
        return (onehot.transpose(0, 2, 1) @ by_row).reshape(b, nr, nq, c)


class MaxPool2x2:
    """2x2 max pooling with stride 2 of factored maps (see `Conv2D`);
    spatial dims must be even.

    A pooled cell is fixed by the ids of its row pair and its column pair.
    Forward gives each run of equal pairs along an axis one id, takes the
    max of every (row pair, column pair) window of each map, and keeps the
    table element of each window's first max in row-major window order.
    Backward routes the gradient of each output cell to that element.
    """

    cin = None  # any channel count

    def __init__(self):
        self._winner = None

    def forward(self, table, rows, cols):
        table, rows, cols = _factored(self, table, rows, cols)
        b, nr, nq, c = table.shape
        h, w = rows.shape[1], cols.shape[1]
        if h % 2 or w % 2:
            raise ShapeError(f"MaxPool2x2 needs even dims, got {h}x{w}")
        (rsrc, rows), (qsrc, cols) = _runs(np.concatenate([rows, cols], axis=1), 2, 2,
                                           h // 2, h // 2)
        # the table cell of each window position (top left, top right,
        # bottom left, bottom right) of each (map, row pair, column pair)
        at_row = ((np.arange(b)[:, None, None] * nr + rsrc) * nq).transpose(2, 0, 1)
        cell = (at_row[:, None, :, :, None] + qsrc.transpose(2, 0, 1)[None, :, :, None, :])
        cell = cell.reshape(4, -1, 1)
        v = np.take(table.reshape(-1, c), cell[:, :, 0], axis=0)
        top, bottom = np.maximum(v[0], v[1]), np.maximum(v[2], v[3])
        # the first max in row-major window order: ties go left, then up
        winner = np.where(top >= bottom, np.where(v[0] >= v[1], cell[0], cell[1]),
                          np.where(v[2] >= v[3], cell[2], cell[3]))
        self._winner = winner * c + np.arange(c)
        self._shape = table.shape
        out_shape = (b, rsrc.shape[1], qsrc.shape[1], c)
        return np.maximum(top, bottom).reshape(out_shape), rows, cols

    def backward(self, dy):
        """The input table's gradient of the output table's gradient."""
        if self._winner is None:
            raise RuntimeError("backward called before forward")
        dy = np.asarray(dy)
        if dy.size != self._winner.size:
            raise ShapeError(f"MaxPool2x2 backward expects the forward's {self._winner.size} "
                             f"output values, got {dy.shape}")
        grad = np.bincount(self._winner.ravel(), dy.ravel(), math.prod(self._shape))
        return grad.reshape(self._shape)


def indicator_map(rows, cols):
    """The factored map (see `Conv2D`) of B binary C-channel maps given as
    (B, C, H) row and (B, C, W) column indicators, channel c of a map
    being the outer product of its row and column bits: the fixed
    (B, 2^C, 2^C, C) table of every pair of C-bit row and column
    patterns, and the pattern of each row and column. float32 indicators
    give a float32 table, anything else float64."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    for ind in (rows, cols):
        if np.any((ind != 0) & (ind != 1)):
            raise ValueError("indicators must be 0/1")
    dtype = np.float32 if rows.dtype == np.float32 else np.float64
    c = rows.shape[1]
    bits = np.arange(c)[:, None]
    patterns = ((np.arange(1 << c) >> bits) & 1).T.astype(dtype)
    table = patterns[:, None, :] * patterns[None, :, :]
    codes = [(ind.astype(np.intp) << bits).sum(axis=1) for ind in (rows, cols)]
    return np.broadcast_to(table, (len(rows),) + table.shape), *codes


class ConvPoolEncoder:
    """Two conv+pool blocks followed by one FC layer; output length 256.

    Takes binary maps as their row and column indicators and runs both
    blocks on factored maps (see `Conv2D`), from the map of their row and
    column patterns (`indicator_map`); only pool2's output is expanded,
    into the channel-major rows `fc` reads, and the backward stays in
    table space. Input spatial dims must be divisible by 4 (two 2x2
    pools). Without a generator every block starts at zero.
    """

    OUT_DIM = 256

    def __init__(self, in_channels, in_hw, channels=(8, 8), kernel_size=3, rng=None):
        h, w = in_hw
        if h % 4 or w % 4:
            raise ShapeError(f"encoder input dims must be divisible by 4, got {h}x{w}")
        self.in_channels = in_channels
        self.in_hw = (h, w)
        self.conv1 = Conv2D(in_channels, channels[0], kernel_size, rng)
        self.pool1 = MaxPool2x2()
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
        x = self.pool1.forward(*self.conv1.forward(*indicator_map(rows, cols)))
        table, rows, cols = self.pool2.forward(*self.conv2.forward(*x))
        # the table element of each (map, channel, y, x) of the NCHW rows
        b, nr, nq, c = table.shape
        at_row = (np.arange(b)[:, None] * nr + rows) * nq
        self._index = ((at_row[:, None, :, None] + cols[:, None, None, :]) * c
                       + np.arange(c)[:, None, None])
        self._shape = table.shape
        return self.fc.forward(np.take(table, self._index).reshape(b, -1))

    def backward(self, dy):
        """Accumulate the gradients of every block. The input is data, so
        no input gradient is computed or returned."""
        dx = self.fc.backward(dy)
        dtable = np.bincount(self._index.ravel(), dx.ravel(), math.prod(self._shape))
        dtable = self.conv2.backward(self.pool2.backward(dtable.reshape(self._shape)))
        self.conv1.backward(self.pool1.backward(dtable), input_grad=False)


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
