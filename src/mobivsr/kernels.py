"""Reference layer kernels with instrumented operation counting.

Every convolution (2-D, 3-D, 1-D temporal, and both stages of the separable
layers) runs through one correlation core, ``_correlate``, with dense
filters that mix channels or per-channel filters. Each separable kernel is
one core call: its grouped stage, given the pointwise weights, which runs
the pointwise stage block by block on its mid (see the third item below).

A core call has two steps. The geometry step, ``_geometry``, is the index
arithmetic done before data is touched: the checks, output extents and
padding leads, a walk's frame window, the stride phases and the input slice
each copies, each offset's phase window, and the rows of a block under the
budget below. A pure function of shapes, ints and the budget, holding no
array, it is memoized in a bounded LRU cache, as a tiled region repeats its
calls' shapes tile after tile. The compute step makes the call's views,
buffers and tap tiles and runs the block loop, every multiply every call.

The core works channels last. It moves the input to (B,*S,C), allocates its
fp32 output once and walks it in blocks along the leading axis: the batch,
or the first output axis when the batch is 1. The zero-padded input is split
by stride phase, and only the phases some kernel offset reads are built (a
stride-2 1x1 skip needs one). Each is built one block at a time, its rows
for that block only, into one buffer per phase that every block reuses: a
block rewrites only the input part, re-zeroes padding only past the input's
end on the blocked axis, and moves the halo rows it shares with the last
block to the front rather than gathering them again. Blocks hold about
_COPY_BYTES = 1 MiB of such scratch, so a layer's scratch no longer grows
with its input. Every offset then reads a stride-1 window of one phase
block, so its (Wo,C) rows are contiguous at any stride. The result is a
(B,Co,*So) view of a channels-last buffer. Tallies are taken once per call,
over the whole output, so counting stays weight stationary at any block
size.

* A per-channel stage is summed block-outer, tap-inner (loop tiling for
  locality, Wolf & Lam, 1991), over the copy blocks themselves. Each takes
  all 9 (2-D) or 27 (3-D) taps in np.ndindex order before the next one
  starts: the first tap's product is written straight into the block, and
  each later one into a single product buffer of block rows, reused across
  taps and blocks, then added in place. A block's 1 MiB of scratch and its
  product rows stay in a core's L2 (2 MiB on the measured host) across all
  taps; a tap streaming the whole activation runs at L3 speed instead.
  Splitting each copy block again, into 256 KiB of output, measured no
  faster. Each tap multiplies a window by its (C,) tap tiled to (Wo,C), so
  numpy's inner loop spans Wo*C elements rather than the Wo (3 in the
  deepest stage) a channels-first broadcast gives. Each output element gets
  the same fp32 multiply-adds in the same order as a channels-first sum, so
  per-channel outputs are bit-identical to it at any block size.
* A dense filter has at most 3 offsets in this family (the 1x1 skips and
  pointwise stages, the k=3 temporal conv, the Tp x 1 x 1 temporal pointwise
  stage). Each block stacks its own windows channel-major into (rows, Ci*K)
  im2col rows (Chellapilla et al., 2006), in one buffer reused by every
  block, whose column order is that of the weights' own (Co, Ci*K) reshape.
  np.matmul contracts them with no copy of the weights, straight into the
  block's rows of the output. A 1x1 stage's one window is its whole phase
  block, so it is not copied again. The GEMM sums in BLAS order, so
  dense outputs match a plain offset sum only to within fp32 rounding (the
  tolerance of tests/_reference.py).
* A separable layer never holds its whole mid (the fused-layer schedule of
  Alwani et al., MICRO 2016, on the separable form of MobileNets, Howard et
  al., 2017). Each block's grouped sum is written into a buffer of block
  rows plus the Tp - 1 rows of halo its Tp x 1 x 1 (or 1x1) pointwise
  stage reads, and each output row whose Tp mid rows are there is then
  contracted, as im2col rows, straight into its rows of the output. The
  halo rows are moved to the front for the next block, as a phase's are,
  not computed again, and the trailing zero padding is written once the
  last block is in. The mid and im2col rows count against _COPY_BYTES
  with the phase rows, so ds3d2 at alpha=1 walks one output time at a time.
  Every mid row is the grouped stage's own and every output row a GEMM over
  the same im2col row. How a GEMM rounds can still depend on how many rows
  one call contracts, so the output equals the two stages run whole bit for
  bit only where the block size does not change that: on the shapes of
  MobiVSR-1 to 4's separable layers (every one of them is bit-identical in
  1-row blocks and at the default budget on a seeded clip) and in the
  1-row-block tests of tests/test_kernels.py. A seeded (1, 3, 3, 3) input
  with 1x1 depthwise and 3-to-1 pointwise weights differs by 1 ulp between
  1-row blocks and the default budget.
* A 3-D kernel given a ``Frames`` walk computes only output frames
  [done, stop) of its time axis, from a window of the input whose first
  frame it is told. The walk is ``run_graph``'s tiled region (see engine):
  the window carries its own halo, and zero padding lies only past the
  clip's ends, so the walk's first correlated row and lead are those of the
  window, not the clip. A separable layer starts each call with the Tp - 1
  mid rows the last one left, carried in the walk, in place of leading zero
  padding, so across the calls each mid row and each output frame is
  computed once. Each call tallies its own rows and the weights once.

``batchnorm_array`` lays any input out channels last (which copies nothing
for a kernel's channels-last output) and works on (rows, W*C) against
scale and shift tiled to W*C, with the shift added in place: the same fp32
operations as the broadcast form, so bit-identical to it, with one
activation-sized temporary fewer. Relu and residual adds
(``add_array``) keep the input's memory order, so each layer's move to
channels last is a view, and its phases are contiguous copies.

Every kernel that ``run_graph``'s activation plan gives a slot takes
``out=``, a contiguous 1-D fp32 buffer of the output's size, and returns a
view of it: ``conv2d_array``, the grouped and separable kernels, relu,
batchnorm and ``add_array``. The elementwise kernels may be handed their
input's own bytes, since every element is read before its result lands. So
may a correlation: every stride phase is copied block by block before any
output row of that block is written, and the core checks that the output
rows written after each block end at or before the first input row a later
block loads. ``run_graph``'s plan puts a separable layer over its input
only when the output is no larger, and the core checks the rule all the
same. Where output rows would outrun the reads, the core writes a fresh
buffer instead, leaving ``out`` and the input as they were. Without
``out`` every kernel allocates its output.

Every buffer the kernels allocate, and every arena ``run_graph`` plans,
comes from ``empty``, which starts it on a 64-byte cache line (_ALIGN).
numpy's allocator leaves a fresh buffer 16 to 48 bytes past one, so each
64-byte AVX-512 store a ufunc makes into it is split across two lines. On a
Sapphire Rapids core (numpy 2.4, AVX512_SPR) an fp32 multiply of 16 384
elements takes 2.3 us into an aligned ``out`` against 4.0 us 16 bytes off,
and a grouped 3x3 sum of a (4, 24, 24, 64) block 458 against 607 us. Only
where the bytes lie changes, so outputs are bit-identical either way.

Kernels check only what their own arithmetic needs: the input's channel
count against the weights (axis "channel"), ranks, stride and padding. The
layer shape rules (input ranks, leading extents, output shapes, the depth of
a separable pointwise stage) live once in ``graph.LAYER_KINDS``; run_graph
applies them to the whole graph through ``graph.shape_infer`` before any
kernel runs. Output extents come from ``graph.out_extent`` alone: the core
derives its zero padding from them, and max pooling its length.

Counting conventions, applied whenever a CounterLedger is passed in:

* a dot product of n terms costs n multiplies and n accumulator adds, so
  flops are exactly 2x the multiply count;
* each weight element is read once per forward pass (weight stationary);
* convolutions read one activation per multiply, zero padding included;
* matrix-vector layers read each input element exactly once;
* only a layer's final output is written; stage intermediates are not;
* relu, pooling, normalization, softmax and residual adds are free.

Counting never touches the numeric path: a counted call produces output
bit-identical to the uncounted one.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import DimensionMismatch
from .graph import PADDINGS, out_extent

# names of the correlated axes, by their count, for error messages
_AXES = {1: ("time",), 2: ("height", "width"), 3: ("time", "height", "width")}
# scratch bytes (copied phase rows, mid and im2col rows) per block of a
# correlation's output; every block reuses the same buffers, and a block with
# its grouped stage's product rows stays in a core's L2
_COPY_BYTES = 1024 * 1024
# a cache line: every buffer the kernels and the engine allocate starts on one
_ALIGN = 64


def _check_padding(padding):
    if padding not in PADDINGS:
        raise ValueError(f"padding must be one of {PADDINGS}, got {padding!r}")


def _check_stride(stride):
    # bool is an int subclass, but True is no stride
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive int, got {stride!r}")


def empty(shape, dtype=np.float32):
    """np.empty(shape, dtype), C-contiguous, but starting on an _ALIGN-byte
    boundary inside a byte buffer at most _ALIGN - 1 bytes larger."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape if np.iterable(shape) else (shape,)) * dtype.itemsize
    raw = np.empty(nbytes + _ALIGN - 1, dtype=np.uint8)
    return np.ndarray(shape, dtype, raw, -_address(raw) % _ALIGN)


# ---------------------------------------------------------------------------
# array-level cores; batched where per-frame execution needs it
# ---------------------------------------------------------------------------


class _Span(namedtuple("_Span", "src first stop origin step halo extents dst row_bytes")):
    """A stride phase's geometry (see _Phase): ``src`` slices its input part
    out of xl; phase indices [first, stop) of axis 0, index i at xl row origin
    + i * step, are inside; a block reads ``halo`` rows past its own; its other
    ``extents`` hold the input part at ``dst``; a row copies ``row_bytes``."""

    def unread(self, r1):
        """The first row of xl that a block after output row r1 loads (inf: none)."""
        i = max(r1 + self.halo, self.first)
        return self.origin + i * self.step if i < self.stop else math.inf


def _span(phase, dims, outs, kernel, strides, leads, channels, itemsize):
    """The _Span of stride phase ``phase`` of an input of extents ``dims``."""
    spans, src = [], []
    for p, m, k, s, so, lo in zip(phase, dims, kernel, strides, outs, leads):
        extent = so + (k - 1 - p) // s  # as far as this phase's last offset reads
        first = max(-((p - lo) // s), 0)  # the first phase index inside the input
        stop = max(min(extent, -((p - lo - m) // s)), first)  # one past the last
        start = p + first * s - lo
        spans.append((first, stop, extent))
        src.append(slice(start, start + (stop - first) * s, s))
    extents = tuple(extent for *_, extent in spans[1:])
    return _Span(tuple(src), *spans[0][:2], phase[0] - leads[0], strides[0],
                 spans[0][2] - outs[0], extents,
                 tuple(slice(first, stop) for first, stop, _ in spans[1:]),
                 math.prod(extents) * channels * itemsize)


class _Phase:
    """Stride phase ``span`` of the zero-padded channels-last input xl (*S,C):
    along each axis the padded positions p, p+s, p+2s, ..., as far as the
    phase's last kernel offset reads, copied one block of axis 0 at a time
    into ``self.array``, of which each of its windows is a slice. Every block
    reuses the buffer and rewrites only the input part: the padding on the
    other axes is zeroed once, and a block's rows outside the input on axis 0.
    """

    def __init__(self, span, xl, rows):
        self.span, self.inside = span, xl[span.src]
        self.array = empty((rows + span.halo, *span.extents, xl.shape[-1]), xl.dtype)
        # the padding on the other axes, which no block writes
        for axis, (part, extent) in enumerate(zip(span.dst, span.extents), start=1):
            lead = (slice(None),) * axis
            self.array[lead + (slice(0, part.start),)] = 0
            self.array[lead + (slice(part.stop, extent),)] = 0

    def load(self, r0, r1):
        """Put the phase rows output rows [r0, r1) read into ``self.array``;
        phase indices [r0, r1) then lie at its front."""
        span, buf, n = self.span, self.array, r1 - r0 + self.span.halo
        # blocks come in order and all but the last fill the buffer, so the
        # previous block's final halo rows are this one's first: moved, not gathered
        kept = span.halo if r0 else 0
        _move_to_front(buf, len(buf) - kept, kept)
        # buffer row j holds phase index r0 + j; rows before and past the input are padding
        d0 = min(max(span.first - r0, kept), n)
        d1 = max(min(span.stop - r0, n), d0)
        buf[kept:d0] = 0
        buf[(slice(d0, d1),) + span.dst] = self.inside[r0 + d0 - span.first:r0 + d1 - span.first]
        buf[d1:n] = 0


def _move_to_front(buf, start, n):
    """Copy rows [start, start + n) of buf to rows [0, n), one row at a time,
    so that overlapping rows need no temporary copy."""
    for j in range(n):
        buf[j] = buf[start + j]


def _grouped_sum(windows, tiles, out, product):
    """Sum each (R,...,Wo,C) window times its offset's (Wo,C) tile into the
    fp32 block out (R,...,Wo,C), one tap at a time over the whole block.

    The first tap is written straight into out, each later one into the
    first R rows of ``product`` and then added in place. ``product`` has the
    operands' result dtype, as a fresh temporary would, so each element's
    fp32 sum is that of a whole-array tap loop, at any block size.
    """
    np.multiply(windows[0], tiles[0], out=out)
    term = product[:len(out)]
    for view, tile in zip(windows[1:], tiles[1:]):
        np.multiply(view, tile, out=term)
        out += term


def _dense_block(windows, cols, wt, out):
    """Contract a block's windows with the (Ci*K, Co) weights wt straight into
    the block's rows of out: several windows are first stacked channel-major
    into the im2col buffer cols, one is used as is."""
    if cols is not None:
        part = cols[:len(out)]
        for k, window in enumerate(windows):
            part[..., k] = window
        windows = [part]
    np.matmul(windows[0].reshape(-1, len(wt)), wt, out=out.reshape(-1, wt.shape[1]))


class _Pointwise:
    """The dense stage of a separable layer, (Co,C,Tp,1,1) or (Co,C,1,1): Tp
    taps along the blocked axis (1 for a 1x1 stage) at stride 1 with same
    padding, fed the grouped stage's mid one block of rows at a time.

    The mid lives in a buffer of rows + Tp - 1 rows: ``lead`` rows come first,
    the leading zero padding or the Tp - 1 rows ``carried`` over from the
    call before, then the ``mids`` mid rows this call computes. The grouped
    stage sums each block straight into ``block``'s rows of it, and ``emit``
    then contracts every output row whose Tp rows it holds into ``out``, as
    im2col rows. The Tp - 1 rows that the next output row reads as well are
    then moved to the front, as ``_Phase.load`` moves its halo, so no mid row
    is computed twice; after the last row they are the ones the next call
    carries.
    """

    def __init__(self, w, tp, rows, lead, mids, out, carried=None):
        co, c = w.shape[:2]
        self.tp, self.lead, self.mids = tp, lead, mids
        self.rows, self.extent, self.base = rows, len(out), 0
        self.wt = w.reshape(co, -1).T
        # every row but the first ``lead`` is summed into before it is read
        self.mid = empty((rows + tp - 1, *out.shape[1:-1], c), out.dtype)
        self.mid[:lead] = 0 if carried is None else carried
        self.cols = empty((rows, *out.shape[1:-1], c, tp), out.dtype) if tp > 1 else None
        self.out = out

    def block(self, m0, m1):
        """The rows of the buffer that mid rows [m0, m1) go to."""
        return self.mid[m0 + self.lead - self.base:m1 + self.lead - self.base]

    def emit(self, m1):
        """Contract every output row whose Tp mid rows come before mid row m1,
        and every row left once m1 is the last mid row of this call."""
        halo, last = self.tp - 1, m1 == self.mids
        if last and halo:
            self.mid[m1 + self.lead - self.base:] = 0  # the trailing zero padding
        stop = self.extent if last else m1 + self.lead - halo
        while self.base < stop:
            n = min(stop - self.base, self.rows)
            windows = [self.mid[k:k + n] for k in range(self.tp)]
            _dense_block(windows, self.cols, self.wt, self.out[self.base:self.base + n])
            _move_to_front(self.mid, n, halo)
            if last and halo:  # rows past the mid's end are padding
                self.mid[halo:] = 0
            self.base += n


def _tally(ledger, n, params):
    """n multiply-adds, each reading one activation, and the weights once."""
    ledger.multiplies += n
    ledger.adds += n
    ledger.param_reads += params
    ledger.activation_reads += n


def _check_out(out, size):
    if out.dtype != np.float32 or out.ndim != 1 or out.size != size \
            or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous 1-D fp32 buffer of {size} elements, got "
                         f"{out.dtype} {out.shape}")


def _address(a) -> int:
    return a.__array_interface__["data"][0]


class Frames:
    """A walk down the time axis of a (C, L, H, W) input of ``total`` frames,
    resumed call by call, for ``conv3d_array`` and ``ds_conv3d_array``.

    Before each call the caller sets ``start``, the input frame its window
    (the ``x`` of that call) begins at, and ``stop``; the call computes output
    frames [``done``, ``stop``) and sets ``done`` to ``stop``. The window must
    hold every input frame those output frames read, which is zero padding
    only past the clip's ends. A separable layer keeps in ``mid`` the Tp - 1
    mid rows the next call's first output frames read, so across the calls
    each output frame and each mid row is computed exactly once.
    """

    def __init__(self, total):
        self.total, self.start, self.stop, self.done, self.mid = total, 0, total, 0, None


# batch, channels, pointwise depth (0: none), output rows [r0, r1) and their
# lead of mid rows, extents, (key, _Span) per phase, (key, window) per offset,
# block rows, im2col or not, output shape, (r1, unread), tally
_Geometry = namedtuple("_Geometry", "b c tp r0 r1 lead outs phases reads rows columns "
                                    "shape loads multiplies")


@functools.lru_cache(maxsize=256)
def _geometry(x_shape, w_shape, pw_shape, strides, padding, grouped, context, walk, itemsize,
              copy_bytes):
    """The geometry step of a _correlate call (see the module docstring), of a
    Frames walk's (total, start, done, stop) too; its value holds no array."""
    n = len(strides)
    w_rank = n + 1 if grouped else n + 2
    if len(x_shape) != n + 2 or len(w_shape) != w_rank:
        raise DimensionMismatch("rank", (n + 2, w_rank), (len(x_shape), len(w_shape)),
                                f"{context} input and weights")
    b, c, *size = x_shape
    kernel = w_shape[-n:]
    cw = w_shape[0] if grouped else w_shape[1]
    if cw != c:
        raise DimensionMismatch("channel", cw, c, f"{context} input vs weights")
    if n > 1 and kernel[-2] != kernel[-1]:
        kh, kw = kernel[-2:]
        raise DimensionMismatch("kernel", f"square, {kh}x{kh}", f"{kh}x{kw}", f"{context} weights")
    if pw_shape is not None:
        if len(pw_shape) != n + 2:
            raise DimensionMismatch("rank", n + 2, len(pw_shape), "pointwise weights")
        if pw_shape[1] != c:
            raise DimensionMismatch("channel", pw_shape[1], c,
                                    "pointwise weights vs the grouped stage")
        if pw_shape[-2:] != (1, 1):
            kh, kw = pw_shape[-2:]
            raise DimensionMismatch("kernel", "1x1", f"{kh}x{kw}", "pointwise weights")
    extents = size if walk is None else [walk[0], *size[1:]]
    outs = [out_extent(m, k, s, padding, axis)
            for m, k, s, axis in zip(extents, kernel, strides, _AXES[n])]
    # the leading zero padding that gives those extents: half the total, rounded down
    leads = [max((o - 1) * s + k - m, 0) // 2
             for o, s, k, m in zip(outs, strides, kernel, extents)]
    taps = math.prod(kernel)
    tp = 0 if pw_shape is None else (pw_shape[2] if n == 3 else 1)
    # this call's output rows [r0, r1) of axis 0 and the rows [m0, m1) its first
    # stage computes: the same, or for a separable layer the mid rows they read
    # that no earlier call did. Each later call finds the Tp - 1 mid rows its
    # first output row reads carried over; the first finds leading zero padding.
    start, r0, r1 = (0, 0, outs[0]) if walk is None else walk[1:]
    if not 0 <= r0 <= r1 <= outs[0]:
        raise ValueError(f"{context}: output frames [{r0}, {r1}) are not within [0, {outs[0]})")
    m0, m1, lead = r0, r1, 0
    if tp:
        skip = (tp - 1) // 2  # same padding's leading zero mid rows
        lead = skip if r0 == 0 else tp - 1
        m0 = 0 if r0 == 0 else min(r0 - skip + tp - 1, outs[0])
        m1 = min(r1 - skip + tp - 1, outs[0])
    if walk is not None:  # conv3d and ds_conv3d pass a batch of one
        s0, k0 = strides[0], kernel[0]
        need = (max(m0 * s0 - leads[0], 0), min((m1 - 1) * s0 + k0 - leads[0], walk[0]))
        if m1 > m0 and (need[0] < start or need[1] > start + size[0]):
            raise ValueError(f"{context}: input frames [{start}, {start + size[0]}) do not hold "
                             f"frames [{need[0]}, {need[1]}) that output frames [{r0}, {r1}) read")
        # the window's first row is input row ``start``, and row m0 is the first computed
        outs[0], leads[0] = m1 - m0, leads[0] + start - m0 * s0
    if b > 1:  # the batch is axis 0, a correlated axis of kernel and stride 1
        kernel, strides, outs, leads, size = ((1, *kernel), (1, *strides), [b, *outs],
                                              [0, *leads], [b, *size])
    # each offset reads a stride-1 window of one phase: (phase, its index there),
    # in np.ndindex order; per axis, offset o lies in phase o % s from index o // s
    axes = [[(o % s, slice(o // s, o // s + m)) for o in range(k)]
            for k, s, m in zip(kernel, strides, outs)]
    axes[0] = [(p, slice(index.start, None)) for p, index in axes[0]]
    phases, reads = {}, []
    for parts in itertools.product(*axes):
        key, index = zip(*parts)
        if key not in phases:
            phases[key] = _span(key, size, outs, kernel, strides, leads, c, itemsize)
        reads.append((key, index))
    # the scratch one output row of axis 0 takes: copied phase rows, then in
    # (*So[1:], C) rows: for a dense filter of several offsets its im2col rows,
    # for a separable layer its mid row and, past a 1x1 stage, Tp im2col rows
    columns = not grouped and taps > 1
    copies = taps if columns else 0
    if tp:
        copies += 1 + (tp if tp > 1 else 0)
    row = math.prod(outs[1:]) * c  # elements of one output row of the first stage
    row_bytes = sum(p.row_bytes for p in phases.values()) + copies * row * itemsize
    rows = max(min(copy_bytes // row_bytes, outs[0]), 1)
    co = c if grouped else w_shape[0]
    shape = (*outs, co if pw_shape is None else pw_shape[0])
    if walk is not None:  # a separable layer's output rows, not its mid rows
        shape = (r1 - r0, *shape[1:])
    edges = ((r, min(p.unread(r) for p in phases.values())) for r in range(rows, outs[0], rows))
    return _Geometry(b, c, tp, r0, r1, lead, tuple(outs), tuple(phases.items()), tuple(reads),
                     rows, columns, shape,
                     tuple((r, u) for r, u in edges if u < math.inf),
                     math.prod(outs) * (c if grouped else co * c) * taps)


def _correlate(x, w, strides, padding, ledger, grouped, context, pointwise=None, out=None,
               frames=None):
    """Correlate a (B,C,*S) batch over its trailing len(strides) axes.

    Dense weights (Co,Ci,*K) mix channels and give (B,Co,*So); grouped
    weights (C,*K) hold one filter per channel and give (B,C,*So). Grouped
    weights may carry ``pointwise`` weights (Co,C,Tp,1,1) or (Co,C,1,1) for a
    separable layer's dense stage, which then runs block by block on the
    grouped stage's mid and gives (B,Co,*So). Either result is a view of a
    channels-last buffer: ``out`` (a contiguous 1-D fp32 buffer of the
    output's size) when given, else a fresh one. ``out`` may lie over x's own
    bytes when no output row lands on an input row before its last load;
    otherwise a fresh buffer is used in its place.

    With ``frames`` (a ``Frames`` walk, for a batch of one) x holds only a
    window of the input's first correlated axis, and the call computes output
    rows [frames.done, frames.stop) of that axis.
    """
    # checked before the memo, whose keys would hold a stride of True as 1
    for stride in strides:
        _check_stride(stride)
    _check_padding(padding)
    walk = None if frames is None else (frames.total, frames.start, frames.done, frames.stop)
    g = _geometry(x.shape, w.shape, None if pointwise is None else pointwise.shape,
                  tuple(map(int, strides)), padding, grouped, context, walk, x.itemsize,
                  _COPY_BYTES)
    n, outs, rows = len(strides), g.outs, g.rows
    xl = x.transpose(0, *range(2, n + 2), 1)  # channels last; np.moveaxis costs more
    if g.b == 1:  # a batch of one is blocked along its first correlated axis
        xl = xl[0]
    phases = {key: _Phase(span, xl, rows) for key, span in g.phases}
    # each offset's window, from its phase's first row on; a block slices it
    windows = [phases[key].array[index] for key, index in g.reads]
    if grouped:
        # each tap tiled to (Wo,C), in np.ndindex order
        tiles = empty((len(windows), outs[-1], g.c), w.dtype)
        tiles[...] = w.reshape(g.c, -1).T[:, None]
        product = empty((rows, *outs[1:], g.c), np.result_type(xl, tiles))
    else:
        # the (Ci*K, Co) transpose of the weights' own (Co, Ci*K) rows, a view
        # with no copy, against windows stacked channel-major
        wt = w.reshape(len(w), -1).T
        cols = empty((rows, *outs[1:], g.c, len(windows)), xl.dtype) if g.columns else None
    if out is not None:
        _check_out(out, math.prod(g.shape))
        if np.may_share_memory(out, xl):
            # output rows [0, r1) land once the block ending at r1 is in: a fresh
            # buffer if one could land on the row u of xl a later block loads, for
            # an (r1, u) of g.loads, or anywhere when xl is not one run of rows
            ahead, row = _address(out) - _address(xl), math.prod(g.shape[1:]) * 4
            if not xl.flags.c_contiguous or any(ahead + r1 * row > u * xl[0].nbytes
                                                for r1, u in g.loads):
                out = None
    out = empty(g.shape) if out is None else out.reshape(g.shape)
    stage = None
    if g.tp:
        carried = frames.mid if frames is not None and g.r0 else None
        stage = _Pointwise(pointwise, g.tp, rows, g.lead, outs[0], out, carried)
        if not outs[0]:  # every mid row this call's output reads was carried
            stage.emit(0)
    for b0 in range(0, outs[0], rows):
        b1 = min(b0 + rows, outs[0])
        for phase in phases.values():
            phase.load(b0, b1)
        block = [window[:b1 - b0] for window in windows]
        if not grouped:
            # a 1x1 stage's one window is its whole phase block, used as is
            _dense_block(block, cols, wt, out[b0:b1])
        elif stage is None:
            _grouped_sum(block, tiles, out[b0:b1], product)
        else:
            _grouped_sum(block, tiles, stage.block(b0, b1), product)
            stage.emit(b1)
    if frames is not None:
        frames.done = g.r1
        if stage is not None:
            frames.mid = stage.mid[:g.tp - 1].copy()
    if ledger is not None:
        _tally(ledger, g.multiplies, w.size)
        if stage is not None:
            _tally(ledger, out.size * g.c * g.tp, pointwise.size)
    return (out if g.b > 1 else out[None]).transpose(0, n + 1, *range(1, n + 1))


def conv2d_array(x, w, stride=1, padding="same", ledger=None, out=None):
    """Batched 2-D cross-correlation: (B,Ci,H,W) x (Co,Ci,K,K) -> (B,Co,Ho,Wo),
    written into ``out`` when given."""
    return _correlate(x, w, (stride, stride), padding, ledger, False, "conv2d", out=out)


def depthwise2d_array(x, w, stride=1, padding="same", ledger=None, pointwise=None, out=None):
    """Grouped 2-D stage, groups == channels: (B,C,H,W) x (C,K,K) -> (B,C,Ho,Wo).

    With ``pointwise`` weights (Co,C,1,1) their 1x1 stage follows each block
    of the grouped one, and the result is (B,Co,Ho,Wo): ds_conv2d_array. The
    result is written into ``out`` when given, which may be x's own buffer.
    """
    return _correlate(x, w, (stride, stride), padding, ledger, True, "depthwise", pointwise, out)


def conv3d_array(x, w, stride=1, padding="same", ledger=None, frames=None):
    """3-D cross-correlation, temporal stride 1: (Ci,L,H,W) x (Co,Ci,T,K,K) -> (Co,Lo,Ho,Wo),
    or with ``frames`` the output frames [frames.done, frames.stop) (see Frames)."""
    return _correlate(x[None], w, (1, stride, stride), padding, ledger, False, "conv3d",
                      frames=frames)[0]


def depthwise3d_array(x, w, stride=1, padding="same", ledger=None, pointwise=None, out=None,
                      frames=None):
    """Grouped 3-D stage, temporal stride 1: (C,L,H,W) x (C,T,K,K) -> (C,Lo,Ho,Wo).

    With ``pointwise`` weights (Co,C,Tp,1,1) their Tp x 1 x 1 stage follows
    each block of output times, and the result is (Co,Lo,Ho,Wo):
    ds_conv3d_array. The result is written into ``out`` when given, which may
    be x's own buffer. With ``frames`` only output frames
    [frames.done, frames.stop) are computed, from a window of x (see Frames).
    """
    return _correlate(x[None], w, (1, stride, stride), padding, ledger, True, "depthwise",
                      pointwise, out, frames)[0]


def conv1d_array(x, w, stride=1, padding="same", ledger=None):
    """1-D cross-correlation over time: (Ci,L) x (Co,Ci,k) -> (Co,Lo)."""
    return _correlate(x[None], w, (stride,), padding, ledger, False, "temporal conv")[0]


def ds_conv2d_array(x, dw, pw, stride=1, padding="same", ledger=None, out=None):
    """Depthwise-separable 2-D conv on a batch: the grouped stage, then a dense
    1x1 pointwise stage, fused one block at a time; only the final output is
    written.

    Returns a (B,Co,Ho,Wo) view of a channels-last buffer, ``out`` when given.
    """
    return depthwise2d_array(x, dw, stride, padding, ledger, pw, out)


def ds_conv3d_array(x, dw, pw, stride=1, padding="same", ledger=None, out=None, frames=None):
    """Depthwise-separable 3-D conv: the grouped stage, then a dense Tp x 1 x 1
    pointwise stage at stride 1 with same padding, so the frame count is kept,
    fused one block of output times at a time.

    Tp is read off the pointwise weights (Co,Ci,Tp,1,1); the layer spec fixes it.
    The result is written into ``out`` when given. With ``frames`` a call
    computes output frames [frames.done, frames.stop) from a window of x, and
    carries the mid rows the next call reads (see Frames).
    """
    return depthwise3d_array(x, dw, stride, padding, ledger, pw, out, frames)


def fc_array(x, w, ledger=None):
    """Matrix-vector product, no bias: (I,) x (Q,I) -> (Q,)."""
    q, i = w.shape
    if x.shape != (i,):
        raise DimensionMismatch("features", i, x.shape, "fully connected input vs weights")
    out = w @ x
    if ledger is not None:
        ledger.multiplies += i * q
        ledger.adds += i * q
        ledger.param_reads += i * q
        ledger.activation_reads += i  # the input vector is read once
    return out


def maxpool1d_array(x, window, stride):
    """Max pooling over the last axis, valid extent arithmetic."""
    _check_stride(stride)
    lo = out_extent(x.shape[-1], window, stride, "valid", "time")
    out = x[..., 0 : (lo - 1) * stride + 1 : stride].copy()
    for j in range(1, window):
        np.maximum(out, x[..., j : j + (lo - 1) * stride + 1 : stride], out=out)
    return out


def _like(out, x):
    """The flat fp32 buffer ``out`` as an array of x's shape whose axes lie in
    memory in x's order, so an elementwise result keeps x's layout and, when
    out holds x itself, lands on each element's own bytes."""
    _check_out(out, x.size)
    order = sorted(range(x.ndim), key=lambda axis: -x.strides[axis])  # outermost first
    return out.reshape([x.shape[axis] for axis in order]).transpose(np.argsort(order))


def relu_array(x, out=None):
    """max(x, 0), written into ``out`` (see _like) when given; out may be x's own buffer."""
    return np.maximum(x, 0, out=None if out is None else _like(out, x))


def add_array(x, y, out=None):
    """x + y in fp32 and x's memory order, written into ``out`` (see _like)
    when given; out may be x's own buffer."""
    return np.add(x, y, out=_like(empty(x.size) if out is None else out, x))


def batchnorm_steps(mean, var, gamma, beta, eps=1e-5) -> list:
    """Inference-time normalization as two elementwise steps (ufunc, channel
    operand): multiply by each channel's scale, then add its shift. The
    engine runs them in place on a correlation's output when the batchnorm
    is fused into it."""
    scale = gamma / np.sqrt(var + eps)
    return [(np.multiply, scale), (np.add, beta - mean * scale)]


def batchnorm_array(x, mean, var, gamma, beta, eps=1e-5, out=None):
    """Inference-time normalization over the leading channel axis, written
    channels last into ``out`` (a contiguous 1-D fp32 buffer of x's size)
    when given; out may be x's own buffer."""
    if x.shape[0] != mean.shape[0]:
        raise DimensionMismatch("channel", mean.shape[0], x.shape[0],
                                "batchnorm input vs statistics")
    (_, scale), (_, shift) = batchnorm_steps(mean, var, gamma, beta, eps)
    # channels last, copied only when not already; numpy's inner loop then
    # spans a whole (W*C) row, not the C channels. A rank-1 input is one row.
    last = np.ascontiguousarray(x.transpose(*range(1, x.ndim), 0))
    width = x.shape[-1] if x.ndim > 1 else 1
    rows = last.reshape(-1, width * len(scale))
    if out is not None:
        _check_out(out, x.size)
        out = out.reshape(rows.shape)
    out = np.multiply(rows, np.tile(scale, width), out=out)
    out += np.tile(shift, width)
    return out.reshape(last.shape).transpose(x.ndim - 1, *range(x.ndim - 1))


def softmax_array(x):
    """Numerically stabilized softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)
