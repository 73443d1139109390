"""Group quantizers: round-to-nearest with optional clipping, and GPTQ.

Groups always run along the input-channel dimension of each row, i.e. a
(rows, cols) matrix is quantized per row in contiguous groups of
``group_size`` columns. ``group_size=None`` means one group per row
(per-channel).

Rounding is half-away-from-zero everywhere; half-even would change codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyCalibrationError,
    GroupDoesNotDivideError,
    InvalidSpecError,
    NonFiniteInputError,
    ShapeMismatchError,
    SingularHessianError,
)

# MSE clip search grid: 1.00, 0.99, ..., 0.50
DEFAULT_MSE_GRID = tuple(round(1.0 - 0.01 * i, 2) for i in range(51))

CLIP_NONE = "none"
CLIP_RATIO = "ratio"
CLIP_MSE = "mse"


@dataclass(frozen=True)
class Clip:
    """Range-clipping policy for one quantizer."""

    kind: str = CLIP_NONE
    ratio: float = 1.0
    grid: tuple[float, ...] = ()

    @staticmethod
    def none() -> "Clip":
        return Clip(CLIP_NONE)

    @staticmethod
    def fixed(ratio: float) -> "Clip":
        return Clip(CLIP_RATIO, ratio=ratio)

    @staticmethod
    def mse(grid: tuple[float, ...] = DEFAULT_MSE_GRID) -> "Clip":
        return Clip(CLIP_MSE, grid=tuple(grid))

    def validate(self) -> None:
        if self.kind not in (CLIP_NONE, CLIP_RATIO, CLIP_MSE):
            raise InvalidSpecError(f"unknown clip kind {self.kind!r}")
        if self.kind == CLIP_RATIO and not 0.0 < self.ratio <= 1.0:
            raise InvalidSpecError(f"clip ratio must be in (0, 1], got {self.ratio}")
        if self.kind == CLIP_MSE:
            if not self.grid:
                raise InvalidSpecError("MSE clip grid must be non-empty")
            if any(not 0.0 < r <= 1.0 for r in self.grid):
                raise InvalidSpecError("every MSE grid ratio must be in (0, 1]")


@dataclass(frozen=True)
class QuantSpec:
    """Bit-width, grouping, symmetry and clipping for one quantizer."""

    bits: int
    group_size: int | None = None   # None: one group per row
    symmetric: bool = False
    clip: Clip = field(default_factory=Clip.none)

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise InvalidSpecError(f"bits must be in [2, 8], got {self.bits}")
        if self.group_size is not None and self.group_size < 1:
            raise InvalidSpecError(f"group size must be positive, got {self.group_size}")
        self.clip.validate()

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1)) if self.symmetric else 0

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.symmetric else (1 << self.bits) - 1


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus per-group scales/zero-points, round-trippable to floats."""

    codes: np.ndarray               # int64, shape = original
    scales: np.ndarray              # float64, (rows, n_groups)
    zero_points: np.ndarray | None  # int64, (rows, n_groups); None when symmetric
    shape: tuple[int, int]
    spec: QuantSpec

    def __post_init__(self):
        self.codes.flags.writeable = False
        self.scales.flags.writeable = False
        if self.zero_points is not None:
            self.zero_points.flags.writeable = False


@dataclass(frozen=True)
class CalibrationHessian:
    """Symmetric PSD proxy Hessian accumulated from calibration activations."""

    matrix: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.matrix.flags.writeable = False


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (numpy's round is half-even)."""
    return np.trunc(x + np.copysign(0.5, x))


def _group_view(w: np.ndarray, group_size: int | None) -> np.ndarray:
    if w.ndim != 2 or w.shape[1] == 0:
        raise ShapeMismatchError(
            f"expected a (rows, cols) matrix with cols >= 1, got shape {w.shape}")
    rows, cols = w.shape
    g = cols if group_size is None else group_size
    if cols % g != 0:
        raise GroupDoesNotDivideError(f"group size {g} does not divide row length {cols}")
    return w.reshape(rows, cols // g, g)


# the smallest positive double, 2^-1074; every subnormal is a multiple of it
_MIN_SCALE = np.nextafter(0.0, 1.0)


def _range_params(mn, mx, first, spec: QuantSpec, ratio):
    """Per-group (scale, zero_point, lo, hi) from each group's min, max and
    first element; all five inputs broadcast against each other.

    The clip ratio shrinks both range ends toward the group midpoint
    (asymmetric) or shrinks max|w| (symmetric). Degenerate groups (one
    distinct value c) get an exact representation: lo == hi == c, and scale
    |c| with the zero point one code below, or scale 1 with code 0 when
    c == 0; either way the round trip is exact.

    A scale that underflows to 0 (the clipped range is below about
    levels * 2^-1074) is raised to 2^-1074. The values of such a group are
    subnormal multiples of it, so its codes are the values in units of
    2^-1074: symmetric groups round-trip exactly, and no 0/0 turns a code
    into NaN. Every other scale is unchanged. An asymmetric group whose
    range overflows float64 gets a non-finite scale (see ``_prepare``).
    """
    if spec.symmetric:
        amax = np.maximum(np.abs(mn), np.abs(mx)) * ratio
        qpos = (1 << (spec.bits - 1)) - 1
        degenerate = amax == 0.0
        scale = np.where(degenerate, 1.0, np.maximum(amax / qpos, _MIN_SCALE))
        zero = None
        lo = -amax
        hi = amax
    else:
        mid = 0.5 * (mn + mx)
        half = 0.5 * (mx - mn) * ratio
        lo = mid - half
        hi = mid + half
        levels = (1 << spec.bits) - 1
        degenerate = mx == mn
        scale = np.where(degenerate, 1.0, np.maximum((hi - lo) / levels, _MIN_SCALE))
        zero = np.clip(np.where(degenerate, 0.0, round_half_away(-lo / scale)),
                       spec.qmin, spec.qmax)
        if np.any(degenerate):
            # mid is c itself unless 2c overflows
            lo = np.where(degenerate, first, lo)
            hi = np.where(degenerate, first, hi)
            scale = np.where(degenerate, np.where(first == 0.0, 1.0, np.abs(first)), scale)
            zero = np.where(degenerate & (first < 0.0), 1.0, zero)
        zero = zero.astype(np.int64)
    return scale, zero, lo, hi


def _codes(x, spec: QuantSpec, scale, zero, lo, hi, out=None, half=None):
    """The quantizer arithmetic: each code minus its zero point, as a float.

    ``x`` is clamped to [lo, hi], divided by ``scale``, rounded half away
    from zero and clamped to [qmin - zero, qmax - zero]. The parameters
    broadcast against ``x`` (``zero`` is None for symmetric specs). The
    result goes to ``out`` (a new array by default; ``x`` itself works) and
    ``half`` is a scratch buffer of its shape. Codes are small integers,
    exact in float64, so the result plus ``zero`` is the stored code and the
    result times ``scale`` is the dequantized value, with the same bits as
    clamping the code to [qmin, qmax] and subtracting ``zero`` afterwards.

    Codes are monotone in x and x lies in [lo, hi], so a code clamp can bind
    only if the code of lo or hi falls outside it; it is skipped otherwise.
    A NaN code of lo or hi fails the test and keeps the clamp.
    """
    out = np.maximum(x, lo, out=out)
    np.minimum(out, hi, out=out)
    out /= scale
    half = np.copysign(0.5, out, out=half)
    out += half
    np.trunc(out, out=out)
    zf = 0.0 if zero is None else zero.astype(np.float64)
    qlo, qhi = spec.qmin - zf, spec.qmax - zf
    if not (round_half_away(lo / scale) >= qlo).all():
        np.maximum(out, qlo, out=out)
    if not (round_half_away(hi / scale) <= qhi).all():
        np.minimum(out, qhi, out=out)
    return out


_PAIRWISE_BLOCK = 128   # numpy's PW_BLOCKSIZE


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum ``x`` over its first axis in exactly the order ``np.sum`` adds a
    contiguous float64 row, so ``_pairwise_sum(a.T) == a.sum(axis=-1)``.

    Below 8 terms the row is added left to right. Up to 128 terms, 8
    accumulators take every 8th term, are combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the tail is added left to right.
    Above 128 the row splits at the multiple of 8 at or below its half and
    both halves recurse. ``np.sum`` adds the result to its initial 0.0, which
    turns an all -0.0 sum into +0.0. Each step adds whole slices, so every
    other axis is summed at once.
    """
    return 0.0 + _pairwise_rows(x)


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n < 8:
        res = np.zeros(x.shape[1:])
        for i in range(n):
            res += x[i]
        return res
    if n <= _PAIRWISE_BLOCK:
        m = n - n % 8
        r = x[:8].copy()
        for i in range(8, m, 8):
            r += x[i:i + 8]
        res = (r[0] + r[1]) + (r[2] + r[3])
        res += (r[4] + r[5]) + (r[6] + r[7])
        for i in range(m, n):
            res += x[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_rows(x[:n2]) + _pairwise_rows(x[n2:])


# ratios scored per pass, and values per work buffer: a chunk of ratios x a row
# tile x cols stays within 2^17 float64 (1 MiB), so both buffers fit in L2
_CHUNK = 8
_TILE_ELEMS = 1 << 17


def _clip_errors(grouped: np.ndarray, spec: QuantSpec,
                 ratios: np.ndarray) -> np.ndarray:
    """Squared round-trip error of every group at every clip ratio.

    ``grouped`` is (rows, n_groups, g) and ``ratios`` 1-D; the result is
    (len(ratios), rows, n_groups). ``grouped`` is copied to a C-contiguous
    array and transposed once to element-major (g, rows, n_groups). The
    ratios are scored k = min(8, len(ratios)) at a time in two
    (g, k, rows, n_groups) buffers: every elementwise pass runs a contiguous
    inner loop over rows x n_groups values, with the per-group clamp bounds,
    scale and zero point broadcast along the outer g axis, and the group sum
    adds contiguous slices.

    Contract: each error is bit-identical to quantizing that group with
    ``_codes``, dequantizing as ``(code - zero) * scale`` and summing the
    squared error with ``np.sum`` over the contiguous group: ``_codes`` is
    the quantizer arithmetic itself, and ``_pairwise_sum`` replays numpy's
    summation order.
    """
    rows, n_groups, g = grouped.shape
    k = min(_CHUNK, len(ratios))
    part = np.ascontiguousarray(grouped)
    elem = np.ascontiguousarray(part.transpose(2, 0, 1))[:, None]
    mn, mx, first = part.min(axis=2), part.max(axis=2), part[..., 0]
    x = np.empty((g, k, rows, n_groups))
    half = np.empty_like(x)
    err = np.empty((len(ratios), rows, n_groups))
    for start in range(0, len(ratios), k):
        block = ratios[start:start + k]
        scale, zero, lo, hi = _range_params(mn, mx, first, spec, block[:, None, None])
        q = _codes(elem, spec, scale, zero, lo, hi,
                   out=x[:, :len(block)], half=half[:, :len(block)])
        q *= scale
        q -= elem
        np.square(q, out=q)
        err[start:start + len(block)] = _pairwise_sum(q)
    return err


def _search_ratios(grouped: np.ndarray, spec: QuantSpec, grid) -> np.ndarray:
    """Per-group MSE-minimizing clip ratio; ties broken toward the larger ratio.

    ``grouped`` is (rows, n_groups, g); the result is (rows, n_groups). The
    distinct grid ratios are scored in descending order by ``_clip_errors``
    on row tiles of ``max(1, 2**17 // (k * cols))`` rows, k = min(8,
    distinct ratios), so its two element-major (g, k, tile, n_groups) work
    buffers hold at most 2^17 values each. Every error is bit-identical to
    the per-group round trip summed by ``np.sum`` (see ``_clip_errors``), so
    the result does not depend on the tiling or on the memory layout of
    ``grouped``. Each group takes the first ratio reaching its smallest
    error. A NaN error is never chosen, and a group whose every error is NaN
    or inf gets ratio 1.0.
    """
    rows, n_groups, g = grouped.shape
    ratios = np.asarray(sorted(set(grid), reverse=True), dtype=np.float64)
    tile = max(1, _TILE_ELEMS // (min(_CHUNK, len(ratios)) * n_groups * g))
    best = np.empty((rows, n_groups))
    for r0 in range(0, rows, tile):
        err = _clip_errors(grouped[r0:r0 + tile], spec, ratios)
        err[np.isnan(err)] = np.inf
        pick = err.argmin(axis=0)
        found = np.take_along_axis(err, pick[None], axis=0)[0] < np.inf
        best[r0:r0 + tile] = np.where(found, ratios[pick], 1.0)
    return best


def _prepare(w, spec: QuantSpec):
    """The prologue both quantizers share: ``w`` as float64, its
    (rows, n_groups, g) view, and the per-group (scale, zero, lo, hi), each
    (rows, n_groups, 1). NaN/inf weights, and an asymmetric group whose
    range overflows float64 (its scale is not finite), raise
    NonFiniteInputError.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NonFiniteInputError("weights contain NaN or inf")
    grouped = _group_view(w, spec.group_size)
    clip = spec.clip
    if clip.kind == CLIP_MSE:
        ratio = _search_ratios(grouped, spec, clip.grid)[..., None]
    else:
        ratio = clip.ratio if clip.kind == CLIP_RATIO else 1.0
    params = _range_params(grouped.min(axis=2, keepdims=True),
                           grouped.max(axis=2, keepdims=True), grouped[..., :1],
                           spec, ratio)
    if not np.isfinite(params[0]).all():
        raise NonFiniteInputError("a group's range overflows float64")
    return w, grouped, params


def _encode(w, q, spec: QuantSpec, scale, zero) -> QuantizedTensor:
    """``w`` quantized, from the ``_codes`` output ``q`` on its group view:
    the zero point added back and the codes cast to int64."""
    codes = (q if zero is None else q + zero).astype(np.int64)
    return QuantizedTensor(codes=codes.reshape(w.shape), scales=scale[..., 0],
                           zero_points=None if zero is None else zero[..., 0],
                           shape=w.shape, spec=spec)


def rtn_quantize(w: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    """Round-to-nearest group quantization of a (rows, cols) matrix."""
    w, grouped, (scale, zero, lo, hi) = _prepare(w, spec)
    return _encode(w, _codes(grouped, spec, scale, zero, lo, hi), spec, scale, zero)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct floats: (code - zero_point) * scale per element."""
    codes = _group_view(q.codes, q.spec.group_size).astype(np.float64)
    if q.zero_points is not None:
        codes -= q.zero_points[..., None]
    return (codes * q.scales[..., None]).reshape(q.shape)


def hessian_from_calibration(x: np.ndarray) -> CalibrationHessian:
    """Proxy Hessian 2 X^T X / samples from a (samples, d) activation matrix."""
    # a C-contiguous x makes x.T @ x one symmetric rank-k product, exactly
    # symmetric; a strided view would not
    x = np.atleast_2d(np.ascontiguousarray(x, dtype=np.float64))
    if x.shape[0] < 1 or x.size == 0:
        raise EmptyCalibrationError("calibration requires at least one sample")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("calibration activations contain NaN or inf")
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        h = x.T @ x
        h *= 2.0
        h /= x.shape[0]
    if not np.isfinite(h).all():
        raise NonFiniteInputError("calibration Hessian overflows the float64 range")
    return CalibrationHessian(matrix=h, sample_count=x.shape[0])


# GPTQ's Hessian dampening, as a fraction of the mean diagonal
_DAMP = 0.01
# columns per lazy batch of the GPTQ sweep
_BLOCK = 128


def gptq_quantize(w: np.ndarray, hessian: CalibrationHessian,
                  spec: QuantSpec) -> QuantizedTensor:
    """Column-by-column quantization with Hessian-weighted error feedback.

    Per-group scales and zero-points are fixed up front from the (clipped)
    original weights; the left-to-right column sweep then propagates each
    column's rounding residual into the not-yet-quantized columns through the
    inverse-Hessian Cholesky factor. No activation reordering.

    The sweep runs in lazy batches of ``_BLOCK`` columns on a transposed
    (cols, rows) copy, so each column is a contiguous row. Inside a batch a
    column first takes the residuals of the batch's earlier columns in one
    product; after the batch, one matrix product feeds the batch's residuals
    into every later column. This is the rank-1 update after each column
    summed in another order, so the work values can differ in the last bits.

    At very low bit-widths the greedy sweep can occasionally lose to plain
    rounding once codes saturate the clamp range, so each row keeps whichever
    assignment (sweep or straight RTN, same scales) has the smaller proxy
    objective delta.T @ H @ delta. This guarantees the sweep never ends up
    worse than RTN under the proxy objective.

    A NaN or inf in the Hessian raises NonFiniteInputError; a Hessian that is
    not positive definite after dampening raises SingularHessianError.
    """
    w, grouped, (scale, zero, lo, hi) = _prepare(w, spec)
    rows, d = w.shape
    h = hessian.matrix
    if h.shape != (d, d):
        raise ShapeMismatchError(f"Hessian is {h.shape}, weights have {d} columns")
    if not np.isfinite(h).all():
        raise NonFiniteInputError("Hessian contains NaN or inf")
    g = grouped.shape[2]

    hd = h + _DAMP * np.mean(np.diag(h)) * np.eye(d)
    try:
        hinv = np.linalg.inv(hd)
        hinv = 0.5 * (hinv + hinv.T)
        u = np.linalg.cholesky(hinv).T  # upper triangular, hinv = u.T @ u
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError(
            f"Hessian is not positive definite after dampening: {exc}") from None
    del hd, hinv   # only u is read from here on

    # transposed: row j of work and sweep is column j, row gi of each parameter
    # array is group gi
    work = w.T.copy()
    col_scale, col_zero, col_lo, col_hi = (
        None if p is None else np.ascontiguousarray(p[..., 0].T)
        for p in (scale, zero, lo, hi))
    sweep = np.empty((d, rows))   # column j's codes minus zero points in row j
    half = np.empty(rows)
    for b0 in range(0, d, _BLOCK):
        b1 = min(b0 + _BLOCK, d)
        err = np.empty((b1 - b0, rows))
        for j in range(b0, b1):
            gi = j // g
            col = work[j] - u[b0:j, j] @ err[:j - b0]
            q = _codes(col, spec, col_scale[gi], None if zero is None else col_zero[gi],
                       col_lo[gi], col_hi[gi], out=sweep[j], half=half)
            err[j - b0] = (col - q * col_scale[gi]) / u[j, j]
        work[b1:] -= u[b0:b1, b1:].T @ err
    del work, err, u   # the RTN guard below is the call's memory peak

    sweep = _group_view(sweep.T, spec.group_size)
    rtn = _codes(grouped, spec, scale, zero, lo, hi)

    def objective(q):
        delta = w - (q * scale).reshape(rows, d)
        return ((delta @ h) * delta).sum(1)

    keep_rtn = objective(rtn) < objective(sweep)
    sweep[keep_rtn] = rtn[keep_rtn]
    return _encode(w, sweep, spec, scale, zero)


METRIC_MSE = "mse"
METRIC_MAX_ABS = "max_abs"
METRIC_PROXY = "proxy"


def quant_error(w: np.ndarray, w_hat: np.ndarray, metric: str = METRIC_MSE,
                hessian: CalibrationHessian | None = None) -> float:
    """Elementwise error metrics between a matrix and its reconstruction."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape or w.size == 0:
        raise ShapeMismatchError(f"need equal non-empty shapes: {w.shape} vs {w_hat.shape}")
    delta = w - w_hat
    if metric == METRIC_MSE:
        return float(np.mean(delta ** 2))
    if metric == METRIC_MAX_ABS:
        return float(np.max(np.abs(delta)))
    if metric == METRIC_PROXY:
        if hessian is None:
            raise InvalidSpecError("proxy metric requires a Hessian")
        return float(np.trace(delta @ hessian.matrix @ delta.T))
    raise InvalidSpecError(f"unknown metric {metric!r}")
