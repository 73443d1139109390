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
    spec: QuantSpec

    def __post_init__(self):
        self.codes.flags.writeable = False
        self.scales.flags.writeable = False
        if self.zero_points is not None:
            self.zero_points.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape


class CalibrationHessian:
    """Symmetric PSD proxy Hessian H = 2 X^T X / N of N calibration samples X.

    It takes one of two forms. Given ``matrix``, it is that d x d matrix.
    Given ``samples``, the (N, d) array X, it keeps X and builds ``matrix``
    from it on the first read, once; ``samples`` is None in the matrix
    form. Both arrays are read-only.
    """

    def __init__(self, matrix: np.ndarray | None = None, samples: np.ndarray | None = None):
        if (matrix is None) == (samples is None):
            raise InvalidSpecError("a Hessian is given by its matrix or by its samples")
        for a in (matrix, samples):
            if a is not None:
                a.flags.writeable = False
        self._matrix = matrix
        self.samples = samples

    @property
    def sample_count(self) -> int | None:
        """N of the sample form; None for a matrix."""
        return None if self.samples is None else self.samples.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        """The matrix's shape, without building it."""
        return self._matrix.shape if self.samples is None else (self.samples.shape[1],) * 2

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _gram(self.samples)
            self._matrix.flags.writeable = False
        return self._matrix


def round_half_away(x: np.ndarray, out=None) -> np.ndarray:
    """Round half away from zero (numpy's round is half-even); ``out`` may be ``x``."""
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


def _group_length(cols: int, group_size: int | None) -> int:
    """The length of the groups of a row of ``cols`` values; a group size
    that does not divide the row raises GroupDoesNotDivideError."""
    g = cols if group_size is None else group_size
    if cols % g != 0:
        raise GroupDoesNotDivideError(f"group size {g} does not divide row length {cols}")
    return g


def _group_view(w: np.ndarray, group_size: int | None) -> np.ndarray:
    if w.ndim != 2 or w.shape[1] == 0:
        raise ShapeMismatchError(
            f"expected a (rows, cols) matrix with cols >= 1, got shape {w.shape}")
    rows, cols = w.shape
    g = _group_length(cols, group_size)
    return w.reshape(rows, cols // g, g)


# the smallest positive double, 2^-1074; every subnormal is a multiple of it
_MIN_SCALE = np.nextafter(0.0, 1.0)


def _clip_params(mn, mx, spec: QuantSpec, ratio):
    """``_range_params`` before its degenerate-group fix-ups, as new arrays
    from arrays ``mn`` and ``mx``.

    The clip range [lo, hi] never leaves this function: each end's code,
    round_half_away(end / scale), is clamped to [qmin - zero, qmax - zero]
    in its own buffer. The code of lo is the zero point's own rounding, since
    round_half_away is odd: zero, a float, is minus it clamped to [qmin,
    qmax]. When symmetric, lo is -hi, so the code of lo is minus that of hi,
    and zero is None. An asymmetric group of one value (mx == mn) gets scale
    1.0, and a group with a nonzero range too small for a normal scale
    2^-1074.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # checked by _prepare
        if spec.symmetric:
            b = np.maximum(np.abs(mn), np.abs(mx)) * ratio
            scale = b / ((1 << (spec.bits - 1)) - 1)
            np.maximum(scale, _MIN_SCALE, out=scale)
            b /= scale
            round_half_away(b, out=b)
            a = np.negative(b)   # b >= 0, so one clamp each
            np.maximum(a, spec.qmin, out=a)
            return scale, None, a, np.minimum(b, spec.qmax, out=b)
        mid = 0.5 * (mn + mx)
        b = 0.5 * (mx - mn) * ratio   # half the clipped range
        a = mid - b
        b += mid
        del mid
        scale = b - a
        scale /= (1 << spec.bits) - 1
        np.maximum(scale, _MIN_SCALE, out=scale)
        one_value = mx == mn
        if one_value.any():
            # _range_params replaces such a group's parameters and stage 1
            # does not estimate it; scale 1 spares the divisions below a
            # subnormal divisor, about ten times slower than a normal one
            np.copyto(scale, 1.0, where=one_value)
        a /= scale
        round_half_away(a, out=a)
        zero = np.negative(a)
        np.minimum(np.maximum(zero, spec.qmin, out=zero), spec.qmax, out=zero)
        b /= scale
        round_half_away(b, out=b)
        bound = np.subtract(spec.qmin, zero)   # qmin - zero, then qmax - zero
        np.maximum(a, bound, out=a)
        np.maximum(b, bound, out=b)
        bound += spec.qmax - spec.qmin
        np.minimum(a, bound, out=a)
        np.minimum(b, bound, out=b)
    return scale, zero, a, b


def _range_params(mn, mx, first, spec: QuantSpec, ratio):
    """Per-group (scale, zero_point, a, b), the zero point a float, from each
    group's min, max and first element; all five inputs broadcast together.
    a and b are the codes minus zero points of the clip range's ends, the
    bounds of ``_codes``.

    The clip ratio shrinks both range ends toward the group midpoint
    (asymmetric) or shrinks max|w| (symmetric). Degenerate groups (one
    distinct value c) get an exact representation: scale |c| with the zero
    point one code below, or scale 1 with code 0 when c == 0, and a == b ==
    the code of c; either way the round trip is exact.

    A scale that underflows to 0 (the clipped range is below about
    levels * 2^-1074) is raised to 2^-1074. The values of such a group are
    subnormal multiples of it, so its codes are the values in units of
    2^-1074: symmetric groups round-trip exactly, and no 0/0 turns a code
    into NaN. Every other scale is unchanged. An asymmetric group whose
    range overflows float64 gets a non-finite scale, without a warning
    (``_prepare`` rejects it).
    """
    scale, zero, a, b = _clip_params(mn, mx, spec, ratio)
    # symmetric: all zero, or a clipped max|w| that underflows; any other
    # clipped max is at least 2^-1074 and at least its scale, so b >= 1
    degenerate = (b == 0.0) if spec.symmetric else (mx == mn)
    if np.any(degenerate):
        if spec.symmetric:   # a and b are already 0
            scale = np.where(degenerate, 1.0, scale)
        else:   # the code of c is its sign
            scale = np.where(degenerate, np.where(first == 0.0, 1.0, np.abs(first)), scale)
            zero = np.where(degenerate, np.where(first < 0.0, 1.0, 0.0), zero)
            a = np.where(degenerate, np.sign(first), a)
            b = np.where(degenerate, np.sign(first), b)
    return scale, zero, a, b


def _codes(x, scale, a, b, out=None, half=None):
    """The quantizer arithmetic: each code minus its zero point, as a float.

    ``x`` is divided by ``scale``, rounded half away from zero and clamped
    to [a, b], the codes minus zero points of the clip range's ends that
    ``_range_params`` gives. Dividing and rounding are monotone, so this is
    clamping ``x`` to the clip range first and the code to [qmin, qmax]
    after, value for value. The parameters broadcast against ``x``. The
    result goes to ``out`` (a new array by default; ``x`` itself works) and
    ``half`` is a scratch buffer of its shape. Codes are small integers,
    exact in float64, so the result plus the zero point is the stored code
    and the result times ``scale`` is the dequantized value.
    """
    out = np.divide(x, scale, out=out)
    half = np.copysign(0.5, out, out=half)
    out += half
    np.trunc(out, out=out)
    np.maximum(out, a, out=out)
    return np.minimum(out, b, out=out)


# ratios per stage-1 pass, and values per work buffer: a pass over a chunk of
# ratios x a row tile x cols, and an exact scoring call, stay within 2^17 values
_CHUNK = 8
_TILE_ELEMS = 1 << 17
# (group, ratio) pairs per stage-1 row tile: stage 1 keeps several float64
# arrays of one value per pair, and this holds them near the size of one toy
# block weight's (256 or 512 groups of 16 at 51 ratios), however many groups
# a stacked call brings
_TILE_PAIRS = 1 << 14


def _clip_errors(grouped: np.ndarray, spec: QuantSpec,
                 ratios: np.ndarray) -> np.ndarray:
    """Squared round-trip error of groups at clip ratios.

    ``grouped`` is (rows, n_groups, g), and ``ratios`` broadcasts against
    (rows, n_groups): (K, 1, 1) scores every group at K ratios, and one
    ratio per group scores each group once. The result has that broadcast
    shape. The work runs group-major: each group's values stay contiguous,
    with its scale and code bounds broadcast along them.

    Contract: each error is bit-identical to quantizing that group with
    ``_codes``, dequantizing as ``(code - zero) * scale`` and summing the
    squared error with ``np.sum`` over the contiguous group: ``_codes`` is
    the quantizer arithmetic itself, and the sum runs along each group's
    contiguous row. A group whose parameters are not finite (its range
    overflows float64) scores NaN, and one whose squares overflow scores
    inf, without a warning: the search never picks either.
    """
    part = np.ascontiguousarray(grouped)
    mn, mx, first = part.min(axis=2), part.max(axis=2), part[..., 0]
    scale, _, a, b = _range_params(mn, mx, first, spec, ratios)
    scale, a, b = scale[..., None], a[..., None], b[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        q = _codes(part, scale, a, b, out=np.empty(scale.shape[:-1] + part.shape[-1:]))
        q *= scale
        q -= part
        np.square(q, out=q)
    return q.sum(axis=-1)


# Stage 1 of the clip search trusts a group whose largest magnitude lies in
# [2^-_WINDOW_EXP, 2^_WINDOW_EXP] and is at most _MAX_T scales at every ratio;
# _ROOT_REL bounds the relative error of a float32 t = x / scale (_estimate_roots)
_WINDOW_EXP = 400
_MAX_T = 2.0 ** 48
_U32 = 2.0 ** -24   # float32 unit roundoff
_ROOT_REL = 8 * _U32


def _estimate_roots(part: np.ndarray, spec: QuantSpec, ratios: np.ndarray):
    """Stage 1 of the clip search: a float32 estimate ``root`` of the square
    root of every error ``_clip_errors`` gives, and ``beta``, such that
    |root - sqrt(exact)| <= (g + 2) u root + beta, u = 2^-24. ``part`` is
    (rows, n_groups, g) and ``ratios`` 1-D; ``root`` is (len(ratios), rows,
    n_groups) and ``beta`` (rows, n_groups), inf for an untrusted group.
    An asymmetric group of one value has exact error 0 at every ratio, since
    ``_range_params`` represents it exactly: its root and beta are 0.

    Method. ``_clip_params`` gives each pair's scale and the code bounds a
    and b of ``_codes``, cast to float32 (they are small integers). Each
    group, scaled by 2^-e with 2^(e-1) <= max|x| < 2^e, is cast to float32
    once; per ratio, six float32 passes give t = y * float32(2^e / scale)
    (y the scaled x), c = clip(rint(t), a, b) and the group's sum S of
    (c - t)^2. The estimate is scale * sqrt(S).

    Bound. With T = x / scale exactly, the exact code is a nearest integer
    to T in [a, b] (dividing and rounding half away are monotone), and c is
    one to t (both codes of a half are equally far). So sqrt(exact) =
    scale |d(T)| and (c - t)^2 = d(t)^2, d the distance to the nearest
    integer in [a, b] and |.| the norm over the group. d is 1-Lipschitz, so
    |d(t)| and |d(T)| differ by at most |t - T| <= 3u |T| = 3u sqrt(Q) /
    scale, Q the group's sum of squares: three float32 roundings make t. S,
    a float32 sum of g rounded squares of rounded differences, is within
    (g + 2) u relative, its root within (g + 2) u / 2. Hence beta =
    _ROOT_REL sqrt(Q). Both terms of the bound are at least twice their
    first-order error; the rest covers second-order terms, float64 rounding
    and float32 underflow (below 2^-149 per term, while |T| >= 1).

    Trust is per group: max|x| in the window (the exact error, estimate and
    bound stay finite) and max|x| <= _MAX_T scale at the smallest ratio,
    whose scale is the smallest (t and S stay far from float32 overflow).
    That holds for a symmetric group of one value too: the symmetric fix-up
    of ``_range_params`` fires only when the clipped max is 0, which the
    second condition rules out, so its parameters are these. Only a tile
    with a group that is untrusted, or asymmetric with one value, runs the
    passes on stand-ins for it.
    """
    rows, n_groups, g = part.shape
    y = part.transpose(2, 0, 1).copy()   # element-major, scaled in place below
    mn, mx = y.min(axis=0), y.max(axis=0)
    amax = np.maximum(np.abs(mn), np.abs(mx))
    e = np.frexp(amax)[1]
    np.ldexp(y, -e, out=y)
    k = min(_CHUNK, len(ratios))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # not trusted
        scale, zero, a, b = _clip_params(mn, mx, spec, ratios[:, None, None])
        del zero
        a = a.astype(np.float32)
        b = b.astype(np.float32)
        exact = (mx == mn) & (not spec.symmetric)
        trusted = (~exact & (amax >= 2.0 ** -_WINDOW_EXP) & (amax <= 2.0 ** _WINDOW_EXP)
                   & (amax <= _MAX_T * scale[ratios.argmin()]))
        root_q = np.ldexp(np.sqrt(np.einsum("g...,g...->...", y, y)), e)
        beta = np.where(trusted, _ROOT_REL * root_q, np.where(exact, 0.0, np.inf))
        inv = np.empty(scale.shape, dtype=np.float32)
        np.divide(1.0, np.ldexp(scale, -e), out=inv)
        if not trusted.all():
            a[:, ~trusted] = b[:, ~trusted] = scale[:, ~trusted] = 0.0
            inv[:, ~trusted] = 1.0
    y32 = np.repeat(y[:, None].astype(np.float32), k, axis=1)   # so no pass broadcasts it
    t, c = np.empty_like(y32), np.empty_like(y32)
    root = np.empty((len(ratios), rows, n_groups))
    for start in range(0, len(ratios), k):
        n = min(k, len(ratios) - start)
        tc, cc = t[:, :n], c[:, :n]
        np.multiply(y32[:, :n], inv[start:start + n], out=tc)
        np.rint(tc, out=cc)
        np.maximum(cc, a[start:start + n], out=cc)
        np.minimum(cc, b[start:start + n], out=cc)
        cc -= tc
        root[start:start + n] = np.einsum("g...,g...->...", cc, cc)
    np.multiply(np.sqrt(root, out=root), scale, out=root)
    return root, beta


def _contending_errors(grouped: np.ndarray, spec: QuantSpec, ratios: np.ndarray, tile: int):
    """Stage 2 of the clip search, from stage 1 on tiles of ``tile`` rows:
    each group's first contender (an index), the groups to score, and their
    error rows in order, ``_clip_errors`` for each contender (2^17 values a
    call at most) and inf for the other ratios.

    A ratio contends iff root (1 - alpha) <= (1 + alpha) min(root) + 2 beta,
    alpha = (g + 2) u: its estimate minus bound is at most the group's least
    estimate plus bound. Its float64 roundings, 2^-53 relative to root or
    beta, lie far inside the bound's factor-two margin (alpha root / 2 +
    beta / 2 a side), and rounding is monotone, so the least product is that
    of the least root. A group with one contender and a finite beta takes
    it: every other ratio's error exceeds its estimate plus bound. A group
    with beta 0 takes its first ratio: its error is 0 at every ratio.
    """
    rows, n_groups, g = grouped.shape
    alpha = (g + 2) * _U32
    first = np.empty((rows, n_groups), dtype=np.intp)
    undecided = np.empty((rows, n_groups), dtype=bool)
    contenders = []
    for r0 in range(0, rows, tile):
        root, beta = _estimate_roots(grouped[r0:r0 + tile], spec, ratios)
        contend = root * (1.0 - alpha) <= root.min(axis=0) * (1.0 + alpha) + 2.0 * beta
        scored = ((contend.sum(axis=0) > 1) & (beta > 0.0)) | (beta == np.inf)
        first[r0:r0 + tile], undecided[r0:r0 + tile] = contend.argmax(axis=0), scored
        contenders.append(contend[:, scored])
    which, group = np.nonzero(np.concatenate(contenders, axis=1))
    row, col = np.nonzero(undecided)
    exact = np.empty(len(which))
    step = max(1, _TILE_ELEMS // g)
    for p in range(0, len(which), step):
        sel = group[p:p + step]
        exact[p:p + step] = _clip_errors(grouped[row[sel], col[sel]][None], spec,
                                         ratios[which[p:p + step]])[0]
    err = np.full((len(row), len(ratios)), np.inf)
    err[group, which] = exact
    return first, undecided, err


def _first_minimum(err: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """The first ratio reaching each error row's smallest error (ratios on
    the last axis), NaN never; 1.0 for a row of NaN and inf only."""
    err[np.isnan(err)] = np.inf
    return np.where(np.isfinite(err).any(axis=-1), ratios[err.argmin(axis=-1)], 1.0)


def _search_ratios(grouped: np.ndarray, spec: QuantSpec, grid) -> np.ndarray:
    """Per-group MSE-minimizing clip ratio; ties broken toward the larger ratio.

    ``grouped`` is (rows, n_groups, g); the result is (rows, n_groups). Each
    group takes the first of the distinct grid ratios, in descending order,
    that reaches its smallest error as ``_clip_errors`` computes it. A NaN
    error is never chosen, and a group whose every error is NaN or inf (its
    squared errors overflow float64) gets ratio 1.0.

    Row tiles of ``max(1, 2**17 // (n_groups * k * g))`` rows, k = min(8, K)
    for K distinct ratios, and at most 2^14 // (n_groups * K), keep stage 1's
    work buffers within 2^17 values and its per-pair arrays within 2^14
    pairs. Stage 1 (``_estimate_roots``) bounds every error's root, and
    stage 2 (``_contending_errors``) scores only the contenders of groups
    with two or more: every ratio reaching the smallest exact error
    contends. Exact errors have the bits of the per-group round trip summed
    by ``np.sum``, so the result depends neither on the tiling nor on the
    layout.
    """
    n_groups, g = grouped.shape[1:]
    ratios = np.asarray(sorted(set(grid), reverse=True), dtype=np.float64)
    tile = min(_TILE_ELEMS // (n_groups * min(_CHUNK, len(ratios)) * g),
               _TILE_PAIRS // (n_groups * len(ratios)))
    first, undecided, err = _contending_errors(grouped, spec, ratios, max(1, tile))
    best = ratios[first]
    best[undecided] = _first_minimum(err, ratios)
    return best


def _prepare(w, spec: QuantSpec):
    """The prologue both quantizers share: ``w`` as float64, its
    (rows, n_groups, g) view, and the per-group (scale, zero, a, b) of
    ``_range_params``, each (rows, n_groups, 1). NaN/inf weights, and an
    asymmetric group whose range overflows float64 (its scale is not
    finite), raise NonFiniteInputError.
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


def _encode(w, q, scale, zero, spec: QuantSpec) -> QuantizedTensor:
    """``w`` quantized, from a code step's output: the zero point added back
    to the ``_codes`` output ``q`` and the codes cast to int64."""
    codes = (q if zero is None else q + zero).astype(np.int64)
    return QuantizedTensor(codes=codes.reshape(w.shape), scales=scale[..., 0],
                           zero_points=None if zero is None else zero[..., 0].astype(np.int64),
                           spec=spec)


def _rtn_codes(w, spec: QuantSpec, consume: bool = False):
    """The code step of RTN: (``w`` as float64, the ``_codes`` output on its
    group view, scale, zero). With ``consume`` the codes overwrite the group
    view, which is ``w``'s own memory when ``w`` is a C-contiguous float64
    array."""
    w, grouped, (scale, zero, a, b) = _prepare(w, spec)
    q = _codes(grouped, scale, a, b, out=grouped if consume else None)
    return w, q, scale, zero


def rtn_quantize(w: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    """Round-to-nearest group quantization of a (rows, cols) matrix."""
    return _encode(*_rtn_codes(w, spec), spec)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct floats: (code - zero_point) * scale per element."""
    codes = _group_view(q.codes, q.spec.group_size).astype(np.float64)
    if q.zero_points is not None:
        codes -= q.zero_points[..., None]
    return (codes * q.scales[..., None]).reshape(q.shape)


def _round_trip(w, spec: QuantSpec, hessian: CalibrationHessian | None = None) -> np.ndarray:
    """The values of ``dequantize(rtn_quantize(w, spec))``, or with a Hessian
    of ``dequantize(gptq_quantize(w, hessian, spec))``, as code x scale
    straight from the code step; C-contiguous for a C-contiguous ``w``.

    The ``_codes`` output is the code minus its zero point, an exact small
    integer, so its product with the scale is what ``dequantize`` computes
    from the stored codes, value for value. A zero code of a negative value
    is -0.0 here, where ``dequantize`` gives +0.0, unless the clamp to
    [a, b] meets a bound that is zero: on a tie numpy's maximum and minimum
    return the second operand, the bound. Equal values give equal
    differences, squares and products downstream. RTN writes its
    codes, and then the result, over a C-contiguous float64 ``w``: the
    caller passes an array it owns and reads ``w`` no more.
    """
    if hessian is None:
        w, q, scale, _ = _rtn_codes(w, spec, consume=True)
    else:
        w, q, scale, _ = _gptq_codes(w, hessian, spec)
    q *= scale
    return q.reshape(w.shape)


# From this order, a Hessian of fewer samples than columns keeps its samples
# and builds no d x d matrix. At d = 4096 and 256 samples (2 vCPUs, OpenBLAS
# 0.3.31) that is 5 ms instead of 196 ms, and a proxy of 128 rows takes 5 ms
# instead of 35 ms. Below it the Hessian is its matrix, so the proxy keeps the
# bits of the dense form at n = 512.
_SAMPLES_MIN_ORDER = 1024


def _gram(x: np.ndarray) -> np.ndarray:
    """2 x^T x / samples of a C-contiguous float64 x; a result that is not
    finite raises NonFiniteInputError."""
    # x.T @ x of a C-contiguous x is one symmetric rank-k product, exactly
    # symmetric; a strided view would not be
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        h = x.T @ x
        h *= 2.0
        h /= x.shape[0]
    if not np.isfinite(h).all():
        raise NonFiniteInputError("calibration Hessian overflows the float64 range")
    return h


def hessian_from_calibration(x: np.ndarray) -> CalibrationHessian:
    """Proxy Hessian 2 X^T X / samples from a (samples, d) activation matrix.

    From d = ``_SAMPLES_MIN_ORDER`` with fewer samples than columns, the
    Hessian keeps a copy of the samples and builds no matrix; otherwise it
    is the d x d matrix. Either way a Hessian that would overflow float64
    raises NonFiniteInputError: the sample form checks its diagonal, the
    column sums of squares, which bound every entry.
    """
    given = x
    x = np.atleast_2d(np.ascontiguousarray(x, dtype=np.float64))
    if x.shape[0] < 1 or x.size == 0:
        raise EmptyCalibrationError("calibration requires at least one sample")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("calibration activations contain NaN or inf")
    samples, d = x.shape
    if samples >= d or d < _SAMPLES_MIN_ORDER:
        return CalibrationHessian(matrix=_gram(x))
    with np.errstate(over="ignore"):   # checked below
        diag = np.einsum("ij,ij->j", x, x) * 2.0
    if not np.isfinite(diag).all():
        raise NonFiniteInputError("calibration Hessian overflows the float64 range")
    return CalibrationHessian(samples=x.copy() if np.may_share_memory(x, given) else x)


def _require_width(hessian: CalibrationHessian, d: int) -> None:
    if hessian.shape != (d, d):
        raise ShapeMismatchError(f"Hessian is {hessian.shape}, weights have {d} columns")


# GPTQ's Hessian dampening, as a fraction of the mean diagonal
_DAMP = 0.01
# columns per lazy batch of the GPTQ sweep
_BLOCK = 128
# _upper_inverse inverts blocks up to this order with np.linalg.inv, and splits
# larger ones at a multiple of it
_INV_BLOCK = 64


def _upper_inverse(u: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix, as a new C-contiguous array.

    By blocks, [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]: the
    split is at the multiple of ``_INV_BLOCK`` at or below half the order (at
    least ``_INV_BLOCK``), both diagonal blocks recurse, and the off-diagonal
    block takes two matrix products. Blocks up to ``_INV_BLOCK`` go to
    ``np.linalg.inv``. At d = 512 (2 vCPUs, OpenBLAS 0.3.31) that takes
    1.7 ms, where ``np.linalg.inv`` of the whole matrix takes 8.1 ms, with
    the same accuracy.
    """
    n = u.shape[0]
    if n <= _INV_BLOCK:
        return np.linalg.inv(u)
    m = max(_INV_BLOCK, n // 2 - n // 2 % _INV_BLOCK)
    a, c = _upper_inverse(u[:m, :m]), _upper_inverse(u[m:, m:])
    out = np.zeros((n, n))
    out[:m, :m] = a
    out[m:, m:] = c
    out[:m, m:] = -(a @ u[:m, m:]) @ c
    return out


def gptq_quantize(w: np.ndarray, hessian: CalibrationHessian,
                  spec: QuantSpec) -> QuantizedTensor:
    """Column-by-column quantization with Hessian-weighted error feedback.

    Per-group scales and zero-points are fixed up front from the (clipped)
    original weights; the left-to-right column sweep then propagates each
    column's rounding residual into the not-yet-quantized columns through the
    inverse-Hessian Cholesky factor. No activation reordering.

    The factor is U with hd^-1 = U^T U, hd the dampened Hessian: one Cholesky
    of hd with its rows and columns reversed gives a lower-triangular L, and
    U is the inverse of L reversed, which is upper triangular, from
    ``_upper_inverse``. Each column reads its group's scale and code bounds
    from transposed copies made before the sweep.

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

    A Hessian of another width raises ShapeMismatchError, and a NaN or inf
    in it NonFiniteInputError, before any work on the weights. A guard
    objective that is not finite (it overflows float64) raises
    NonFiniteInputError; a Hessian that is not positive definite after
    dampening raises SingularHessianError.
    """
    return _encode(*_gptq_codes(w, hessian, spec), spec)


def _gptq_codes(w, hessian: CalibrationHessian, spec: QuantSpec):
    """The code step of ``gptq_quantize``: (``w`` as float64, the codes minus
    zero points on the group view of a new array, C-contiguous for a
    C-contiguous ``w``, scale, zero)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 2:   # _prepare rejects any other shape
        _require_width(hessian, w.shape[1])
    h = hessian.matrix
    if not np.isfinite(h).all():
        raise NonFiniteInputError("Hessian contains NaN or inf")
    w, grouped, (scale, zero, a, b) = _prepare(w, spec)
    rows, d = w.shape
    g = grouped.shape[2]

    # the dampened Hessian hd, reversed as J hd J (J the exchange matrix), in one buffer
    hd = h[::-1, ::-1].copy()
    hd.flat[::d + 1] += _DAMP * np.mean(np.diag(h))
    try:
        # J hd J = L L^T, so hd^-1 = U^T U with U = (J L J)^-1 upper triangular
        low = np.linalg.cholesky(hd)
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError(
            f"Hessian is not positive definite after dampening: {exc}") from None
    del hd
    u = _upper_inverse(low[::-1, ::-1])
    del low   # only u is read from here on
    diag = np.diag(u).tolist()

    # transposed: row j of work and sweep is column j, row gi of each parameter
    # array is group gi
    work = w.T.copy()
    col_scale, col_a, col_b = (np.ascontiguousarray(p[..., 0].T) for p in (scale, a, b))
    sweep = np.empty((d, rows))   # column j's codes minus zero points in row j
    half = np.empty(rows)
    for b0 in range(0, d, _BLOCK):
        b1 = min(b0 + _BLOCK, d)
        err = np.empty((b1 - b0, rows))
        for j in range(b0, b1):
            gi = j // g
            # the first column of a batch takes no product: x - 0.0 is x
            col = work[j] if j == b0 else work[j] - u[b0:j, j] @ err[:j - b0]
            q = _codes(col, col_scale[gi], col_a[gi], col_b[gi], out=sweep[j], half=half)
            e = np.multiply(q, col_scale[gi], out=err[j - b0])
            np.subtract(col, e, out=e)
            e /= diag[j]
        work[b1:] -= u[b0:b1, b1:].T @ err
    del work, err, u   # the RTN guard below is the call's memory peak

    sweep = _group_view(sweep.T, spec.group_size)
    rtn = _codes(grouped, scale, a, b)

    def objective(q):
        delta = w - (q * scale).reshape(rows, d)
        return ((delta @ h) * delta).sum(1)

    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        obj_rtn, obj_sweep = objective(rtn), objective(sweep)
    if not (np.isfinite(obj_rtn).all() and np.isfinite(obj_sweep).all()):
        raise NonFiniteInputError("the guard's proxy objective is not finite")
    # rtn has the layout of w, sweep the transposed one: the rows the sweep wins go into rtn
    np.copyto(rtn, sweep, where=(obj_rtn >= obj_sweep)[:, None, None])
    return w, rtn, scale, zero


METRIC_MSE = "mse"
METRIC_MAX_ABS = "max_abs"
METRIC_PROXY = "proxy"


def _errors(delta: np.ndarray, metrics, hessian: CalibrationHessian | None = None) -> dict:
    """The error metrics of one difference ``delta`` = w - w_hat, by name.

    The proxy is trace(delta H delta^T). A Hessian in the sample form gives
    it as 2 |delta X^T|^2 / N, at rows x d x N flops instead of rows x d^2,
    and rounds differently, by about 1e-15 relative. max_abs reads delta's
    largest and smallest values. The mse runs last and squares ``delta`` in
    place, so the caller reads ``delta`` no more. A value that is not finite
    raises NonFiniteInputError, checked in the order of ``metrics``.
    """
    err = {}
    for metric in metrics:
        if metric not in (METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY):
            raise InvalidSpecError(f"unknown metric {metric!r}")
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        if METRIC_PROXY in metrics:
            if hessian is None:
                raise InvalidSpecError("proxy metric requires a Hessian")
            _require_width(hessian, delta.shape[-1])
            if hessian.samples is None:
                err[METRIC_PROXY] = np.trace(delta @ hessian.matrix @ delta.T)
            else:
                p = delta @ hessian.samples.T
                err[METRIC_PROXY] = 2.0 * np.vdot(p, p) / hessian.sample_count
        if METRIC_MAX_ABS in metrics:
            # abs: the larger of two zeros may be -0.0
            err[METRIC_MAX_ABS] = abs(max(delta.max(), -delta.min()))
        if METRIC_MSE in metrics:
            delta *= delta
            err[METRIC_MSE] = np.mean(delta)
    for metric in metrics:
        if not np.isfinite(err[metric]):
            raise NonFiniteInputError(f"the {metric} error is not finite")
    return {metric: float(err[metric]) for metric in metrics}


def quant_error(w: np.ndarray, w_hat: np.ndarray, metric: str = METRIC_MSE,
                hessian: CalibrationHessian | None = None) -> float:
    """One error metric between a matrix and its reconstruction, from
    ``_errors``; a result that is not finite raises NonFiniteInputError."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape or w.size == 0:
        raise ShapeMismatchError(f"need equal non-empty shapes: {w.shape} vs {w_hat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):   # checked by _errors
        delta = w - w_hat
    return _errors(delta, (metric,), hessian)[metric]
