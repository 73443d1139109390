"""Construction of Hadamard, Walsh and grouped block-diagonal rotation matrices.

A library rotation is the value (kind, n, group, seed): its kind, its order,
the block order of a local kind and the seed of its column signs. Its entries
follow from those four, so nothing else is stored. One row generator builds
them on demand: row i, without its zeros, is Sylvester Hadamard row i % b of
the block order b (taken as the Kronecker product of rows of two small
factors, in Walsh order for gw and gsr) times the seed's column signs of its
block. ``blocks``, ``signs`` and ``dense`` come from it on each read, and
so do the sequencies of ``sequency_profile``, a tile of rows at a time, and
the block of ``RotationOperator``: the one place a rotation multiplies data,
as R = diag(B, ..., B) D, one b x b block repeated, then the column signs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupDoesNotDivideError,
    InvalidConfigError,
    NonPowerOfTwoError,
    NotHadamardError,
    OrderTooLargeError,
)

MAX_ORDER = 1 << 16

# The four rotations compared: global Hadamard, global Walsh, local Hadamard
# blocks and GSR (local Walsh blocks).
KINDS = ("gh", "gw", "lh", "gsr")
KIND_GH, KIND_GW, KIND_LH, KIND_GSR = KINDS

# Block bases of the local kinds: natural (Sylvester) or sequency-ascending row order.
BASE_HADAMARD, BASE_WALSH = "hadamard", "walsh"
BLOCK_BASES = {KIND_LH: BASE_HADAMARD, KIND_GSR: BASE_WALSH}   # of each local kind


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _require_power_of_two(n: int, what: str = "order") -> None:
    if not (_is_int(n) and is_power_of_two(n)):
        raise NonPowerOfTwoError(f"{what} must be a power of two, got {n!r}")


def _require_order(n, what: str) -> None:
    """``n`` is an int power of two in [2, MAX_ORDER]."""
    _require_power_of_two(n, what)
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"{what} {n} exceeds maximum {MAX_ORDER}")
    if n < 2:
        raise NonPowerOfTwoError(f"{what} must be at least 2, got {n}")


def _require_group_divides(g: int, n: int) -> None:
    if g < 1 or n % g != 0:
        raise GroupDoesNotDivideError(f"group size {g} is not a positive divisor of {n}")


@lru_cache(maxsize=None)
def _sylvester(n: int) -> np.ndarray:
    """The read-only int8 Sylvester Hadamard matrix of order n, built once by
    Kronecker doubling; only the factors of ``_factors`` are built this way,
    nine orders at most 256, so the cache stays under 90 KiB."""
    h = np.ones((1, 1), dtype=np.int8)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """H_a and H_c with H_n = H_a (x) H_c, a = 2^floor(log2(n)/2) and c = n/a."""
    a = 1 << ((n.bit_length() - 1) // 2)
    return _sylvester(a), _sylvester(n // a)


# Rows per tile of ``sequency_profile``: 2^20 int8 entries of the matrix
_TILE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class OrthoMatrix:
    """An orthogonal block-diagonal rotation: the value (kind, n, group, seed).

    ``kind`` is one of ``KINDS``; ``n`` is the order. ``group`` is the block
    order b of a local kind (lh, gsr) and None for a global kind (gh, gw),
    which is one block of order b = n. ``seed`` flips the column signs by the
    splitmix64 stream of that seed; None leaves them as constructed. The
    dense matrix is the block-diagonal of ``blocks * scale`` with
    ``scale = 1/sqrt(b)``. Every check of a rotation is made here.
    """

    kind: str
    n: int
    group: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfigError(
                f"rotation kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        _require_order(self.n, "order")
        local = self.kind in BLOCK_BASES   # gh and gw are one block of order n
        if (self.group is None) == local:
            raise InvalidConfigError(f"{self.kind} {'needs a' if local else 'takes no'} "
                                     f"group size, got {self.group!r}")
        if local:
            _require_order(self.group, "group size")
            _require_group_divides(self.group, self.n)
        if not (self.seed is None or _is_int(self.seed)):
            raise InvalidConfigError(f"seed must be an integer or None, got {self.seed!r}")

    @property
    def scale(self) -> float:
        return float(1.0 / np.sqrt(self.group or self.n))

    @property
    def group_size(self) -> int | None:
        """``group``, under the name the benchmark reads."""
        return self.group

    @property
    def block_kind(self) -> str | None:
        return BLOCK_BASES.get(self.kind)

    def _row_tiles(self, tile: int):
        """The rows of the matrix without their zeros, as int8 (rows, b) tiles of
        ``tile`` rows (a power of two): row i is row i % b of block i // b."""
        b = self.group or self.n
        ha, hc = _factors(b)
        c = len(hc)
        # row k of the block is Sylvester row perm[k]
        perm = walsh_permutation(b) if self.kind in (KIND_GW, KIND_GSR) else np.arange(b)
        d = None if self.seed is None else _splitmix64_signs(self.seed, self.n).reshape(-1, b)
        for lo in range(0, self.n, tile):
            hi = min(lo + tile, self.n)
            r = perm[np.arange(lo, hi) % b]
            rows = (ha[r // c, :, None] * hc[r % c, None, :]).reshape(hi - lo, b)
            if d is not None:   # the tile is whole blocks or a part of one
                view = rows.reshape(-1, min(hi - lo, b), b)
                view *= d[lo // b:(hi - 1) // b + 1, None]
            yield rows

    @property
    def blocks(self) -> np.ndarray:
        """The read-only (n/b, b, b) unnormalized int8 diagonal blocks, built on
        each read, never stored."""
        b = self.group or self.n
        out = next(self._row_tiles(self.n)).reshape(-1, b, b)
        out.flags.writeable = False
        return out

    @property
    def signs(self) -> np.ndarray:
        """The read-only n x n {-1, 0, +1} int8 matrix; a view for one block."""
        blocks = self.blocks
        k, b, _ = blocks.shape
        if k == 1:
            return blocks[0]
        out = np.zeros((k, b, k, b), dtype=np.int8)
        out[np.arange(k), :, np.arange(k), :] = blocks
        out.flags.writeable = False
        return out.reshape(self.n, self.n)

    def dense(self, dtype=np.float64) -> np.ndarray:
        return np.multiply(self.signs, dtype(self.scale), dtype=dtype)


# A block of at least this order is applied through its two Sylvester
# Kronecker factors, never built. Measured on a global kind (2 vCPUs, OpenBLAS
# 0.3.31): from n=1024 that is 3-8x faster than dgemm at 16-512 rows; at n=512
# dgemm is faster from 512 rows, and keeps the golden CSV digest's bits.
KRON_MIN_ORDER = 1024


class RotationOperator:
    """Right-multiplication by R = diag(B, ..., B) D: ``x @ R``, or ``x @ R.T``.

    B is one b x b block and D the column signs. A library rotation's B is the
    first block of its unsigned rotation, from the same row generator, times
    1/sqrt(b): the Sylvester Hadamard of its block order b (the group, or n
    for gh/gw), rows in Walsh order for gw and gsr; it is symmetric. D is
    the seed's splitmix64 signs, none without a seed. An external float
    matrix is B, without signs. ``repeat`` puts the whole rotation that many
    times on the diagonal: R2 is ``RotationOperator(r2, repeat=heads)``.

    ``x @ R`` is one product of the (rows*n/b, b) view of x with B, then the
    sign flip; ``x @ R.T`` flips the signs, then multiplies by the view B.T
    (dgemm's transposed-operand call, as in a dense ``x @ M.T``). A block of
    order b >= ``KRON_MIN_ORDER`` is never built: H_b = H_a (x) H_c, with
    a = 2^floor(log2(b)/2) and c = b/a both symmetric, so the product with H_b
    is one product of the (rows*n/c, c) view with H_c and one with H_a on the
    a-axis, b/(a+c) times fewer flops; 1/sqrt(b) scales the output (the
    input, for the transpose). Walsh rows gather the input columns into
    natural order first; the transpose runs the steps backwards. This rounds
    differently from the dense product, by about 1e-15 relative. Products
    run in float32 for float32 x, and in float64 otherwise.
    """

    def __init__(self, r, repeat: int = 1):
        if not (_is_int(repeat) and repeat >= 1):
            raise InvalidConfigError(f"repeat must be a positive integer, got {repeat!r}")
        self.block = self.factors = self.perm = self.signs = None
        if isinstance(r, OrthoMatrix):
            order, b = r.n, r.group or r.n
            if r.seed is not None:
                self.signs = _splitmix64_signs(r.seed, r.n)
            if b >= KRON_MIN_ORDER:
                self.factors = tuple(f.astype(np.float64) for f in _factors(b))
                self.scale = r.scale
                # Walsh row k is natural row perm[k]; natural row i is Walsh row perm_inv[i]
                if r.kind in (KIND_GW, KIND_GSR):
                    self.perm = walsh_permutation(b)
                    self.perm_inv = np.argsort(self.perm)
            else:   # the first block of the unsigned rotation
                rows = next(replace(r, seed=None)._row_tiles(b))
                self.block = np.multiply(rows, r.scale, dtype=np.float64)
        else:
            self.block = np.asarray(r, dtype=np.float64)
            if self.block.ndim != 2 or not 0 < len(self.block) == self.block.shape[1]:
                raise DimensionMismatchError(
                    f"a rotation matrix is square and non-empty, got shape {self.block.shape}")
            order = b = len(self.block)
        self.b, self.n = b, repeat * order

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        x = np.asarray(x)
        x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise DimensionMismatchError(
                f"rotation of order {self.n} cannot act on shape {x.shape}")
        rows = x.shape[0]
        if transpose and self.signs is not None:
            x = x.reshape(-1, len(self.signs)) * self.signs
        v = x.reshape(-1, self.b)
        if self.factors is not None:
            y = self._apply_factors(v, transpose)
        else:
            block = self.block.astype(x.dtype, copy=False)
            y = v @ (block.T if transpose else block)
        if not transpose and self.signs is not None:
            y = y.reshape(-1, len(self.signs))   # a view: y is a fresh C-ordered product
            y *= self.signs
        return y.reshape(rows, self.n)

    def _apply_factors(self, v: np.ndarray, transpose: bool) -> np.ndarray:
        # B = P H / sqrt(b), with P the Walsh row permutation (identity for
        # Hadamard rows): v @ B = ((v P) H) / sqrt(b) and v @ B.T = (v / sqrt(b)) H P^T,
        # where v P gathers v by perm_inv and y P^T by perm
        ha, hc = (f.astype(v.dtype, copy=False) for f in self.factors)
        rows, a, c = v.shape[0], len(ha), len(hc)
        if transpose:
            v = v * self.scale
        elif self.perm is not None:
            v = np.take(v, self.perm_inv, axis=1)
        z = (v.reshape(rows * a, c) @ hc).reshape(rows, a, c)
        # a fresh v is free to take the second product
        fresh = (transpose or self.perm is not None) and v.flags.c_contiguous
        y = v if fresh else np.empty((rows, self.b), v.dtype)
        np.matmul(ha, z, out=y.reshape(rows, a, c))
        if not transpose:
            y *= self.scale
        elif self.perm is not None:
            y = np.take(y, self.perm, axis=1)
        return y


def hadamard_sylvester(n: int) -> OrthoMatrix:
    """Sylvester-constructed Hadamard matrix of order ``n`` in natural ordering:
    H_2n = [[H_n, H_n], [H_n, -H_n]], whose first row and column are all +1."""
    return OrthoMatrix(KIND_GH, n)


def _row_sequencies(signs: np.ndarray) -> np.ndarray:
    """Adjacent sign changes per row of +-1 entries."""
    return np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1).astype(np.int64)


def _bit_reverse(i: np.ndarray, bits: int) -> np.ndarray:
    out = np.zeros_like(i)
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i = i >> 1
    return out


def walsh_permutation(n: int) -> np.ndarray:
    """Row permutation p such that Walsh row k is natural row p[k].

    p[k] = bit_reverse(binary_to_gray(k)), so sequencies come out strictly
    ascending 0..n-1.
    """
    _require_power_of_two(n)
    bits = n.bit_length() - 1
    k = np.arange(n, dtype=np.int64)
    return _bit_reverse(k ^ (k >> 1), bits)


def walsh_from_hadamard(h: OrthoMatrix) -> OrthoMatrix:
    """Reorder a natural-order Hadamard matrix to ascending sequency by the
    bit-reversal + Gray-code row permutation.

    Column sign flips commute with a row permutation, so a seeded ``gh``
    becomes the ``gw`` of the same seed.
    """
    if h.kind != KIND_GH:
        raise NotHadamardError(f"expected a global Hadamard matrix (gh), got kind={h.kind!r}")
    return replace(h, kind=KIND_GW)


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int, streams) -> np.ndarray:
    """splitmix64 output of each stream i in the 1-D ``streams``, from the state
    seed + (i+1) * golden gamma mod 2^64. uint64 arrays wrap modulo 2^64
    silently, where numpy scalars would warn."""
    z = ((np.asarray(streams, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
         + np.uint64(seed & _MASK64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _splitmix64_signs(seed: int, count: int) -> np.ndarray:
    """Deterministic +-1 draws: top bit of splitmix64 streams 0..count-1 (1 -> -1)."""
    return np.where(_splitmix64(seed, np.arange(count)) >> np.uint64(63), -1, 1).astype(np.int8)


def randomize_signs(m: OrthoMatrix, seed: int) -> OrthoMatrix:
    """Right-multiply an unsigned rotation by the seeded random diagonal +-1
    matrix (column sign flips). Orthogonality is preserved exactly; the same
    seed gives bit-identical output."""
    if m.seed is not None:
        raise InvalidConfigError(f"this {m.kind} already has the column signs of seed {m.seed}")
    return replace(m, seed=seed)


def gsr(c: int, g: int) -> OrthoMatrix:
    """Block-diagonal rotation of order c with c/g identical g-by-g Walsh blocks;
    ``randomize_signs`` flips its column signs."""
    return OrthoMatrix(KIND_GSR, c, g)


def build_rotation(kind: str, n: int, group: int | None = None,
                   seed: int | None = None) -> OrthoMatrix:
    """The rotation of ``kind`` (one of ``KINDS``) at order ``n``.

    ``group`` is the block order of lh and gsr; gh and gw do not read it.
    With ``seed`` the column signs are flipped from that seed's stream;
    ``None`` leaves them as constructed.
    """
    return OrthoMatrix(kind, n, group if kind in BLOCK_BASES else None, seed)


def _mix_seed(seed: int, stream: int) -> int:
    # splitmix64 keyed by the stream index, to decorrelate derived seeds
    return int(_splitmix64(seed, [stream])[0])


@dataclass(frozen=True)
class SequencyProfile:
    per_row_sequency: np.ndarray
    per_group_mean: np.ndarray
    per_group_variance: np.ndarray

    def __post_init__(self):
        for a in (self.per_row_sequency, self.per_group_mean, self.per_group_variance):
            a.flags.writeable = False


def sequency_profile(m: OrthoMatrix, g: int) -> SequencyProfile:
    """Per-row sequencies plus mean/population-variance over row groups of size g.

    The sign changes are counted on the rows without their zeros, tile by
    tile, so neither the n x n matrix nor the blocks are built.
    """
    _require_group_divides(g, m.n)
    tile = max(1, _TILE_ENTRIES // (m.group or m.n))
    seq = np.concatenate([_row_sequencies(rows) for rows in m._row_tiles(tile)])
    grouped = seq.reshape(-1, g).astype(np.float64)
    return SequencyProfile(per_row_sequency=seq,
                           per_group_mean=grouped.mean(axis=1),
                           per_group_variance=grouped.var(axis=1))


def orthogonality_residual(m: np.ndarray) -> float:
    """max |R R^T - I| of a square float matrix, computed in float64."""
    r = np.asarray(m, dtype=np.float64)
    gram = r @ r.T
    gram -= np.eye(r.shape[0])
    return float(np.max(np.abs(gram, out=gram)))
