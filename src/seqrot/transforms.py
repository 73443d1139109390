"""Construction of Hadamard, Walsh and grouped block-diagonal rotation matrices.

Matrices are kept as unnormalized {-1, 0, +1} integer sign arrays plus a
scalar scale (1/sqrt(block order)), combined only when a dense float matrix
is needed. This keeps construction checks exact and serialization bit-stable.
``RotationOperator`` applies a rotation to data; grouped matrices go block by
block and are never densified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyRowError,
    GroupDoesNotDivideError,
    NonPowerOfTwoError,
    NotHadamardError,
    OrderTooLargeError,
    PermutationMismatchError,
)

MAX_ORDER = 1 << 16

KIND_HADAMARD = "hadamard"  # Sylvester / natural row order
KIND_WALSH = "walsh"        # sequency-ascending row order
KIND_GROUPED = "grouped"    # block-diagonal, identical blocks


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_power_of_two(n: int, what: str = "order") -> None:
    if not is_power_of_two(n):
        raise NonPowerOfTwoError(f"{what} must be a power of two, got {n}")


@dataclass(frozen=True)
class OrthoMatrix:
    """An orthogonal rotation matrix with construction provenance.

    ``signs`` holds the unnormalized entries; the dense matrix is
    ``signs * scale`` with ``scale = 1/sqrt(block_order)``. For grouped
    (block-diagonal) matrices the entries outside the diagonal blocks are
    exactly zero and ``block_order`` is the group size, otherwise it is the
    full order ``n``.
    """

    signs: np.ndarray
    scale: float
    kind: str
    group_size: int | None = None   # block order for grouped kinds
    block_kind: str | None = None   # base kind of the diagonal blocks
    seed: int | None = None         # sign-randomization seed, None if unrandomized

    def __post_init__(self):
        self.signs.flags.writeable = False

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def dense(self, dtype=np.float64) -> np.ndarray:
        return np.multiply(self.signs, dtype(self.scale), dtype=dtype)

    def blocks(self) -> np.ndarray:
        """The (n/g, g, g) scaled float64 diagonal blocks of a grouped matrix."""
        if self.kind != KIND_GROUPED:
            raise ValueError(f"only grouped matrices have diagonal blocks, got {self.kind!r}")
        g = self.group_size
        nb = self.n // g
        diag = np.arange(nb)
        return np.multiply(self.signs.reshape(nb, g, nb, g)[diag, :, diag, :],
                           self.scale, dtype=np.float64)


def as_dense(r, dtype=np.float64) -> np.ndarray:
    """The dense matrix of an OrthoMatrix or of an array-like rotation."""
    if isinstance(r, OrthoMatrix):
        return r.dense(dtype)
    return np.asarray(r, dtype=dtype)


class RotationOperator:
    """Right-multiplication by a rotation R: ``x @ R``, or ``x @ R.T``.

    A grouped OrthoMatrix is never densified: its (n/g, g, g) diagonal
    blocks are gathered and scaled once and applied as one batched matmul on
    the (rows, n/g, g) view of ``x``. The transpose uses a C-contiguous copy
    of the transposed blocks: OpenBLAS sums the transposed-operand product
    of small blocks in another order than the dense product, while the plain
    one rounds like it. Global kinds and external dense matrices are
    densified once by ``as_dense`` and applied as one dense BLAS product. A
    butterfly FWHT would be cheaper there but rounds differently from dgemm.
    """

    def __init__(self, r):
        self.blocks = self.blocks_t = self.matrix = None
        if isinstance(r, OrthoMatrix) and r.kind == KIND_GROUPED:
            self.blocks = r.blocks()
            self.blocks_t = np.ascontiguousarray(self.blocks.transpose(0, 2, 1))
            self.n = r.n
        else:
            self.matrix = as_dense(r)
            self.n = self.matrix.shape[0]

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise DimensionMismatchError(
                f"rotation of order {self.n} cannot act on shape {x.shape}")
        if self.matrix is not None:
            return x @ (self.matrix.T if transpose else self.matrix)
        nb, g, _ = self.blocks.shape
        rows = x.shape[0]
        out = np.empty((rows, self.n))
        np.matmul(x.reshape(rows, nb, g).transpose(1, 0, 2),
                  self.blocks_t if transpose else self.blocks,
                  out=out.reshape(rows, nb, g).transpose(1, 0, 2))
        return out


def hadamard_sylvester(n: int) -> OrthoMatrix:
    """Sylvester-constructed Hadamard matrix of order ``n`` in natural ordering.

    Built by Kronecker doubling of [[1, 1], [1, -1]]; the first row and first
    column are all +1.
    """
    _require_power_of_two(n)
    if n > MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds maximum {MAX_ORDER}")
    if n < 2:
        raise NonPowerOfTwoError(f"order must be at least 2, got {n}")
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return OrthoMatrix(signs=h, scale=1.0 / np.sqrt(n), kind=KIND_HADAMARD)


def row_sequency(row) -> int:
    """Number of adjacent sign changes in a row of +-1 entries."""
    r = np.asarray(row)
    if r.size == 0:
        raise EmptyRowError("sequency of an empty row is undefined")
    if not np.all(np.abs(r) == 1):
        raise ValueError("row entries must be +1 or -1")
    return int(np.count_nonzero(r[1:] != r[:-1]))


def _row_sequencies(signs: np.ndarray) -> np.ndarray:
    """Adjacent sign changes per row, zeros ignored (for grouped matrices)."""
    if signs.all():
        return np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1).astype(np.int64)
    # the nonzero entries in row-major order; a change counts only between
    # neighbours that share a row
    rows, cols = np.nonzero(signs)
    vals = signs[rows, cols]
    change = (vals[1:] != vals[:-1]) & (rows[1:] == rows[:-1])
    return np.bincount(rows[1:][change], minlength=signs.shape[0]).astype(np.int64)


def _bit_reverse(i: np.ndarray, bits: int) -> np.ndarray:
    out = np.zeros_like(i)
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i = i >> 1
    return out


def _gray_to_binary(g: np.ndarray, bits: int) -> np.ndarray:
    # shifts past the highest set bit xor in zeros, so a fixed count is exact
    b = g.copy()
    for shift in range(1, bits):
        b ^= g >> shift
    return b


def natural_sequency_formula(n: int) -> np.ndarray:
    """Closed-form sequency of each natural-order row: gray_to_binary(bit_reverse(i)).

    Cross-checked against direct sign-flip counting in walsh_from_hadamard.
    """
    _require_power_of_two(n)
    bits = n.bit_length() - 1
    return _gray_to_binary(_bit_reverse(np.arange(n, dtype=np.int64), bits), bits)


def walsh_permutation(n: int) -> np.ndarray:
    """Row permutation p such that Walsh row k is natural row p[k].

    p[k] = bit_reverse(binary_to_gray(k)); the inverse of the closed-form
    sequency map, so sequencies come out strictly ascending 0..n-1.
    """
    _require_power_of_two(n)
    bits = n.bit_length() - 1
    k = np.arange(n, dtype=np.int64)
    return _bit_reverse(k ^ (k >> 1), bits)


def walsh_from_hadamard(h: OrthoMatrix) -> OrthoMatrix:
    """Reorder a natural-order Hadamard matrix to ascending sequency.

    The bit-reversal + Gray-code permutation is verified against an explicit
    sort of the rows by counted sign flips; disagreement raises
    PermutationMismatchError since it can only come from a construction bug.
    """
    if h.kind != KIND_HADAMARD:
        raise NotHadamardError(f"expected a natural-order Hadamard matrix, got kind={h.kind!r}")
    n = h.n
    perm = walsh_permutation(n)
    counted = _row_sequencies(h.signs)
    by_sort = np.argsort(counted, kind="stable")
    if not np.array_equal(perm, by_sort):
        raise PermutationMismatchError(
            f"bit-reversal/Gray permutation disagrees with sequency sort at n={n}")
    return OrthoMatrix(signs=h.signs[perm].copy(), scale=h.scale, kind=KIND_WALSH,
                       seed=h.seed)


_MASK64 = (1 << 64) - 1


def _splitmix64_signs(seed: int, count: int) -> np.ndarray:
    """Deterministic +-1 draws: top bit of each splitmix64 output (1 -> -1).

    The i-th state is seed + (i+1) * golden gamma mod 2^64; uint64 array
    arithmetic wraps modulo 2^64, so all draws are computed at once.
    """
    z = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         + np.uint64(seed & _MASK64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.where(z >> np.uint64(63), -1, 1).astype(np.int8)


def randomize_signs(m: OrthoMatrix, seed: int) -> OrthoMatrix:
    """Right-multiply by a seeded random diagonal +-1 matrix (column sign flips).

    Orthogonality is preserved exactly; the same seed gives bit-identical
    output.
    """
    d = _splitmix64_signs(seed, m.n)
    return OrthoMatrix(signs=(m.signs * d[np.newaxis, :]).astype(np.int8),
                       scale=m.scale, kind=m.kind, group_size=m.group_size,
                       block_kind=m.block_kind, seed=seed)


def gsr(c: int, g: int, base: str = KIND_WALSH, seed: int | None = None,
        per_block_random: bool = False) -> OrthoMatrix:
    """Block-diagonal rotation with c/g identical g-by-g base blocks.

    The default base is an unrandomized Walsh block. With ``seed`` the column
    signs are flipped from one stream over the full order; ``per_block_random``
    draws an independent stream per block instead.
    """
    _require_power_of_two(c, "order")
    _require_power_of_two(g, "group size")
    if c % g != 0:
        raise GroupDoesNotDivideError(f"group size {g} does not divide order {c}")
    if base not in (KIND_WALSH, KIND_HADAMARD):
        raise ValueError(f"unsupported base kind {base!r}")
    block = hadamard_sylvester(g)
    if base == KIND_WALSH:
        block = walsh_from_hadamard(block)
    n_blocks = c // g
    signs = np.zeros((c, c), dtype=np.int8)
    for b in range(n_blocks):
        signs[b * g:(b + 1) * g, b * g:(b + 1) * g] = block.signs
    if seed is not None:
        if per_block_random:
            d = np.concatenate([_splitmix64_signs(_mix_seed(seed, b), g)
                                for b in range(n_blocks)])
        else:
            d = _splitmix64_signs(seed, c)
        signs = (signs * d[np.newaxis, :]).astype(np.int8)
    return OrthoMatrix(signs=signs, scale=1.0 / np.sqrt(g), kind=KIND_GROUPED,
                       group_size=g, block_kind=base, seed=seed)


def _mix_seed(seed: int, stream: int) -> int:
    # one splitmix64 step keyed by the stream index, to decorrelate per-block streams
    z = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SequencyProfile:
    per_row_sequency: np.ndarray
    group_size: int
    per_group_mean: np.ndarray
    per_group_variance: np.ndarray

    def __post_init__(self):
        for a in (self.per_row_sequency, self.per_group_mean, self.per_group_variance):
            a.flags.writeable = False


def sequency_profile(m: OrthoMatrix, g: int) -> SequencyProfile:
    """Per-row sequencies plus mean/population-variance over row groups of size g."""
    if m.n % g != 0:
        raise GroupDoesNotDivideError(f"group size {g} does not divide order {m.n}")
    seq = _row_sequencies(m.signs)
    grouped = seq.reshape(-1, g).astype(np.float64)
    return SequencyProfile(per_row_sequency=seq, group_size=g,
                           per_group_mean=grouped.mean(axis=1),
                           per_group_variance=grouped.var(axis=1))


def orthogonality_residual(m, dtype=np.float64) -> float:
    """max |R R^T - I| for a dense or sign-structured rotation matrix.

    For sign matrices the product is integer-valued and exact in float
    arithmetic (magnitudes stay far below the mantissa limit), so the residual
    is exactly zero when the construction is orthogonal.
    """
    if isinstance(m, OrthoMatrix):
        r = m.dense(dtype)
    else:
        r = np.asarray(m, dtype=dtype)
    eye = np.eye(r.shape[0], dtype=dtype)
    return float(np.max(np.abs(r @ r.T - eye)))


ORDERING_NATURAL = "natural"
ORDERING_SEQUENCY = "sequency"


def fwht(x, ordering: str = ORDERING_NATURAL) -> np.ndarray:
    """Fast Walsh-Hadamard transform, normalized by 1/sqrt(n).

    Equals the dense product with hadamard_sylvester(n) (natural) or its
    Walsh reordering (sequency).
    """
    v = np.asarray(x, dtype=np.float64).copy()
    n = v.shape[0]
    _require_power_of_two(n, "length")
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(n)
        h *= 2
    v /= np.sqrt(n)
    if ordering == ORDERING_SEQUENCY:
        v = v[walsh_permutation(n)]
    elif ordering != ORDERING_NATURAL:
        raise ValueError(f"unknown ordering {ordering!r}")
    return v
