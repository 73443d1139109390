"""Loop versions of the vectorized construction helpers, the full-matrix
Hessian formula, the group quantizers and the R4 ablation, kept as oracles:
the library versions must match them bit for bit. Also the n x n sign
constructions, the dense rotation fusion and the fast Walsh-Hadamard
transform, as independent references."""

from dataclasses import replace

import numpy as np

from seqrot import quant
from seqrot.errors import InvalidSpecError
from seqrot.rotation import (
    IDENTITY,
    R2,
    R4_MODES,
    RotationAssignment,
    assignment_table,
    build_toy_block,
    forward,
    fuse_rotations,
    resolve_assignment,
)
from seqrot.transforms import OrthoMatrix, _mix_seed, _require_power_of_two

_MASK64 = (1 << 64) - 1


def row_sequencies(signs: np.ndarray) -> np.ndarray:
    n = signs.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        r = signs[i][signs[i] != 0]
        out[i] = np.count_nonzero(r[1:] != r[:-1])
    return out


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def _gray_to_binary(g: int) -> int:
    b = g
    shift = 1
    while (g >> shift) > 0:
        b ^= g >> shift
        shift += 1
    return b


def natural_sequency_formula(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    return np.array([_gray_to_binary(_bit_reverse(i, bits)) for i in range(n)],
                    dtype=np.int64)


def walsh_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    return np.array([_bit_reverse(k ^ (k >> 1), bits) for k in range(n)],
                    dtype=np.int64)


def splitmix64_signs(seed: int, count: int) -> np.ndarray:
    state = seed & _MASK64
    out = np.empty(count, dtype=np.int8)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out[i] = -1 if (z >> 63) & 1 else 1
    return out


def splitmix64_signs_closed_form(seed: int, count: int) -> np.ndarray:
    # the i-th state in closed form, seed + (i+1) * gamma mod 2^64, for all i at once
    z = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         + np.uint64(seed & _MASK64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.where(z >> np.uint64(63), -1, 1).astype(np.int8)


def mix_seed(seed: int, stream: int) -> int:
    # one splitmix64 step keyed by the stream index, in Python integers
    z = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hessian_matrix(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h = 2.0 * (x.T @ x) / x.shape[0]
    return 0.5 * (h + h.T)


def dense(m, dtype=np.float64) -> np.ndarray:
    return m.signs.astype(dtype) * dtype(m.scale)


# The n x n sign matrices as they were built before rotations were stored as
# their diagonal blocks: a Kronecker-doubled Hadamard matrix, its rows sorted
# by sequency, column sign flips over the full order, and a zero matrix with
# the base block copied onto its diagonal.

def hadamard_signs(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def walsh_signs(n: int) -> np.ndarray:
    return hadamard_signs(n)[walsh_permutation(n)]


def flip_columns(signs: np.ndarray, d: np.ndarray) -> np.ndarray:
    return (signs * d[np.newaxis, :]).astype(np.int8)


def gsr_signs(c: int, g: int, base: str = "walsh", seed=None) -> np.ndarray:
    block = walsh_signs(g) if base == "walsh" else hadamard_signs(g)
    signs = np.zeros((c, c), dtype=np.int8)
    for b in range(c // g):
        signs[b * g:(b + 1) * g, b * g:(b + 1) * g] = block
    if seed is None:
        return signs
    return flip_columns(signs, splitmix64_signs(seed, c))


def rotation_signs(kind: str, n: int, g=None, seed=None) -> np.ndarray:
    """The n x n signs of ``build_rotation(kind, n, g, seed)`` from the above."""
    if kind in ("lh", "gsr"):
        return gsr_signs(n, g, "hadamard" if kind == "lh" else "walsh", seed)
    signs = hadamard_signs(n) if kind == "gh" else walsh_signs(n)
    return signs if seed is None else flip_columns(signs, splitmix64_signs(seed, n))


# Fusion with every rotation densified: R2 as the Kronecker product of an
# identity per head with the head rotation, and W' = front^T @ W @ rear.

def as_dense(r) -> np.ndarray:
    return r.dense() if isinstance(r, OrthoMatrix) else np.asarray(r, dtype=np.float64)


def fused_weights(block, assign) -> dict:
    cfg = block.cfg
    rots = {k: None if r is None else as_dense(r)
            for k, r in resolve_assignment(assign, cfg).items()}
    if rots[R2] is not None:
        rots[R2] = np.kron(np.eye(cfg.heads), rots[R2])
    rots[IDENTITY] = None
    out = {}
    for role in assignment_table():
        w = block.weights[role.role]
        front, rear = rots[role.front], rots[role.rear]
        if front is not None:
            w = front.T @ w
        if rear is not None:
            w = w @ rear
        out[role.role] = w
    return out


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


# The group quantizer written out with the formulas it had before the library
# shared one clamp-and-round kernel: the codes are clipped after adding the
# zero point, and dequantized as (codes - zero) * scale.

def _round_half_away(x):
    return np.trunc(x + np.copysign(0.5, x))


def encode(grouped, spec, scale, zero, lo, hi):
    """Codes of a (rows, n_groups, g) array from (rows, n_groups) parameters."""
    clipped = np.minimum(np.maximum(grouped, lo[..., None]), hi[..., None])
    q = _round_half_away(clipped / scale[..., None])
    if zero is not None:
        q = q + zero[..., None]
    return np.clip(q, spec.qmin, spec.qmax).astype(np.int64)


def decode(codes, scale, zero):
    q = codes.astype(np.float64)
    if zero is not None:
        q = q - zero[..., None]
    return q * scale[..., None]


def group_params(grouped, spec, ratio):
    return quant._range_params(grouped.min(axis=2), grouped.max(axis=2),
                               grouped[..., 0], spec, ratio)


def _clip_search(group, spec, grid):
    """(ratio, error) of the first, largest, ratio with the smallest error."""
    g = np.asarray(group, dtype=np.float64).reshape(1, 1, -1)
    best_ratio, best_err = 1.0, np.inf
    for r in sorted(set(grid), reverse=True):
        scale, zero, lo, hi = group_params(g, spec, np.full((1, 1), r))
        codes = encode(g, spec, scale, zero, lo, hi)
        err = float(((g - decode(codes, scale, zero)) ** 2).sum())
        if err < best_err:
            best_err, best_ratio = err, r
    return best_ratio, best_err


def mse_clip_search(group, spec, grid=quant.DEFAULT_MSE_GRID):
    """Brute-force the clip ratio minimizing squared error on one group.

    Returns (ratio, error); ties broken toward the larger ratio. Degenerate
    (constant) groups return (1.0, 0.0).
    """
    if len(grid) == 0:
        raise InvalidSpecError("clip ratio grid must be non-empty")
    group = np.asarray(group, dtype=np.float64)
    if group.max() == group.min():
        return 1.0, 0.0
    return _clip_search(group, spec, grid)


def quant_params(w, spec):
    """(grouped, scale, zero, lo, hi) with every clip ratio found group by group."""
    w = np.asarray(w, dtype=np.float64)
    grouped = quant._group_view(w, spec.group_size)
    rows, n_groups, _ = grouped.shape
    ratio = np.full((rows, n_groups), spec.clip.ratio)
    if spec.clip.kind == quant.CLIP_MSE:
        for r in range(rows):
            for j in range(n_groups):
                ratio[r, j] = _clip_search(grouped[r, j], spec, spec.clip.grid)[0]
    return (grouped,) + group_params(grouped, spec, ratio)


def rtn_quantize(w, spec):
    """(codes, scales, zero points) of round-to-nearest quantization."""
    grouped, scale, zero, lo, hi = quant_params(w, spec)
    return encode(grouped, spec, scale, zero, lo, hi).reshape(np.shape(w)), scale, zero


def gptq_codes(w, hessian, spec, damp=0.01):
    """Codes of the GPTQ column sweep, then the per-row RTN guard."""
    w = np.asarray(w, dtype=np.float64)
    rows, d = w.shape
    h = hessian.matrix
    grouped, scale, zero, lo, hi = quant_params(w, spec)
    g = grouped.shape[2]
    hinv = np.linalg.inv(h + damp * np.mean(np.diag(h)) * np.eye(d))
    u = np.linalg.cholesky(0.5 * (hinv + hinv.T)).T
    work = w.copy()
    codes = np.empty((rows, d), dtype=np.int64)
    for j in range(d):
        gi = j // g
        col = work[:, j:j + 1].reshape(rows, 1, 1)
        zcol = None if zero is None else zero[:, gi:gi + 1]
        c = encode(col, spec, scale[:, gi:gi + 1], zcol, lo[:, gi:gi + 1], hi[:, gi:gi + 1])
        codes[:, j] = c.reshape(rows)
        err = (work[:, j] - decode(c, scale[:, gi:gi + 1], zcol).reshape(rows)) / u[j, j]
        work[:, j + 1:] -= np.outer(err, u[j, j + 1:])
    rtn_codes = encode(grouped, spec, scale, zero, lo, hi).reshape(rows, d)

    def objective(c):
        delta = w - decode(quant._group_view(c, g), scale, zero).reshape(rows, d)
        return ((delta @ h) * delta).sum(1)

    keep_rtn = objective(rtn_codes) < objective(codes)
    codes[keep_rtn] = rtn_codes[keep_rtn]
    return codes


def r4_cells(cfg, weight_spec, act_spec, n_seeds, r1_kind, r4_kind, base_seed):
    """Cells of ``harness.r4_ablation`` (mode -> setting -> array over seeds),
    with every weight of every fused block quantized afresh."""
    wlabel = f"w{weight_spec.bits}"
    quant_for = {"w16a16": (None, None), wlabel: (weight_spec, None),
                 f"{wlabel}a{act_spec.bits}": (weight_spec, act_spec)}
    cells = {mode: {s: np.zeros(n_seeds) for s in quant_for} for mode in R4_MODES}
    for i in range(n_seeds):
        seed = base_seed + i
        block = build_toy_block(replace(cfg, seed=_mix_seed(seed, 1)))
        x = np.random.default_rng(_mix_seed(seed, 2)).standard_normal(
            (cfg.seq_len, cfg.hidden))
        y_ref = forward(block, x)
        for mode in R4_MODES:
            fused = fuse_rotations(block, RotationAssignment(
                r1=r1_kind, r4=r4_kind, r4_mode=mode, seed=_mix_seed(seed, 3)))
            r1 = fused.input_rotation
            x_in = x if r1 is None else r1.apply(x)
            for s, (wspec, aspec) in quant_for.items():
                qfused = fused if wspec is None else replace(fused, weights={
                    k: quant.dequantize(quant.rtn_quantize(w.T, wspec)).T
                    for k, w in fused.weights.items()})
                y = forward(qfused, x_in, act_spec=aspec)
                if r1 is not None:
                    y = r1.apply(y, transpose=True)
                cells[mode][s][i] = float(np.mean((y - y_ref) ** 2))
    return cells
