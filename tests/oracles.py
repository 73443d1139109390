"""Loop versions of the vectorized construction helpers and the full-matrix
Hessian formula, kept as oracles: the library versions must match them bit
for bit."""

import numpy as np

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


def hessian_matrix(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h = 2.0 * (x.T @ x) / x.shape[0]
    return 0.5 * (h + h.T)


def dense(m, dtype=np.float64) -> np.ndarray:
    return m.signs.astype(dtype) * dtype(m.scale)
