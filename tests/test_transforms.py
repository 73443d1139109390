import dataclasses
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ORDERING_NATURAL, ORDERING_SEQUENCY, fwht, traced_peak
from scipy.linalg import hadamard as scipy_hadamard

from seqrot.errors import (
    DimensionMismatchError,
    GroupDoesNotDivideError,
    InvalidConfigError,
    NonPowerOfTwoError,
    NotHadamardError,
    OrderTooLargeError,
)
from seqrot.transforms import (
    BASE_HADAMARD,
    BASE_WALSH,
    KIND_GH,
    KIND_GSR,
    KIND_GW,
    KIND_LH,
    KINDS,
    KRON_MIN_ORDER,
    MAX_ORDER,
    OrthoMatrix,
    RotationOperator,
    _factors,
    _mix_seed,
    _row_sequencies,
    _splitmix64_signs,
    build_rotation,
    gsr,
    hadamard_sylvester,
    is_power_of_two,
    orthogonality_residual,
    randomize_signs,
    sequency_profile,
    walsh_from_hadamard,
    walsh_permutation,
)

# Hand-expanded H2 (x) H2 and the size-8 natural-order sequency list.
H4_ROWS = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
], dtype=np.int8)
SEQ8_NATURAL = [0, 7, 3, 4, 1, 6, 2, 5]
WALSH_PERM_8 = [0, 4, 6, 2, 3, 7, 5, 1]   # sort natural H8 rows by sign-flip count
WALSH_PERM_4 = [0, 2, 3, 1]


class TestHadamardSylvester:
    def test_h2(self):
        h = hadamard_sylvester(2)
        assert np.array_equal(h.signs, [[1, 1], [1, -1]])
        assert h.scale == pytest.approx(1 / np.sqrt(2))
        assert h.kind == KIND_GH

    def test_h4_rows(self):
        assert np.array_equal(hadamard_sylvester(4).signs, H4_ROWS)

    def test_h8_sequencies(self):
        h = hadamard_sylvester(8)
        assert _row_sequencies(h.signs).tolist() == SEQ8_NATURAL

    def test_first_row_and_column_positive(self):
        for n in (2, 8, 64, 256):
            h = hadamard_sylvester(n)
            assert np.all(h.signs[0] == 1)
            assert np.all(h.signs[:, 0] == 1)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_matches_scipy(self, n):
        assert np.array_equal(hadamard_sylvester(n).signs,
                              scipy_hadamard(n, dtype=np.int8))

    def test_rejects_bad_orders(self):
        for n in (0, 1, 3, 6, 100):
            with pytest.raises(NonPowerOfTwoError):
                hadamard_sylvester(n)
        with pytest.raises(OrderTooLargeError):
            hadamard_sylvester(1 << 17)

    def test_signs_immutable(self):
        h = hadamard_sylvester(4)
        with pytest.raises(ValueError):
            h.signs[0, 0] = -1


class TestRowSequencies:
    def test_constant_row(self):
        assert _row_sequencies(np.array([[1, 1, 1, 1]])).tolist() == [0]

    def test_maximal_alternation(self):
        assert _row_sequencies(np.array([[1, -1, 1, -1]])).tolist() == [3]

    def test_h8_row3(self):
        assert _row_sequencies(hadamard_sylvester(8).signs[3:4]).tolist() == [4]


class TestWalshFromHadamard:
    def test_permutation_n8(self):
        assert walsh_permutation(8).tolist() == WALSH_PERM_8

    def test_permutation_n2_identity(self):
        assert walsh_permutation(2).tolist() == [0, 1]

    def test_permutation_n4(self):
        assert walsh_permutation(4).tolist() == WALSH_PERM_4
        w = walsh_from_hadamard(hadamard_sylvester(4))
        assert np.array_equal(w.signs, H4_ROWS[WALSH_PERM_4])

    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 1024])
    def test_sequencies_strictly_ascending(self, n):
        w = walsh_from_hadamard(hadamard_sylvester(n))
        assert _row_sequencies(w.signs).tolist() == list(range(n))
        assert w.kind == KIND_GW

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 512])
    def test_formula_matches_counting(self, n):
        counted = sequency_profile(hadamard_sylvester(n), n).per_row_sequency
        assert np.array_equal(oracles.natural_sequency_formula(n), counted)

    def test_rejects_non_hadamard(self):
        w = walsh_from_hadamard(hadamard_sylvester(4))
        with pytest.raises(NotHadamardError):
            walsh_from_hadamard(w)

    @pytest.mark.parametrize("n", [2, 8, 1024])
    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
    def test_signed_hadamard_gives_signed_walsh(self, n, seed):
        # column flips commute with the row permutation
        w = walsh_from_hadamard(randomize_signs(hadamard_sylvester(n), seed))
        ref = build_rotation(KIND_GW, n, seed=seed)
        assert np.array_equal(w.blocks, ref.blocks)
        assert (w.kind, w.seed) == (ref.kind, ref.seed)


class TestRandomizeSigns:
    def test_deterministic(self):
        h = hadamard_sylvester(16)
        a = randomize_signs(h, 12345)
        b = randomize_signs(h, 12345)
        assert np.array_equal(a.signs, b.signs)
        assert a.seed == 12345

    def test_different_seeds_differ(self):
        h = hadamard_sylvester(64)
        assert not np.array_equal(randomize_signs(h, 1).signs,
                                  randomize_signs(h, 2).signs)

    def test_identity_draw_is_noop(self):
        h = hadamard_sylvester(8)
        r = randomize_signs(h, 7)
        d = r.signs[0] * h.signs[0]  # first row of H is all +1, so d is the diagonal
        assert np.array_equal(r.signs, h.signs * d[np.newaxis, :])

    def test_orthogonality_over_seeds(self):
        h = hadamard_sylvester(64)
        for seed in range(20):
            assert orthogonality_residual(randomize_signs(h, seed).dense()) < 1e-10


class TestGsr:
    def test_two_walsh_blocks(self):
        m = gsr(8, 4)
        w4 = walsh_from_hadamard(hadamard_sylvester(4)).signs
        assert m.kind == KIND_GSR
        assert np.array_equal(m.signs[:4, :4], w4)
        assert np.array_equal(m.signs[4:, 4:], w4)
        assert np.all(m.signs[:4, 4:] == 0)
        assert np.all(m.signs[4:, :4] == 0)
        assert m.scale == pytest.approx(0.5)

    def test_single_block_equals_walsh(self):
        m = gsr(8, 8)
        w = walsh_from_hadamard(hadamard_sylvester(8))
        assert np.array_equal(m.signs, w.signs)

    def test_h2_blocks(self):
        m = gsr(8, 2)
        h2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
        for b in range(4):
            assert np.array_equal(m.signs[2 * b:2 * b + 2, 2 * b:2 * b + 2], h2)

    def test_block_structure_exact(self):
        for c, g in [(16, 4), (64, 16), (256, 64)]:
            m = gsr(c, g)
            mask = np.ones((c, c), dtype=bool)
            for b in range(c // g):
                mask[b * g:(b + 1) * g, b * g:(b + 1) * g] = False
            assert np.all(m.signs[mask] == 0)

    def test_rejects_bad_group(self):
        with pytest.raises(GroupDoesNotDivideError):
            gsr(4, 8)
        with pytest.raises(NonPowerOfTwoError):
            gsr(8, 3)
        with pytest.raises(NonPowerOfTwoError):
            gsr(12, 4)

    def test_randomized_orthogonal(self):
        for seed in range(5):
            m = randomize_signs(gsr(64, 16), seed)
            assert orthogonality_residual(m.dense()) < 1e-10

    def test_order_above_max_rejected_before_allocating(self, monkeypatch):
        def no_blocks(self):
            raise AssertionError("blocks were allocated")

        monkeypatch.setattr(OrthoMatrix, "blocks", property(no_blocks))
        with pytest.raises(OrderTooLargeError):
            gsr(2 * MAX_ORDER, 64)

    def test_hadamard_base(self):
        m = build_rotation(KIND_LH, 16, 4)
        assert np.array_equal(m.signs[:4, :4], hadamard_sylvester(4).signs)
        assert m.kind == KIND_LH


class TestSequencyProfile:
    def test_walsh_group_variance_analytic(self):
        w = walsh_from_hadamard(hadamard_sylvester(128))
        prof = sequency_profile(w, 32)
        assert np.allclose(prof.per_group_variance, (32 ** 2 - 1) / 12)
        assert prof.per_group_variance[0] == 85.25

    def test_hadamard_n8_groups(self):
        h = hadamard_sylvester(8)
        prof = sequency_profile(h, 4)
        assert prof.per_row_sequency.tolist() == SEQ8_NATURAL
        # groups {0,7,3,4} and {1,6,2,5}; population variances computed by hand
        assert prof.per_group_mean.tolist() == [3.5, 3.5]
        assert prof.per_group_variance.tolist() == [6.25, 4.25]

    def test_walsh_beats_hadamard_mean_variance(self):
        for n in (8, 32, 128, 1024):
            h = hadamard_sylvester(n)
            w = walsh_from_hadamard(h)
            g = 8
            while g < n:
                vh = sequency_profile(h, g).per_group_variance.mean()
                vw = sequency_profile(w, g).per_group_variance.mean()
                assert vw < vh, (n, g)
                g *= 2

    def test_rejects_bad_group(self):
        for g in (-8, 0, 3):   # anything but a positive divisor, checked before the modulo
            with pytest.raises(GroupDoesNotDivideError):
                sequency_profile(hadamard_sylvester(8), g)

    def test_gsr_profile_uses_block_rows(self):
        prof = sequency_profile(gsr(8, 4), 4)
        assert prof.per_row_sequency.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


class TestFwht:
    """The oracle transform, an independent check of the Walsh ordering."""

    def test_basis_vector_natural(self):
        e0 = np.zeros(16)
        e0[0] = 1.0
        assert np.allclose(fwht(e0, ORDERING_NATURAL), np.full(16, 0.25))

    def test_matches_dense_natural(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        dense = hadamard_sylvester(64).dense() @ x
        assert np.max(np.abs(fwht(x, ORDERING_NATURAL) - dense)) < 1e-10

    def test_matches_dense_sequency(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        dense = walsh_from_hadamard(hadamard_sylvester(64)).dense() @ x
        assert np.max(np.abs(fwht(x, ORDERING_SEQUENCY) - dense)) < 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NonPowerOfTwoError):
            fwht(np.zeros(6))


class TestOrthogonality:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_all_kinds(self, n):
        h = hadamard_sylvester(n)
        mats = [h, walsh_from_hadamard(h)]
        if n >= 8:
            mats += [gsr(n, n // 4), build_rotation(KIND_LH, n, n // 4)]
        for m in mats:
            assert orthogonality_residual(m.dense()) < 1e-10
            for seed in (0, 1):
                assert orthogonality_residual(randomize_signs(m, seed).dense()) < 1e-10


class TestVectorizedConstructors:
    """The array versions match the loop versions in ``oracles`` bit for bit."""

    @settings(max_examples=13, deadline=None)
    @given(k=st.integers(0, 12))
    def test_walsh_permutation_and_formula(self, k):
        # RotationOperator's inverse Walsh permutation is the natural-order formula
        n = 1 << k
        got, want = walsh_permutation(n), oracles.walsh_permutation(n)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), n
        assert np.array_equal(np.argsort(got), oracles.natural_sequency_formula(n)), n

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.sampled_from((0, 1, 2 ** 63, 2 ** 64 - 1)),
                          st.integers(0, 2 ** 64 - 1)),
           count=st.integers(0, 4096))
    def test_splitmix64_signs(self, seed, count):
        got = _splitmix64_signs(seed, count)
        want = oracles.splitmix64_signs(seed, count)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 3, -1, -2 ** 70, 2 ** 64 - 1, 2 ** 64,
                                      2 ** 80 + 5])
    def test_splitmix64_edge_seeds(self, seed):
        # both helpers draw from one mixer; each must keep its former stream
        for stream in [*range(8), *range(100, 104), 2 ** 20]:
            got = _mix_seed(seed, stream)
            assert type(got) is int
            assert got == oracles.mix_seed(seed, stream), stream
        for count in (0, 1, 7, 64, 4096):
            want = oracles.splitmix64_signs_closed_form(seed, count)
            assert np.array_equal(_splitmix64_signs(seed, count), want), count

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_row_sequencies_global(self, n):
        h = hadamard_sylvester(n)
        for m in (h, walsh_from_hadamard(h), randomize_signs(h, n)):
            assert np.array_equal(_row_sequencies(m.signs), oracles.row_sequencies(m.signs))

    @pytest.mark.parametrize("n,g", [(8, 2), (64, 8), (512, 64), (256, 256)])
    def test_row_sequencies_grouped(self, n, g):
        # counted on the blocks, against the oracle on the n x n matrix with its zeros
        for m in (gsr(n, g), randomize_signs(build_rotation(KIND_LH, n, g), 3),
                  randomize_signs(gsr(n, g), 5)):
            got = sequency_profile(m, g).per_row_sequency
            assert got.dtype == np.int64
            assert np.array_equal(got, oracles.row_sequencies(m.signs))

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_row_sequencies_random_signs(self, rows, cols, seed):
        signs = np.where(np.random.default_rng(seed).random((rows, cols)) < 0.5,
                         -1, 1).astype(np.int8)
        assert np.array_equal(_row_sequencies(signs), oracles.row_sequencies(signs))


class TestDense:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_cast_then_scale(self, dtype):
        for m in (randomize_signs(hadamard_sylvester(64), 1), randomize_signs(gsr(64, 16), 2)):
            got = m.dense(dtype)
            assert got.dtype == dtype
            assert got.tobytes() == oracles.dense(m, dtype).tobytes()

    def test_blocks_are_the_diagonal_blocks(self):
        m = randomize_signs(build_rotation(KIND_LH, 64, 16), 4)
        d = m.dense()
        assert m.blocks.shape == (4, 16, 16) and m.blocks.dtype == np.int8
        for b, blk in enumerate(m.blocks):
            assert np.array_equal(blk * m.scale, d[16 * b:16 * (b + 1), 16 * b:16 * (b + 1)])

    def test_global_kind_is_one_block(self):
        for m in (hadamard_sylvester(8), walsh_from_hadamard(hadamard_sylvester(8)),
                  randomize_signs(hadamard_sylvester(8), 1)):
            assert m.blocks.shape == (1, 8, 8)
            signs = m.signs
            assert np.array_equal(signs, m.blocks[0]) and not signs.flags.writeable
            # each read is built afresh: nothing is kept between reads
            assert not np.shares_memory(signs, m.signs)
            assert sorted(vars(m)) == ["group", "kind", "n", "seed"]


class TestRotationOperator:
    @pytest.mark.parametrize("n,g", [(8, 2), (64, 8), (256, 16), (512, 64), (1024, 128),
                                     (128, 128)])
    def test_grouped_matches_dense(self, n, g):
        rng = np.random.default_rng(n + g)
        x = rng.standard_normal((5, n))
        for m in (gsr(n, g), randomize_signs(build_rotation(KIND_LH, n, g), 9)):
            op = RotationOperator(m)
            # one symmetric g x g block, repeated n/g times, and the n column signs
            assert op.factors is None and op.block.shape == (g, g)
            assert np.array_equal(op.block, op.block.T)
            assert op.signs is None if m.seed is None else op.signs.shape == (n,)
            d = m.dense()
            assert np.max(np.abs(op.apply(x) - x @ d)) < 1e-12
            assert np.max(np.abs(op.apply(x, transpose=True) - x @ d.T)) < 1e-12

    @pytest.mark.parametrize("rows,n", [(16, 128), (256, 512), (512, 512)])
    def test_grouped_is_bit_identical_at_compare_shapes(self, rows, n):
        """The golden CSV digest of the benchmark's compare_rtn workload
        (16x128 and 512x512 tensors, g=64) and GPTQ's rotated calibration
        samples (256x512) rely on this. It is a property of the BLAS build,
        checked with OpenBLAS 0.3.31: one product of the (rows*n/b, b) view
        with the block, or with its transposed view, sums each output in the
        order of the dense product."""
        x = np.random.default_rng(rows).standard_normal((rows, n))
        for m in (gsr(n, 64), randomize_signs(build_rotation(KIND_LH, n, 64), 9),
                  walsh_from_hadamard(hadamard_sylvester(n)),
                  randomize_signs(hadamard_sylvester(n), 9)):
            op, d = RotationOperator(m), m.dense()
            assert np.array_equal(op.apply(x), x @ d)
            assert np.array_equal(op.apply(x, transpose=True), x @ d.T)

    def test_grouped_on_transposed_input(self):
        m = randomize_signs(build_rotation(KIND_LH, 64, 16), 1)
        x = np.random.default_rng(0).standard_normal((64, 64))
        op = RotationOperator(m)
        assert np.max(np.abs(op.apply(x.T) - x.T @ m.dense())) < 1e-12

    def test_global_and_external_are_dense_products(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 32))
        m = randomize_signs(hadamard_sylvester(32), 7)
        d = m.dense()
        for r in (m, d):
            op = RotationOperator(r)
            assert op.factors is None and op.block.shape == (32, 32)
            assert np.array_equal(op.apply(x), x @ d)
            assert np.array_equal(op.apply(x, transpose=True), x @ d.T)

    def test_round_trip(self):
        x = np.random.default_rng(4).standard_normal((3, 256))
        op = RotationOperator(randomize_signs(build_rotation(KIND_LH, 256, 32), 2))
        assert np.max(np.abs(op.apply(op.apply(x), transpose=True) - x)) < 1e-12

    def test_rejects_wrong_width(self):
        for r in (gsr(16, 4), hadamard_sylvester(16)):
            with pytest.raises(DimensionMismatchError):
                RotationOperator(r).apply(np.zeros((2, 8)))

    @pytest.mark.parametrize("r", [np.ones((3, 4)), np.ones(4), np.ones((2, 4, 4)),
                                   np.ones((0, 0))])
    def test_rejects_what_is_not_one_square_matrix(self, r):
        with pytest.raises(DimensionMismatchError):
            RotationOperator(r)

    @pytest.mark.parametrize("repeat", [0, -1, 2.0, True, None])
    def test_rejects_a_repeat_that_is_no_count(self, repeat):
        with pytest.raises(InvalidConfigError):
            RotationOperator(gsr(8, 4), repeat=repeat)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), log_n=st.integers(1, 11), data=st.data(),
           seed=st.none() | st.integers(0, 2 ** 64 - 1), repeat=st.sampled_from([1, 2, 4]),
           dtype=st.sampled_from([np.float64, np.float32]), transpose=st.booleans())
    def test_matches_the_repeated_dense_matrix(self, kind, log_n, data, seed, repeat,
                                               dtype, transpose):
        n = 1 << log_n
        g = (1 << data.draw(st.integers(1, log_n), label="log_g")
             if kind in (KIND_LH, KIND_GSR) else None)
        m = build_rotation(kind, n, g, seed)
        d = m.dense().T if transpose else m.dense()
        x = np.random.default_rng(log_n).standard_normal((3, repeat * n))
        got = RotationOperator(m, repeat=repeat).apply(x.astype(dtype), transpose)
        # x @ np.kron(np.eye(repeat), d), one diagonal block at a time
        ref = np.hstack([xi @ d for xi in np.hsplit(x, repeat)])
        assert got.dtype == dtype
        err = np.max(np.abs(got - ref))
        assert err <= (1e-12 if dtype == np.float64 else 1e-5 * np.max(np.abs(ref)))

    def test_gsr_at_max_order_in_little_memory(self):
        x = np.random.default_rng(0).standard_normal((2, MAX_ORDER))
        out = {}

        def run():
            op = RotationOperator(gsr(MAX_ORDER, 64))
            out["back"] = op.apply(op.apply(x), transpose=True)

        assert traced_peak(run) < 8 << 20
        assert np.max(np.abs(out["back"] - x)) < 1e-12


def tiled_dense_product(x, m, transpose=False, tile=1024):
    """x @ m.dense() (or its transpose) over column tiles of the sign matrix,
    so an n=8192 reference needs no 512 MiB matrix."""
    s = m.signs.T if transpose else m.signs
    return np.hstack([x @ (s[:, c:c + tile] * m.scale) for c in range(0, m.n, tile)])


def fwht_rows(x, ordering):
    return np.array([fwht(row, ordering) for row in x])


class TestFactoredGlobal:
    """A block of order >= KRON_MIN_ORDER (a gh/gw of that order, or an lh/gsr
    group) is applied through its Kronecker factors: it matches the dense
    product to round-off, and neither the block nor the n x n matrix is built."""

    ORDERING = {KIND_GH: ORDERING_NATURAL, KIND_GW: ORDERING_SEQUENCY}

    def test_threshold_is_above_the_compare_order(self):
        assert KRON_MIN_ORDER > 512 and is_power_of_two(KRON_MIN_ORDER)

    @pytest.mark.parametrize("n", [KRON_MIN_ORDER, 4096, 8192])
    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_matches_dense_product_and_fwht(self, kind, seed, n):
        m = build_rotation(kind, n, seed=seed)
        op = RotationOperator(m)
        a = 1 << (n.bit_length() - 1) // 2
        assert op.block is None and [len(f) for f in op.factors] == [a, n // a]
        x = np.random.default_rng(n).standard_normal((4, n))
        fwd, back = op.apply(x), op.apply(x, transpose=True)
        if n <= 4096:
            d = m.dense()
            ref_fwd, ref_back = x @ d, x @ d.T
        else:
            ref_fwd, ref_back = tiled_dense_product(x, m), tiled_dense_product(x, m, True)
        assert np.max(np.abs(fwd - ref_fwd)) <= 1e-12
        assert np.max(np.abs(back - ref_back)) <= 1e-12
        # x @ R.T is the FWHT of x times the column signs (row 0 of the block),
        # so the FWHT of (x @ R) times the signs gives x back
        signs = m.blocks[0, 0]
        ordering = self.ORDERING[kind]
        assert np.max(np.abs(back - fwht_rows(x * signs, ordering))) <= 1e-12
        assert np.max(np.abs(fwht_rows(fwd * signs, ordering) - x)) <= 1e-12

    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_float32_runs_in_float32(self, kind):
        m = build_rotation(kind, KRON_MIN_ORDER, seed=3)
        x = np.random.default_rng(1).standard_normal((8, m.n))
        op, d = RotationOperator(m), m.dense()
        for transpose, ref in ((False, x @ d), (True, x @ d.T)):
            got = op.apply(x.astype(np.float32), transpose=transpose)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_round_trip(self, kind):
        op = RotationOperator(build_rotation(kind, 2 * KRON_MIN_ORDER, seed=8))
        x = np.random.default_rng(2).standard_normal((5, op.n))
        assert np.max(np.abs(op.apply(op.apply(x), transpose=True) - x)) < 1e-12
        assert np.max(np.abs(op.apply(op.apply(x, transpose=True)) - x)) < 1e-12
        # a transposed (Fortran-order) input gives the same product
        assert np.array_equal(op.apply(np.asfortranarray(x)), op.apply(x))

    @pytest.mark.parametrize("kind", KINDS)
    def test_never_densified(self, monkeypatch, kind):
        # a block of order >= KRON_MIN_ORDER, global or local, is never built:
        # not as an n x n matrix, not as blocks, not as one b x b float block
        m = build_rotation(kind, 2 * KRON_MIN_ORDER, KRON_MIN_ORDER, seed=4)
        x = np.random.default_rng(3).standard_normal((3, m.n))

        def refuse(*args, **kwargs):
            raise AssertionError("densified")

        monkeypatch.setattr(OrthoMatrix, "dense", refuse)
        monkeypatch.setattr(OrthoMatrix, "signs", property(refuse))
        monkeypatch.setattr(OrthoMatrix, "blocks", property(refuse))
        out = {}

        def run():
            op = RotationOperator(m)
            out["block"] = op.block
            op.apply(op.apply(x), transpose=True)

        assert traced_peak(run) < KRON_MIN_ORDER ** 2   # below even one int8 block
        assert out["block"] is None

    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_below_threshold_and_external_are_dense_products(self, kind):
        small = build_rotation(kind, KRON_MIN_ORDER // 2, seed=6)
        external = build_rotation(kind, KRON_MIN_ORDER, seed=6).dense()
        for r, d in ((small, small.dense()), (external, external)):
            x = np.random.default_rng(5).standard_normal((16, len(d)))
            op = RotationOperator(r)
            assert op.factors is None
            assert np.array_equal(op.apply(x), x @ d)
            assert np.array_equal(op.apply(x, transpose=True), x @ d.T)


class TestBlockStorage:
    """A rotation stores only its diagonal blocks; ``signs`` and ``dense``
    give the n x n matrix of the old full-matrix construction bit for bit."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_signs_and_dense_match_the_full_construction(self, k):
        n = 1 << k
        h, w = hadamard_sylvester(n), walsh_from_hadamard(hadamard_sylvester(n))
        cases = [(h, oracles.hadamard_signs(n)), (w, oracles.walsh_signs(n))]
        for seed in (0, 12345):
            d = oracles.splitmix64_signs(seed, n)
            cases += [(randomize_signs(h, seed), oracles.flip_columns(cases[0][1], d)),
                      (randomize_signs(w, seed), oracles.flip_columns(cases[1][1], d))]
        for g in (1 << j for j in range(1, k + 1)):
            for kind, base in ((KIND_GSR, BASE_WALSH), (KIND_LH, BASE_HADAMARD)):
                cases += [(build_rotation(kind, n, g), oracles.gsr_signs(n, g, base)),
                          (build_rotation(kind, n, g, 7), oracles.gsr_signs(n, g, base, 7))]
        for m, want in cases:
            signs = m.signs
            assert signs.dtype == np.int8 and signs.shape == (n, n)
            assert signs.tobytes() == want.tobytes(), (m.kind, m.group_size, m.seed)
            assert not signs.flags.writeable
            for dtype in (np.float64, np.float32):
                assert m.dense(dtype).tobytes() == (want.astype(dtype)
                                                    * dtype(m.scale)).tobytes()

    def test_gsr_at_max_order_never_builds_its_signs(self, monkeypatch):
        def no_signs(self):
            raise AssertionError("the n x n sign matrix was built")

        monkeypatch.setattr(OrthoMatrix, "signs", property(no_signs))
        m = gsr(MAX_ORDER, 64)
        assert m.blocks.nbytes == 65536 * 64
        # +-1 block products are small integers, exact in float64: R R^T = I exactly
        blocks = m.blocks.astype(np.float64)
        gram = blocks @ blocks.transpose(0, 2, 1)
        assert np.array_equal(gram, np.broadcast_to(64 * np.eye(64), gram.shape))
        seq = sequency_profile(m, 64).per_row_sequency
        assert np.array_equal(seq, np.tile(np.arange(64), MAX_ORDER // 64))
        op = RotationOperator(m)
        x = np.random.default_rng(0).standard_normal((2, MAX_ORDER))
        assert np.max(np.abs(op.apply(op.apply(x), transpose=True) - x)) < 1e-12


class TestOperatorBlock:
    @pytest.mark.parametrize("kind,n,g", [(KIND_GH, 512, None), (KIND_GW, 512, None),
                                          (KIND_GH, 2, None), (KIND_GW, 8, None),
                                          (KIND_LH, 1024, 64), (KIND_GSR, 1024, 64),
                                          (KIND_LH, 2048, 512), (KIND_GSR, 64, 2)])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_is_the_first_unsigned_block(self, kind, n, g, seed):
        # the operator's block comes from the rotation's own row generator
        m = build_rotation(kind, n, g, seed)
        assert (g or n) < KRON_MIN_ORDER
        want = dataclasses.replace(m, seed=None).blocks[0] * m.scale
        got = RotationOperator(m).block
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,n,g", [(KIND_GH, 16, None), (KIND_GSR, 64, 16),
                                          (KIND_GH, 2048, None)])
    def test_factors_are_built_once(self, kind, n, g, monkeypatch):
        RotationOperator(build_rotation(kind, n, g, 3))
        calls = []
        real = np.block

        def counting(arrays):
            calls.append(1)
            return real(arrays)

        monkeypatch.setattr(np, "block", counting)
        op = RotationOperator(build_rotation(kind, n, g, 4))
        next(build_rotation(kind, n, g)._row_tiles(n))
        assert calls == []
        x = np.random.default_rng(0).standard_normal((2, n))
        assert np.max(np.abs(op.apply(op.apply(x), transpose=True) - x)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 16, 256, 1 << 15])
    def test_cached_factors_are_read_only(self, n):
        for f in _factors(n):
            assert f.dtype == np.int8
            assert not f.flags.writeable
            with pytest.raises(ValueError):
                f[0, 0] = 0
            assert np.array_equal(f, scipy_hadamard(len(f)))


class TestOperatorDtype:
    @pytest.mark.parametrize("r", [randomize_signs(build_rotation(KIND_LH, 64, 16), 1),
                                   walsh_from_hadamard(hadamard_sylvester(64))])
    def test_products_run_in_the_dtype_of_x(self, r):
        x = np.random.default_rng(1).standard_normal((3, 64))
        op = RotationOperator(r)
        for transpose in (False, True):
            want = op.apply(x, transpose).astype(np.float32)
            got = op.apply(x.astype(np.float32), transpose)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - want)) < 1e-5
        assert op.apply(np.arange(64).reshape(1, 64)).dtype == np.float64


class TestValue:
    """A rotation is the value (kind, n, group, seed): checked when it is made,
    equal to every rotation made from the same four, its blocks built on
    each read and never stored."""

    @pytest.mark.parametrize("args,error", [
        (("x", 8), InvalidConfigError), (("GH", 8), InvalidConfigError),
        (("gh", 8, 4), InvalidConfigError), (("gsr", 8), InvalidConfigError),
        (("gh", 12), NonPowerOfTwoError), (("gh", 1), NonPowerOfTwoError),
        (("gh", 0), NonPowerOfTwoError), (("gh", 8.0), NonPowerOfTwoError),
        (("gh", "8"), NonPowerOfTwoError), (("gh", True), NonPowerOfTwoError),
        (("gw", 2 * MAX_ORDER), OrderTooLargeError), (("lh", 8, 1), NonPowerOfTwoError),
        (("lh", 8, 3), NonPowerOfTwoError), (("lh", 8, 4.0), NonPowerOfTwoError),
        (("lh", 8, 16), GroupDoesNotDivideError), (("gsr", 8, -4), NonPowerOfTwoError),
        (("gw", 8, None, 1.5), InvalidConfigError), (("gw", 8, None, True), InvalidConfigError),
        (("gw", 8, None, "3"), InvalidConfigError),
    ])
    def test_rejects_what_no_rotation_is(self, args, error):
        with pytest.raises(error):
            OrthoMatrix(*args)

    def test_constructors_make_the_same_value(self):
        h = hadamard_sylvester(8)
        assert h == OrthoMatrix(KIND_GH, 8) == build_rotation(KIND_GH, 8, 4)   # gh reads no group
        assert walsh_from_hadamard(randomize_signs(h, 3)) == OrthoMatrix(KIND_GW, 8, None, 3)
        assert randomize_signs(gsr(16, 4), 2) == build_rotation(KIND_GSR, 16, 4, 2)
        assert build_rotation(KIND_LH, 16, 4) != gsr(16, 4)
        assert len({h, OrthoMatrix(KIND_GH, 8), hadamard_sylvester(16)}) == 2

    def test_signs_are_flipped_once(self):
        with pytest.raises(InvalidConfigError):
            randomize_signs(build_rotation(KIND_LH, 16, 4, seed=1), 2)

    def test_blocks_built_on_each_read_and_read_only(self):
        for kind, other in ((KIND_GH, KIND_GW), (KIND_GW, KIND_GH), (KIND_LH, KIND_GSR),
                            (KIND_GSR, KIND_LH)):
            m = build_rotation(kind, 16, 4, 2)
            blocks = m.blocks
            assert blocks.shape == ((4, 4, 4) if m.group else (1, 16, 16))
            with pytest.raises(ValueError):
                blocks[0, 0, 0] = 0
            again = m.blocks
            assert again is not blocks and not np.shares_memory(again, blocks)
            assert np.array_equal(again, blocks) and not again.flags.writeable
            assert m.signs.any() and m.dense().any()
            assert sorted(vars(m)) == ["group", "kind", "n", "seed"]   # the value, nothing more
            assert not np.array_equal(dataclasses.replace(m, kind=other).blocks, blocks)

    def test_reading_the_signs_keeps_nothing(self):
        # a gh at n = 4096 is one 16 MiB int8 block; it lives only while it is read
        m = build_rotation(KIND_GH, 4096, seed=3)
        tracemalloc.start()
        try:
            signs = m.signs
            assert tracemalloc.get_traced_memory()[0] >= 16 << 20
            del signs
            assert tracemalloc.get_traced_memory()[0] < 1 << 20
        finally:
            tracemalloc.stop()

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(KINDS), log_n=st.integers(1, 9), data=st.data(),
           seed=st.none() | st.integers(-2 ** 63, 2 ** 64 - 1))
    def test_sequencies_match_the_oracles(self, kind, log_n, data, seed):
        # the blocks themselves are checked with the file round trip in test_tensorfile
        n = 1 << log_n
        g = (1 << data.draw(st.integers(1, log_n), label="log_g")
             if kind in (KIND_LH, KIND_GSR) else None)
        m = build_rotation(kind, n, g, seed)
        seq = sequency_profile(m, g or n).per_row_sequency
        assert "blocks" not in vars(m)
        assert np.array_equal(seq, oracles.row_sequencies(oracles.rotation_signs(kind, n, g, seed)))

    def test_column_signs_change_the_sequencies(self):
        # the natural-order formula holds for an unsigned gh only
        assert oracles.natural_sequency_formula(8).tolist() == SEQ8_NATURAL
        seq = sequency_profile(build_rotation(KIND_GH, 8, seed=3), 4).per_row_sequency
        assert seq.tolist() == [5, 2, 6, 1, 6, 1, 5, 2]

    @pytest.mark.parametrize("kind,n,g", [(KIND_GH, 2048, None), (KIND_GW, 4096, None),
                                          (KIND_LH, MAX_ORDER, 64), (KIND_GSR, MAX_ORDER, 256)])
    def test_sequency_tiles_agree_with_the_blocks(self, kind, n, g):
        # several tiles, each a part of one block or whole blocks
        m = build_rotation(kind, n, g, 7)
        seq = sequency_profile(m, g or n).per_row_sequency
        assert np.array_equal(seq, _row_sequencies(m.blocks.reshape(n, -1)))
        if g is None:
            assert m.signs.tobytes() == oracles.rotation_signs(kind, n, g, 7).tobytes()


class TestGlobalKindsAtScale:
    """A gh or gw rotation at n = 16384 is built, applied and profiled without
    its 256 MiB block."""

    N = 16384
    LIMIT = 16 << 20

    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_build_and_apply(self, kind):
        x = np.random.default_rng(0).standard_normal((8, self.N))
        out = {}

        def run():
            op = RotationOperator(build_rotation(kind, self.N, seed=5))
            out["back"] = op.apply(op.apply(x), transpose=True)

        assert traced_peak(run) < self.LIMIT
        assert np.max(np.abs(out["back"] - x)) < 1e-12

    @pytest.mark.parametrize("kind", [KIND_GH, KIND_GW])
    def test_sequency_profile(self, kind):
        m = build_rotation(kind, self.N, seed=5)
        assert traced_peak(lambda: sequency_profile(m, 64)) < self.LIMIT
        assert "blocks" not in vars(m)
        seq = sequency_profile(build_rotation(kind, self.N), 64).per_row_sequency
        want = oracles.natural_sequency_formula(self.N) if kind == KIND_GH else np.arange(self.N)
        assert np.array_equal(seq, want)
