from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mse_clip_search

from seqrot import quant
from seqrot.errors import (
    EmptyCalibrationError,
    GroupDoesNotDivideError,
    InvalidSpecError,
    NonFiniteInputError,
    ShapeMismatchError,
    SingularHessianError,
)
from seqrot.quant import (
    CLIP_MSE,
    CLIP_NONE,
    CLIP_RATIO,
    DEFAULT_MSE_GRID,
    METRIC_MAX_ABS,
    METRIC_MSE,
    METRIC_PROXY,
    CalibrationHessian,
    Clip,
    QuantSpec,
    _clip_errors,
    _group_view,
    _pairwise_sum,
    _search_ratios,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    round_half_away,
    rtn_quantize,
)


def rt(w, spec):
    return dequantize(rtn_quantize(np.asarray(w, dtype=np.float64), spec))


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49])
        assert round_half_away(x).tolist() == [1, 2, 3, -1, -2, -3, 0, -0]


class TestSpecValidation:
    def test_bits_range(self):
        for bits in (1, 0, 9):
            with pytest.raises(InvalidSpecError):
                QuantSpec(bits=bits)

    def test_clip_validation(self):
        with pytest.raises(InvalidSpecError):
            QuantSpec(bits=4, clip=Clip.fixed(0.0))
        with pytest.raises(InvalidSpecError):
            QuantSpec(bits=4, clip=Clip.fixed(1.5))
        with pytest.raises(InvalidSpecError):
            QuantSpec(bits=4, clip=Clip.mse(grid=()))

    def test_group_must_divide(self):
        with pytest.raises(GroupDoesNotDivideError):
            rtn_quantize(np.zeros((2, 6)), QuantSpec(bits=4, group_size=4))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 0), (4,), (0,), (2, 2, 2)])
    @pytest.mark.parametrize("group_size", [None, 2])
    def test_not_a_matrix_with_columns_rejected(self, shape, group_size):
        spec = QuantSpec(bits=2, group_size=group_size, clip=Clip.mse())
        with pytest.raises(ShapeMismatchError):
            rtn_quantize(np.zeros(shape), spec)
        with pytest.raises(ShapeMismatchError):
            gptq_quantize(np.zeros(shape), hessian_from_calibration(np.ones((3, 2))), spec)

    @pytest.mark.parametrize("shape", [(8,), (2, 2, 2), (2, 0)])
    def test_dequantize_rejects_codes_of_other_shapes(self, shape):
        q = rtn_quantize(np.arange(8.0).reshape(2, 4), QuantSpec(bits=2))
        bad = replace(q, codes=np.zeros(shape, dtype=np.int64), shape=shape)
        with pytest.raises(ShapeMismatchError):
            dequantize(bad)


class TestRtn:
    def test_lattice_asymmetric(self):
        spec = QuantSpec(bits=2, group_size=4, symmetric=False)
        q = rtn_quantize(np.array([[0.0, 1.0, 2.0, 3.0]]), spec)
        assert q.scales[0, 0] == 1.0
        assert q.zero_points[0, 0] == 0
        assert q.codes.tolist() == [[0, 1, 2, 3]]
        assert dequantize(q).tolist() == [[0.0, 1.0, 2.0, 3.0]]

    def test_symmetric_hand_rounded(self):
        spec = QuantSpec(bits=2, group_size=4, symmetric=True)
        q = rtn_quantize(np.array([[-3.0, -1.0, 1.0, 3.0]]), spec)
        assert q.scales[0, 0] == 3.0
        assert q.zero_points is None
        assert q.codes.tolist() == [[-1, 0, 0, 1]]
        assert dequantize(q).tolist() == [[-3.0, 0.0, 0.0, 3.0]]

    def test_mse_clip_prefers_full_range_for_single_spike(self):
        spec = QuantSpec(bits=2, group_size=4, clip=Clip.mse())
        q = rtn_quantize(np.array([[0.0, 0.0, 0.0, 10.0]]), spec)
        err = float(((dequantize(q) - [0.0, 0.0, 0.0, 10.0]) ** 2).sum())
        # brute-force every grid ratio independently: 1.0 is lattice-exact here
        ratio, best = mse_clip_search(np.array([0.0, 0.0, 0.0, 10.0]), spec)
        assert ratio == 1.0
        assert err <= best + 1e-24

    def test_degenerate_groups_exact(self):
        spec = QuantSpec(bits=2, group_size=4)
        for c in (0.0, 0.3, -2.7, 5.0):
            w = np.full((2, 4), c)
            q = rtn_quantize(w, spec)
            assert np.array_equal(dequantize(q), w), c
        spec_s = QuantSpec(bits=2, group_size=4, symmetric=True)
        assert np.array_equal(rt(np.zeros((1, 4)), spec_s), np.zeros((1, 4)))

    def test_per_channel_sentinel(self):
        spec = QuantSpec(bits=4, group_size=None)
        q = rtn_quantize(np.arange(12.0).reshape(3, 4), spec)
        assert q.scales.shape == (3, 1)

    def test_codes_within_range(self):
        rng = np.random.default_rng(0)
        for symmetric in (False, True):
            for bits in (2, 3, 8):
                spec = QuantSpec(bits=bits, group_size=8, symmetric=symmetric)
                q = rtn_quantize(rng.standard_normal((16, 32)) * 10, spec)
                assert q.codes.min() >= spec.qmin
                assert q.codes.max() <= spec.qmax

    def test_error_bound_unclamped(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((8, 64))
        spec = QuantSpec(bits=3, group_size=16)
        q = rtn_quantize(w, spec)
        w_hat = dequantize(q)
        scales = np.repeat(q.scales, 16, axis=1)
        zeros = np.repeat(q.zero_points, 16, axis=1)
        # recompute which elements were clamped, independently of the quantizer
        raw = round_half_away(w / scales) + zeros
        clamped = (raw < spec.qmin) | (raw > spec.qmax)
        err = np.abs(w - w_hat)
        assert np.all(err[~clamped] <= scales[~clamped] / 2 + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((8, 32))
        spec = QuantSpec(bits=2, group_size=8, clip=Clip.mse())
        a = rtn_quantize(w, spec)
        b = rtn_quantize(w.copy(), spec)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.scales, b.scales)
        assert np.array_equal(a.zero_points, b.zero_points)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_code_range_property(self, bits, symmetric, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 16)) * rng.uniform(0.1, 50)
        spec = QuantSpec(bits=bits, group_size=4, symmetric=symmetric)
        q = rtn_quantize(w, spec)
        assert q.codes.min() >= spec.qmin
        assert q.codes.max() <= spec.qmax

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_lattice_exact_round_trip(self, bits, seed):
        # groups whose values sit on a full-span code lattice reproduce exactly
        rng = np.random.default_rng(seed)
        spec = QuantSpec(bits=bits, group_size=8, symmetric=False)
        scale = float(rng.integers(1, 64)) / 16.0   # dyadic, so scale recovery is exact
        codes = rng.integers(spec.qmin, spec.qmax + 1, size=(3, 32))
        codes[:, ::8] = spec.qmin   # force full span in every group
        codes[:, 7::8] = spec.qmax
        w = codes.astype(np.float64) * scale
        assert np.array_equal(dequantize(rtn_quantize(w, spec)), w)


class TestMseClipSearch:
    def test_lattice_exact(self):
        spec = QuantSpec(bits=2, group_size=4)
        assert mse_clip_search(np.array([0.0, 1.0, 2.0, 3.0]), spec) == (1.0, 0.0)

    def test_all_zero_group(self):
        spec = QuantSpec(bits=2, group_size=4)
        assert mse_clip_search(np.zeros(4), spec) == (1.0, 0.0)

    def test_equals_exhaustive_evaluation(self):
        rng = np.random.default_rng(11)
        spec = QuantSpec(bits=2, group_size=128)
        group = rng.standard_normal(128)
        ratio, err = mse_clip_search(group, spec)
        # independent re-evaluation: quantize with each fixed ratio directly
        errs = {}
        for r in DEFAULT_MSE_GRID:
            s = QuantSpec(bits=2, group_size=128, clip=Clip.fixed(r))
            errs[r] = float(((rt(group.reshape(1, -1), s) - group) ** 2).sum())
        best = min(errs.values())
        assert err == pytest.approx(best, abs=1e-18)
        assert errs[ratio] == pytest.approx(best, abs=1e-18)

    def test_monotone_vs_no_clip(self):
        rng = np.random.default_rng(5)
        spec = QuantSpec(bits=2, group_size=64)
        for _ in range(20):
            group = rng.standard_t(4, size=64)
            _, err = mse_clip_search(group, spec)
            s1 = QuantSpec(bits=2, group_size=64, clip=Clip.fixed(1.0))
            full = float(((rt(group.reshape(1, -1), s1) - group) ** 2).sum())
            assert err <= full + 1e-15


GROUP_SIZES = (1, 3, 7, 8, 15, 64, 100, 128, 129, 136, 300)
GRID_RATIOS = (1.0, 0.97, 0.9, 0.85, 0.8, 0.75, 0.6, 0.5, 0.33)


# weights and MSE grids of the kernel-against-oracle tests
WEIGHT_CASES = dict(
    bits=st.integers(2, 8), symmetric=st.booleans(),
    g=st.sampled_from(GROUP_SIZES), rows=st.integers(1, 5),
    n_groups=st.integers(1, 3), transposed=st.booleans(),
    lattice=st.booleans(), shift=st.sampled_from((0.0, -6.0, 6.0)),
    seed=st.integers(0, 2 ** 32 - 1),
    grid=st.one_of(st.just(DEFAULT_MSE_GRID),
                   st.lists(st.sampled_from(GRID_RATIOS), min_size=1, max_size=12)))


def case_weights(rows, n_groups, g, transposed, lattice, shift, seed):
    rng = np.random.default_rng(seed)
    shape = (rows, n_groups * g)
    # a shift makes most groups one-signed, where the code clamps bind
    if lattice:   # few distinct values: many exact error ties
        w = rng.integers(-3, 4, size=shape) + shift
    else:
        w = (rng.standard_t(4, size=shape) + shift) * 10.0 ** rng.uniform(-4, 4)
    if transposed:
        w = np.ascontiguousarray(w.T).T
    return w


class TestSearchRatios:
    """The tiled element-major kernel gives every error and every chosen
    ratio bit for bit as the per-group oracle ``mse_clip_search``."""

    @settings(max_examples=60, deadline=None)
    @given(**WEIGHT_CASES)
    def test_matches_per_group_oracle(self, bits, symmetric, g, rows, n_groups,
                                      transposed, lattice, shift, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, lattice, shift, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        grouped = _group_view(w, g)
        ratios = _search_ratios(grouped, spec, spec.clip.grid)
        distinct = sorted(set(grid), reverse=True)
        errors = _clip_errors(grouped, spec, np.asarray(distinct))
        for r in range(rows):
            for j in range(n_groups):
                group = grouped[r, j]
                if group.min() == group.max():
                    continue   # the oracle short-cuts constant groups
                expected, _ = mse_clip_search(group, spec, spec.clip.grid)
                assert ratios[r, j] == expected
                for i, ratio in enumerate(distinct):
                    _, err = mse_clip_search(group, spec, (ratio,))
                    assert errors[i, r, j].tobytes() == np.float64(err).tobytes()

    def test_constant_group_gets_largest_ratio(self):
        spec = QuantSpec(bits=2, group_size=4, clip=Clip.mse((0.8, 0.9, 0.9)))
        w = np.array([[2.0, 2.0, 2.0, 2.0, 0.0, 1.0, 2.0, 5.0]])
        ratios = _search_ratios(_group_view(w, 4), spec, spec.clip.grid)
        assert ratios[0, 0] == 0.9

    def test_multi_tile_matches_single_rows(self):
        # 600 rows of 512 columns span many row tiles and a ragged last tile
        rng = np.random.default_rng(2)
        w = rng.standard_t(4, size=(600, 512))
        spec = QuantSpec(bits=2, group_size=64, clip=Clip.mse())
        whole = _search_ratios(_group_view(w, 64), spec, spec.clip.grid)
        for r in (0, 31, 32, 599):
            one = _search_ratios(_group_view(w[r:r + 1], 64), spec, spec.clip.grid)
            assert np.array_equal(whole[r], one[0])

    def test_nan_error_is_never_chosen(self, monkeypatch):
        # finite weights give NaN errors only in extreme cases (see
        # TestSubnormalRange for the one that no longer does), so the rule is
        # checked on injected errors: group 0 skips the NaN and keeps the
        # first of two tied ratios, group 1 has only NaN/inf errors and keeps 1.0
        spec = QuantSpec(bits=6, group_size=4, clip=Clip.mse((0.96, 0.62, 0.6, 0.12)))
        err = np.array([[[np.nan, np.nan]], [[2.0, np.inf]], [[3.0, np.nan]],
                        [[2.0, np.inf]]])
        monkeypatch.setattr(quant, "_clip_errors", lambda grouped, spec, ratios: err.copy())
        grouped = _group_view(np.arange(8.0).reshape(1, 8), 4)
        assert _search_ratios(grouped, spec, spec.clip.grid).tolist() == [[0.62, 1.0]]

    def test_pairwise_sum_replays_numpy_row_sum(self):
        # if numpy ever changes its summation order, this fails first
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            a = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8, 8, size=(3, n))
            a = np.vstack([a, np.full(n, -0.0)])
            assert _pairwise_sum(a.T).tobytes() == a.sum(axis=-1).tobytes(), n


class TestQuantizersMatchOracle:
    """Both quantizers give, bit for bit, the codes, scales and zero points of
    the quantizer written out with its formulas from before the shared
    kernel (``oracles.rtn_quantize``, ``oracles.gptq_codes``)."""

    @settings(max_examples=60, deadline=None)
    @given(clip=st.sampled_from((CLIP_NONE, CLIP_RATIO, CLIP_MSE)), **WEIGHT_CASES)
    def test_rtn(self, clip, bits, symmetric, g, rows, n_groups, transposed, lattice,
                 shift, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, lattice, shift, seed)
        clip = {CLIP_NONE: Clip.none(), CLIP_RATIO: Clip.fixed(min(grid)),
                CLIP_MSE: Clip.mse(tuple(grid))}[clip]
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric, clip=clip)
        qt = rtn_quantize(w, spec)
        codes, scales, zeros = oracles.rtn_quantize(w, spec)
        assert qt.codes.tobytes() == codes.tobytes()
        assert qt.scales.tobytes() == scales.tobytes()
        if symmetric:
            assert qt.zero_points is None and zeros is None
        else:
            assert qt.zero_points.tobytes() == zeros.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(**WEIGHT_CASES)
    def test_gptq(self, bits, symmetric, g, rows, n_groups, transposed, lattice,
                  shift, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, lattice, shift, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        d = w.shape[1]
        h = hessian_from_calibration(np.random.default_rng(seed).standard_normal((d + 8, d)))
        assert gptq_quantize(w, h, spec).codes.tobytes() \
            == oracles.gptq_codes(w, h, spec).tobytes()


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rtn_rejects(self, bad):
        w = np.ones((2, 8))
        w[1, 3] = bad
        for clip in (Clip.none(), Clip.mse()):
            with pytest.raises(NonFiniteInputError):
                rtn_quantize(w, QuantSpec(bits=2, group_size=4, clip=clip))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gptq_rejects(self, bad):
        w = np.ones((2, 8))
        w[0, 5] = bad
        h = hessian_from_calibration(np.random.default_rng(0).standard_normal((16, 8)))
        with pytest.raises(NonFiniteInputError):
            gptq_quantize(w, h, QuantSpec(bits=2, group_size=4, clip=Clip.mse()))

    @pytest.mark.parametrize("case", ["all_nan", "nan_pair", "inf_diagonal"])
    def test_gptq_rejects_hessian(self, case):
        x = np.random.default_rng(0).standard_normal((16, 8))
        m = hessian_from_calibration(x).matrix.copy()
        if case == "all_nan":
            m[:] = np.nan
        elif case == "nan_pair":
            m[2, 5] = m[5, 2] = np.nan
        else:
            m[3, 3] = np.inf
        h = CalibrationHessian(matrix=m, sample_count=16)
        with pytest.raises(NonFiniteInputError, match="Hessian"):
            gptq_quantize(np.ones((2, 8)), h, QuantSpec(bits=2, group_size=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hessian_rejects_activations(self, bad):
        x = np.ones((4, 8))
        x[2, 6] = bad
        with pytest.raises(NonFiniteInputError, match="activations"):
            hessian_from_calibration(x)

    @pytest.mark.parametrize("x", [[[1e200, 1.0], [1.0, 1.0]],   # X^T X overflows
                                   [[1.2e154, 1.0]],              # 2 X^T X overflows
                                   [[1e200, -1e200], [1e200, 1e200]]])  # inf - inf
    def test_hessian_rejects_overflow(self, x):
        # pytest turns any RuntimeWarning into an error, so none may escape
        with pytest.raises(NonFiniteInputError, match="overflows"):
            hessian_from_calibration(x)


class TestRangeOverflow:
    """A finite asymmetric group whose range overflows float64 raises instead
    of giving an inf or NaN scale and INT64_MIN codes."""

    @pytest.mark.parametrize("w", [[[-1e308, 1e308, 0.0, 0.0]],
                                   [[1e308, 1.7e308, 1.5e308, 1.2e308]]])
    @pytest.mark.parametrize("clip", [Clip.none(), Clip.mse()])
    def test_rejected(self, w, clip):
        spec = QuantSpec(bits=3, group_size=4, clip=clip)
        h = hessian_from_calibration(np.random.default_rng(0).standard_normal((8, 4)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInputError):
                rtn_quantize(w, spec)
            with pytest.raises(NonFiniteInputError):
                gptq_quantize(w, h, spec)

    @pytest.mark.parametrize("c", [1e308, -1e308, 1.7e308, -1.7e308])
    def test_constant_group_exact(self, c):
        # twice c overflows, but a constant group needs no midpoint
        w = np.full((1, 4), c)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(rt(w, QuantSpec(bits=3, group_size=4)), w)

    def test_symmetric_spec_unaffected(self):
        w = np.array([[-1e308, 1e308, 0.0, 0.0]])
        q = rtn_quantize(w, QuantSpec(bits=3, group_size=4, symmetric=True))
        assert q.codes.tolist() == [[-3, 3, 0, 0]]
        assert np.array_equal(dequantize(q), w)


class TestHessian:
    def test_one_hot(self):
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        h = hessian_from_calibration(x)
        expected = np.zeros((4, 4))
        expected[2, 2] = 2.0
        assert np.array_equal(h.matrix, expected)
        assert h.sample_count == 1

    def test_identity_samples(self):
        h = hessian_from_calibration(np.eye(4))
        assert np.allclose(h.matrix, 0.5 * np.eye(4))

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4))
        h = hessian_from_calibration(x).matrix
        naive = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                naive[a, b] = 2.0 * sum(x[i, a] * x[i, b] for i in range(8)) / 8
        assert np.max(np.abs(h - naive)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyCalibrationError):
            hessian_from_calibration(np.zeros((0, 4)))

    @pytest.mark.parametrize("samples,d", [(1, 5), (1, 130), (3, 1), (7, 63), (40, 64),
                                           (33, 65), (20, 200), (256, 257)])
    def test_bit_identical_to_full_matrix_formula(self, samples, d):
        rng = np.random.default_rng(samples * 1000 + d)
        base = rng.standard_normal((2 * samples, 3 * d)) * 10.0 ** rng.uniform(-3, 3, 3 * d)
        inputs = (base[:samples, :d].copy(),
                  np.asfortranarray(base[:samples, :d]),
                  base[::2, ::3])
        for x in inputs:
            h = hessian_from_calibration(x).matrix
            # of the C-contiguous copy: a strided view's x.T @ x rounds otherwise
            want = oracles.hessian_matrix(np.ascontiguousarray(x))
            assert np.array_equal(h.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(h.view(np.uint64), h.T.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 200])
    def test_symmetrize_matches_full_expression(self, n):
        # the Hessian is exactly symmetric as built, so 0.5 * (h + h.T) changes
        # no bit; x.T @ x of a strided view would differ from its transpose
        base = np.random.default_rng(n).standard_normal((2000, 3 * n))
        for x in (base[:1000, :n].copy(), np.asfortranarray(base[:1000, :n]), base[::2, ::3]):
            h = hessian_from_calibration(x).matrix
            assert np.array_equal(h.view(np.uint64), h.T.view(np.uint64))
            assert h.tobytes() == (0.5 * (h + h.T)).tobytes()

    def test_one_sample_vector(self):
        x = np.array([1.0, -2.0, 3.0])
        h = hessian_from_calibration(x)
        assert h.sample_count == 1
        assert np.array_equal(h.matrix, 2.0 * np.outer(x, x))


TINY = 5e-324   # 2^-1074, the smallest positive double


class TestSubnormalRange:
    """Groups whose scale underflows to 0 keep finite, in-range codes."""

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_codes_and_scales_stay_valid(self, symmetric):
        spec = QuantSpec(bits=3, group_size=4, symmetric=symmetric)
        qt = rtn_quantize([[TINY, 0.0, 0.0, 0.0]], spec)
        assert qt.codes.min() >= spec.qmin and qt.codes.max() <= spec.qmax
        assert qt.scales[0, 0] == TINY
        if not symmetric:
            assert spec.qmin <= qt.zero_points[0, 0] <= spec.qmax
        back = dequantize(qt)
        assert np.all(np.isfinite(back)) and np.max(np.abs(back - [TINY, 0, 0, 0])) <= TINY

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(2, 8),
           values=st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    def test_symmetric_round_trip_exact(self, bits, values):
        # a range below qpos/2 units of 2^-1074 underflows the scale; in units
        # of 2^-1074 the codes are the values themselves
        w = np.array([values], dtype=np.float64) * TINY
        spec = QuantSpec(bits=bits, group_size=4, symmetric=True)
        if np.max(np.abs(values)) < spec.qmax / 2:
            assert np.array_equal(dequantize(rtn_quantize(w, spec)), w)

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(2, 8), symmetric=st.booleans(),
           values=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
           grid=st.lists(st.sampled_from(GRID_RATIOS), min_size=1, max_size=6))
    def test_clip_errors_match_oracle(self, bits, symmetric, values, grid):
        w = np.array([values], dtype=np.float64) * TINY
        spec = QuantSpec(bits=bits, group_size=4, symmetric=symmetric, clip=Clip.mse(tuple(grid)))
        grouped = _group_view(w, 4)
        distinct = sorted(set(grid), reverse=True)
        # underflow is expected here; 0/0 or a division by a zero scale is not
        with np.errstate(invalid="raise", divide="raise", under="ignore"):
            errors = _clip_errors(grouped, spec, np.asarray(distinct))
            ratio = _search_ratios(grouped, spec, spec.clip.grid)[0, 0]
            qt = rtn_quantize(w, spec)
        assert not np.isnan(errors).any()
        assert qt.codes.min() >= spec.qmin and qt.codes.max() <= spec.qmax
        if w.min() == w.max():
            return   # the oracle short-cuts constant groups
        assert ratio == mse_clip_search(w[0], spec, spec.clip.grid)[0]
        for i, r in enumerate(distinct):
            _, err = mse_clip_search(w[0], spec, (r,))
            assert errors[i, 0, 0].tobytes() == np.float64(err).tobytes()


def random_spd_hessian(rng, d, samples=None):
    x = rng.standard_normal((samples or 2 * d, d))
    return hessian_from_calibration(x)


class TestGptq:
    def test_single_column_equals_rtn(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 1))
        spec = QuantSpec(bits=2, group_size=1)
        h = CalibrationHessian(matrix=np.array([[2.0]]), sample_count=1)
        assert np.array_equal(gptq_quantize(w, h, spec).codes,
                              rtn_quantize(w, spec).codes)

    def test_scaled_identity_hessian_matches_rtn_objective(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 8))
        spec = QuantSpec(bits=2, group_size=8)
        h = CalibrationHessian(matrix=3.0 * np.eye(8), sample_count=8)
        g = quant_error(w, dequantize(gptq_quantize(w, h, spec)), METRIC_PROXY, h)
        r = quant_error(w, dequantize(rtn_quantize(w, spec)), METRIC_PROXY, h)
        assert abs(g - r) < 1e-12

    def test_2x2_exhaustive_bracket(self):
        rng = np.random.default_rng(9)
        spec = QuantSpec(bits=2, group_size=2)
        for _ in range(20):
            w = rng.standard_normal((2, 2))
            h = random_spd_hessian(rng, 2)
            q = gptq_quantize(w, h, spec)
            g_obj = quant_error(w, dequantize(q), METRIC_PROXY, h)
            r_obj = quant_error(w, dequantize(rtn_quantize(w, spec)), METRIC_PROXY, h)
            best = exhaustive_optimum(w, h, q)
            assert g_obj <= r_obj + 1e-12
            assert g_obj >= best - 1e-12

    def test_dominates_rtn_over_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            d = int(rng.choice([4, 8, 16]))
            w = rng.standard_normal((4, d))
            h = random_spd_hessian(rng, d)
            spec = QuantSpec(bits=2, group_size=d)
            g = quant_error(w, dequantize(gptq_quantize(w, h, spec)), METRIC_PROXY, h)
            r = quant_error(w, dequantize(rtn_quantize(w, spec)), METRIC_PROXY, h)
            assert g <= r + 1e-12

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("d", [64, 128, 200, 384, 520])
    def test_matches_oracle_across_batches(self, d, symmetric):
        # widths below, at and across the sweep's 128-column batches
        rng = np.random.default_rng(d)
        w = rng.standard_normal((8, d))
        h = random_spd_hessian(rng, d, samples=d + 8)
        spec = QuantSpec(bits=2, group_size=8, symmetric=symmetric,
                         clip=Clip.mse((1.0, 0.9, 0.8, 0.7, 0.6)))
        codes = gptq_quantize(w, h, spec).codes
        assert codes.tobytes() == oracles.gptq_codes(w, h, spec).tobytes()
        assert not np.array_equal(codes, rtn_quantize(w, spec).codes)

    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), -np.eye(4)])
    def test_not_positive_definite_rejected(self, matrix):
        h = CalibrationHessian(matrix=matrix, sample_count=1)
        with pytest.raises(SingularHessianError):
            gptq_quantize(np.ones((2, 4)), h, QuantSpec(bits=2))


def exhaustive_optimum(w, h, q):
    """Brute-force min proxy objective over all code assignments with q's params."""
    spec = q.spec
    levels = range(spec.qmin, spec.qmax + 1)
    scales = np.repeat(q.scales, w.shape[1] // q.scales.shape[1], axis=1)
    zeros = (np.zeros_like(scales, dtype=np.int64) if q.zero_points is None
             else np.repeat(q.zero_points, w.shape[1] // q.zero_points.shape[1], axis=1))
    flat_scale = scales.reshape(-1)
    flat_zero = zeros.reshape(-1)
    n = w.size
    best = np.inf
    from itertools import product
    for assign in product(levels, repeat=n):
        w_hat = ((np.array(assign, dtype=np.float64) - flat_zero) * flat_scale).reshape(w.shape)
        delta = w - w_hat
        obj = float(np.trace(delta @ h.matrix @ delta.T))
        best = min(best, obj)
    return best


class TestQuantError:
    def test_zero_for_identical(self):
        w = np.ones((3, 3))
        h = CalibrationHessian(matrix=np.eye(3), sample_count=1)
        assert quant_error(w, w, METRIC_MSE) == 0.0
        assert quant_error(w, w, METRIC_MAX_ABS) == 0.0
        assert quant_error(w, w, METRIC_PROXY, h) == 0.0

    def test_mse_all_ones_delta(self):
        assert quant_error(np.ones((2, 2)), np.zeros((2, 2)), METRIC_MSE) == 1.0

    def test_proxy_identity_is_frobenius(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 4))
        w_hat = rng.standard_normal((4, 4))
        h = CalibrationHessian(matrix=np.eye(4), sample_count=1)
        frob = float(np.sum((w - w_hat) ** 2))
        assert quant_error(w, w_hat, METRIC_PROXY, h) == pytest.approx(frob, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            quant_error(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("metric", [METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_input_rejected(self, metric, shape):
        h = CalibrationHessian(matrix=np.eye(shape[1]), sample_count=1)
        with pytest.raises(ShapeMismatchError, match="non-empty"):
            quant_error(np.zeros(shape), np.zeros(shape), metric, h)
