import contextlib
from dataclasses import replace

import numpy as np
import oracles
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import mse_clip_search

from seqrot import quant
from seqrot.corpus import CorpusSpec, gen_corpus
from seqrot.errors import (
    EmptyCalibrationError,
    GroupDoesNotDivideError,
    InvalidConfigError,
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
    _clip_params,
    _errors,
    _estimate_roots,
    _group_view,
    _guard_choice,
    _inverse_factor,
    _round_trip,
    _search_ratios,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    round_half_away,
    rtn_quantize,
)
from seqrot.rotation import RotationAssignment, ToyBlockConfig


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

    @pytest.mark.parametrize("clip", [
        Clip(CLIP_NONE, ratio=0.5), Clip(CLIP_NONE, grid=(1.0,)),
        Clip(CLIP_MSE, ratio=0.3, grid=(1.0,)), Clip(CLIP_RATIO, ratio=0.9, grid=(0.5,)),
    ])
    def test_clip_field_its_kind_does_not_read_rejected(self, clip):
        with pytest.raises(InvalidSpecError, match="reads no"):
            QuantSpec(bits=4, clip=clip)

    @pytest.mark.parametrize("make, error", [
        (lambda: QuantSpec(bits=2.5), InvalidSpecError),
        (lambda: QuantSpec(bits=3.0), InvalidSpecError),
        (lambda: QuantSpec(bits=True), InvalidSpecError),
        (lambda: QuantSpec(bits=3, group_size=2.0), InvalidSpecError),
        (lambda: QuantSpec(bits=3, group_size=True), InvalidSpecError),
        (lambda: CorpusSpec(count=1.5), InvalidSpecError),
        (lambda: CorpusSpec(rows=8.5), InvalidSpecError),
        (lambda: CorpusSpec(cols=16.0), InvalidSpecError),
        (lambda: CorpusSpec(outlier_channels=1.5), InvalidSpecError),
        (lambda: CorpusSpec(seed=2.0), InvalidSpecError),
        (lambda: CorpusSpec(seed=-1), InvalidSpecError),
        (lambda: ToyBlockConfig(hidden=64.0), InvalidConfigError),
        (lambda: ToyBlockConfig(heads=2.0), InvalidConfigError),
        (lambda: ToyBlockConfig(ffn=128.0), InvalidConfigError),
        (lambda: ToyBlockConfig(group_size=16.0), InvalidConfigError),
        (lambda: ToyBlockConfig(seq_len=True), InvalidConfigError),
        (lambda: ToyBlockConfig(seed=-1), InvalidConfigError),
    ])
    def test_integer_fields_rejected_when_not_integers(self, make, error):
        # each raised a raw TypeError or ValueError later, or was accepted
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize("make, error", [
        (lambda: QuantSpec(bits=2, symmetric="no"), InvalidSpecError),
        (lambda: QuantSpec(bits=2, symmetric=1), InvalidSpecError),
        (lambda: QuantSpec(bits=2, clip="mse"), InvalidSpecError),
        (lambda: QuantSpec(bits=2, clip=None), InvalidSpecError),
        (lambda: CorpusSpec(t_dof="a"), InvalidSpecError),
        (lambda: CorpusSpec(t_dof=None), InvalidSpecError),
        (lambda: CorpusSpec(outlier_gain=[20.0]), InvalidSpecError),
        (lambda: CorpusSpec(smooth_weight=True), InvalidSpecError),
        (lambda: RotationAssignment(r1=5), InvalidConfigError),
        (lambda: RotationAssignment(r4=None), InvalidConfigError),
    ])
    def test_real_bool_and_object_fields_rejected_when_mistyped(self, make, error):
        # each raised a raw AttributeError or TypeError, or was accepted
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize("make", [
        lambda: QuantSpec(bits=2, symmetric=True, clip=Clip.fixed(np.float64(0.5))),
        lambda: CorpusSpec(t_dof=5, outlier_gain=np.float32(2.0), smooth_weight=0),
    ])
    def test_real_fields_take_any_real_number(self, make):
        make()

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
        bad = replace(q, codes=np.zeros(shape, dtype=np.int64))
        assert bad.shape == shape
        with pytest.raises(ShapeMismatchError):
            dequantize(bad)

    def test_shape_is_the_shape_of_the_codes(self):
        q = rtn_quantize(np.arange(8.0).reshape(2, 4), QuantSpec(bits=2))
        assert q.shape == q.codes.shape == dequantize(q).shape == (2, 4)
        with pytest.raises(TypeError):
            replace(q, shape=(4, 2))   # not a field: nothing to keep in step


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

    @pytest.mark.parametrize("layout", ["C", "F", "float32", "int"])
    def test_quantizers_leave_their_input_unchanged(self, layout):
        # both code steps write over the group view of their argument, so the
        # public quantizers hand them a copy
        w = np.random.default_rng(1).standard_t(4, size=(6, 16)) * 4
        w = {"C": w, "F": np.asfortranarray(w), "float32": w.astype(np.float32),
             "int": w.astype(np.int64)}[layout]
        before = w.copy(order="K")
        spec = QuantSpec(bits=2, group_size=8, clip=Clip.mse())
        h = hessian_from_calibration(np.random.default_rng(2).standard_normal((24, 16)))
        want = rtn_quantize(before.astype(np.float64), spec).codes
        assert np.array_equal(rtn_quantize(w, spec).codes, want)
        gptq_quantize(w, h, spec)
        assert w.dtype == before.dtype and w.tobytes("A") == before.tobytes("A")
        assert w.flags.f_contiguous == before.flags.f_contiguous

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


GROUP_SIZES = (1, 2, 3, 4, 7, 8, 15, 64, 100, 128, 129, 136, 300)
GRID_RATIOS = (1.0, 0.97, 0.9, 0.85, 0.8, 0.75, 0.6, 0.5, 0.33)


# weights and MSE grids of the kernel-against-oracle tests
WEIGHT_KINDS = ("t", "lattice", "mirror", "subnormal", "constant")
WEIGHT_CASES = dict(
    bits=st.integers(2, 8), symmetric=st.booleans(),
    g=st.sampled_from(GROUP_SIZES), rows=st.integers(1, 5),
    n_groups=st.integers(1, 3), transposed=st.booleans(),
    kind=st.sampled_from(WEIGHT_KINDS), shift=st.sampled_from((0.0, -6.0, 6.0)),
    exponent=st.sampled_from((0, 0, 300, -300)), seed=st.integers(0, 2 ** 32 - 1),
    grid=st.one_of(st.just(DEFAULT_MSE_GRID),
                   st.lists(st.sampled_from(GRID_RATIOS), min_size=1, max_size=12)))
# the quantizer tests keep to ordinary magnitudes: their oracles' squares and
# GPTQ's guard objective overflow on the 1e300 groups
QUANTIZER_CASES = dict(WEIGHT_CASES, kind=st.sampled_from(("t", "lattice")),
                       exponent=st.just(0))


def case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed):
    """Random groups of one kind, scaled by 10^exponent (t, lattice, mirror):
    Student-t values, integer lattices (few distinct values: many exact error
    ties), groups symmetric about 0 (mid == 0), subnormal multiples of 2^-1074,
    and the constant 1.7e308, whose range midpoint overflows."""
    rng = np.random.default_rng(seed)
    shape = (rows, n_groups * g)
    # a shift makes most groups one-signed, where the code clamps bind
    if kind == "lattice":
        w = rng.integers(-3, 4, size=shape) + shift
    elif kind == "mirror":
        v = rng.standard_t(4, size=(rows, n_groups, g))
        amax = np.abs(v).max(axis=2)
        v[..., 0], v[..., -1] = amax, -amax
        w = v.reshape(shape)
    elif kind == "subnormal":
        w = rng.integers(-40, 41, size=shape) * TINY
    elif kind == "constant":
        w = np.full(shape, 1.7e308)
    else:
        w = (rng.standard_t(4, size=shape) + shift) * 10.0 ** rng.uniform(-4, 4)
    if kind in ("t", "lattice", "mirror"):
        w = w * 10.0 ** exponent
    if transposed:
        w = np.ascontiguousarray(w.T).T
    return w


@contextlib.contextmanager
def every_pair_rescored():
    """Stage 1 trusts no estimate, so stage 2 scores every (group, ratio)."""
    real = quant._estimate_roots

    def untrusted(part, spec, ratios):
        root, beta = real(part, spec, ratios)
        return root, np.full_like(beta, np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quant, "_estimate_roots", untrusted)
        yield


class TestSearchRatios:
    """The two-stage search picks every ratio bit for bit as the exhaustive
    search (``oracles.search_ratios``) and the per-group oracle
    ``mse_clip_search``, and the exact kernel gives every error as the latter."""

    @settings(max_examples=120, deadline=None)
    @given(**WEIGHT_CASES)
    def test_matches_per_group_oracle(self, bits, symmetric, g, rows, n_groups,
                                      transposed, kind, shift, exponent, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        grouped = _group_view(w, g)
        before = w.copy()
        ratios = _search_ratios(grouped, spec, spec.clip.grid)
        assert w.tobytes() == before.tobytes()   # the search reads its input only
        distinct = sorted(set(grid), reverse=True)
        errors = _clip_errors(grouped, spec, np.asarray(distinct)[:, None, None])
        assert ratios.tobytes() == oracles.search_ratios(grouped, spec, grid).tobytes()
        for r in range(rows):
            for j in range(n_groups):
                group = grouped[r, j]
                if group.min() == group.max():
                    continue   # the oracle short-cuts constant groups
                # the oracle's own squares overflow on the 1e300 groups
                with np.errstate(over="ignore", invalid="ignore"):
                    expected, _ = mse_clip_search(group, spec, spec.clip.grid)
                    per_ratio = [mse_clip_search(group, spec, (x,))[1] for x in distinct]
                assert ratios[r, j] == expected
                for i, err in enumerate(per_ratio):
                    assert errors[i, r, j].tobytes() == np.float64(err).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(**WEIGHT_CASES)
    def test_root_estimates_within_bound(self, bits, symmetric, g, rows, n_groups,
                                         transposed, kind, shift, exponent, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        grouped = _group_view(w, g)
        distinct = np.asarray(sorted(set(grid), reverse=True))
        root, beta = _estimate_roots(grouped, spec, distinct)
        exact = _clip_errors(grouped, spec, distinct[:, None, None])
        bound = (g + 2) * 2.0 ** -24 * root + beta
        trusted = np.broadcast_to(beta < np.inf, root.shape)
        assert np.all(root[~trusted] == 0.0)
        assert np.all(np.abs(root - np.sqrt(exact))[trusted] <= bound[trusted])
        if kind == "t" and exponent == 0:
            assert trusted.all()   # ordinary groups take the fast path
        if kind in ("subnormal", "constant"):
            # outside the window; an asymmetric group of one value has beta 0
            distinct = grouped.min(axis=2) < grouped.max(axis=2)
            assert not trusted[0, distinct | symmetric].any()

    @staticmethod
    def _check_scale_order(grouped, spec, grid):
        # stage 1 tests a group's trust once, at its smallest ratio, whose
        # scale must be the group's smallest: a trusted group's scale does
        # not decrease with the ratio, and its largest magnitude is at most
        # _MAX_T scales at every ratio. The degenerate-group parameters (an
        # asymmetric group of one value, a symmetric b that rounds to 0)
        # appear only on groups that stage 1 does not trust or that are
        # exact, with beta 0
        mn, mx = grouped.min(axis=2), grouped.max(axis=2)
        ascending = np.asarray(sorted(set(grid)))
        scale, _, _, b = _clip_params(mn, mx, spec, ascending[:, None, None])
        beta = _estimate_roots(grouped, spec, ascending[::-1])[1]
        trusted = beta < np.inf
        assert (scale[1:] >= scale[:-1])[:, trusted].all()
        amax = np.maximum(np.abs(mn), np.abs(mx))
        with np.errstate(over="ignore"):   # a product past the range is inf, not < amax
            assert (amax <= quant._MAX_T * scale)[:, trusted].all()
        exact = (mn == mx) & (not spec.symmetric)
        degenerate = (b == 0.0).any(axis=0) if spec.symmetric else exact
        assert (beta[exact] == 0.0).all()
        assert (beta[degenerate & ~exact] == np.inf).all()
        return trusted

    @settings(max_examples=120, deadline=None)
    @given(**WEIGHT_CASES)
    # seed 0 draws [[28, 11, 1]] * 2^-1074: at ratio 0.5 the last group's
    # clipped max, 2^-1075, underflows and its scale is 1.0; at 0.51 it is
    # 2^-1074
    @example(bits=2, symmetric=True, g=1, rows=1, n_groups=3, transposed=False,
             kind="subnormal", shift=0.0, exponent=0, seed=0, grid=[0.51, 0.5])
    def test_scale_does_not_decrease_with_the_ratio(
            self, bits, symmetric, g, rows, n_groups, transposed, kind, shift, exponent,
            seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric)
        self._check_scale_order(_group_view(w, g), spec, grid)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_narrow_group_is_trusted_only_below_max_t_at_every_ratio(self, symmetric):
        # 1 + k 2^-47, k = 0..3, at 2 bits: asymmetric, its max is just over
        # 2^48 scales at ratio 0.5 and 2^47 at ratio 1, so a trust test at
        # the largest ratio would trust it; symmetric, its scale is about the
        # ratio and it is trusted; a wide group beside it is trusted either way
        w = np.array([[1.0, 1.0 + 2.0 ** -47, 1.0 + 2.0 ** -46, 1.0 + 3 * 2.0 ** -47,
                       -1.0, 0.5, 0.25, 2.0]])
        spec = QuantSpec(bits=2, group_size=4, symmetric=symmetric)
        trusted = self._check_scale_order(_group_view(w, 4), spec, (1.0, 0.75, 0.5))
        assert trusted.tolist() == [[symmetric, True]]

    @settings(max_examples=40, deadline=None)
    @given(**WEIGHT_CASES)
    def test_every_pair_rescored_gives_the_same_picks(
            self, bits, symmetric, g, rows, n_groups, transposed, kind, shift,
            exponent, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        grouped = _group_view(w, g)
        with every_pair_rescored():
            ratios = _search_ratios(grouped, spec, spec.clip.grid)
        assert ratios.tobytes() == oracles.search_ratios(grouped, spec, grid).tobytes()

    def test_constant_group_gets_largest_ratio(self):
        spec = QuantSpec(bits=2, group_size=4, clip=Clip.mse((0.8, 0.9, 0.9)))
        w = np.array([[2.0, 2.0, 2.0, 2.0, 0.0, 1.0, 2.0, 5.0]])
        ratios = _search_ratios(_group_view(w, 4), spec, spec.clip.grid)
        assert ratios[0, 0] == 0.9

    @staticmethod
    def _check_tiles_against_single_rows(rows, cols, g, edges):
        rng = np.random.default_rng(2)
        w = rng.standard_t(4, size=(rows, cols))
        spec = QuantSpec(bits=2, group_size=g, clip=Clip.mse())
        whole = _search_ratios(_group_view(w, g), spec, spec.clip.grid)
        assert whole.tobytes() == oracles.search_ratios(
            _group_view(w, g), spec, spec.clip.grid).tobytes()
        for r in edges:
            one = _search_ratios(_group_view(w[r:r + 1], g), spec, spec.clip.grid)
            assert np.array_equal(whole[r], one[0])

    def test_multi_tile_matches_single_rows(self):
        # 600 rows of 512 columns span many row tiles of 32 (bounded by
        # elements) and a ragged last tile
        self._check_tiles_against_single_rows(600, 512, 64, (0, 31, 32, 599))

    def test_stacked_multi_tile_matches_single_rows(self):
        # a stacked call, one group of 16 per row, in tiles of 2^14 // 51 =
        # 321 rows (bounded by pairs: by elements they would be 1024)
        self._check_tiles_against_single_rows(700, 16, 16, (0, 320, 321, 642, 699))

    @pytest.mark.parametrize("rows, cols, g, tiles", [
        (512, 512, 64, 16),    # 2^17 values a tile: 32 rows, as before the pair bound
        (3072, 16, 16, 10),    # 2^14 pairs a tile: 321 rows
    ])
    def test_row_tiles(self, monkeypatch, rows, cols, g, tiles):
        calls = []
        real = quant._estimate_roots

        def counting(part, spec, ratios):
            calls.append(part.shape[0])
            return real(part, spec, ratios)

        monkeypatch.setattr(quant, "_estimate_roots", counting)
        w = np.random.default_rng(3).standard_normal((rows, cols))
        spec = QuantSpec(bits=2, group_size=g, clip=Clip.mse())
        _search_ratios(_group_view(w, g), spec, spec.clip.grid)
        assert len(calls) == tiles

    def test_stacked_search_memory(self):
        # the 3072 groups of 16 that one toy-block seed quantizes, stacked:
        # tiles bounded by elements alone peaked at 3.59 MiB, while the
        # largest weight searched alone (64 x 128) peaks at 1.05 MiB and the
        # stacked call at 1.23 MiB (input 0.38 MiB)
        grouped = _group_view(np.random.default_rng(4).standard_normal((3072, 16)), 16)
        spec = QuantSpec(bits=2, group_size=16, clip=Clip.mse())
        assert oracles.traced_peak(lambda: _search_ratios(grouped, spec, spec.clip.grid)) \
            < 2 * 2 ** 20

    def test_nan_error_is_never_chosen(self):
        # finite weights give NaN errors only in extreme cases (see
        # TestSubnormalRange for the one that no longer does), so the rule is
        # checked on injected exact errors, with every pair rescored by stage
        # 2: group 0 skips the NaN and keeps the first of two tied ratios,
        # group 1 has only NaN/inf errors and keeps 1.0
        table = {0.96: (np.nan, np.nan), 0.62: (2.0, np.inf), 0.6: (3.0, np.nan),
                 0.12: (2.0, np.inf)}
        for g in (2, 4, 8):
            spec = QuantSpec(bits=6, group_size=g, clip=Clip.mse((0.96, 0.62, 0.6, 0.12)))

            def injected(grouped, spec, ratios):
                # ratios broadcast against (rows, n_groups): (K, 1, 1) for
                # every group, or one per group
                first = grouped[..., 0]
                return np.vectorize(lambda x, f: table[x][int(f) // g])(ratios, first)

            grouped = _group_view(np.arange(2.0 * g).reshape(1, 2 * g), g)
            with every_pair_rescored(), pytest.MonkeyPatch.context() as mp:
                mp.setattr(quant, "_clip_errors", injected)
                assert _search_ratios(grouped, spec, spec.clip.grid).tolist() == [[0.62, 1.0]]

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_one_value_groups_decided_by_stage_one(self, symmetric, g):
        # an asymmetric group of one value is exact at every ratio: stage 1
        # gives it beta 0 and stage 2 never scores it; a symmetric one of
        # ordinary magnitude is trusted like any other group
        rng = np.random.default_rng(g)
        values = rng.standard_normal((6, 8)) * 10.0 ** rng.integers(-3, 4, size=(6, 8))
        values[0, 0] = 0.0
        constant = np.repeat(values, g, axis=1)
        mixed = rng.standard_t(4, size=(6, 8 * g))
        mixed[::2, :g] = -1.25
        mixed[1, -g:] = 0.0
        spec = QuantSpec(bits=2, group_size=g, symmetric=symmetric, clip=Clip.mse())
        real_estimate, real_errors = quant._estimate_roots, quant._clip_errors
        for w in (constant, mixed):
            grouped = _group_view(w, g)
            estimated, scored = [], []

            def recording_estimate(part, spec, ratios):
                estimated.append(part.shape)
                return real_estimate(part, spec, ratios)

            def recording_errors(part, spec, ratios):
                scored.extend(part.reshape(-1, g))
                return real_errors(part, spec, ratios)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quant, "_estimate_roots", recording_estimate)
                mp.setattr(quant, "_clip_errors", recording_errors)
                ratios = _search_ratios(grouped, spec, spec.clip.grid)
            assert estimated
            if not symmetric:
                assert all(grp.min() < grp.max() for grp in scored)
            assert ratios.tobytes() == oracles.search_ratios(
                grouped, spec, spec.clip.grid).tobytes()
        beta = _estimate_roots(_group_view(constant, g), spec, np.asarray(DEFAULT_MSE_GRID))[1]
        if symmetric:   # a zero group lies outside the window
            assert beta[0, 0] == np.inf
            assert ((beta > 0.0) & (beta < np.inf))[values != 0.0].all()
        else:
            assert (beta == 0.0).all()

    def test_stage_two_scores_only_undecided_groups(self, monkeypatch):
        # a group left with one trusted contender is decided by stage 1, and
        # _clip_errors sees only the contenders of groups with two or more; on
        # a default 512 x 512 tensor most groups have one, where scoring every
        # contender took about 1.02 exact errors per group
        w = gen_corpus(CorpusSpec(count=1, rows=512, cols=512, seed=0))[0]
        spec = QuantSpec(bits=2, group_size=64, clip=Clip.mse())
        estimated, scored = [], []
        real_estimate, real_errors = quant._estimate_roots, quant._clip_errors

        def recording_estimate(part, spec, ratios):
            root, beta = real_estimate(part, spec, ratios)
            estimated.append((part, ratios, root, beta))
            return root, beta

        def recording_errors(grouped, spec, ratios):
            scored.extend((grp.tobytes(), r) for grp, r in zip(grouped[0], ratios.ravel()))
            return real_errors(grouped, spec, ratios)

        monkeypatch.setattr(quant, "_estimate_roots", recording_estimate)
        monkeypatch.setattr(quant, "_clip_errors", recording_errors)
        ratios = _search_ratios(_group_view(w, 64), spec, spec.clip.grid)
        alpha = 66 * 2.0 ** -24
        contenders = []
        for part, grid, root, beta in estimated:
            assert (beta < np.inf).all()
            contend = root * (1 - alpha) <= root.min(axis=0) * (1 + alpha) + 2 * beta
            many = contend.sum(axis=0) >= 2
            contenders += [(part[r, j].tobytes(), grid[k])
                           for k, r, j in zip(*np.nonzero(contend & many))]
        assert 0 < len(scored) < 512 * 512 // 64 // 20
        assert sorted(scored) == sorted(contenders)
        assert ratios.tobytes() == oracles.search_ratios(
            _group_view(w, 64), spec, spec.clip.grid).tobytes()


class TestQuantizersMatchOracle:
    """Both quantizers give, bit for bit, the codes, scales and zero points of
    the quantizer written out with its formulas from before the shared
    kernel (``oracles.rtn_quantize``, ``oracles.gptq_codes``)."""

    @settings(max_examples=60, deadline=None)
    @given(clip=st.sampled_from((CLIP_NONE, CLIP_RATIO, CLIP_MSE)), **QUANTIZER_CASES)
    def test_rtn(self, clip, bits, symmetric, g, rows, n_groups, transposed, kind,
                 shift, exponent, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
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
    @given(**QUANTIZER_CASES)
    def test_gptq(self, bits, symmetric, g, rows, n_groups, transposed, kind,
                  shift, exponent, seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric,
                         clip=Clip.mse(tuple(grid)))
        d = w.shape[1]
        h = hessian_from_calibration(np.random.default_rng(seed).standard_normal((d + 8, d)))
        assert gptq_quantize(w, h, spec).codes.tobytes() \
            == oracles.gptq_codes(w, h, spec).tobytes()


def outcome(call):
    """A call's result, or the text of the NonFiniteInputError it raises."""
    try:
        return call()
    except NonFiniteInputError as exc:
        return str(exc)


def same_values(got, want):
    """Equal values, the same bits but for the sign of a zero, and C order."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.all((got.view(np.int64) == want.view(np.int64)) | (want == 0.0))


class TestRoundTrip:
    """``_round_trip`` gives the values of dequantizing either quantizer's
    codes, straight from its code step, over the caller's array."""

    @settings(max_examples=120, deadline=None)
    @given(clip=st.sampled_from((CLIP_NONE, CLIP_RATIO, CLIP_MSE)), per_row=st.booleans(),
           **WEIGHT_CASES)
    def test_rtn_equals_dequantized_codes(self, clip, per_row, bits, symmetric, g, rows,
                                          n_groups, transposed, kind, shift, exponent,
                                          seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        if kind == "lattice":
            w[0, :g] = w[0, 0]   # a degenerate group
        clip = {CLIP_NONE: Clip.none(), CLIP_RATIO: Clip.fixed(min(grid)),
                CLIP_MSE: Clip.mse(tuple(grid))}[clip]
        spec = QuantSpec(bits=bits, group_size=None if per_row else g,
                         symmetric=symmetric, clip=clip)
        want = outcome(lambda: dequantize(rtn_quantize(w, spec)))
        same_values(outcome(lambda: _round_trip(w.copy(), spec)), want)

    @settings(max_examples=30, deadline=None)
    @given(clip=st.sampled_from((CLIP_NONE, CLIP_RATIO, CLIP_MSE)), per_row=st.booleans(),
           **WEIGHT_CASES)
    def test_gptq_equals_dequantized_codes(self, clip, per_row, bits, symmetric, g, rows,
                                           n_groups, transposed, kind, shift, exponent,
                                           seed, grid):
        w = case_weights(rows, n_groups, g, transposed, kind, shift, exponent, seed)
        clip = {CLIP_NONE: Clip.none(), CLIP_RATIO: Clip.fixed(min(grid)),
                CLIP_MSE: Clip.mse(tuple(grid))}[clip]
        spec = QuantSpec(bits=bits, group_size=None if per_row else g,
                         symmetric=symmetric, clip=clip)
        d = w.shape[1]
        h = hessian_from_calibration(np.random.default_rng(seed).standard_normal((d + 8, d)))
        # the guard's objective overflows on the 1e300 groups: both raise
        with np.errstate(over="ignore", invalid="ignore"):
            want = outcome(lambda: dequantize(gptq_quantize(w, h, spec)))
            same_values(outcome(lambda: _round_trip(w.copy(), spec, h)), want)

    def test_rtn_writes_over_its_argument(self):
        w = np.random.default_rng(3).standard_t(4, size=(8, 64))
        spec = QuantSpec(bits=2, group_size=16, clip=Clip.mse())
        want = dequantize(rtn_quantize(w, spec))
        got = _round_trip(w, spec)
        assert np.shares_memory(got, w)
        assert np.array_equal(got, want) and np.array_equal(w, want)

    def test_negative_zero_code_keeps_its_sign(self):
        spec = QuantSpec(bits=2, group_size=4, symmetric=True)
        w = np.array([[-3.0, -0.5, 1.0, 3.0]])
        assert dequantize(rtn_quantize(w, spec)).tolist() == [[-3.0, 0.0, 0.0, 3.0]]
        got = _round_trip(w.copy(), spec)
        assert got.tolist() == [[-3.0, 0.0, 0.0, 3.0]] and np.signbit(got[0, 1])


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
        h = CalibrationHessian(matrix=m)
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


class TestSquaredErrorOverflow:
    """Finite weights whose squared errors overflow float64: the clip search
    falls back to ratio 1.0, and an error or objective that is not finite
    raises, never a RuntimeWarning (which pytest turns into an error)."""

    W = np.array([[1e200, -3e199, 2e199, 5e199]])

    def test_mse_clip_falls_back_to_no_clip(self):
        got = rtn_quantize(self.W, QuantSpec(bits=2, clip=Clip.mse()))
        want = rtn_quantize(self.W, QuantSpec(bits=2))
        assert got.codes.tolist() == want.codes.tolist()
        assert got.scales.tobytes() == want.scales.tobytes()

    @pytest.mark.parametrize("clip", [Clip.none(), Clip.mse()])
    def test_gptq_guard_rejects(self, clip):
        h = hessian_from_calibration(np.random.default_rng(0).standard_normal((8, 4)))
        with pytest.raises(NonFiniteInputError, match="objective"):
            gptq_quantize(self.W, h, QuantSpec(bits=2, clip=clip))

    @pytest.mark.parametrize("metric", [METRIC_MSE, METRIC_PROXY])
    def test_quant_error_rejects(self, metric):
        h = CalibrationHessian(matrix=np.eye(4))
        with pytest.raises(NonFiniteInputError, match=metric):
            quant_error(self.W, np.zeros_like(self.W), metric, h)

    def test_max_abs_rejects_an_overflowing_difference(self):
        assert quant_error(self.W, np.zeros_like(self.W), METRIC_MAX_ABS) == 1e200
        with pytest.raises(NonFiniteInputError, match="max_abs"):
            quant_error([[1e308]], [[-1e308]], METRIC_MAX_ABS)


class TestRangeOverflow:
    """A finite asymmetric group whose range overflows float64 raises instead
    of giving an inf or NaN scale and INT64_MIN codes."""

    @pytest.mark.parametrize("w", [[[-1e308, 1e308, 0.0, 0.0]],
                                   [[1e308, 1.7e308, 1.5e308, 1.2e308]]])
    @pytest.mark.parametrize("clip", [Clip.none(), Clip.mse()])
    def test_rejected(self, w, clip):
        spec = QuantSpec(bits=3, group_size=4, clip=clip)
        h = hessian_from_calibration(np.random.default_rng(0).standard_normal((8, 4)))
        with pytest.raises(NonFiniteInputError):
            rtn_quantize(w, spec)
        with pytest.raises(NonFiniteInputError):
            gptq_quantize(w, h, spec)

    @pytest.mark.parametrize("c", [1e308, -1e308, 1.7e308, -1.7e308])
    def test_constant_group_exact(self, c):
        # twice c overflows, but a constant group needs no midpoint
        w = np.full((1, 4), c)
        for clip in (Clip.none(), Clip.mse()):
            assert np.array_equal(rt(w, QuantSpec(bits=3, group_size=4, clip=clip)), w)

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
        assert h.samples is None   # the matrix form keeps no samples

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

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 3, 4), (2, 0, 2)])
    def test_more_than_two_dimensions_rejected(self, shape):
        with pytest.raises(ShapeMismatchError):
            hessian_from_calibration(np.zeros(shape))

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
        assert h.shape == (3, 3) and h.samples is None
        assert np.array_equal(h.matrix, 2.0 * np.outer(x, x))


ORDER = quant._SAMPLES_MIN_ORDER


def dense_proxy(w, w_hat, matrix):
    delta = np.asarray(w, dtype=np.float64) - w_hat
    return float(np.trace(delta @ matrix @ delta.T))


def no_gram(x):
    raise AssertionError("a d x d Hessian was built")


class TestSampleForm:
    """From ``_SAMPLES_MIN_ORDER`` columns, a Hessian of fewer samples than
    columns is its samples; its matrix is built only when read."""

    @pytest.mark.parametrize("samples,d,kept", [(256, 512, False), (8, ORDER // 2, False),
                                                (8, ORDER, True), (ORDER - 1, ORDER, True),
                                                (ORDER, ORDER, False)])
    def test_form(self, samples, d, kept):
        x = np.random.default_rng(d).standard_normal((samples, d))
        h = hessian_from_calibration(x)
        assert (h.samples is not None) == kept
        assert h.shape == (d, d)
        if kept:
            assert np.array_equal(h.samples, x) and not h.samples.flags.writeable
        m = h.matrix
        assert m is h.matrix and not m.flags.writeable   # built once
        assert m.tobytes() == oracles.hessian_matrix(x).tobytes()

    def test_samples_are_a_copy(self):
        x = np.random.default_rng(0).standard_normal((4, ORDER))
        h = hessian_from_calibration(x)
        x[:] = 0.0
        assert np.all(h.samples[0] != 0.0)

    def test_proxy_builds_no_matrix(self, monkeypatch):
        rng = np.random.default_rng(1)
        h = hessian_from_calibration(rng.standard_normal((16, ORDER)))
        monkeypatch.setattr(quant, "_gram", no_gram)
        w = rng.standard_normal((3, ORDER))
        assert quant_error(w, np.zeros_like(w), METRIC_PROXY, h) > 0.0

    @pytest.mark.parametrize("big", [1e200, 1.2e154])   # X^T X, then 2 X^T X overflows
    def test_overflow_rejected_without_a_matrix(self, monkeypatch, big):
        monkeypatch.setattr(quant, "_gram", no_gram)
        x = np.zeros((2, ORDER))
        x[0, 5] = big
        with pytest.raises(NonFiniteInputError, match="overflows"):
            hessian_from_calibration(x)

    def test_proxy_overflow_rejected(self):
        h = hessian_from_calibration(np.ones((2, ORDER)))
        w = np.full((1, ORDER), 1e160)
        with pytest.raises(NonFiniteInputError, match="proxy"):
            quant_error(w, np.zeros_like(w), METRIC_PROXY, h)

    def test_proxy_of_another_width(self):
        h = hessian_from_calibration(np.ones((2, ORDER)))
        with pytest.raises(ShapeMismatchError, match=f"weights have {ORDER // 2} columns"):
            quant_error(np.ones((1, ORDER // 2)), np.zeros((1, ORDER // 2)), METRIC_PROXY, h)

    def test_one_form_only(self):
        with pytest.raises(InvalidSpecError):
            CalibrationHessian()
        with pytest.raises(InvalidSpecError):
            CalibrationHessian(matrix=np.eye(2), samples=np.ones((1, 2)))

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([ORDER, 2 * ORDER]), samples=st.integers(1, 64),
           rows=st.integers(1, 4), noise=st.floats(-12, 2), seed=st.integers(0, 2 ** 32 - 1))
    # both forms cancel here: the proxy is 1.2e-8 of its magnitude below
    @example(d=ORDER, samples=1, rows=1, noise=0.0, seed=37)
    def test_proxy_matches_dense_form(self, d, samples, rows, noise, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((samples, d)) * 10.0 ** rng.uniform(-2, 2, d)
        w = rng.standard_t(4, size=(rows, d))
        w_hat = w + 10.0 ** noise * rng.standard_normal((rows, d))
        h = hessian_from_calibration(x)
        assert h.samples is not None
        got = quant_error(w, w_hat, METRIC_PROXY, h)
        want = dense_proxy(w, w_hat, oracles.hessian_matrix(x))
        # the columns of x span 10^+-2, so both forms are sums that cancel;
        # the rounding error of either is relative to the sum of magnitudes
        # M, which equals the proxy when nothing cancels
        magnitude = 2.0 * np.sum((np.abs(w - w_hat) @ np.abs(x).T) ** 2) / samples
        assert abs(got - want) <= 1e-12 * magnitude

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, ORDER - 1), samples=st.integers(1, 300),
           rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_proxy_below_the_order_is_the_dense_form(self, d, samples, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((samples, d))
        w = rng.standard_normal((rows, d))
        w_hat = rtn_quantize(w, QuantSpec(bits=2)).codes.astype(np.float64)
        h = hessian_from_calibration(x)
        assert h.samples is None
        got = quant_error(w, w_hat, METRIC_PROXY, h)
        want = dense_proxy(w, w_hat, oracles.hessian_matrix(x))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
            errors = _clip_errors(grouped, spec, np.asarray(distinct)[:, None, None])
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


def indefinite(n, block):
    """The identity of order n past ``_inverse_factor``'s first split, with
    a direction of eigenvalue -1 in its leading or its trailing block. In
    the leading block only the Schur complement shows it: both diagonal
    blocks stay the identity, and A - X X^T = I - 4 e0 e0^T up to the
    dampening."""
    m = np.eye(n)
    if block == "leading":
        m[0, -1] = m[-1, 0] = 2.0
    else:
        m[-1, -1] = -1.0
    return m


class TestOneValueParams:
    """``_clip_params`` represents a group of one value c exactly, at every
    ratio: asymmetric, scale |c| (1 for c = 0), a = b = sign(c) and zero
    point 1 for c < 0, 0 otherwise; symmetric, scale max|c| ratio / levels
    (at least 2^-1074) and a = -b, or scale 1 and a = b = 0 where b rounds
    to 0."""

    VALUES = (0.0, 1.25, -1.25, 1.7e308, -1.7e308, TINY, -TINY)
    RATIOS = (1.0, 0.9, 0.5)

    @pytest.mark.parametrize("bits", [2, 3, 8])
    def test_asymmetric(self, bits):
        c = np.array(self.VALUES)
        scale, zero, a, b = _clip_params(c, c, QuantSpec(bits=bits),
                                         np.asarray(self.RATIOS)[:, None])
        for got, want in ((scale, np.where(c == 0.0, 1.0, np.abs(c))),
                          (zero, np.where(c < 0.0, 1.0, 0.0)), (a, np.sign(c)),
                          (b, np.sign(c))):
            assert np.array_equal(got, np.broadcast_to(want, got.shape))

    def test_symmetric(self):
        # at 3 bits: levels 3, codes in [-4, 3]; TINY's clipped max is TINY at
        # ratios 1 and 0.9 (its scale, TINY / 3, is raised to TINY) and
        # rounds to 0 at 0.5
        c = np.array(self.VALUES)
        scale, zero, a, b = _clip_params(c, c, QuantSpec(bits=3, symmetric=True),
                                         np.asarray(self.RATIOS)[:, None])
        assert zero is None
        for i, r in enumerate(self.RATIOS):
            want_scale = [1.0] + [abs(x) * r / 3 for x in self.VALUES[1:5]] \
                + ([TINY, TINY] if r > 0.5 else [1.0, 1.0])
            want_b = [0.0] + [3.0] * 4 + ([1.0, 1.0] if r > 0.5 else [0.0, 0.0])
            assert scale[i].tolist() == want_scale
            assert b[i].tolist() == want_b and (-a[i]).tolist() == want_b

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("clip", [Clip.none(), Clip.fixed(0.5), Clip.mse()])
    def test_quantizers_round_trip_exactly(self, symmetric, clip):
        w = np.repeat(np.array([self.VALUES]), 4, axis=1)
        spec = QuantSpec(bits=3, group_size=4, symmetric=symmetric, clip=clip)
        q = rtn_quantize(w, spec)
        assert np.array_equal(q.codes, oracles.rtn_quantize(w, spec)[0])
        if not symmetric:   # TINY's symmetric clipped max at 0.5 is 0
            assert np.array_equal(dequantize(q), w)
            assert q.zero_points.tolist() == [[0, 0, 1, 0, 1, 0, 1]]


class TestGptq:
    def test_single_column_equals_rtn(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 1))
        spec = QuantSpec(bits=2, group_size=1)
        h = CalibrationHessian(matrix=np.array([[2.0]]))
        assert np.array_equal(gptq_quantize(w, h, spec).codes,
                              rtn_quantize(w, spec).codes)

    def test_scaled_identity_hessian_matches_rtn_objective(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 8))
        spec = QuantSpec(bits=2, group_size=8)
        h = CalibrationHessian(matrix=3.0 * np.eye(8))
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

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("d,rows", [(512, 600), (64, 4196)])
    def test_guard_row_tiles_match_oracle(self, monkeypatch, d, rows, symmetric):
        # the guard runs by tiles of 2^17 // d rows: three here, the last partial
        tile = quant._TILE_ELEMS // d
        assert 0 < rows - 2 * tile < tile
        tiles = []
        choice = quant._guard_choice

        def recording(w, rtn, sweep, scale, h):
            tiles.append(len(w))
            return choice(w, rtn, sweep, scale, h)

        monkeypatch.setattr(quant, "_guard_choice", recording)
        rng = np.random.default_rng(d)
        w = rng.standard_normal((rows, d))
        h = random_spd_hessian(rng, d, samples=d + 8)
        spec = QuantSpec(bits=2, group_size=16, symmetric=symmetric, clip=Clip.fixed(0.9))
        qt = gptq_quantize(w, h, spec)
        assert tiles == [tile] * 2 + [rows - 2 * tile]   # one choice a tile
        assert qt.codes.tobytes() == oracles.gptq_codes(w, h, spec).tobytes()
        rtn = rtn_quantize(w, spec).codes
        for r0 in range(0, rows, tile):   # the sweep wins rows in every tile
            assert not np.array_equal(qt.codes[r0:r0 + tile], rtn[r0:r0 + tile])
        # the round trip writes the same codes over its argument, tile by tile
        x = w.copy()
        got = _round_trip(x, spec, h)
        assert np.shares_memory(got, x)
        same_values(got, dequantize(qt))

    @pytest.mark.parametrize("scale", [1.0, 0.375, 2.0 ** -500])
    def test_guard_tie_keeps_the_sweep_codes(self, scale):
        # row 0: mirrored errors, d_r = -d_s exactly, so the objectives tie;
        # row 1: w is the sweep's round trip, row 2: the RTN round trip;
        # row 3: both code sets agree
        rtn = np.array([[0.0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], [1, 1, 0, 2]])
        sweep = np.array([[1.0, 0, 3, 2], [1, 1, 2, 2], [1, 1, 2, 2], [1, 1, 0, 2]])
        w = np.vstack([(rtn[0] + sweep[0]) / 2, sweep[1], rtn[2], [0.25, 1.5, -1, 2]]) * scale
        h = random_spd_hessian(np.random.default_rng(3), 4).matrix
        d_r, d_s = w[0] - rtn[0] * scale, w[0] - sweep[0] * scale
        assert np.array_equal(d_s, -d_r) and d_r.all()
        assert d_r @ h @ d_r == d_s @ h @ d_s
        keep = _guard_choice(w, rtn[:, None], sweep[:, None], np.full((4, 1, 1), scale), h)
        assert keep[:3].tolist() == [True, True, False]

    def test_guard_decides_only_rows_whose_codes_differ(self):
        # 2 w overflows; with one code set there is nothing to decide, and
        # with two the difference is not finite
        w = np.full((1, 2), 1.7e308)
        q = np.array([[[1.0, 1.0]]])
        h = np.eye(2)
        scale = np.full((1, 1, 1), 1.7e308)
        _guard_choice(w, q, q.copy(), scale, h)
        with pytest.raises(NonFiniteInputError, match="objective"):
            _guard_choice(w, q, np.array([[[1.0, 0.0]]]), scale, h)

    def test_round_trip_memory(self):
        # beyond its input: the factor, the sweep's work buffer holding its
        # codes, and a row tile's RTN codes and guard buffers; 2.66
        # w.nbytes, where a second buffer for the sweep's codes and the
        # guard's full-size arrays took 4.38
        rng = np.random.default_rng(6)
        w = rng.standard_normal((512, 512))
        h = random_spd_hessian(rng, 512, samples=256)
        spec = QuantSpec(bits=2, group_size=64, clip=Clip.mse())
        assert oracles.traced_peak(lambda: _round_trip(w, spec, h)) <= 3.5 * w.nbytes

    def test_factor_memory(self):
        # a few rows: the factor phase sets the peak, U written over the
        # dampened Hessian's copy plus X and one product of a quarter of it;
        # 1.52 d^2 x 8 bytes, where a reversed copy and a separate Cholesky
        # factor took 2.25
        rng = np.random.default_rng(7)
        d = 1024
        h = random_spd_hessian(rng, d)
        assert h.samples is None   # the matrix is built outside the trace
        w = rng.standard_normal((16, d))
        spec = QuantSpec(bits=2, group_size=64, clip=Clip.fixed(0.9))
        assert oracles.traced_peak(lambda: _round_trip(w, spec, h)) <= 1.75 * d * d * 8

    @pytest.mark.parametrize("case", ["narrow", "wide", "nan"])
    def test_hessian_checked_before_the_clip_search(self, monkeypatch, case):
        def no_search(*args, **kwargs):
            raise AssertionError("the clip search ran")

        monkeypatch.setattr(quant, "_search_ratios", no_search)
        matrix = {"narrow": np.eye(4), "wide": np.eye(16), "nan": np.full((8, 8), np.nan)}[case]
        h = CalibrationHessian(matrix=matrix)
        error = NonFiniteInputError if case == "nan" else ShapeMismatchError
        with pytest.raises(error, match="Hessian"):
            gptq_quantize(np.ones((2, 8)), h, QuantSpec(bits=2, group_size=4, clip=Clip.mse()))

    def test_sample_form_matches_matrix_form(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, ORDER))
        w = rng.standard_normal((2, ORDER))
        spec = QuantSpec(bits=2, group_size=64)
        h = hessian_from_calibration(x)
        assert h.samples is not None
        dense = CalibrationHessian(matrix=oracles.hessian_matrix(x))
        assert gptq_quantize(w, h, spec).codes.tobytes() \
            == gptq_quantize(w, dense, spec).codes.tobytes()

    @pytest.mark.parametrize("matrix", [
        np.zeros((4, 4)), -np.eye(4), np.diag([4.0, 4, 4, -1]),
        *(pytest.param(indefinite(n, block), id=f"{n}-{block}")
          for n in (65, 130, 520) for block in ("leading", "trailing"))])
    def test_not_positive_definite_rejected(self, matrix):
        h = CalibrationHessian(matrix=matrix)
        with pytest.raises(SingularHessianError, match="not positive definite after dampening"):
            gptq_quantize(np.ones((2, len(matrix))), h, QuantSpec(bits=2))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(-100, 100), d=st.sampled_from((8, 72, 136)),
           seed=st.integers(0, 2 ** 16))
    def test_codes_keep_their_bits_under_power_of_four_hessian_scaling(self, k, d, seed):
        # 4^k H has the Cholesky factor 2^k L, so U becomes 2^-k U exactly and
        # every residual fed forward keeps its bits; at |k| = 100 the
        # factor's entries are near 2^-100 and 2^100
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, d))
        h = random_spd_hessian(rng, d, samples=d // 2)
        scaled = CalibrationHessian(matrix=h.matrix * 4.0 ** k)
        spec = QuantSpec(bits=2, group_size=8, clip=Clip.mse((1.0, 0.8, 0.6)))
        assert gptq_quantize(w, scaled, spec).codes.tobytes() \
            == gptq_quantize(w, h, spec).codes.tobytes()

    def test_never_inverts_the_whole_factor(self, monkeypatch):
        inverted = []
        inv = np.linalg.inv

        def recording_inv(a):
            inverted.append(a.shape[0])
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        rng = np.random.default_rng(2)
        d = 200
        h = random_spd_hessian(rng, d)
        gptq_quantize(rng.standard_normal((4, d)), h, QuantSpec(bits=2, group_size=8))
        assert inverted and max(inverted) <= quant._INV_BLOCK


def graded_hessian(rng, n, cond):
    """S A S, A the Gram matrix of random samples and S a diagonal from 1 down
    to 1/sqrt(cond) in random order, so its condition number is about cond;
    exactly symmetric."""
    s = np.logspace(0, -np.log10(cond) / 2, n)[rng.permutation(n)]
    x = rng.standard_normal((n + 8, n)) * s
    return x.T @ x / n


class TestUpperInverse:
    """U, the upper-triangular inverse factor of hd (U^T U = hd^-1) that
    ``_inverse_factor`` writes over hd."""

    @pytest.mark.parametrize("cond", [1.0, 1e6, 1e12])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 127, 128, 129, 520])
    def test_matches_lapack(self, n, cond):
        rng = np.random.default_rng(n)
        hd = graded_hessian(rng, n, cond)
        if n >= 63:
            assert np.linalg.cond(hd) >= cond
        # LAPACK: J hd J = L L^T, J the exchange matrix, and U = (J L J)^-1
        low = scipy.linalg.cholesky(hd[::-1, ::-1], lower=True)
        ref = scipy.linalg.lapack.dtrtri(np.ascontiguousarray(low[::-1, ::-1]))[0]
        x = hd.copy()
        _inverse_factor(x)
        assert x.flags.c_contiguous
        assert not np.tril(x, -1).any()
        # scaling hd by S scales the columns of U by 1/S, and each row is
        # compared relative to its own size
        tol = 8 * n * np.finfo(np.float64).eps
        assert (np.abs(x - ref) <= tol * np.abs(ref).max(axis=1, keepdims=True)).all()
        # U inverts J L J; in U (J L J) the grading S cancels
        assert np.abs(x @ low[::-1, ::-1] - np.eye(n)).max() <= tol


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


def written_out_metrics(delta, h):
    """The three metrics as ``quant_error`` wrote them before ``_errors``."""
    if h.samples is None:
        proxy = np.trace(delta @ h.matrix @ delta.T)
    else:
        p = delta @ h.samples.T
        proxy = 2.0 * np.vdot(p, p) / len(h.samples)
    return {METRIC_MSE: np.mean(delta ** 2), METRIC_MAX_ABS: np.max(np.abs(delta)),
            METRIC_PROXY: proxy}


class TestErrors:
    """``_errors`` scores one difference with the bits and the errors of
    ``quant_error`` and of the formulas written out."""

    @pytest.mark.parametrize("d, samples", [(64, 256), (1024, 64)])
    def test_equals_quant_error_bitwise(self, d, samples):
        rng = np.random.default_rng(d)
        h = hessian_from_calibration(rng.standard_normal((samples, d)))
        assert (h.samples is None) == (d == 64)
        w = rng.standard_t(4, size=(16, d))
        w_hat = dequantize(rtn_quantize(w, QuantSpec(bits=2, group_size=16)))
        w_hat[0, :3] = w[0, :3]   # zero differences
        metrics = (METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY)
        got = _errors(w - w_hat, metrics, h)
        assert list(got) == list(metrics)
        for m, want in written_out_metrics(w - w_hat, h).items():
            assert np.float64(got[m]).tobytes() == np.float64(want).tobytes(), m
            assert np.float64(quant_error(w, w_hat, m, h)).tobytes() \
                == np.float64(want).tobytes(), m

    def test_max_abs_of_zeros_is_positive_zero(self):
        delta = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        assert np.float64(_errors(delta, (METRIC_MAX_ABS,))[METRIC_MAX_ABS]).tobytes() \
            == np.float64(0.0).tobytes()

    def test_mse_squares_delta_in_place(self):
        delta = np.array([[1.0, -2.0]])
        assert _errors(delta, (METRIC_MAX_ABS, METRIC_MSE)) == {
            METRIC_MAX_ABS: 2.0, METRIC_MSE: 2.5}
        assert delta.tolist() == [[1.0, 4.0]]

    def test_non_finite_raised_in_metric_order(self):
        # the mse and the proxy overflow; the first in the given order names the error
        h = CalibrationHessian(matrix=np.eye(2))
        delta = np.array([[1e200, -1e200]])
        with pytest.raises(NonFiniteInputError, match="the mse error is not finite"):
            _errors(delta.copy(), (METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY), h)
        with pytest.raises(NonFiniteInputError, match="the proxy error is not finite"):
            _errors(delta.copy(), (METRIC_PROXY, METRIC_MSE), h)
        assert _errors(delta.copy(), (METRIC_MAX_ABS,)) == {METRIC_MAX_ABS: 1e200}


class TestQuantError:
    def test_zero_for_identical(self):
        w = np.ones((3, 3))
        h = CalibrationHessian(matrix=np.eye(3))
        assert quant_error(w, w, METRIC_MSE) == 0.0
        assert quant_error(w, w, METRIC_MAX_ABS) == 0.0
        assert quant_error(w, w, METRIC_PROXY, h) == 0.0

    def test_mse_all_ones_delta(self):
        assert quant_error(np.ones((2, 2)), np.zeros((2, 2)), METRIC_MSE) == 1.0

    def test_proxy_identity_is_frobenius(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 4))
        w_hat = rng.standard_normal((4, 4))
        h = CalibrationHessian(matrix=np.eye(4))
        frob = float(np.sum((w - w_hat) ** 2))
        assert quant_error(w, w_hat, METRIC_PROXY, h) == pytest.approx(frob, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            quant_error(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 5), (16,)])
    def test_proxy_hessian_of_another_width(self, shape):
        h = CalibrationHessian(matrix=np.ones(shape))
        with pytest.raises(ShapeMismatchError, match="4 columns"):
            quant_error(np.ones((2, 4)), np.zeros((2, 4)), METRIC_PROXY, h)

    @pytest.mark.parametrize("metric", [METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_input_rejected(self, metric, shape):
        h = CalibrationHessian(matrix=np.eye(shape[1]))
        with pytest.raises(ShapeMismatchError, match="non-empty"):
            quant_error(np.zeros(shape), np.zeros(shape), metric, h)
