from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrot import harness
from seqrot.corpus import CorpusSpec, gen_corpus
from seqrot.errors import GroupDoesNotDivideError, InvalidConfigError, InvalidSpecError
from seqrot.harness import (
    bootstrap_median_ci,
    directional_tests,
    r4_ablation,
    run_comparison,
    sequency_variance_report,
    sequency_variance_sweep,
    sign_test,
)
from seqrot.quant import (
    CalibrationHessian,
    Clip,
    QuantSpec,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    rtn_quantize,
)
from seqrot.rotation import R4_MODES, RotationAssignment, ToyBlockConfig, resolve_variant
from seqrot.transforms import (
    KIND_GH,
    KIND_GW,
    KINDS,
    KRON_MIN_ORDER,
    OrthoMatrix,
    RotationOperator,
    _mix_seed,
    build_rotation,
)

SMALL_CORPUS = gen_corpus(CorpusSpec(count=8, rows=64, cols=64, seed=0))
SMALL_SPEC = QuantSpec(bits=2, group_size=16, clip=Clip.mse())


class TestRunComparison:
    def test_identity_variant_equals_direct_quantization(self):
        from seqrot.quant import dequantize, quant_error, rtn_quantize

        rep = run_comparison(SMALL_CORPUS, ("identity",), SMALL_SPEC, seed=0)
        for i, w in enumerate(SMALL_CORPUS):
            direct = quant_error(w, dequantize(rtn_quantize(w, SMALL_SPEC)))
            assert rep.per_tensor["identity"]["mse"][i] == pytest.approx(direct, rel=1e-12)

    def test_rotation_neutral_without_quantization(self, monkeypatch):
        # a quantizer that changes nothing isolates the rotate/rotate-back round trip
        monkeypatch.setattr(harness, "rtn_quantize", lambda w, spec: w)
        monkeypatch.setattr(harness, "dequantize", lambda qt: qt)
        rep = run_comparison(SMALL_CORPUS, ("gh", "gw", "lh", "gsr"), SMALL_SPEC, seed=0)
        for v in rep.variants:
            assert rep.per_tensor[v]["max_abs"].max() < 1e-10

    def test_fairness_hashes(self):
        rep = run_comparison(SMALL_CORPUS, ("gh", "gsr"), SMALL_SPEC, seed=0)
        assert rep.fairness_ok()
        assert rep.fairness_hashes["gh"] == rep.corpus_hash

    def test_deterministic(self):
        a = run_comparison(SMALL_CORPUS, ("gh", "gw"), SMALL_SPEC, seed=4)
        b = run_comparison(SMALL_CORPUS, ("gh", "gw"), SMALL_SPEC, seed=4)
        for v in a.variants:
            for m in a.metrics:
                assert np.array_equal(a.per_tensor[v][m], b.per_tensor[v][m])

    def test_gptq_quantizer_runs(self):
        rep = run_comparison(SMALL_CORPUS[:3], ("identity", "gsr"), SMALL_SPEC,
                             quantizer="gptq", seed=1)
        for v in rep.variants:
            assert np.all(np.isfinite(rep.per_tensor[v]["mse"]))

    def test_rejects_unknown_quantizer(self):
        with pytest.raises(InvalidSpecError):
            run_comparison(SMALL_CORPUS, ("gh",), SMALL_SPEC, quantizer="awq")

    def test_rejects_repeated_variant_before_any_work(self, monkeypatch):
        # a repeat would share one rotation and one report row under its name
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "resolve_variant", no_work)
        monkeypatch.setattr(harness, "hessian_from_calibration", no_work)
        with pytest.raises(InvalidConfigError, match="variant gh is repeated"):
            run_comparison(SMALL_CORPUS, ("gh", "lh", "gh"), SMALL_SPEC)

    @pytest.mark.parametrize("variants", [("",), ("gh", "")])
    def test_rejects_empty_variant_before_any_work(self, monkeypatch, variants):
        # an empty name would be read as a rotation file path
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "resolve_variant", no_work)
        monkeypatch.setattr(harness, "hessian_from_calibration", no_work)
        with pytest.raises(InvalidConfigError, match="empty variant name"):
            run_comparison(SMALL_CORPUS, variants, SMALL_SPEC)


ORDER_VARIANTS = KINDS + ("identity",)


@pytest.fixture(scope="module")
def kinds_order_report():
    return run_comparison(SMALL_CORPUS[:2], ORDER_VARIANTS, SMALL_SPEC, seed=5)


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(ORDER_VARIANTS), size=st.integers(1, len(ORDER_VARIANTS)))
def test_variant_scores_do_not_depend_on_order(kinds_order_report, order, size):
    # a variant's rotation follows from its name and the seed, not its position
    rep = run_comparison(SMALL_CORPUS[:2], order[:size], SMALL_SPEC, seed=5)
    for v in rep.variants:
        for m in rep.metrics:
            assert np.array_equal(rep.per_tensor[v][m],
                                  kinds_order_report.per_tensor[v][m]), (v, m)


def dense_reference(corpus, variants, wspec, quantizer, seed=0, calib_samples=256):
    """Per-tensor MSE of every variant through dense rotation products."""
    cols = corpus[0].shape[1]
    rng = np.random.default_rng(_mix_seed(seed, 7))
    h = hessian_from_calibration(rng.standard_normal((calib_samples, cols)))
    out = {}
    for v in variants:
        r = resolve_variant(v, cols, wspec.group_size,
                            _mix_seed(seed, 100 + KINDS.index(v))).dense()
        hm = r.T @ h.matrix @ r
        h_rot = CalibrationHessian(matrix=0.5 * (hm + hm.T), sample_count=h.sample_count)
        errs = []
        for w in corpus:
            q = (rtn_quantize(w @ r, wspec) if quantizer == "rtn"
                 else gptq_quantize(w @ r, h_rot, wspec))
            errs.append(quant_error(w, dequantize(q) @ r.T))
        out[v] = np.array(errs)
    return out


class TestStructuredRotation:
    VARIANTS = KINDS

    @pytest.mark.parametrize("quantizer", ["rtn", "gptq"])
    def test_grouped_rotations_never_densified(self, monkeypatch, quantizer):
        kinds = []
        dense = OrthoMatrix.dense

        def spy(self, *args, **kwargs):
            kinds.append(self.kind)
            return dense(self, *args, **kwargs)

        monkeypatch.setattr(OrthoMatrix, "dense", spy)
        run_comparison(SMALL_CORPUS[:2], self.VARIANTS, SMALL_SPEC, quantizer=quantizer)
        assert kinds == [KIND_GH, KIND_GW]   # once each; lh and gsr never

    @pytest.mark.parametrize("quantizer", ["rtn", "gptq"])
    def test_matches_dense_products(self, quantizer):
        corpus = SMALL_CORPUS[:3]
        report = run_comparison(corpus, self.VARIANTS, SMALL_SPEC, quantizer=quantizer)
        ref = dense_reference(corpus, self.VARIANTS, SMALL_SPEC, quantizer)
        for v in self.VARIANTS:
            np.testing.assert_allclose(report.per_tensor[v]["mse"], ref[v], rtol=1e-9)

    def test_gptq_at_the_factored_order_matches_dense_products(self, monkeypatch):
        """From KRON_MIN_ORDER the rotate, rotate-back and R^T H R products of
        gh and gw go through their Kronecker factors, never a dense matrix."""
        corpus = gen_corpus(CorpusSpec(count=2, rows=8, cols=KRON_MIN_ORDER, seed=1))
        variants = (KIND_GH, KIND_GW)
        ref = dense_reference(corpus, variants, SMALL_SPEC, "gptq")

        def refuse(*args, **kwargs):
            raise AssertionError("densified")

        monkeypatch.setattr(OrthoMatrix, "dense", refuse)
        report = run_comparison(corpus, variants, SMALL_SPEC, quantizer="gptq")
        for v in variants:
            np.testing.assert_allclose(report.per_tensor[v]["mse"], ref[v], rtol=1e-9)


class TestGroupAlignedBlocks:
    """With the block equal to the quantization group, unsigned Walsh and
    Hadamard blocks give the same per-group RTN errors: the symmetric Walsh
    block is a column permutation of the Hadamard block, and RTN does not
    see a permutation inside a group."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 10), data=st.data(), rows=st.integers(1, 6),
           bits=st.integers(2, 4), symmetric=st.booleans(),
           clip=st.sampled_from([Clip.none(), Clip.fixed(0.9), Clip.fixed(0.55)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_walsh_and_hadamard_blocks_tie_under_rtn(self, k, data, rows, bits,
                                                      symmetric, clip, seed):
        n = 1 << k
        g = 1 << data.draw(st.integers(1, k), label="log2 group")
        w = np.random.default_rng(seed).standard_normal((rows, n))
        spec = QuantSpec(bits=bits, group_size=g, symmetric=symmetric, clip=clip)
        errors = []
        for kind in ("lh", "gsr"):
            op = RotationOperator(build_rotation(kind, n, g))
            back = op.apply(dequantize(rtn_quantize(op.apply(w), spec)), transpose=True)
            errors.append(((w - back) ** 2).reshape(rows, n // g, g).sum(axis=2))
        np.testing.assert_allclose(errors[0], errors[1], rtol=1e-12, atol=0)


class TestSignTest:
    def test_all_wins(self):
        wins, n, p = sign_test([1, 1, 1], [2, 2, 2])
        assert (wins, n) == (3, 3)
        assert p == pytest.approx(0.125)

    def test_ties_dropped(self):
        wins, n, p = sign_test([1, 2, 3], [1, 2, 4])
        assert (wins, n) == (1, 1)
        assert p == pytest.approx(0.5)

    def test_no_information(self):
        assert sign_test([1.0], [1.0]) == (0, 0, 1.0)

    def test_matches_binomial_tail(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(40)
        b = a + rng.standard_normal(40) * 0.1 + 0.05
        wins, n, p = sign_test(a, b)
        from math import comb
        expect = sum(comb(n, k) for k in range(wins, n + 1)) / 2 ** n
        assert p == pytest.approx(expect)


class TestDirectional:
    def test_structure(self):
        rep = run_comparison(SMALL_CORPUS, ("gh", "gw", "lh", "gsr"), SMALL_SPEC, seed=0)
        results = directional_tests(rep)
        names = {(r.better, r.worse) for r in results}
        assert names == {("gw", "gh"), ("gsr", "lh"), ("gsr", "gh")}
        for r in results:
            assert 0.0 <= r.p_value <= 1.0
            assert r.n <= len(SMALL_CORPUS)

    def test_ties_counted(self):
        mse = {"gh": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
               "gw": np.array([1.0, 1.5, 3.0, 4.5, 5.0]),    # 1 win, 1 loss, 3 ties
               "lh": np.array([2.0, 2.0, 2.0, 2.0, 2.0]),
               "gsr": np.array([2.0, 2.0, 2.0, 1.0, 3.0])}   # vs lh: 1 win, 1 loss, 3 ties
        rep = harness.ExperimentReport(
            variants=KINDS, metrics=("mse",),
            per_tensor={v: {"mse": x} for v, x in mse.items()}, summary={},
            corpus_hash="", fairness_hashes={}, quantizer="rtn")
        got = {(r.better, r.worse): (r.wins, r.n, r.ties) for r in directional_tests(rep)}
        assert got == {("gw", "gh"): (1, 2, 3), ("gsr", "lh"): (1, 2, 3),
                       ("gsr", "gh"): (3, 4, 1)}


class TestSequencyVariance:
    def test_n8_g4_hand_values(self):
        rep = sequency_variance_report(8, 4)
        # natural groups {0,7,3,4} and {1,6,2,5}: population variances 6.25, 4.25
        assert rep["natural_variance"].tolist() == [6.25, 4.25]
        assert rep["walsh_variance"].tolist() == [1.25, 1.25]

    def test_walsh_analytic(self):
        rep = sequency_variance_report(128, 32)
        assert np.all(rep["walsh_variance"] == (32 ** 2 - 1) / 12)

    @pytest.mark.parametrize("group", [-8, 0, 3])
    def test_rejects_group_that_is_not_a_positive_divisor(self, group):
        with pytest.raises(GroupDoesNotDivideError):
            sequency_variance_report(8, group)

    def test_sweep_walsh_always_below(self):
        for row in sequency_variance_sweep(512):
            assert row["walsh"] < row["natural"], row


class TestBootstrap:
    def test_ci_brackets_median(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50) + 3.0
        lo, hi = bootstrap_median_ci(x, seed=1)
        assert lo < np.median(x) < hi
        assert lo > 2.0 and hi < 4.0

    def test_deterministic(self):
        x = np.arange(20.0)
        assert bootstrap_median_ci(x, seed=5) == bootstrap_median_ci(x, seed=5)


class TestQuantizedForwardDirectional:
    def test_gsr_not_worse_than_gh_in_median_over_seeds(self):
        # frozen seeded measurement: 2-bit weights on the toy block, R1 swapped
        from seqrot.rotation import (RotationAssignment, build_toy_block,
                                     forward, fuse_rotations)

        wspec = QuantSpec(bits=2, group_size=16, clip=Clip.mse())
        mses = {"gsr": [], "gh": []}
        for seed in range(50):
            cfg = ToyBlockConfig(seed=seed)
            block = build_toy_block(cfg)
            x = np.random.default_rng(1000 + seed).standard_normal(
                (cfg.seq_len, cfg.hidden))
            y_ref = forward(block, x)
            for kind in mses:
                fused = fuse_rotations(block, RotationAssignment(r1=kind, seed=seed))
                qfused = replace(fused, weights={k: dequantize(rtn_quantize(w.T, wspec)).T
                                                 for k, w in fused.weights.items()})
                r1 = fused.input_rotation
                y = r1.apply(forward(qfused, r1.apply(x)), transpose=True)
                mses[kind].append(float(np.mean((y - y_ref) ** 2)))
        assert np.median(mses["gsr"]) <= np.median(mses["gh"])


# unclipped specs: the ablation's weight and activation specs before it required both
NO_CLIP = dict(weight_spec=QuantSpec(bits=2, group_size=16),
               act_spec=QuantSpec(bits=4, group_size=16, symmetric=True))


@pytest.fixture(scope="module")
def report():
    cfg = ToyBlockConfig(hidden=32, heads=2, ffn=64, group_size=16, seq_len=4)
    return r4_ablation(cfg, **NO_CLIP, n_seeds=6, base_seed=0)


class TestR4Ablation:

    def test_no_quant_cell_is_invariance(self, report):
        for mode in report.modes:
            assert report.cells[mode]["w16a16"].max() < 1e-10

    def test_quant_cells_positive_and_finite(self, report):
        for mode in report.modes:
            for s in ("w2", "w2a4"):
                vals = report.cells[mode][s]
                assert np.all(np.isfinite(vals))
                assert np.all(vals > 0)

    def test_reports_ci_and_verdict(self, report):
        assert set(report.diff_ci) == set(report.settings)
        for s in report.settings:
            lo, hi = report.diff_ci[s]
            assert lo <= hi
            assert report.verdict[s] in ("significant", "not significant",
                                         "invariant (round-off), not tested")

    def test_medians_match_cells(self, report):
        for mode in report.modes:
            for s in report.settings:
                assert report.medians[mode][s] == float(np.median(report.cells[mode][s]))


ABLATION_CFG = ToyBlockConfig(hidden=32, heads=2, ffn=64, group_size=16, seq_len=4)
ABLATION_WSPEC = QuantSpec(bits=2, group_size=16, clip=Clip.mse())
ABLATION_ASPEC = QuantSpec(bits=4, group_size=16, symmetric=True, clip=Clip.fixed(0.9))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def place_r4(monkeypatch, r4_kind):
    """Make the ablation's assignments put ``r4_kind`` in the R4 slot.

    The ablation's R4 is always gh; the memo keys on weight bytes, not on the
    kind, and gw (other blocks) and identity (a wdown equal in both modes)
    give it other weights to key on."""
    monkeypatch.setattr(harness, "RotationAssignment",
                        lambda **kw: RotationAssignment(**{**kw, "r4": r4_kind}))


class TestR4AblationMemo:
    """Each distinct fused weight is quantized once per seed, with the same
    cells as quantizing inside every forward call."""

    @pytest.mark.parametrize("r4_kind", ["gh", "gw", "identity"])
    @pytest.mark.parametrize("r1_kind", ["gsr", "gh", "identity"])
    def test_matches_unmemoized_oracle(self, monkeypatch, r1_kind, r4_kind):
        kw = dict(weight_spec=ABLATION_WSPEC, act_spec=ABLATION_ASPEC, n_seeds=3,
                  r1_kind=r1_kind, base_seed=5)
        cells = oracles.r4_cells(ABLATION_CFG, **kw, r4_kind=r4_kind)
        place_r4(monkeypatch, r4_kind)
        rep = r4_ablation(ABLATION_CFG, **kw)
        assert rep.modes == R4_MODES
        for mode in R4_MODES:
            for s in rep.settings:
                assert np.array_equal(_bits(rep.cells[mode][s]), _bits(cells[mode][s]))
                assert _bits(rep.medians[mode][s]) == _bits(np.median(cells[mode][s]))
        for s in rep.settings:
            ci = bootstrap_median_ci(cells["local"][s] - cells["global"][s], seed=5)
            assert np.array_equal(_bits(rep.diff_ci[s]), _bits(ci))

    @pytest.mark.parametrize("r4_kind, per_seed", [("gh", 8), ("gw", 8), ("identity", 7)])
    def test_quantizes_each_distinct_weight_once_per_seed(self, monkeypatch, r4_kind,
                                                           per_seed):
        calls = []
        original = harness._quantize_weight

        def counting(w, spec):
            calls.append(w.shape)
            return original(w, spec)

        monkeypatch.setattr(harness, "_quantize_weight", counting)
        place_r4(monkeypatch, r4_kind)
        r4_ablation(ABLATION_CFG, **NO_CLIP, n_seeds=3)
        assert len(calls) == 3 * per_seed


class TestR4AblationVerdicts:
    def test_one_seed_is_not_tested(self):
        rep = r4_ablation(ABLATION_CFG, **NO_CLIP, n_seeds=1)
        for s in rep.settings:
            assert rep.diff_ci[s] is None
            assert rep.verdict[s] == "not tested (1 seed)"

    def test_roundoff_setting_is_invariant_and_not_tested(self, report):
        limit = harness.ROUNDOFF_MSE
        assert 0 < max(report.cells[m]["w16a16"].max() for m in report.modes) < limit
        assert report.verdict["w16a16"] == "invariant (round-off), not tested"
        for s in ("w2", "w2a4"):
            lo, hi = report.diff_ci[s]
            assert report.verdict[s] == ("significant" if lo > 0 or hi < 0
                                         else "not significant")

    @pytest.mark.parametrize("bound, invariant", [(0.0, set()),
                                                  (1e6, {"w16a16", "w2", "w2a4"})])
    def test_roundoff_rule_reads_the_cells_of_every_setting(self, monkeypatch, bound,
                                                           invariant):
        monkeypatch.setattr(harness, "ROUNDOFF_MSE", bound)
        rep = r4_ablation(ABLATION_CFG, **NO_CLIP, n_seeds=3)
        assert {s for s in rep.settings
                if rep.verdict[s] == "invariant (round-off), not tested"} == invariant
        for s in rep.settings:
            assert rep.diff_ci[s] is not None


class TestR4AblationArguments:
    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_seeds_rejected(self, n_seeds):
        with pytest.raises(InvalidConfigError):
            r4_ablation(ABLATION_CFG, **NO_CLIP, n_seeds=n_seeds)
