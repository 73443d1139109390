import hashlib

import numpy as np
import pytest

from seqrot.corpus import CorpusSpec, corpus_hash, gen_corpus
from seqrot.errors import InvalidSpecError


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidSpecError):
            CorpusSpec(count=0)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(outlier_channels=512, cols=512)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(outlier_gain=0.0)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(base_dist="cauchy")
        with pytest.raises(InvalidSpecError):
            CorpusSpec(t_dof=2.0)

    @pytest.mark.parametrize("field", ["t_dof", "outlier_gain", "smooth_weight"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        # NaN fails every comparison, so range checks alone would let it through
        with pytest.raises(InvalidSpecError, match="must be finite"):
            CorpusSpec(**{field: value})


class TestGenCorpus:
    def test_pure_base_variance(self):
        spec = CorpusSpec(count=1, rows=512, cols=512, base_dist="gaussian",
                          outlier_channels=0, outlier_gain=1.0,
                          smooth_weight=0.0, seed=0)
        (t,) = gen_corpus(spec)
        assert abs(t.var() - 1.0) < 0.1

    def test_student_t_variance(self):
        spec = CorpusSpec(count=1, rows=512, cols=512, base_dist="student_t",
                          t_dof=8.0, outlier_channels=0, outlier_gain=1.0,
                          smooth_weight=0.0, seed=3)
        (t,) = gen_corpus(spec)
        nominal = 8.0 / 6.0
        assert abs(t.var() - nominal) / nominal < 0.1

    def test_deterministic(self):
        spec = CorpusSpec(count=3, rows=32, cols=64, seed=7)
        a = gen_corpus(spec)
        b = gen_corpus(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert corpus_hash(a) == corpus_hash(b)

    def test_different_seeds_differ(self):
        a = gen_corpus(CorpusSpec(count=1, rows=16, cols=16, seed=0))
        b = gen_corpus(CorpusSpec(count=1, rows=16, cols=16, seed=1))
        assert not np.array_equal(a[0], b[0])

    def test_outlier_columns_stand_out(self):
        spec = CorpusSpec(count=4, rows=256, cols=256, base_dist="gaussian",
                          outlier_channels=4, outlier_gain=20.0,
                          smooth_weight=0.0, seed=5)
        for t in gen_corpus(spec):
            norms = np.linalg.norm(t, axis=0)
            big = norms > 10 * np.median(norms)
            assert int(big.sum()) == 4

    def test_smooth_component_raises_low_frequency_energy(self):
        base = gen_corpus(CorpusSpec(count=1, rows=256, cols=256,
                                     base_dist="gaussian", outlier_channels=0,
                                     smooth_weight=0.0, seed=9))[0]
        smooth = gen_corpus(CorpusSpec(count=1, rows=256, cols=256,
                                       base_dist="gaussian", outlier_channels=0,
                                       smooth_weight=1.0, seed=9))[0]
        # energy in the first few column-FFT bins should rise with the component
        def low_freq_energy(t):
            spec = np.abs(np.fft.rfft(t, axis=1)) ** 2
            return spec[:, 1:24].sum() / spec.sum()

        assert low_freq_energy(smooth) > 2 * low_freq_energy(base)

    def test_corpus_hash_sensitive(self):
        a = gen_corpus(CorpusSpec(count=1, rows=8, cols=8, seed=0))
        b = [a[0].copy()]
        b[0][0, 0] += 1e-12
        assert corpus_hash(a) != corpus_hash(b)

    def test_corpus_hash_is_of_the_float64_c_order_bytes(self):
        t = gen_corpus(CorpusSpec(count=1, rows=8, cols=16, seed=0))[0]
        views = [t, np.asfortranarray(t), t[:, ::2], t.astype(np.float32)]
        want = hashlib.sha256()
        for v in views:
            want.update(np.asarray(v, dtype=np.float64).tobytes())
        assert corpus_hash(views) == want.hexdigest()
