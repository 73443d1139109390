from dataclasses import replace

import numpy as np
import oracles
import pytest

import seqrot.rotation as rotation
from seqrot.errors import DimensionMismatchError, InvalidConfigError, NotOrthogonalError
from seqrot.quant import QuantSpec, dequantize, rtn_quantize
from seqrot.rotation import (
    ASSIGNMENT,
    RotationAssignment,
    ToyBlockConfig,
    build_toy_block,
    forward,
    fuse_rotations,
    invariance_max_diff,
    resolve_variant,
    rotate_weight,
)
from seqrot.tensorfile import save_rotation, write_tensor
from seqrot.transforms import (
    OrthoMatrix,
    RotationOperator,
    gsr,
    hadamard_sylvester,
    randomize_signs,
)


def _weights_quantized(block, spec):
    """``block`` with every weight round-tripped through the group quantizer,
    groups along the input channels of each output."""
    return replace(block, weights={k: dequantize(rtn_quantize(w.T, spec)).T
                                   for k, w in block.weights.items()})


class TestAssignmentTable:
    def test_exact_rows(self):
        assert list(ASSIGNMENT.items()) == list({
            "wq": ("r1", "identity"),
            "wk": ("r1", "identity"),
            "wv": ("r1", "r2"),
            "wo": ("r2", "r1"),
            "wup": ("r1", "identity"),
            "wgate": ("r1", "identity"),
            "wdown": ("r4", "r1"),
        }.items())


class TestRotateWeight:
    def test_identity_both_sides(self):
        w = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(rotate_weight(w, None, None), w)

    def test_front_of_identity_weight(self):
        rf = hadamard_sylvester(4)
        out = rotate_weight(np.eye(4), rf, None)
        assert np.allclose(out, rf.dense().T)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((8, 8))
        rf = gsr(8, 4)
        rr = hadamard_sylvester(8)
        got = rotate_weight(w, rf, rr)
        f = rf.dense()
        r = rr.dense()
        naive = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                naive[i, j] = sum(f[k, i] * w[k, m] * r[m, j]
                                  for k in range(8) for m in range(8))
        assert np.max(np.abs(got - naive)) < 1e-12

    def test_nested_inner_product_expansion(self):
        # elementwise double-inner-product form agrees with the matrix product
        rng = np.random.default_rng(1)
        w = rng.standard_normal((8, 8))
        rf = randomize_signs(hadamard_sylvester(8), 3).dense()
        rr = gsr(8, 2).dense()
        got = rotate_weight(w, rf, rr)
        for i in range(8):
            inner = np.array([rf[:, i] @ w[:, k] for k in range(8)])
            for j in range(8):
                assert abs(inner @ rr[:, j] - got[i, j]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rotate_weight(np.zeros((4, 4)), hadamard_sylvester(8), None)
        with pytest.raises(DimensionMismatchError):
            rotate_weight(np.zeros((4, 4)), None, hadamard_sylvester(8))


class TestToyBlock:
    def test_same_seed_bit_identical(self):
        a = build_toy_block(ToyBlockConfig(seed=9))
        b = build_toy_block(ToyBlockConfig(seed=9))
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])

    def test_single_head_forward_finite(self):
        cfg = ToyBlockConfig(hidden=16, heads=1, ffn=32, group_size=8, seq_len=4)
        block = build_toy_block(cfg)
        y = forward(block, np.random.default_rng(0).standard_normal((4, 16)))
        assert np.all(np.isfinite(y))

    def test_output_shape(self):
        cfg = ToyBlockConfig()
        y = forward(build_toy_block(cfg),
                    np.random.default_rng(1).standard_normal((cfg.seq_len, cfg.hidden)))
        assert y.shape == (cfg.seq_len, cfg.hidden)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfigError):
            ToyBlockConfig(hidden=48)
        with pytest.raises(InvalidConfigError):
            ToyBlockConfig(heads=3)
        with pytest.raises(InvalidConfigError):
            ToyBlockConfig(group_size=17)

    def test_forward_deterministic(self):
        cfg = ToyBlockConfig(seed=2)
        block = build_toy_block(cfg)
        x = np.random.default_rng(3).standard_normal((cfg.seq_len, cfg.hidden))
        assert np.array_equal(forward(block, x), forward(block, x))

    def test_zero_length_sequence_rejected(self):
        cfg = ToyBlockConfig()
        with pytest.raises(DimensionMismatchError):
            forward(build_toy_block(cfg), np.zeros((0, cfg.hidden)))

    def test_forward_does_not_copy_weights_of_its_dtype(self):
        class Spy(np.ndarray):
            copies = 0

            def astype(self, dtype, *args, **kwargs):
                out = super().astype(dtype, *args, **kwargs)
                Spy.copies += out is not self
                return out

        cfg = ToyBlockConfig(seed=4)
        block = build_toy_block(cfg)
        spied = rotation.ToyBlock(cfg=cfg, weights={k: v.view(Spy)
                                                    for k, v in block.weights.items()})
        x = np.random.default_rng(5).standard_normal((cfg.seq_len, cfg.hidden))
        y = forward(spied, x)
        assert Spy.copies == 0
        assert np.array_equal(np.asarray(y), forward(block, x))


class TestRotationAssignment:
    @pytest.mark.parametrize("mode", ["bogus", "Global", ""])
    def test_unknown_r4_mode_rejected(self, mode):
        with pytest.raises(InvalidConfigError):
            RotationAssignment(r4="gh", r4_mode=mode)

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_known_r4_modes_accepted(self, mode):
        assert RotationAssignment(r4_mode=mode).r4_mode == mode


class TestFuseRotations:
    def test_all_identity_unchanged(self):
        block = build_toy_block(ToyBlockConfig())
        fused = fuse_rotations(block, RotationAssignment())
        for name in block.weights:
            assert np.array_equal(fused.weights[name], block.weights[name])
        assert fused.r3_online is None
        assert fused.r4_online is None

    @pytest.mark.parametrize("assign,repeats", [
        (RotationAssignment(), []),
        (RotationAssignment(r1="gsr", r4="gw"), [1, 1]),
        (RotationAssignment(r1="gsr", r2="gh", r4="gw"), [1, 1, 4]),
        (RotationAssignment(r1="lh", r2="gsr", r3="gw", r4="gh", r4_mode="local"), [1, 1, 1, 4]),
    ])
    def test_one_operator_per_slot(self, monkeypatch, assign, repeats):
        built = []

        class Spy(RotationOperator):
            def __init__(self, r, repeat=1):
                built.append(repeat)
                super().__init__(r, repeat)

        monkeypatch.setattr(rotation, "RotationOperator", Spy)
        fuse_rotations(build_toy_block(ToyBlockConfig()), assign)
        # r2 acts on each of the 4 heads: one operator, repeated once per head
        assert sorted(built) == repeats

    def test_r1_only_rotates_wq_rows(self):
        cfg = ToyBlockConfig()
        block = build_toy_block(cfg)
        assign = RotationAssignment(r1="gh", seed=5)
        fused = fuse_rotations(block, assign)
        r1 = fused.input_rotation.apply(np.eye(cfg.hidden))   # the dense R1
        assert np.allclose(fused.weights["wq"], r1.T @ block.weights["wq"])
        assert invariance_max_diff(cfg, assign) < 1e-10

    def test_mixed_assignment_invariance(self):
        cfg = ToyBlockConfig()
        assign = RotationAssignment(r1="gsr", r2="gh", r3="gh", r4="gh", seed=1)
        assert invariance_max_diff(cfg, assign) < 1e-10
        assert invariance_max_diff(cfg, assign, dtype=np.float32) < 1e-4

    def test_invariance_over_seeds_and_variants(self):
        cfg = ToyBlockConfig()
        for seed in range(5):
            assign = RotationAssignment(r1="gw", r2="gw", r3="gsr", r4="gh",
                                        r4_mode="local", seed=seed)
            assert invariance_max_diff(cfg, assign, input_seed=seed) < 1e-10

    def test_rotation_application_counts(self, monkeypatch):
        # instrument rotate_weight and count which sides each weight consumed
        calls = []
        original = rotation.rotate_weight

        def spy(w, front=None, rear=None):
            calls.append((front is not None, rear is not None))
            return original(w, front, rear)

        monkeypatch.setattr(rotation, "rotate_weight", spy)
        block = build_toy_block(ToyBlockConfig())
        fuse_rotations(block, RotationAssignment(r1="gh", r2="gw", r4="gw", seed=4))
        # per table: wq,wk,wup,wgate get front only; wv front+rear; wo front+rear;
        # wdown front+rear
        assert calls == [(True, False), (True, False), (True, True), (True, True),
                         (True, False), (True, False), (True, True)]

    def test_r2_per_head_block_structure(self):
        # changing one head's value columns moves only that head's fused columns
        cfg = ToyBlockConfig()
        block = build_toy_block(cfg)
        assign = RotationAssignment(r2="gh", seed=3)
        h = 1
        s = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
        wv = block.weights["wv"].copy()
        wv[:, s] += np.random.default_rng(0).standard_normal((cfg.hidden, cfg.head_dim))
        perturbed = replace(block, weights={**block.weights, "wv": wv})
        base_wv = fuse_rotations(block, assign).weights["wv"]
        pert_wv = fuse_rotations(perturbed, assign).weights["wv"]
        changed = np.abs(base_wv - pert_wv).max(axis=0) > 1e-12
        assert changed[s.start:s.stop].any()
        outside = np.ones(cfg.hidden, dtype=bool)
        outside[s] = False
        assert not changed[outside].any()

    def test_external_rotation_from_file(self, tmp_path):
        cfg = ToyBlockConfig()
        p = tmp_path / "r1.gsrt"
        save_rotation(p, gsr(cfg.hidden, cfg.group_size))
        assign = RotationAssignment(r1=str(p))
        assert invariance_max_diff(cfg, assign) < 1e-10

    def test_external_non_orthogonal_rejected(self, tmp_path):
        p = tmp_path / "bad.gsrt"
        write_tensor(p, np.random.default_rng(0).standard_normal((64, 64)), {})
        with pytest.raises(NotOrthogonalError):
            resolve_variant(str(p), 64, 16, 0)

    def test_saved_gsr_resolves_to_its_blocks(self, tmp_path, monkeypatch):
        built = gsr(4096, 64)
        p = tmp_path / "gsr.gsrt"
        save_rotation(p, built)

        def no_dense(self, *args):
            raise AssertionError("the n x n matrix was built")

        monkeypatch.setattr(OrthoMatrix, "signs", property(no_dense))
        monkeypatch.setattr(OrthoMatrix, "dense", no_dense)
        r = resolve_variant(str(p), 4096, 64, 0)
        assert isinstance(r, OrthoMatrix)
        assert r.blocks.dtype == np.int8 and np.array_equal(r.blocks, built.blocks)
        assert ((r.scale, r.kind, r.group_size, r.block_kind, r.seed)
                == (built.scale, built.kind, built.group_size, built.block_kind, built.seed))
        op = RotationOperator(r)
        assert op.block.shape == (64, 64) and op.signs is None

    def test_external_wrong_order_rejected(self, tmp_path):
        p = tmp_path / "small.gsrt"
        save_rotation(p, gsr(8, 4))
        with pytest.raises(DimensionMismatchError):
            resolve_variant(str(p), 64, 16, 0)


class TestFusionMatchesDenseOracle:
    """Fusion through the block operators against every rotation densified,
    with R2 as a Kronecker product (``oracles.fused_weights``)."""

    CFG = ToyBlockConfig()
    WIDE_HEADS = ToyBlockConfig(hidden=128, heads=4, ffn=256, group_size=16, seed=2)

    @pytest.mark.parametrize("cfg,assign", [
        (CFG, RotationAssignment(r1="gsr", r2="gh", r3="gh", r4="gh", seed=1)),
        (CFG, RotationAssignment(r1="lh", r2="gsr", r3="gw", r4="gw", r4_mode="local",
                                 seed=2)),
        (CFG, RotationAssignment(r1="gh", r2="gw", r4="gsr", seed=3)),
        # head_dim 32 with group 16: R2 has two blocks per head
        (WIDE_HEADS, RotationAssignment(r1="gw", r2="lh", r3="gsr", r4="gh",
                                        r4_mode="local", seed=4)),
        (WIDE_HEADS, RotationAssignment(r1="identity", r2="gsr", seed=5)),
    ])
    def test_fused_weights(self, cfg, assign):
        block = build_toy_block(cfg)
        fused = fuse_rotations(block, assign)
        want = oracles.fused_weights(block, assign)
        for name, w in want.items():
            assert np.max(np.abs(fused.weights[name] - w)) < 1e-12, name

    def test_external_head_rotation(self, tmp_path):
        cfg = self.CFG
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((cfg.head_dim,) * 2))
        p = tmp_path / "r2.gsrt"
        write_tensor(p, q, {})
        assign = RotationAssignment(r1="gsr", r2=str(p), seed=6)
        block = build_toy_block(cfg)
        want = oracles.fused_weights(block, assign)
        fused = fuse_rotations(block, assign)
        for name, w in want.items():
            assert np.max(np.abs(fused.weights[name] - w)) < 1e-12, name
        assert invariance_max_diff(cfg, assign) < 1e-10

    def test_float32_forward_stays_float32(self):
        cfg = ToyBlockConfig()
        fused = fuse_rotations(build_toy_block(cfg), RotationAssignment(
            r1="gsr", r2="gh", r3="gw", r4="gw", r4_mode="local", seed=7))
        x = np.random.default_rng(7).standard_normal((cfg.seq_len, cfg.hidden))
        x_in = fused.input_rotation.apply(x.astype(np.float32))
        assert x_in.dtype == np.float32
        qfused = _weights_quantized(fused, QuantSpec(bits=4, group_size=16))
        for b, kw in ((fused, {}),
                      (qfused, {"act_spec": QuantSpec(bits=4, group_size=16, symmetric=True)})):
            y = forward(b, x_in, dtype=np.float32, **kw)
            assert y.dtype == np.float32
            y64 = forward(b, fused.input_rotation.apply(x), **kw)
            assert np.max(np.abs(y - y64)) < 1e-3


class TestQuantizedForward:
    def test_no_quant_bit_exact(self):
        cfg = ToyBlockConfig()
        block = build_toy_block(cfg)
        x = np.random.default_rng(0).standard_normal((cfg.seq_len, cfg.hidden))
        assert np.array_equal(forward(block, x), forward(block, x, act_spec=None))

    def test_w8_close_to_full_precision(self):
        cfg = ToyBlockConfig()
        block = build_toy_block(cfg)
        x = np.random.default_rng(0).standard_normal((cfg.seq_len, cfg.hidden))
        y = forward(block, x)
        yq = forward(_weights_quantized(block, QuantSpec(bits=8, group_size=16)), x)
        rel = np.linalg.norm(yq - y) / np.linalg.norm(y)
        assert rel < 5e-2
        assert rel < 2e-2  # regression margin: measured 0.0054 on this seed

    def test_activation_quant_applies_after_r4(self):
        cfg = ToyBlockConfig()
        block = build_toy_block(cfg)
        fused = fuse_rotations(block, RotationAssignment(r4="gh", seed=2))
        x = np.random.default_rng(1).standard_normal((cfg.seq_len, cfg.hidden))
        act = QuantSpec(bits=4, group_size=16, symmetric=True)
        ya = forward(fused, x, act_spec=act)
        yb = forward(fused, x)
        assert not np.array_equal(ya, yb)
        assert np.all(np.isfinite(ya))


class TestFrontRotationLocality:
    def test_holds_for_random_instances(self):
        rng = np.random.default_rng(0)
        ok = 0
        for t in range(100):
            c = int(rng.choice([8, 16, 32]))
            g = int(rng.choice([2, 4, 8]))
            w = rng.standard_normal((c, c))
            front = randomize_signs(hadamard_sylvester(c), t) if t % 2 else gsr(c, g)
            rear = hadamard_sylvester(c) if t % 3 else None
            n = int(rng.integers(0, c // g))
            ok += oracles.front_rotation_locality(w, front, rear, n, g, seed=t)
        assert ok == 100

    def test_inside_perturbation_changes_group(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((16, 16))
        front = hadamard_sylvester(16)
        base = rotate_weight(w, front, None)
        f = front.dense().copy()
        f[:, 4:8] = rng.standard_normal((16, 4))  # perturb inside group 1 (g=4)
        pert = rotate_weight(w, f, None)
        assert np.max(np.abs(pert[4:8] - base[4:8])) > 1e-6

    def test_rear_column_perturbation_hits_all_row_groups(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((16, 16))
        front = gsr(16, 4)
        rear = hadamard_sylvester(16)
        base = rotate_weight(w, front, rear)
        r = rear.dense().copy()
        j = 5
        r[:, j] = rng.standard_normal(16)
        pert = rotate_weight(w, front, r)
        delta = np.abs(pert - base)
        for group in range(4):
            rows = slice(group * 4, group * 4 + 4)
            assert delta[rows, j].max() > 1e-6      # column j changed in every group
        mask = np.ones(16, dtype=bool)
        mask[j] = False
        assert delta[:, mask].max() < 1e-12         # other columns untouched
