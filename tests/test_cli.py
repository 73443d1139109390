import shlex

import numpy as np
import pytest

from seqrot import cli, transforms
from seqrot.cli import build_parser, config_line, main
from seqrot.quant import rtn_quantize
from seqrot.tensorfile import (
    load_quantized,
    load_rotation,
    read_report,
    save_rotation,
    write_tensor,
)
from seqrot.transforms import OrthoMatrix, build_rotation, orthogonality_residual


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMakeRotation:
    def test_gw_prints_ascending_sequencies(self, capsys):
        code, out, _ = run_cli(capsys, "make-rotation", "--kind", "gw", "--n", "8")
        assert code == 0
        assert "0 1 2 3 4 5 6 7" in out

    def test_gsr_two_blocks_written(self, capsys, tmp_path):
        p = tmp_path / "gsr.gsrt"
        code, out, _ = run_cli(capsys, "make-rotation", "--kind", "gsr", "--n", "8",
                               "--group", "4", "--out", str(p))
        assert code == 0
        m = load_rotation(p)
        assert np.all(m.signs[:4, 4:] == 0)
        assert np.all(m.signs[4:, :4] == 0)
        assert orthogonality_residual(m.dense()) < 1e-10

    def test_bad_group_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "make-rotation", "--kind", "gsr", "--n", "8",
                               "--group", "3")
        assert code == 2
        assert "group size must be a power of two, got 3" in err

    @pytest.mark.parametrize("group", ["-8", "0"])
    def test_group_below_one_exits_2(self, capsys, group):
        for kind in ("gh", "gw"):
            code, _, err = run_cli(capsys, "make-rotation", "--kind", kind, "--n", "8",
                                   "--group", group)
            assert code == 2, kind
            assert f"group size {group} is not a positive divisor of 8" in err

    def test_non_power_of_two_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "make-rotation", "--kind", "gh", "--n", "12")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["make-rotation", "--kind", "gh", "--n", "8", "--bogus"])
        assert exc.value.code == 2

    def test_randomize_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.gsrt", tmp_path / "b.gsrt"
        for p in (a, b):
            run_cli(capsys, "make-rotation", "--kind", "gh", "--n", "16",
                    "--seed", "9", "--out", str(p))
        assert np.array_equal(load_rotation(a).signs, load_rotation(b).signs)

    @pytest.mark.parametrize("kind", ["gh", "gw", "lh", "gsr"])
    def test_seed_randomizes_and_no_seed_does_not(self, capsys, tmp_path, kind):
        plain, seeded = tmp_path / "plain.gsrt", tmp_path / "seeded.gsrt"
        for p, extra in ((plain, ()), (seeded, ("--seed", "5"))):
            code, _, _ = run_cli(capsys, "make-rotation", "--kind", kind, "--n", "16",
                                 "--group", "8", *extra, "--out", str(p))
            assert code == 0
        plain, seeded = load_rotation(plain), load_rotation(seeded)
        assert plain.seed is None and seeded.seed == 5
        assert np.array_equal(plain.blocks, build_rotation(kind, 16, 8).blocks)
        assert np.array_equal(seeded.blocks, build_rotation(kind, 16, 8, 5).blocks)
        assert not np.array_equal(seeded.blocks, plain.blocks)

    def test_order_too_large_exits_2(self, capsys):
        for kind in ("gh", "lh", "gsr"):
            code, _, err = run_cli(capsys, "make-rotation", "--kind", kind, "--n", "131072",
                                   "--group", "64")
            assert code == 2, kind
            assert "exceeds maximum" in err


def mislabelled_lh(tmp_path):
    # an lh file whose group does not divide its order
    p = tmp_path / "lh.gsrt"
    write_tensor(p, np.empty(0, dtype=np.int8),
                 {"content": "rotation", "kind": "lh", "n": 64, "group": 128, "seed": None})
    return p


class TestNoDensify:
    @pytest.mark.parametrize("kind", ["gh", "gw"])
    def test_make_rotation_and_inspect(self, capsys, tmp_path, monkeypatch, kind):
        # a library rotation is exact by construction: nothing builds its n x n matrix
        def refuse(*args, **kwargs):
            raise AssertionError("a library rotation was densified")

        monkeypatch.setattr(cli, "orthogonality_residual", refuse)
        monkeypatch.setattr(transforms, "orthogonality_residual", refuse)
        monkeypatch.setattr(OrthoMatrix, "dense", refuse)
        p = tmp_path / f"{kind}.gsrt"
        code, out, _ = run_cli(capsys, "make-rotation", "--kind", kind, "--n", "64",
                               "--seed", "2", "--out", str(p))
        assert code == 0
        assert f"kind {kind}  n 64\n" in out
        code, out, _ = run_cli(capsys, "inspect", "--file", str(p))
        assert code == 0
        assert "residual" not in out


class TestInspect:
    def test_rotation_file(self, capsys, tmp_path):
        p = tmp_path / "w.gsrt"
        run_cli(capsys, "make-rotation", "--kind", "gw", "--n", "16",
                "--out", str(p))
        code, out, _ = run_cli(capsys, "inspect", "--file", str(p), "--group", "4")
        assert code == 0
        assert "row sequencies: 0 1 2 3" in out
        assert "residual" not in out   # a rotation file is its kind's exact rebuild

    def test_file_metadata_is_kind_and_seed(self, capsys, tmp_path):
        p = tmp_path / "lh.gsrt"
        run_cli(capsys, "make-rotation", "--kind", "lh", "--n", "16", "--group", "4",
                "--seed", "3", "--out", str(p))
        code, out, _ = run_cli(capsys, "inspect", "--file", str(p))
        assert code == 0
        assert ("metadata {'content': 'rotation', 'group': 4, 'kind': 'lh', 'n': 16, 'seed': 3}"
                in out)
        variances = out.split("group sequency variance: ")[1].split()
        assert len(variances) == 4   # without --group, one value per block

    def test_rotation_tagged_float_file_exits_1(self, capsys, tmp_path):
        # every command that reads a rotation file rejects it, inspect too
        p = tmp_path / "f.gsrt"
        write_tensor(p, np.ones((2, 4, 4)), {"content": "rotation", "kind": "gsr",
                                             "seed": None})
        code, _, err = run_cli(capsys, "inspect", "--file", str(p))
        assert code == 1
        assert "bad rotation file" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "inspect", "--file", str(tmp_path / "no.gsrt"))
        assert code == 1
        assert "error" in err

    def test_mislabelled_rotation_exits_1(self, capsys, tmp_path):
        p = mislabelled_lh(tmp_path)
        code, _, err = run_cli(capsys, "inspect", "--file", str(p))
        assert code == 1
        assert "bad rotation file" in err

    @pytest.mark.parametrize("tensor", [np.ones((4, 8)), np.eye(8)])
    def test_group_on_a_float_file_exits_2(self, capsys, tmp_path, tensor):
        p = tmp_path / "f.gsrt"
        write_tensor(p, tensor, {})
        code, out, err = run_cli(capsys, "inspect", "--file", str(p), "--group", "3")
        assert code == 2
        assert "--group applies only to rotation files" in err
        assert "shape" not in out


class TestQuantize:
    def test_lattice_exact_reports_zero_mse(self, capsys, tmp_path):
        p = tmp_path / "t.gsrt"
        write_tensor(p, np.tile(np.array([0.0, 1.0, 2.0, 3.0]), (2, 1)), {})
        code, out, _ = run_cli(capsys, "quantize", "--file", str(p), "--bits", "2",
                               "--group", "4")
        assert code == 0
        assert "mse 0" in out

    def test_writes_quantized_file(self, capsys, tmp_path):
        src = tmp_path / "w.gsrt"
        dst = tmp_path / "q.gsrt"
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 16))
        write_tensor(src, w, {})
        code, _, _ = run_cli(capsys, "quantize", "--file", str(src), "--bits", "4",
                             "--group", "8", "--clip", "mse", "--out", str(dst))
        assert code == 0
        qt = load_quantized(dst)
        ref = rtn_quantize(w, qt.spec)
        assert np.array_equal(qt.codes, ref.codes)

    def test_gptq_scheme_runs(self, capsys, tmp_path):
        src = tmp_path / "w.gsrt"
        write_tensor(src, np.random.default_rng(1).standard_normal((4, 8)), {})
        code, out, _ = run_cli(capsys, "quantize", "--file", str(src), "--bits", "3",
                               "--group", "4", "--scheme", "gptq")
        assert code == 0
        assert "mse" in out

    def test_bad_clip_exits_2(self, capsys, tmp_path):
        src = tmp_path / "w.gsrt"
        write_tensor(src, np.zeros((2, 4)), {})
        code, _, _ = run_cli(capsys, "quantize", "--file", str(src), "--bits", "2",
                             "--clip", "huh")
        assert code == 2

    @pytest.mark.parametrize("scheme", ["rtn", "gptq"])
    def test_non_finite_weights_exit_1(self, capsys, tmp_path, scheme):
        src = tmp_path / "w.gsrt"
        w = np.ones((2, 8))
        w[1, 2] = np.nan
        write_tensor(src, w, {})
        code, _, err = run_cli(capsys, "quantize", "--file", str(src), "--bits", "2",
                               "--group", "4", "--clip", "mse", "--scheme", scheme)
        assert code == 1
        assert "NaN or inf" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_calib_samples_below_one_exits_2(self, capsys, tmp_path, samples):
        src = tmp_path / "w.gsrt"
        write_tensor(src, np.ones((2, 4)), {})
        code, out, err = run_cli(capsys, "quantize", "--file", str(src), "--bits", "2",
                                 "--scheme", "gptq", "--calib-samples", samples)
        assert code == 2
        assert f"--calib-samples must be at least 1, got {samples}" in err
        assert "max_abs" not in out


COMPARE_ARGS = ["compare", "--count", "3", "--rows", "32", "--cols", "32",
                "--group", "8", "--bits", "2", "--seed", "5"]


class TestCompare:
    def test_csv_row_count_and_echo_reproducibility(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        code, stdout, _ = run_cli(capsys, *COMPARE_ARGS, "--out", str(out_a))
        assert code == 0
        rows = read_report(out_a)
        assert len(rows) == 4 * 3 * 3  # variants x tensors x metrics
        assert {r["variant"] for r in rows} == {"gh", "gw", "lh", "gsr"}
        # rerun from the echoed config; the report must be byte-identical
        echo = [l for l in stdout.splitlines() if l.startswith("# config:")][0]
        argv = echo.split()[3:]
        out_b = tmp_path / "b.csv"
        argv[argv.index("--out") + 1] = str(out_b)
        assert main(argv) == 0
        capsys.readouterr()
        assert out_a.read_bytes().replace(str(out_a).encode(), b"") \
            == out_b.read_bytes().replace(str(out_b).encode(), b"")

    def test_prints_fairness_and_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, *COMPARE_ARGS)
        assert code == 0
        assert "# fairness hashes identical: True" in out
        assert "directional gsr<gh" in out

    def test_variant_row_does_not_depend_on_order(self, capsys):
        rows = []
        for variants in ("gh,gw", "gw,gh"):
            code, out, _ = run_cli(capsys, "compare", "--count", "4", "--rows", "16",
                                   "--cols", "64", "--variants", variants)
            assert code == 0
            rows.append(next(l for l in out.splitlines() if l.startswith("gh ")))
        assert rows[0] == rows[1]

    def test_repeated_variant_exits_2(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, stdout, err = run_cli(capsys, "compare", "--count", "2", "--rows", "8",
                                    "--cols", "64", "--variants", "gh,gh", "--out", str(out))
        assert code == 2
        assert "variant gh is repeated" in err
        assert "directional" not in stdout and not out.exists()

    @pytest.mark.parametrize("variants", ["", "gh,"])
    def test_empty_variant_exits_2(self, capsys, variants):
        code, out, err = run_cli(capsys, "compare", "--count", "2", "--rows", "8",
                                 "--cols", "64", "--variants", variants)
        assert code == 2
        assert "empty variant name" in err and "directional" not in out

    @pytest.mark.parametrize("flag, value", [("--t-dof", "nan"), ("--outlier-gain", "nan"),
                                             ("--smooth", "nan"), ("--smooth", "inf")])
    def test_non_finite_corpus_flag_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "compare", "--count", "2", "--rows", "8",
                                 "--cols", "64", flag, value)
        assert code == 2
        assert "must be finite" in err and "directional" not in out

    def test_failure_leaves_no_partial_output(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, _, _ = run_cli(capsys, "compare", "--count", "2", "--rows", "16",
                             "--cols", "16", "--group", "8",
                             "--variants", "gh,bogus-file", "--out", str(out))
        assert code == 1
        assert not out.exists()


class TestInvariance:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "invariance", "--r1", "gsr", "--r2", "gh",
                               "--r3", "gh", "--r4", "gh", "--seeds", "2")
        assert code == 0
        assert "PASS" in out

    def test_f32_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "invariance", "--r1", "gw", "--seeds", "2",
                               "--precision", "f32")
        assert code == 0
        assert "0.0001" in out or "1e-04" in out

    def test_mislabelled_rotation_exits_1(self, capsys, tmp_path):
        p = mislabelled_lh(tmp_path)
        code, out, err = run_cli(capsys, "invariance", "--r1", str(p), "--seeds", "1")
        assert code == 1
        assert "bad rotation file" in err and "PASS" not in out

    def test_non_orthogonal_external_fails(self, capsys, tmp_path):
        p = tmp_path / "junk.gsrt"
        write_tensor(p, np.random.default_rng(0).standard_normal((64, 64)), {})
        code, _, err = run_cli(capsys, "invariance", "--r1", str(p), "--seeds", "1")
        assert code == 1
        assert "error" in err


def non_finite_rotation(tmp_path, value):
    # an order-64 Hadamard matrix in float64 with one entry replaced by value
    h = build_rotation("gh", 64).dense()
    h[3, 5] = value
    p = tmp_path / "non-finite.gsrt"
    write_tensor(p, h, {})
    return p


class TestNonFiniteRotationFile:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("argv", [
        ["invariance", "--r1", "{}", "--seeds", "2"],
        ["invariance", "--r4", "{}", "--ffn", "64", "--seeds", "2"],
        ["compare", "--count", "2", "--rows", "8", "--cols", "64", "--variants", "gh,{}"],
        ["r4-ablation", "--r1", "{}", "--seeds", "2"],
    ])
    def test_exits_1(self, capsys, tmp_path, value, argv):
        p = non_finite_rotation(tmp_path, value)
        code, out, err = run_cli(capsys, *(a.format(p) for a in argv))
        assert code == 1
        assert "PASS" not in out and "directional" not in out and "median" not in out
        assert f"{p}: orthogonality residual" in err and "exceeds 1e-8" in err


class TestSeedCount:
    @pytest.mark.parametrize("command", ["invariance", "r4-ablation"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_exits_2(self, capsys, command, seeds):
        code, out, err = run_cli(capsys, command, "--seeds", seeds)
        assert code == 2
        assert "--seeds must be at least 1" in err
        assert "PASS" not in out and "nan" not in out


class TestR4Ablation:
    def test_runs_and_prints_grid(self, capsys):
        code, out, _ = run_cli(capsys, "r4-ablation", "--seeds", "2", "--hidden",
                               "32", "--heads", "2", "--ffn", "64", "--group", "16")
        assert code == 0
        assert "w16a16" in out
        assert "local-global median diff" in out
        assert "[w16a16]: CI95 [" in out
        assert "-> invariant (round-off), not tested" in out

    def test_one_seed_is_not_tested(self, capsys):
        code, out, _ = run_cli(capsys, "r4-ablation", "--seeds", "1", "--hidden",
                               "32", "--heads", "2", "--ffn", "64", "--group", "16")
        assert code == 0
        assert out.count(": no CI -> not tested (1 seed)") == 3
        assert "significant" not in out and "CI95" not in out


class TestFlags:
    """Each subcommand takes only the flags it uses, and its `# config:` line
    re-parses to the same namespace."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--precision", "f32"],
        ["r4-ablation", "--out", "x"],
        ["r4-ablation", "--precision", "f64"],
        ["invariance", "--out", "x"],
        ["inspect", "--file", "x", "--seed", "1"],
        ["make-rotation", "--kind", "gh", "--n", "8", "--precision", "f32"],
        ["quantize", "--file", "x", "--bits", "2", "--precision", "f64"],
        ["invariance", "--r4", "gh", "--r4-mode", "local"],
    ])
    def test_unused_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["make-rotation", "--kind", "gsr", "--n", "16", "--group", "4", "--seed", "3",
         "--out", "my dir/r.gsrt"],
        ["make-rotation", "--kind", "gh", "--n", "8"],
        ["inspect", "--file", "w.gsrt", "--group", "4"],
        ["quantize", "--file", "w.gsrt", "--bits", "3", "--scheme", "gptq", "--clip",
         "ratio:0.9", "--symmetric", "--calib-samples", "16", "--seed", "2"],
        ["compare", "--variants", "gh,lh", "--t-dof", "2.5", "--dist", "student_t",
         "--outlier-gain", "1e3", "--out", "r.csv"],
        ["invariance", "--r1", "gsr", "--r4", "lh", "--precision", "f32",
         "--seed", "7"],
        ["r4-ablation", "--seeds", "3", "--act-bits", "8", "--r1", "gw"],
    ])
    def test_config_line_reparses(self, argv):
        parser = build_parser()
        args = parser.parse_args(argv)
        line = config_line(parser, args)
        assert line.startswith(f"# config: seqrot {argv[0]} ")
        assert parser.parse_args(shlex.split(line)[3:]) == args


class TestDependentFlags:
    """A flag that the chosen run would not read is a usage error."""

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--count", "2", "--rows", "8", "--cols", "64", "--dist", "gaussian",
          "--t-dof", "3"], "--t-dof applies only with --dist student_t"),
        (["compare", "--count", "2", "--rows", "8", "--cols", "64", "--outliers", "0",
          "--outlier-gain", "5"], "--outlier-gain applies only with --outliers above 0"),
        (["quantize", "--file", "{}", "--bits", "2", "--calib-samples", "8"],
         "--calib-samples applies only to --scheme gptq"),
        (["quantize", "--file", "{}", "--bits", "2", "--seed", "3"],
         "--seed applies only to --scheme gptq"),
        (["invariance", "--r1", "gh", "--r4", "gw", "--group", "8"],
         "--group applies only when a slot is lh or gsr"),
    ])
    def test_exits_2(self, capsys, tmp_path, argv, message):
        p = tmp_path / "w.gsrt"
        write_tensor(p, np.ones((2, 8)), {})
        code, out, err = run_cli(capsys, *(a.format(p) for a in argv))
        assert code == 2
        assert f"error: {message}" in err
        assert out.count("\n") == 1   # the config echo only

    @pytest.mark.parametrize("slot, kind", [("--r1", "lh"), ("--r2", "gsr"),
                                            ("--r3", "lh"), ("--r4", "gsr")])
    def test_group_is_read_by_a_local_slot(self, capsys, slot, kind):
        code, out, _ = run_cli(capsys, "invariance", slot, kind, "--group", "8",
                               "--seeds", "1")
        assert code == 0 and "PASS" in out

    def test_unread_group_does_not_bind_a_small_hidden(self, capsys):
        # with no lh or gsr slot the block order is unread, so it may not fail the run
        code, out, _ = run_cli(capsys, "invariance", "--r1", "gh", "--hidden", "8",
                               "--heads", "2", "--seeds", "1")
        assert code == 0 and "PASS" in out


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["make-rotation", "--kind", "gh", "--n", "8"],
        ["quantize", "--file", "x", "--bits", "2", "--scheme", "gptq"],
        ["compare"],
        ["invariance"],
        ["r4-ablation"],
    ])
    def test_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "argument --seed: must be non-negative, got -1" in out.err
        assert out.out == ""


class TestEmptyTensor:
    @pytest.mark.parametrize("scheme", ["rtn", "gptq"])
    @pytest.mark.parametrize("shape", [(0, 8), (4, 0)])
    def test_quantize_exits_2(self, capsys, tmp_path, scheme, shape):
        p = tmp_path / "e.gsrt"
        write_tensor(p, np.zeros(shape), {})
        code, out, err = run_cli(capsys, "quantize", "--file", str(p), "--bits", "2",
                                 "--scheme", scheme)
        assert code == 2
        assert f"quantize expects a non-empty 2-D tensor, got shape {shape}" in err
        assert "mse" not in out

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_inspect_prints_shape_only(self, capsys, tmp_path, shape):
        p = tmp_path / "e.gsrt"
        write_tensor(p, np.zeros(shape), {})
        code, out, err = run_cli(capsys, "inspect", "--file", str(p))
        assert code == 0
        assert f"shape {shape}" in out
        assert "residual" not in out and err == ""


# A tiny run of each subcommand, and for every one of its options a value
# other than the one the run already has ({d} is a folder of input files).
# invariance prints only its largest difference, so its values are ones
# that move that number.
EVERY_FLAG = {
    "make-rotation": (["--kind", "gh", "--n", "8"], {
        "--kind": ["gw"], "--n": ["16"], "--group": ["4"], "--seed": ["1"],
        "--out": ["{d}/r.gsrt"]}),
    "inspect": (["--file", "{d}/gw.gsrt"], {
        "--file": ["{d}/gh.gsrt"], "--group": ["4"]}),
    "quantize": (["--file", "{d}/w.gsrt", "--bits", "2"], {
        "--file": ["{d}/gh.gsrt"], "--bits": ["3"], "--group": ["4"],
        "--scheme": ["gptq"], "--clip": ["mse"], "--symmetric": [],
        "--calib-samples": ["8"], "--seed": ["1"], "--out": ["{d}/q.gsrt"]}),
    "compare": (["--count", "2", "--rows", "8", "--cols", "16", "--group", "8",
                 "--variants", "gh,gsr"], {
        "--variants": ["gh,gw"], "--bits": ["3"], "--group": ["4"],
        "--quantizer": ["gptq"], "--clip": ["none"], "--count": ["3"], "--rows": ["16"],
        "--cols": ["32"], "--dist": ["gaussian"], "--t-dof": ["3"], "--outliers": ["2"],
        "--outlier-gain": ["5"], "--smooth": ["0"], "--seed": ["1"],
        "--out": ["{d}/r.csv"]}),
    "invariance": (["--r1", "gh", "--hidden", "16", "--heads", "2", "--ffn", "32",
                    "--seq-len", "2", "--seeds", "1", "--precision", "f32"], {
        "--r1": ["gw"], "--r2": ["gh"], "--r3": ["gh"], "--r4": ["gh"],
        "--hidden": ["32"], "--heads": ["4"], "--ffn": ["64"], "--group": ["8"],
        "--seq-len": ["16"], "--seeds": ["2"], "--precision": ["f64"], "--seed": ["1"]}),
    "r4-ablation": (["--hidden", "16", "--heads", "2", "--ffn", "32", "--group", "8",
                     "--seq-len", "2", "--seeds", "2"], {
        "--hidden": ["32"], "--heads": ["4"], "--ffn": ["64"], "--group": ["4"],
        "--seq-len": ["3"], "--seeds": ["3"], "--bits": ["3"], "--act-bits": ["8"],
        "--r1": ["gh"], "--seed": ["1"]}),
}


class TestEveryFlagIsRead:
    """Setting any one option to another value changes what the run prints,
    or the run refuses it (exit 2): no flag is accepted and then ignored."""

    def test_table_names_every_option(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(commands) == set(EVERY_FLAG)
        for command, sub in commands.items():
            options = {a.option_strings[-1] for a in sub._actions
                       if a.option_strings and a.dest != "help"}
            assert options == set(EVERY_FLAG[command][1]), command

    @pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in EVERY_FLAG.items()
                                               for f in flags])
    def test_changes_output_or_exits_2(self, capsys, tmp_path, command, flag):
        write_tensor(tmp_path / "w.gsrt", np.random.default_rng(0).standard_normal((4, 8)), {})
        for kind in ("gh", "gw"):
            save_rotation(tmp_path / f"{kind}.gsrt", build_rotation(kind, 8))
        base, flags = EVERY_FLAG[command]

        def output(*extra):
            code, out, _ = run_cli(capsys, command, *(a.format(d=tmp_path)
                                                      for a in (*base, *extra)))
            return code, [line for line in out.splitlines()
                          if not line.startswith("# config:")]

        code, before = output()
        assert code == 0
        code, after = output(flag, *flags[flag])
        assert code == 2 or (code == 0 and after != before), (code, before, after)
