"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Gated criteria assert; directional outcomes that are reported-not-gated print
their measured verdict without failing the build. Run with ``pytest -s`` to
see the lines.
"""

import csv
import time
from itertools import product

import numpy as np
import pytest
from oracles import front_rotation_locality

from seqrot.cli import main as cli_main
from seqrot.corpus import CorpusSpec, gen_corpus
from seqrot.errors import BadMagicError, TruncatedPayloadError
from seqrot.harness import (
    directional_tests,
    r4_ablation,
    run_comparison,
)
from seqrot.quant import (
    METRIC_PROXY,
    Clip,
    QuantSpec,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    rtn_quantize,
)
from seqrot.rotation import (
    RotationAssignment,
    ToyBlockConfig,
    invariance_max_diff,
    rotate_weight,
)
from seqrot.tensorfile import read_tensor, write_tensor
from seqrot.transforms import (
    build_rotation,
    gsr,
    hadamard_sylvester,
    randomize_signs,
    sequency_profile,
    walsh_from_hadamard,
    walsh_permutation,
)


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} {name}: {detail}")
    return ok


def report_only(num, name, detail):
    print(f"[REPORTED] criterion {num:2d} {name}: {detail}")


def dense_residual(signs: np.ndarray, scale: float) -> float:
    """max |R R^T - I| of R = scale * signs, by the n x n sign product: the
    reference of ``exact_residual``."""
    s = signs.astype(np.float32)
    p = (s @ s.T).astype(np.float64) * (scale * scale)
    return float(np.max(np.abs(p - np.eye(len(s)))))


def exact_residual(signs: np.ndarray, b: int, scale: float) -> float:
    """max |R R^T - I| of R = scale * signs, block-diagonal of block order b.

    Every entry off the diagonal blocks must be exactly 0 (inf otherwise);
    then R R^T is block-diagonal with blocks B B^T, so the Gram matrices of
    the blocks give the residual of the dense product bit for bit, with n/b
    times fewer flops. Products of +-1 sign blocks are integers well below
    2^24, so a float32 matmul is exact; the scaling happens in float64. This
    is an independent route from transforms.orthogonality_residual.
    """
    k = len(signs) // b
    blocks = signs.reshape(k, b, k, b)[np.arange(k), :, np.arange(k), :]
    if np.count_nonzero(signs) != np.count_nonzero(blocks):
        return np.inf
    d = blocks.astype(np.float32)
    p = (d @ d.transpose(0, 2, 1)).astype(np.float64) * (scale * scale)
    return float(np.max(np.abs(p - np.eye(b))))


def test_criterion_01_sequency_fidelity():
    hadamard_sylvester(8)  # warm numpy dispatch before timing
    t0 = time.perf_counter()
    h = hadamard_sylvester(8)
    counts = sequency_profile(h, 8).per_row_sequency.tolist()
    elapsed = time.perf_counter() - t0
    ok = counts == [0, 7, 3, 4, 1, 6, 2, 5] and elapsed < 1e-3
    assert record(1, "sequency fidelity", ok,
                  f"counts {counts}, {elapsed * 1e6:.0f} us")


def test_criterion_02_walsh_correctness():
    t0 = time.perf_counter()
    n = 2
    ok = True
    while n <= 4096:
        h = hadamard_sylvester(n)
        w = walsh_from_hadamard(h)  # the rows of h in sequency order, checked below
        seq = np.count_nonzero(w.signs[:, 1:] != w.signs[:, :-1], axis=1)
        ok &= np.array_equal(seq, np.arange(n))
        counted = np.count_nonzero(h.signs[:, 1:] != h.signs[:, :-1], axis=1)
        ok &= np.array_equal(walsh_permutation(n), np.argsort(counted, kind="stable"))
        n *= 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert record(2, "walsh correctness n<=4096", ok, f"{elapsed:.1f} s")


def test_criterion_03_orthogonality():
    t0 = time.perf_counter()
    worst = 0.0
    n = 2
    while n <= 4096:
        bases = [hadamard_sylvester(n)]
        bases.append(walsh_from_hadamard(bases[0]))
        if n >= 8:
            bases.append(build_rotation("lh", n, n // 4))
            bases.append(gsr(n, n // 4))
        for base in bases:
            for seed in range(20):
                m = randomize_signs(base, seed)
                worst = max(worst, exact_residual(m.signs, m.group or n, m.scale))
        n *= 2
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10
    assert record(3, "orthogonality (4 kinds x 20 seeds, n<=4096)", ok,
                  f"worst residual {worst:.3e}, {elapsed:.0f} s")


@pytest.mark.parametrize("kind,n,g", [("gh", 8, None), ("gh", 64, None), ("gw", 32, None),
                                      ("lh", 16, 2), ("lh", 64, 8), ("gsr", 128, 32),
                                      ("gsr", 64, 64)])
def test_exact_residual_matches_the_dense_route(kind, n, g):
    # criterion 3's route by blocks: equal to the dense route, and a planted
    # off-block +-1 or a flipped sign fails it
    b = g or n
    for seed in (None, 0, 1, 7):
        m = build_rotation(kind, n, g, seed)
        assert exact_residual(m.signs, b, m.scale) == dense_residual(m.signs, m.scale) < 1e-10
        flipped = m.signs.copy()
        flipped[n - 1, n - 1] *= -1
        assert exact_residual(flipped, b, m.scale) > 1e-10
        if b < n:
            planted = m.signs.copy()
            planted[0, n - 1] = 1   # row 0 of the first block, a column of the last
            assert exact_residual(planted, b, m.scale) == np.inf
            assert dense_residual(planted, m.scale) > 1e-10


def test_criterion_04_block_structure():
    ok = True
    c = 2
    while c <= 1024:
        g = 2
        while g <= c:
            m = gsr(c, g)
            block = walsh_from_hadamard(hadamard_sylvester(g)).signs
            for b in range(c // g):
                sl = slice(b * g, (b + 1) * g)
                ok &= np.array_equal(m.signs[sl, sl], block)
            mask = np.ones((c, c), dtype=bool)
            for b in range(c // g):
                mask[b * g:(b + 1) * g, b * g:(b + 1) * g] = False
            ok &= bool(np.all(m.signs[mask] == 0))
            g *= 2
        c *= 2
    assert record(4, "grouped block structure (C<=1024, all G)", ok, "bit-exact")


def test_criterion_05_locality():
    rng = np.random.default_rng(2024)
    passed = 0
    for t in range(100):
        c = int(rng.choice([16, 32, 64]))
        g = int(rng.choice([4, 8]))
        w = rng.standard_normal((c, int(rng.choice([16, 32]))))
        front = (randomize_signs(hadamard_sylvester(c), t) if t % 3 == 0
                 else gsr(c, g) if t % 3 == 1
                 else walsh_from_hadamard(hadamard_sylvester(c)))
        rear = hadamard_sylvester(w.shape[1]) if t % 2 else None
        n = int(rng.integers(0, c // g))
        passed += front_rotation_locality(w, front, rear, n, g, seed=t,
                                        tolerance=1e-12)
    # negative control 1: perturbing columns inside the group changes its rows
    w = rng.standard_normal((16, 16))
    front = hadamard_sylvester(16)
    base = rotate_weight(w, front, None)
    f = front.dense().copy()
    f[:, 4:8] = rng.standard_normal((16, 4))
    inside_changes = np.max(np.abs(rotate_weight(w, f, None)[4:8] - base[4:8])) > 1e-6
    # negative control 2: a rear column perturbation hits that column in all groups
    rear = hadamard_sylvester(16)
    base = rotate_weight(w, front, rear)
    r = rear.dense().copy()
    r[:, 3] = rng.standard_normal(16)
    delta = np.abs(rotate_weight(w, front, r) - base)
    rear_hits_all = all(delta[gi * 4:(gi + 1) * 4, 3].max() > 1e-6 for gi in range(4))
    ok = passed == 100 and inside_changes and rear_hits_all
    assert record(5, "front-rotation locality (100 instances + controls)", ok,
                  f"{passed}/100 positive, controls {inside_changes}/{rear_hits_all}")


ASSIGNMENTS = [
    RotationAssignment(),
    RotationAssignment(r1="gh"),
    RotationAssignment(r1="gw", r2="gw", r3="gw", r4="gw"),
    RotationAssignment(r1="gsr", r2="gh", r3="gh", r4="gh"),
    RotationAssignment(r1="lh", r2="gh", r3="gw", r4="gh", r4_mode="local"),
    RotationAssignment(r1="gsr", r2="gw", r3="gh", r4="gw", r4_mode="local"),
]


def test_criterion_06_computational_invariance():
    cfg64 = dict(hidden=64, heads=4, ffn=128, group_size=16, seq_len=8)
    worst64, worst32 = 0.0, 0.0
    for seed in range(20):
        assign = ASSIGNMENTS[seed % len(ASSIGNMENTS)]
        assign = RotationAssignment(r1=assign.r1, r2=assign.r2, r3=assign.r3,
                                    r4=assign.r4, r4_mode=assign.r4_mode, seed=seed)
        cfg = ToyBlockConfig(seed=seed, **cfg64)
        worst64 = max(worst64, invariance_max_diff(cfg, assign, input_seed=seed))
        worst32 = max(worst32, invariance_max_diff(cfg, assign, input_seed=seed,
                                                   dtype=np.float32))
    ok = worst64 < 1e-10 and worst32 < 1e-4
    assert record(6, "computational invariance (20 seeds)", ok,
                  f"f64 {worst64:.2e} < 1e-10, f32 {worst32:.2e} < 1e-4")


def _exhaustive_minimum(w, h, qt):
    spec = qt.spec
    reps = w.shape[1] // qt.scales.shape[1]
    scales = np.repeat(qt.scales, reps, axis=1).reshape(-1)
    zeros = (np.zeros_like(scales) if qt.zero_points is None
             else np.repeat(qt.zero_points, reps, axis=1).reshape(-1).astype(float))
    best = np.inf
    for assign in product(range(spec.qmin, spec.qmax + 1), repeat=w.size):
        w_hat = ((np.asarray(assign, dtype=np.float64) - zeros) * scales).reshape(w.shape)
        delta = w - w_hat
        best = min(best, float(np.trace(delta @ h.matrix @ delta.T)))
    return best


def test_criterion_07_gptq_dominance():
    # instance family: Gaussian 8x8 weights, Hessians accumulated from
    # 128 Gaussian calibration samples, 2-bit asymmetric
    rng = np.random.default_rng(7)
    spec = QuantSpec(bits=2, group_size=8)
    worst_gap = -np.inf
    for _ in range(100):
        w = rng.standard_normal((8, 8))
        h = hessian_from_calibration(rng.standard_normal((128, 8)))
        g = quant_error(w, dequantize(gptq_quantize(w, h, spec)), METRIC_PROXY, h)
        r = quant_error(w, dequantize(rtn_quantize(w, spec)), METRIC_PROXY, h)
        worst_gap = max(worst_gap, g - r)
    dominance_ok = worst_gap <= 1e-12

    spec2 = QuantSpec(bits=2, group_size=2)
    bracket_ok = True
    triples = []
    for _ in range(20):
        w = rng.standard_normal((2, 2))
        h = hessian_from_calibration(rng.standard_normal((16, 2)))
        qt = gptq_quantize(w, h, spec2)
        g = quant_error(w, dequantize(qt), METRIC_PROXY, h)
        r = quant_error(w, dequantize(rtn_quantize(w, spec2)), METRIC_PROXY, h)
        opt = _exhaustive_minimum(w, h, qt)
        triples.append((opt, g, r))
        bracket_ok &= opt <= g + 1e-12 and g <= r + 1e-12
    ok = dominance_ok and bracket_ok
    assert record(7, "gptq dominance + 2x2 bracket", ok,
                  f"worst gptq-rtn gap {worst_gap:.2e}; sample (opt, gptq, rtn) = "
                  + ", ".join(f"({o:.3f}, {g:.3f}, {r:.3f})" for o, g, r in triples[:3]))


def test_criterion_08_directional_ordering():
    t0 = time.perf_counter()
    corpus = gen_corpus(CorpusSpec(seed=0))  # 100 x 512x512 structured default
    wspec = QuantSpec(bits=2, group_size=64, clip=Clip.mse())
    report = run_comparison(corpus, ("gh", "gw", "lh", "gsr"), wspec, seed=0)
    elapsed = time.perf_counter() - t0
    fairness = report.fairness_ok()
    results = {(r.better, r.worse): r for r in directional_tests(report)}

    for pair in (("gw", "gh"), ("gsr", "lh")):
        r = results[pair]
        report_only(8, f"{pair[0]}<{pair[1]} (not gated)",
                    f"median {r.median_better:.4f} vs {r.median_worse:.4f}, "
                    f"wins {r.wins}/{r.n}, p {r.p_value:.2e} -> "
                    f"{'holds' if r.holds else 'does not hold'}")
    gate = results[("gsr", "gh")]
    ok = fairness and gate.holds and elapsed < 300.0
    assert record(8, "directional ordering gate gsr<gh", ok,
                  f"median {gate.median_better:.4f} vs {gate.median_worse:.4f}, "
                  f"wins {gate.wins}/{gate.n}, p {gate.p_value:.2e}, "
                  f"fairness {fairness}, {elapsed:.0f} s")


def test_criterion_09_sequency_variance():
    def group_variance(kind, n, g):   # of the counted sequencies of the built rotation
        return sequency_profile(build_rotation(kind, n), g).per_group_variance

    walsh, natural = group_variance("gw", 128, 32), group_variance("gh", 128, 32)
    exact = bool(np.all(walsh == 85.25))
    below = bool(np.all(walsh < natural.min()))
    sweep_ok = all(group_variance("gw", 1 << log_n, 1 << log_g).mean()
                   < group_variance("gh", 1 << log_n, 1 << log_g).mean()
                   for log_n in range(2, 13) for log_g in range(1, log_n))   # 2 <= G < n <= 4096
    ok = exact and below and sweep_ok
    assert record(9, "sequency variance (exact 85.25 + sweep n<=4096)", ok,
                  f"walsh exact {exact}, below natural {below}, sweep {sweep_ok}")


def test_criterion_10_r4_ablation():
    cfg = ToyBlockConfig()
    rep = r4_ablation(cfg, weight_spec=QuantSpec(bits=2, group_size=16, clip=Clip.mse()),
                      act_spec=QuantSpec(bits=4, group_size=16, symmetric=True,
                                         clip=Clip.fixed(0.9)),
                      n_seeds=20)
    no_quant_ok = all(rep.cells[m]["w16a16"].max() < 1e-10 for m in rep.modes)
    lo, hi = rep.diff_ci["w2a4"]
    verdict = ("local better" if hi < 0 else
               "global better" if lo > 0 else "not significant")
    report_only(10, "w2a4 local-vs-global (not gated)",
                f"medians local {rep.medians['local']['w2a4']:.4f} vs "
                f"global {rep.medians['global']['w2a4']:.4f}, "
                f"CI95 of diff [{lo:.4f}, {hi:.4f}] -> {verdict}")
    assert record(10, "r4 ablation harness (w16a16 cell)", no_quant_ok,
                  f"max no-quant MSE {max(rep.cells[m]['w16a16'].max() for m in rep.modes):.2e}")


def test_criterion_11_io_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    p = tmp_path / "t.gsrt"
    ok = True
    for i in range(1000):
        dtype = [np.float64, np.float32, np.int8][i % 3]
        shape = tuple(int(s) for s in rng.integers(1, 7, size=int(rng.integers(1, 4))))
        if dtype == np.int8:
            t = rng.integers(-128, 128, size=shape).astype(np.int8)
        else:
            t = rng.standard_normal(shape).astype(dtype)
        write_tensor(p, t, {"i": i})
        back, meta = read_tensor(p)
        ok &= np.array_equal(back.view(np.uint8), t.view(np.uint8)) and meta["i"] == i

    write_tensor(p, np.arange(16.0), {})
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])
    try:
        read_tensor(p)
        truncated_clean = False
    except TruncatedPayloadError:
        truncated_clean = True
    bad = bytearray(raw)
    bad[:4] = b"XXXX"
    p.write_bytes(bytes(bad))
    try:
        read_tensor(p)
        magic_clean = False
    except BadMagicError:
        magic_clean = True
    ok = ok and truncated_clean and magic_clean
    assert record(11, "io round trips (1000) + corruption", ok,
                  f"truncation {truncated_clean}, bad magic {magic_clean}")


def test_criterion_12_cli_compare_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    argv = ["compare", "--out", str(out_a)]  # defaults are the standard corpus
    assert cli_main(argv) == 0
    stdout = capsys.readouterr().out
    with open(out_a, newline="") as f:
        rows = list(csv.DictReader(f))
    count_ok = len(rows) == 4 * 100 * 3
    echo = [l for l in stdout.splitlines() if l.startswith("# config:")][0]
    rerun_argv = echo.split()[3:]
    out_b = tmp_path / "b.csv"
    rerun_argv[rerun_argv.index("--out") + 1] = str(out_b)
    assert cli_main(rerun_argv) == 0
    capsys.readouterr()
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = count_ok and identical
    assert record(12, "cli compare csv + bit-identical rerun", ok,
                  f"rows {len(rows)} (expect 1200), rerun identical {identical}")
