"""Experiment harness: rotation-variant comparisons, sequency-variance tables
and the global-vs-local ablation of the online FFN rotation.

Every variant in a comparison consumes byte-identical corpus tensors and the
same quantizer spec; SHA-256 fingerprints of the consumed bytes are recorded
per variant so a report can prove its own fairness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import corpus_hash
from .errors import DimensionMismatchError, InvalidConfigError, InvalidSpecError
from .quant import (
    METRIC_MAX_ABS,
    METRIC_MSE,
    METRIC_PROXY,
    QuantSpec,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    rtn_quantize,
)
from .rotation import (
    R4_GLOBAL,
    R4_LOCAL,
    R4_MODES,
    RotationAssignment,
    ToyBlockConfig,
    build_toy_block,
    forward,
    fuse_rotations,
    resolve_variant,
)
from .transforms import (
    KIND_GH,
    KIND_GSR,
    KIND_GW,
    KIND_LH,
    KINDS,
    RotationOperator,
    _mix_seed,
    _require_group_divides,
    natural_sequency_formula,
)

METRICS = (METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY)

QUANTIZER_RTN = "rtn"
QUANTIZER_GPTQ = "gptq"
QUANTIZERS = (QUANTIZER_RTN, QUANTIZER_GPTQ)

DEFAULT_PAIRS = ((KIND_GW, KIND_GH), (KIND_GSR, KIND_LH), (KIND_GSR, KIND_GH))


@dataclass
class ExperimentReport:
    variants: tuple
    metrics: tuple
    per_tensor: dict            # variant -> metric -> np.ndarray over tensors
    summary: dict               # variant -> metric -> {"mean": .., "median": ..}
    corpus_hash: str
    fairness_hashes: dict       # variant -> sha256 of consumed corpus bytes
    quantizer: str

    def fairness_ok(self) -> bool:
        return all(h == self.corpus_hash for h in self.fairness_hashes.values())


def run_comparison(corpus, variants, wspec: QuantSpec,
                   quantizer: str = QUANTIZER_RTN, seed: int = 0,
                   calib_samples: int = 256) -> ExperimentReport:
    """Rotate, quantize, rotate back, and score every (tensor, variant) pair.

    The rotation under test plays the hidden-state slot of a query-type
    weight: it acts on the input-channel (column) dimension and the rear side
    is the identity.
    """
    if quantizer not in QUANTIZERS:
        raise InvalidSpecError(f"unknown quantizer {quantizer!r}")
    cols = corpus[0].shape[1]
    for t in corpus:
        if t.shape[1] != cols:
            raise DimensionMismatchError("corpus tensors must share their column count")
    group = wspec.group_size or cols
    if "" in variants:
        raise InvalidConfigError(f"empty variant name in {variants}")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        # rotations and report rows are keyed by name, so a repeat would run once
        raise InvalidConfigError(f"variant {', '.join(repeated)} is repeated in {variants}")

    # every variant is resolved up front, so a bad one fails before any work,
    # and becomes an operator (densified, if global below KRON_MIN_ORDER) only
    # for its turn; a kind's seed is keyed by the kind, not by its position,
    # and a file takes none
    rots = {v: resolve_variant(v, cols, group, _mix_seed(seed, 100 + KINDS.index(v))
                               if v in KINDS else None) for v in variants}

    rng = np.random.default_rng(_mix_seed(seed, 7))
    x_cal = rng.standard_normal((calib_samples, cols))
    h_base = hessian_from_calibration(x_cal)
    if quantizer == QUANTIZER_RTN:
        del x_cal   # only GPTQ's rotated Hessians read it; held, it raises the peak by ~2 MiB

    per_tensor = {v: {m: np.zeros(len(corpus)) for m in METRICS} for v in variants}
    fairness = {}
    for v in variants:
        r1 = None if rots[v] is None else RotationOperator(rots[v])
        if quantizer == QUANTIZER_GPTQ:
            # R^T H R is the Hessian of the rotated samples X R
            h_rot = h_base if r1 is None else hessian_from_calibration(r1.apply(x_cal))
        hasher = hashlib.sha256()
        for i, w in enumerate(corpus):
            w = np.ascontiguousarray(w, dtype=np.float64)
            hasher.update(w.tobytes())
            rotated = w if r1 is None else r1.apply(w)
            if quantizer == QUANTIZER_RTN:
                w_hat = dequantize(rtn_quantize(rotated, wspec))
            else:
                w_hat = dequantize(gptq_quantize(rotated, h_rot, wspec))
            back = w_hat if r1 is None else r1.apply(w_hat, transpose=True)
            per_tensor[v][METRIC_MSE][i] = quant_error(w, back, METRIC_MSE)
            per_tensor[v][METRIC_MAX_ABS][i] = quant_error(w, back, METRIC_MAX_ABS)
            per_tensor[v][METRIC_PROXY][i] = quant_error(w, back, METRIC_PROXY, h_base)
        fairness[v] = hasher.hexdigest()
        del r1   # free this variant's dense matrix before the next is built

    summary = {v: {m: {"mean": float(np.mean(per_tensor[v][m])),
                       "median": float(np.median(per_tensor[v][m]))}
                   for m in METRICS} for v in variants}
    return ExperimentReport(
        variants=tuple(variants), metrics=METRICS, per_tensor=per_tensor,
        summary=summary, corpus_hash=corpus_hash(corpus),
        fairness_hashes=fairness, quantizer=quantizer)


def sign_test(a, b) -> tuple[int, int, float]:
    """One-sided paired sign test for 'a < b': (wins, effective_n, p_value).

    Ties are dropped; the p-value is the exact binomial tail
    P(X >= wins | n, 1/2).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("paired samples must have equal length")
    wins = int(np.count_nonzero(a < b))
    losses = int(np.count_nonzero(a > b))
    n = wins + losses
    if n == 0:
        return 0, 0, 1.0
    p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n
    return wins, n, float(p)


@dataclass(frozen=True)
class DirectionalResult:
    better: str
    worse: str
    metric: str
    median_better: float
    median_worse: float
    wins: int
    n: int
    ties: int
    p_value: float

    @property
    def holds(self) -> bool:
        return self.median_better < self.median_worse and self.p_value < 0.05


def directional_tests(report: ExperimentReport, pairs=DEFAULT_PAIRS,
                      metric: str = METRIC_MSE) -> list[DirectionalResult]:
    """Median comparison plus sign test for each (expected-better, worse) pair."""
    out = []
    for a, b in pairs:
        if a not in report.per_tensor or b not in report.per_tensor:
            continue
        xa = report.per_tensor[a][metric]
        xb = report.per_tensor[b][metric]
        wins, n, p = sign_test(xa, xb)
        out.append(DirectionalResult(
            better=a, worse=b, metric=metric,
            median_better=float(np.median(xa)), median_worse=float(np.median(xb)),
            wins=wins, n=n, ties=xa.size - n, p_value=p))
    return out


def sequency_variance_report(n: int, group: int) -> dict:
    """Per-group sequency variance of natural versus sequency-ordered rows."""
    _require_group_divides(group, n)
    natural = natural_sequency_formula(n).astype(np.float64)
    natural = natural.reshape(-1, group).var(axis=1)
    walsh = np.arange(n, dtype=np.float64).reshape(-1, group).var(axis=1)
    return {
        "n": n,
        "group": group,
        "natural_variance": natural,
        "walsh_variance": walsh,
        "natural_mean_variance": float(natural.mean()),
        "walsh_mean_variance": float(walsh.mean()),
    }


def sequency_variance_sweep(max_n: int = 4096) -> list[dict]:
    """Mean group variance of both orderings for every (n, G), 2 <= G < n."""
    out = []
    for log_n in range(2, max_n.bit_length()):   # n = 4, 8, ... up to max_n
        for log_g in range(1, log_n):
            rep = sequency_variance_report(1 << log_n, 1 << log_g)
            out.append({"n": rep["n"], "group": rep["group"],
                        "natural": rep["natural_mean_variance"],
                        "walsh": rep["walsh_mean_variance"]})
    return out


_BOOTSTRAP_DRAWS = 1000


def bootstrap_median_ci(diffs, seed: int = 0) -> tuple[float, float]:
    """95% percentile bootstrap confidence interval for the median."""
    diffs = np.asarray(diffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diffs.size, size=(_BOOTSTRAP_DRAWS, diffs.size))
    medians = np.median(diffs[idx], axis=1)
    return (float(np.quantile(medians, 0.025)),
            float(np.quantile(medians, 0.975)))


@dataclass
class AblationReport:
    modes: tuple
    settings: tuple
    cells: dict          # mode -> setting -> np.ndarray over seeds
    medians: dict        # mode -> setting -> float
    diff_ci: dict        # setting -> (lo, hi) for median(local - global), None below 2 seeds
    verdict: dict        # setting -> the verdict line's words


def _quantize_weight(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Fake-quantize a weight: groups run along input channels of each output."""
    return dequantize(rtn_quantize(w.T, spec)).T


# float64 round-off of an exact invariance: an output MSE of at most
# (64 eps)^2 times the reference output's mean square
ROUNDOFF_MSE = (64 * np.finfo(np.float64).eps) ** 2


def r4_ablation(cfg: ToyBlockConfig, weight_spec: QuantSpec, act_spec: QuantSpec,
                n_seeds: int = 20, r1_kind: str = KIND_GSR,
                base_seed: int = 0) -> AblationReport:
    """Global-vs-local online FFN rotation under weight/activation quantization.

    Both modes of ``R4_MODES`` run for every seed: R4 is gh, and its local
    form lh. Cells are output MSE against the unrotated full-precision
    block: the no-quant setting checks invariance, the weight-only and
    weight+activation settings measure the quantization damage per mode.

    Each distinct fused weight is fake-quantized once per seed: both
    quantized settings of a mode share one pre-quantized block, and a weight
    whose bytes are the same in another mode (all but ``wdown``) reuses its
    quantized copy. The cells are the same bits as quantizing every weight
    afresh for each ``forward`` call.

    A local-vs-global difference is tested with a bootstrap CI of its median
    over at least 2 seeds. A setting whose every cell, in both modes, is
    within ``ROUNDOFF_MSE`` of its seed's reference output is reported
    invariant and not tested: its differences are rounding noise.
    """
    if n_seeds < 1:
        raise InvalidConfigError(f"n_seeds must be at least 1, got {n_seeds}")
    wlabel = f"w{weight_spec.bits}"
    settings = ("w16a16", wlabel, f"{wlabel}a{act_spec.bits}")

    cells = {mode: {s: np.zeros(n_seeds) for s in settings} for mode in R4_MODES}
    ref_power = np.zeros(n_seeds)   # mean(y_ref^2) per seed
    memo = {}   # weight name -> (sha256 of the fused weight, quantized copy)
    for i in range(n_seeds):
        seed = base_seed + i
        cfg_i = replace(cfg, seed=_mix_seed(seed, 1))
        block = build_toy_block(cfg_i)
        rng = np.random.default_rng(_mix_seed(seed, 2))
        x = rng.standard_normal((cfg.seq_len, cfg.hidden))
        y_ref = forward(block, x)
        ref_power[i] = np.mean(y_ref ** 2)
        for mode in R4_MODES:
            assign = RotationAssignment(r1=r1_kind, r4=KIND_GH, r4_mode=mode,
                                        seed=_mix_seed(seed, 3))
            fused = fuse_rotations(block, assign)
            for name, w in fused.weights.items():
                digest = hashlib.sha256(w.tobytes()).digest()
                if name not in memo or memo[name][0] != digest:
                    memo.pop(name, None)   # free the stale copy first
                    memo[name] = (digest, _quantize_weight(w, weight_spec))
            qblock = replace(fused, weights={k: q for k, (_, q) in memo.items()})
            r1 = fused.input_rotation
            x_in = x if r1 is None else r1.apply(x)
            outputs = (forward(fused, x_in), forward(qblock, x_in),
                       forward(qblock, x_in, act_spec=act_spec))
            # nothing may keep a mode's quantized block (and with it a stale
            # wdown copy and r4 matrix) alive into the next mode
            del qblock
            for s, y in zip(settings, outputs):
                if r1 is not None:
                    y = r1.apply(y, transpose=True)
                cells[mode][s][i] = float(np.mean((y - y_ref) ** 2))
        memo.clear()

    medians = {mode: {s: float(np.median(cells[mode][s])) for s in settings}
               for mode in R4_MODES}
    diff_ci, verdict = {}, {}
    for s in settings:
        if n_seeds < 2:
            diff_ci[s] = None
            verdict[s] = "not tested (1 seed)"
            continue
        diffs = cells[R4_LOCAL][s] - cells[R4_GLOBAL][s]
        lo, hi = diff_ci[s] = bootstrap_median_ci(diffs, seed=base_seed)
        if all(np.all(cells[m][s] <= ROUNDOFF_MSE * ref_power) for m in R4_MODES):
            verdict[s] = "invariant (round-off), not tested"
        else:
            verdict[s] = "significant" if lo > 0 or hi < 0 else "not significant"
    return AblationReport(
        modes=R4_MODES, settings=settings, cells=cells, medians=medians,
        diff_ci=diff_ci, verdict=verdict)
