"""Experiment harness: rotation-variant comparisons, their directional sign
tests, and the global-vs-local ablation of the online FFN rotation.

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
    _errors,
    _group_length,
    _group_view,
    _round_trip,
    hessian_from_calibration,
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
    _is_int,
    _mix_seed,
)

METRICS = (METRIC_MSE, METRIC_MAX_ABS, METRIC_PROXY)

QUANTIZER_RTN = "rtn"
QUANTIZER_GPTQ = "gptq"
QUANTIZERS = (QUANTIZER_RTN, QUANTIZER_GPTQ)
# calibration rows of each GPTQ Hessian (a comparison's and `seqrot quantize`'s)
CALIB_SAMPLES = 256

DEFAULT_PAIRS = ((KIND_GW, KIND_GH), (KIND_GSR, KIND_LH), (KIND_GSR, KIND_GH))


@dataclass
class ExperimentReport:
    variants: tuple
    metrics: tuple
    per_tensor: dict            # variant -> metric -> np.ndarray over tensors
    summary: dict               # variant -> metric -> {"mean": .., "median": ..}
    corpus_hash: str
    fairness_hashes: dict       # variant -> sha256 of consumed corpus bytes

    def fairness_ok(self) -> bool:
        return all(h == self.corpus_hash for h in self.fairness_hashes.values())


def run_comparison(corpus, variants, wspec: QuantSpec,
                   quantizer: str = QUANTIZER_RTN, seed: int = 0) -> ExperimentReport:
    """Rotate, quantize, rotate back, and score every (tensor, variant) pair.

    The rotation under test plays the hidden-state slot of a query-type
    weight: it acts on the input-channel (column) dimension and the rear side
    is the identity.

    Each pair takes code x scale straight from the quantizer's code step
    (``quant._round_trip``), in the rotated buffer or, for ``identity``, in a
    copy of the tensor, so no corpus bytes are written and no integer codes
    are made. The difference w - back goes into the rotated-back buffer, and
    ``quant._errors`` scores all three metrics from it, with the bits and the
    errors of three ``quant_error`` calls. An item's rotated buffer is
    released before its metrics, and its rotated-back buffer before the next
    item, so one item's buffers are alive at a time.
    """
    if quantizer not in QUANTIZERS:
        raise InvalidSpecError(f"unknown quantizer {quantizer!r}")
    if not (_is_int(seed) and seed >= 0):
        raise InvalidConfigError(f"seed must be a non-negative int, got {seed!r}")
    if not len(corpus) or any(np.ndim(t) != 2 for t in corpus):
        raise DimensionMismatchError("the corpus must hold one or more 2-D tensors")
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
    # and becomes an operator (one block and its signs) only for its turn; a
    # kind's seed is keyed by the kind, not by its position, and a file takes none
    rots = {v: resolve_variant(v, cols, group, _mix_seed(seed, 100 + KINDS.index(v))
                               if v in KINDS else None) for v in variants}

    def hessian(r1=None):
        # the calibration samples are drawn afresh from their seed stream for
        # each Hessian, the same bytes every time, and not held between them;
        # R^T H R is the Hessian of the rotated samples X R
        x_cal = np.random.default_rng(_mix_seed(seed, 7)).standard_normal((CALIB_SAMPLES, cols))
        return hessian_from_calibration(x_cal if r1 is None else r1.apply(x_cal))

    h_base = hessian()
    per_tensor = {v: {m: np.zeros(len(corpus)) for m in METRICS} for v in variants}
    fairness = {}
    for v in variants:
        r1 = None if rots[v] is None else RotationOperator(rots[v])
        h_rot = None   # RTN reads no Hessian
        if quantizer == QUANTIZER_GPTQ:
            h_rot = h_base if r1 is None else hessian(r1)
        hasher = hashlib.sha256()
        for i, w in enumerate(corpus):
            w = np.ascontiguousarray(w, dtype=np.float64)
            hasher.update(w)
            rotated = w.copy() if r1 is None else r1.apply(w)
            w_hat = _round_trip(rotated, wspec, h_rot)   # over rotated
            back = w_hat if r1 is None else r1.apply(w_hat, transpose=True)
            del rotated, w_hat   # before the metrics
            with np.errstate(over="ignore", invalid="ignore"):   # checked by _errors
                delta = np.subtract(w, back, out=back)
            for m, err in _errors(delta, METRICS, h_base).items():
                per_tensor[v][m][i] = err
            del back, delta   # before the next item's buffers
        fairness[v] = hasher.hexdigest()

    summary = {v: {m: {"mean": float(np.mean(per_tensor[v][m])),
                       "median": float(np.median(per_tensor[v][m]))}
                   for m in METRICS} for v in variants}
    return ExperimentReport(
        variants=tuple(variants), metrics=METRICS, per_tensor=per_tensor,
        summary=summary, corpus_hash=corpus_hash(corpus),
        fairness_hashes=fairness)


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


def directional_tests(report: ExperimentReport) -> list[DirectionalResult]:
    """Median MSE comparison plus sign test for each (expected-better, worse)
    pair of ``DEFAULT_PAIRS`` whose variants the report holds."""
    out = []
    for a, b in DEFAULT_PAIRS:
        if a not in report.per_tensor or b not in report.per_tensor:
            continue
        xa = report.per_tensor[a][METRIC_MSE]
        xb = report.per_tensor[b][METRIC_MSE]
        wins, n, p = sign_test(xa, xb)
        out.append(DirectionalResult(
            better=a, worse=b, metric=METRIC_MSE,
            median_better=float(np.median(xa)), median_worse=float(np.median(xb)),
            wins=wins, n=n, ties=xa.size - n, p_value=p))
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


def _quantize_weights(weights, spec: QuantSpec) -> list:
    """Fake-quantize weights: groups run along input channels of each output.

    Each weight's transpose, C-ordered, is written into one (groups, g)
    float64 buffer per group length g, whose rows are the groups of every
    weight of that length, and one RTN round trip per buffer quantizes them
    all; each result is a view of its buffer in the weight's shape. Scale,
    zero point, code bounds and clip pick depend only on a group's own
    values, so each result has the bits of quantizing its weight alone. No
    weight is written, and every shape is checked before any work.
    """
    views = [_group_view(w.T, spec.group_size) for w in weights]   # no copies yet
    groups = {}
    for v in views:
        groups[v.shape[2]] = groups.get(v.shape[2], 0) + v.shape[0] * v.shape[1]
    stacks = {g: np.empty((n, g)) for g, n in groups.items()}
    places, start = [], dict.fromkeys(groups, 0)
    for v in views:
        rows, n_groups, g = v.shape
        stop = start[g] + rows * n_groups
        np.copyto(stacks[g][start[g]:stop].reshape(v.shape), v)
        places.append((g, start[g], stop, (rows, n_groups * g)))
        start[g] = stop
    done = {g: _round_trip(stack, spec) for g, stack in stacks.items()}
    return [done[g][lo:hi].reshape(shape).T for g, lo, hi, shape in places]


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

    Each seed fuses both modes first and fake-quantizes its distinct fused
    weights in one ``_quantize_weights`` call: one RTN round trip per group
    length, on a stacked matrix whose rows are groups. A weight whose bytes
    equal the first mode's (all but ``wdown``) is quantized once, and both
    quantized settings of a mode share one pre-quantized block. The cells
    are the same bits as quantizing every weight afresh for each ``forward``
    call.

    A local-vs-global difference is tested with a bootstrap CI of its median
    over at least 2 seeds. A setting whose every cell, in both modes, is
    within ``ROUNDOFF_MSE`` of its seed's reference output is reported
    invariant and not tested: its differences are rounding noise.
    """
    if not (_is_int(n_seeds) and n_seeds >= 1):
        raise InvalidConfigError(f"n_seeds must be an int of at least 1, got {n_seeds!r}")
    if not (_is_int(base_seed) and base_seed >= 0):
        raise InvalidConfigError(f"base_seed must be a non-negative int, got {base_seed!r}")
    wlabel = f"w{weight_spec.bits}"
    settings = ("w16a16", wlabel, f"{wlabel}a{act_spec.bits}")

    # the block's weights have hidden or ffn input channels: a weight group
    # that does not divide them fails before any work, as in the quantizer
    for cols in (cfg.hidden, cfg.ffn):
        _group_length(cols, weight_spec.group_size)

    cells = {mode: {s: np.zeros(n_seeds) for s in settings} for mode in R4_MODES}
    ref_power = np.zeros(n_seeds)   # mean(y_ref^2) per seed
    for i in range(n_seeds):
        seed = base_seed + i
        cfg_i = replace(cfg, seed=_mix_seed(seed, 1))
        block = build_toy_block(cfg_i)
        rng = np.random.default_rng(_mix_seed(seed, 2))
        x = rng.standard_normal((cfg.seq_len, cfg.hidden))
        y_ref = forward(block, x)
        ref_power[i] = np.mean(y_ref ** 2)
        fused = [fuse_rotations(block, RotationAssignment(
            r1=r1_kind, r4=KIND_GH, r4_mode=mode, seed=_mix_seed(seed, 3)))
            for mode in R4_MODES]
        first = fused[0].weights
        distinct = [(m, name) for m, f in enumerate(fused) for name, w in f.weights.items()
                    if m == 0 or w.tobytes() != first[name].tobytes()]
        quantized = dict(zip(distinct, _quantize_weights(
            [fused[m].weights[name] for m, name in distinct], weight_spec)))
        for m, mode in enumerate(R4_MODES):
            qblock = replace(fused[m], weights={
                name: quantized.get((m, name), quantized[0, name]) for name in first})
            r1 = fused[m].input_rotation
            x_in = x if r1 is None else r1.apply(x)
            outputs = (forward(fused[m], x_in), forward(qblock, x_in),
                       forward(qblock, x_in, act_spec=act_spec))
            for s, y in zip(settings, outputs):
                if r1 is not None:
                    y = r1.apply(y, transpose=True)
                cells[mode][s][i] = float(np.mean((y - y_ref) ** 2))
        # the next seed builds its blocks only after this seed's are freed
        del fused, first, quantized, qblock

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
