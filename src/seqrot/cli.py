"""Command-line interface: construction, inspection, quantization and comparisons.

Exit codes: 0 success, 1 computation or tolerance failure, 2 usage errors.
Every run echoes its full flag set (one `# config:` line) so it can be
reproduced bit-identically; tables go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import shlex
import sys

import numpy as np

from . import harness
from .corpus import DIST_STUDENT_T, DISTS, CorpusSpec, gen_corpus
from .errors import (
    GroupDoesNotDivideError,
    InvalidConfigError,
    InvalidSpecError,
    NonPowerOfTwoError,
    OrderTooLargeError,
    SeqrotError,
)
from .quant import (
    Clip,
    QuantSpec,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    rtn_quantize,
)
from .rotation import (
    IDENTITY,
    RotationAssignment,
    ToyBlockConfig,
    invariance_max_diff,
)
from .tensorfile import (
    load_rotation,
    read_tensor,
    save_quantized,
    save_rotation,
    write_report,
)
from .transforms import (
    BLOCK_BASES,
    KIND_GSR,
    KINDS,
    OrthoMatrix,
    build_rotation,
    orthogonality_residual,
    sequency_profile,
)

USAGE_ERROR = 2
RUN_ERROR = 1


class UsageError(Exception):
    pass


def _dependent(flag: str, value, read: bool, default, when: str):
    """A flag the run reads only ``when``: absent, it takes ``default``;
    given to a run that would not read it, it is a usage error."""
    if value is not None and not read:
        raise UsageError(f"{flag} applies only {when}")
    return default if value is None else value


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return int(text)


def config_line(parser: argparse.ArgumentParser, args) -> str:
    """The `# config:` echo: every option of the chosen subcommand, in parser
    order, that is not None or False, so it re-parses to ``args``."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    parts = ["# config: seqrot", args.command]
    for action in sub._actions:
        value = getattr(args, action.dest, None)
        if not action.option_strings or value is None or value is False:
            continue
        parts.append(action.option_strings[0])
        if value is not True:
            parts.append(shlex.quote(str(value)))
    return " ".join(parts)


def _parse_clip(text: str) -> Clip:
    if text == "none":
        return Clip.none()
    if text == "mse":
        return Clip.mse()
    if text.startswith("ratio:"):
        try:
            return Clip.fixed(float(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise UsageError(f"bad --clip value {text!r} (use none, mse or ratio:R)")


def _sequency_summary(m: OrthoMatrix, group: int | None) -> str:
    prof = sequency_profile(m, m.group or m.n if group is None else group)
    seq = prof.per_row_sequency
    lines = []
    if m.n <= 64:
        lines.append("row sequencies: " + " ".join(str(int(s)) for s in seq))
    else:
        lines.append(f"row sequencies: min {seq.min()} max {seq.max()} "
                     f"(n={m.n})")
    lines.append("group sequency variance: " +
                 " ".join(f"{v:.4g}" for v in prof.per_group_variance[:16]) +
                 (" ..." if prof.per_group_variance.size > 16 else ""))
    return "\n".join(lines)


def cmd_make_rotation(args) -> int:
    m = build_rotation(args.kind, args.n, args.group, args.seed)
    print(f"kind {args.kind}  n {args.n}")
    print(_sequency_summary(m, args.group))
    if args.out:
        save_rotation(args.out, m)
        print(f"wrote {args.out}")
    return 0


def cmd_inspect(args) -> int:
    arr, meta = read_tensor(args.file)
    is_rotation = meta.get("content") == "rotation"
    _dependent("--group", args.group, is_rotation, None,
               f"to rotation files; {args.file} is not one")
    print(f"shape {arr.shape}  dtype {arr.dtype}  metadata {meta}")
    if is_rotation:
        # the loader returns the exact rebuild of the file's kind and seed
        print(_sequency_summary(load_rotation(args.file), args.group))
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1] > 0:
        print(f"orthogonality residual {orthogonality_residual(arr):.3e}")
    return 0


def cmd_quantize(args) -> int:
    gptq = args.scheme == harness.QUANTIZER_GPTQ
    samples = _dependent("--calib-samples", args.calib_samples, gptq, 256, "to --scheme gptq")
    seed = _dependent("--seed", args.seed, gptq, 0, "to --scheme gptq")
    _check_at_least_one("--calib-samples", samples)
    arr, _ = read_tensor(args.file)
    w = arr.astype(np.float64)
    if w.ndim != 2 or w.size == 0:
        raise UsageError(f"quantize expects a non-empty 2-D tensor, got shape {w.shape}")
    spec = QuantSpec(bits=args.bits, group_size=args.group,
                     symmetric=args.symmetric, clip=_parse_clip(args.clip))
    if gptq:
        rng = np.random.default_rng(seed)
        h = hessian_from_calibration(rng.standard_normal((samples, w.shape[1])))
        qt = gptq_quantize(w, h, spec)
    else:
        qt = rtn_quantize(w, spec)
    w_hat = dequantize(qt)
    print(f"mse {quant_error(w, w_hat, 'mse'):.17g}")
    print(f"max_abs {quant_error(w, w_hat, 'max_abs'):.17g}")
    if args.out:
        save_quantized(args.out, qt)
        print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    variants = tuple(args.variants.split(","))
    spec = CorpusSpec(count=args.count, rows=args.rows, cols=args.cols, base_dist=args.dist,
                      t_dof=_dependent("--t-dof", args.t_dof, args.dist == DIST_STUDENT_T,
                                       CorpusSpec.t_dof, "with --dist student_t"),
                      outlier_channels=args.outliers,
                      outlier_gain=_dependent("--outlier-gain", args.outlier_gain,
                                              args.outliers > 0, CorpusSpec.outlier_gain,
                                              "with --outliers above 0"),
                      smooth_weight=args.smooth, seed=args.seed)
    wspec = QuantSpec(bits=args.bits, group_size=args.group,
                      clip=_parse_clip(args.clip))
    corpus = gen_corpus(spec)
    report = harness.run_comparison(corpus, variants, wspec,
                                    quantizer=args.quantizer, seed=args.seed)

    print(f"# corpus sha256 {report.corpus_hash}")
    fair = report.fairness_ok()
    print(f"# fairness hashes identical: {fair}")
    header = f"{'variant':10s}" + "".join(
        f"{m + '.' + s:>16s}" for m in report.metrics for s in ("median", "mean"))
    print(header)
    for v in report.variants:
        row = f"{v:10s}"
        for m in report.metrics:
            row += f"{report.summary[v][m]['median']:16.6g}"
            row += f"{report.summary[v][m]['mean']:16.6g}"
        print(row)
    for r in harness.directional_tests(report):
        verdict = "CONFIRMED" if r.holds else "NOT CONFIRMED"
        print(f"directional {r.better}<{r.worse} ({r.metric}): "
              f"median {r.median_better:.6g} vs {r.median_worse:.6g}, "
              f"wins {r.wins}/{r.n}, {r.ties} ties, sign-test p {r.p_value:.3e} -> {verdict}")
    if not fair:
        print("fairness check failed", file=sys.stderr)
        return RUN_ERROR
    if args.out:
        write_report(args.out, report)
        print(f"wrote {args.out}")
    return 0


def _check_at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def cmd_invariance(args) -> int:
    _check_at_least_one("--seeds", args.seeds)
    local = any(s in BLOCK_BASES for s in (args.r1, args.r2, args.r3, args.r4))
    # only lh and gsr slots read it, so its default must also fit a hidden below 16
    group = _dependent("--group", args.group, local,
                       min(ToyBlockConfig.group_size, args.hidden), "when a slot is lh or gsr")
    dtype = np.float64 if args.precision == "f64" else np.float32
    tol = 1e-10 if args.precision == "f64" else 1e-4
    worst = 0.0
    for s in range(args.seeds):
        cfg = ToyBlockConfig(hidden=args.hidden, heads=args.heads, ffn=args.ffn,
                             group_size=group, seq_len=args.seq_len,
                             seed=args.seed + s)
        assign = RotationAssignment(r1=args.r1, r2=args.r2, r3=args.r3, r4=args.r4,
                                    seed=args.seed + s)
        worst = max(worst, invariance_max_diff(cfg, assign, input_seed=args.seed + s,
                                               dtype=dtype))
    ok = worst < tol
    print(f"max abs diff = {worst:.3e} {'<' if ok else '>='} {tol:.0e}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else RUN_ERROR


def cmd_r4_ablation(args) -> int:
    _check_at_least_one("--seeds", args.seeds)
    cfg = ToyBlockConfig(hidden=args.hidden, heads=args.heads, ffn=args.ffn,
                         group_size=args.group, seq_len=args.seq_len)
    wspec = QuantSpec(bits=args.bits, group_size=args.group, clip=Clip.mse())
    aspec = QuantSpec(bits=args.act_bits, group_size=args.group, symmetric=True,
                      clip=Clip.fixed(0.9))
    rep = harness.r4_ablation(cfg, weight_spec=wspec, act_spec=aspec,
                              n_seeds=args.seeds, r1_kind=args.r1,
                              base_seed=args.seed)
    print(f"{'r4 mode':10s}" + "".join(f"{s + '.medianMSE':>20s}" for s in rep.settings))
    for mode in rep.modes:
        print(f"{mode:10s}" + "".join(f"{rep.medians[mode][s]:20.6g}"
                                      for s in rep.settings))
    for s in rep.settings:
        ci = rep.diff_ci[s]
        shown = "no CI" if ci is None else f"CI95 [{ci[0]:.4g}, {ci[1]:.4g}]"
        print(f"local-global median diff [{s}]: {shown} -> {rep.verdict[s]}")
    return 0


def _add_toy_block_flags(p: argparse.ArgumentParser) -> None:
    for flag, default in (("--hidden", 64), ("--heads", 4), ("--ffn", 128), ("--group", 16),
                          ("--seq-len", 8), ("--seeds", 20)):
        p.add_argument(flag, type=int, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqrot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-rotation")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)   # None: signs as constructed
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_make_rotation)

    p = sub.add_parser("inspect")
    p.add_argument("--file", required=True)
    p.add_argument("--group", type=int, default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("quantize")
    p.add_argument("--file", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--group", type=int, default=None)
    p.add_argument("--scheme", choices=harness.QUANTIZERS, default=harness.QUANTIZER_RTN)
    p.add_argument("--clip", default="none")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--calib-samples", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("compare")
    p.add_argument("--variants", default=",".join(KINDS))
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--group", type=int, default=64)
    p.add_argument("--quantizer", choices=harness.QUANTIZERS, default=harness.QUANTIZER_RTN)
    p.add_argument("--clip", default="mse")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--rows", type=int, default=512)
    p.add_argument("--cols", type=int, default=512)
    p.add_argument("--dist", choices=DISTS, default=DIST_STUDENT_T)
    p.add_argument("--t-dof", type=float, default=None)
    p.add_argument("--outliers", type=int, default=4)
    p.add_argument("--outlier-gain", type=float, default=None)
    p.add_argument("--smooth", type=float, default=0.3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("invariance")
    for slot in ("r1", "r2", "r3", "r4"):
        p.add_argument(f"--{slot}", default=IDENTITY)
    _add_toy_block_flags(p)
    p.set_defaults(group=None)   # read only with an lh or gsr slot
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("r4-ablation")
    _add_toy_block_flags(p)
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--act-bits", type=int, default=4)
    p.add_argument("--r1", default=KIND_GSR)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_r4_ablation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(config_line(parser, args))
    try:
        return args.func(args)
    except (UsageError, NonPowerOfTwoError, OrderTooLargeError, GroupDoesNotDivideError,
            InvalidSpecError, InvalidConfigError) as exc:
        # bad user-supplied values surface as usage errors, like argparse's own
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SeqrotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR


if __name__ == "__main__":
    sys.exit(main())
