"""seqrot benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload compare_rtn --seed 3 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
before it starting with ``#`` carry the environment and a run summary.
Workloads, metrics and the baseline are described in ``bench/NOTES.md``.

The library is imported from ``src/`` of the checkout holding this file and
nowhere else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = ("compare_rtn", "compare_gptq", "rotate_wide", "toy_block")
GOLDEN_SEED = 0
SETUP_PROBES = 9      # fresh processes timed for setup_s; the median is reported
TRACE_PAIRS = 2       # traced rounds, each followed by an untraced one
PROBE_REF_S = 0.092   # machine_probe() median on the reference machine, see NOTES.md
END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    p.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    p.add_argument("--write-reference", action="store_true",
                   help="record this commit's golden-seed outputs in --reference")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads: at most 2, at most nproc."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import seqrot from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "seqrot" / "__init__.py").is_file():
        raise ImportError(f"no seqrot sources under {src}")
    sys.path.insert(0, str(src))
    import seqrot

    if Path(seqrot.__file__).resolve().parent != src / "seqrot":
        raise ImportError(f"seqrot imported from {seqrot.__file__}, not {src}")
    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))   # BLAS initialisation is part of set-up


def environment(threads: int, loadavg) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, timeout=30,
                                     check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqrot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "loadavg_at_start": loadavg}


def time_setup(args) -> list:
    """Seconds from spawning a fresh process to its first timed call, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.stdout.close()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def machine_probe() -> float:
    """Seconds for 8000 numpy calls on a 64x16 array; seqrot is never called.

    Other tenants of the host slow this fixed, single-threaded work as they
    slow the rounds, so it is timed around every round to rescale the run to
    the reference machine speed.
    """
    import numpy as np

    small = np.random.default_rng(0).random((64, 16))
    start = perf_counter()
    for _ in range(8000):
        np.abs(small).max(axis=1)
    return perf_counter() - start


def run_round(wl, checks: list, first: bool, tracer=None) -> float:
    """One round's work time; its outputs are checked after the timer stops."""
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    out = wl.run()
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    checks.extend(wl.check(out, first))
    return elapsed


def measure(args, workloads, workdir, checks: list) -> dict:
    setup = time_setup(args)
    wl = workloads.make(args.workload, args.seed, args.scale, workdir)
    # an untimed first round warms caches, runs the first-round checks and
    # reaches the peak memory that every round reaches
    run_round(wl, checks, first=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, probes = [], [machine_probe()]
    start = perf_counter()
    while not raw or perf_counter() - start < args.seconds:
        raw.append(wl.items / run_round(wl, checks, first=False))
        probes.append(machine_probe())
    print("# rounds " + json.dumps({"items_per_round": wl.items, "raw_items_per_s": raw,
                                    "probe_s": probes, "setup_s": setup}))
    slowdown = statistics.median(probes) / PROBE_REF_S
    values = {"items_per_s": statistics.median(raw) * slowdown,
              "setup_s": statistics.median(setup),
              "peak_rss_mb": peak_kib / 1024.0}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(args, workloads, workdir, checks: list, env: dict) -> dict:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    wl = workloads.make(args.workload, args.seed, args.scale, workdir)
    tracer.uninstall()
    traced, untraced = [], []
    for i in range(TRACE_PAIRS):
        traced.append(run_round(wl, checks, first=i == 0, tracer=tracer))
        untraced.append(run_round(wl, checks, first=False))
    overhead = min(traced) / min(untraced) - 1.0
    metrics = tracer.metrics(overhead)
    self_sum = sum(tracer.self_times().values())
    accounting = {"wall_s": tracer.wall_s, "self_time_sum_s": self_sum,
                  "remainder_s": tracer.wall_s - tracer.root_time(),
                  "traced_round_s": traced, "untraced_round_s": untraced,
                  "overhead_frac": overhead}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"environment": env, "accounting": accounting,
                                "fields": ["id", "parent", "name", "start", "end"],
                                "spans": tracer.spans}))
    print("# trace " + json.dumps({**accounting, "spans_file": str(path.relative_to(ROOT))}))
    return metrics


def golden_fingerprint(args, workloads, workdir):
    golden = workloads.make(args.workload, GOLDEN_SEED, args.scale, workdir)
    return golden.fingerprint(golden.run())


def golden_checks(args, workloads, workdir) -> list:
    """Run the golden seed and compare with the seed commit's recorded outputs."""
    reference = json.loads(args.reference.read_text())
    pinned = reference["outputs"][args.scale].get(args.workload)
    if pinned is None:
        return []
    return workloads.reference_checks(golden_fingerprint(args, workloads, workdir),
                                      pinned, reference["rel_tol"])


def write_reference(args, workloads, workdir) -> None:
    reference = json.loads(args.reference.read_text())
    got = golden_fingerprint(args, workloads, workdir)
    if got is not None:
        reference["outputs"][args.scale][args.workload] = got
        args.reference.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    threads = pin_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.make(args.workload, args.seed, args.scale, None)
        print("ready", flush=True)
        return 0

    env = environment(threads, loadavg)
    print("# environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.write_reference:
            write_reference(args, workloads, workdir)
            return 0
        checks = []
        if args.trace:
            metrics = measure_traced(args, workloads, workdir, checks, env)
        else:
            metrics = measure(args, workloads, workdir, checks)
        checks.extend(golden_checks(args, workloads, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    print("# checks " + json.dumps({"attempted": len(checks), "failed": failed,
                                    "failed_frac": len(failed) / len(checks)}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
