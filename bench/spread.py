"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads compare_rtn,toy_block --seeds 1-10

Runs ``bench/run.py`` once per (workload, seed), one at a time, and prints
for each end-to-end metric the median, the quartiles and the spread (third
minus first quartile, as a share of the median) next to a third of the
metric's bound in BENCHMARK.json. ``--out`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {"run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            *log, last = proc.stdout.strip().splitlines()
            tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
                      for line in log if line.startswith("# ")}
            result = json.loads(last)
            results.setdefault("environment", tagged["environment"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "rounds": tagged["rounds"]})
            ok &= result["correct"]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound}
            ok &= name == "setup_s" or spread < bound / 3
            print(f"{workload:13s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound/3 {bound / 3:6.3f}  "
                  f"correct {all(r['correct'] for r in runs)}", flush=True)
        results["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
