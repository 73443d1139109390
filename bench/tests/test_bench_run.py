"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*extra, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--seed", "5",
           "--seconds", "0.2", "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
              for line in lines[:-1] if line.startswith("# ")}
    return json.loads(lines[-1]), tagged


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out, tagged = result(run("--workload", workload, "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    env = tagged["environment"]
    for key in ("git_sha", "nproc", "python", "numpy", "blas", "blas_threads",
                "loadavg_at_start"):
        assert key in env
    assert tagged["checks"]["failed_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_accounts_for_wall_time(workload):
    out, tagged = result(run("--workload", workload, "--trace", "1"))
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
    trace = tagged["trace"]
    assert trace["self_time_sum_s"] + trace["remainder_s"] == pytest.approx(
        trace["wall_s"], abs=1e-6)
    assert 0 <= trace["remainder_s"] < trace["wall_s"]
    spans = json.loads((ROOT / trace["spans_file"]).read_text())["spans"]
    ids = {s[0] for s in spans}
    assert all(s[1] is None or s[1] in ids for s in spans)
    assert all(s[3] <= s[4] for s in spans)


def test_traced_counts_match_the_work_done():
    out, _ = result(run("--workload", "compare_rtn", "--trace", "1"))
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # tiny compare_rtn: one 16x128 tensor, four variants, two traced rounds
    assert m["quant.clip_search.calls"] == 2 * 4
    assert m["quant.clip_search.group_evals"] == 2 * 4 * 16 * (128 // 64) * 51
    assert m["harness.run_comparison.apply_flops"] == 2 * 4 * 2 * 2 * 16 * 128 * 128
    assert m["quant.gptq_quantize.self_s"] == 0.0
    assert m["tensorfile.bytes_written"] > 0 and m["tensorfile.bytes_read"] == 0


@pytest.mark.parametrize("workload", ["compare_rtn", "compare_gptq"])
def test_wrong_reference_makes_checks_fail(workload, tmp_path):
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    pinned = reference["outputs"]["tiny"][workload]
    if "csv_sha256" in pinned:
        pinned["csv_sha256"] = "0" * 64
    else:
        key = next(iter(pinned["values"]))
        pinned["values"][key] *= 1.0 + 10 * reference["rel_tol"]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    out, tagged = result(run("--workload", workload, "--reference", str(path)))
    assert not out["correct"] and out["failed"] == 1
    assert tagged["checks"]["failed_frac"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "compare_rtn", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
