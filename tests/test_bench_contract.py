"""The benchmark's contract with the library, on tiny inputs.

``bench/spans.py`` wraps library functions by name and ``bench/workloads.py``
drives the library and reads attributes of what it returns. A rename in the
library would break the benchmark without failing any other test here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from seqrot.transforms import KINDS, build_rotation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def layer_attributes() -> dict:
    """Every function or method the tracer wraps, by (module, attribute)."""
    out = {}
    for module_name, attr, _, _ in spans.LAYERS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            out[module_name, attr] = vars(getattr(owner, cls_name))[method]
        else:
            out[module_name, attr] = getattr(owner, attr)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_passes_its_checks_and_the_tracer_puts_everything_back(name, tmp_path):
    before = layer_attributes()
    workload = workloads.make(name, 5, "tiny", tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = workload.run()
    finally:
        tracer.uninstall()
    assert layer_attributes() == before
    assert tracer.spans and tracer.self_times()
    failed = [what for what, ok in workload.check(out, first=True) if not ok]
    assert not failed


@pytest.mark.parametrize("kind", KINDS)
def test_rotation_has_every_attribute_the_benchmark_reads(kind):
    m = build_rotation(kind, 16, 4, 3)
    for attr in ("n", "kind", "seed", "scale", "group_size", "block_kind", "signs", "dense"):
        assert hasattr(m, attr), attr
    assert workloads.sign_residual(m) == 0.0
