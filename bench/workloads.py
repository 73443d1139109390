"""The four benchmark workloads, driven through seqrot's public API.

Each workload generates its inputs from the workload seed when it is built
(that is the set-up the benchmark times), then runs identical rounds. A round
is the unit of timed work; ``items`` says how many items one round completes.
``check`` inspects one round's outputs outside the timed window, and
``fingerprint`` reduces a round to what ``reference.json`` pins for the
golden seed (None where nothing is pinned).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from seqrot import corpus, harness, rotation, tensorfile
from seqrot.quant import Clip, QuantSpec
from seqrot.rotation import RotationAssignment, ToyBlockConfig
from seqrot.transforms import _mix_seed

VARIANTS = ("gh", "gw", "lh", "gsr")
GROUP = 64
BITS = 2

# corpus sizes per scale; "tiny" exists for the benchmark's own tests
SIZES = {
    "full": {"compare_rtn": (2, 512, 512), "compare_gptq": (1, 512, 512),
             "rotate_wide": (2, 128, 4096), "toy_block": 20},
    "tiny": {"compare_rtn": (1, 16, 128), "compare_gptq": (1, 16, 128),
             "rotate_wide": (1, 8, 512), "toy_block": 3},
}

# criterion 6's rotation assignments, cycled over the invariance seeds
INVARIANCE_ASSIGNMENTS = (
    RotationAssignment(),
    RotationAssignment(r1="gh"),
    RotationAssignment(r1="gw", r2="gw", r3="gw", r4="gw"),
    RotationAssignment(r1="gsr", r2="gh", r3="gh", r4="gh"),
    RotationAssignment(r1="lh", r2="gh", r3="gw", r4="gh", r4_mode="local"),
    RotationAssignment(r1="gsr", r2="gw", r3="gh", r4="gw", r4_mode="local"),
)


def _values(report) -> dict:
    return {f"{v}/{i}/{m}": float(x)
            for v in report.variants for m in report.metrics
            for i, x in enumerate(report.per_tensor[v][m])}


def reference_checks(got: dict, reference: dict, rel_tol: float) -> list:
    """Compare a golden-seed fingerprint with the seed commit's recorded one."""
    if "csv_sha256" in reference:
        return [("report CSV sha256 equals the seed commit's",
                 got["csv_sha256"] == reference["csv_sha256"])]
    values, ref = got["values"], reference["values"]
    return [("per-tensor values within the recorded relative tolerance",
             values.keys() == ref.keys()
             and all(abs(values[k] - ref[k]) <= rel_tol * abs(ref[k]) for k in ref))]


@dataclass
class CompareRound:
    report: object
    csv_sha256: str
    rotations: tuple = ()   # (built, reloaded) OrthoMatrix pairs


class Compare:
    """``run_comparison`` then ``write_report``; rotate_wide adds file round trips."""

    def __init__(self, name: str, seed: int, scale: str, workdir):
        count, rows, cols = SIZES[scale][name]
        self.seed = seed
        self.workdir = workdir
        self.quantizer = "gptq" if name == "compare_gptq" else "rtn"
        self.wide = name == "rotate_wide"
        clip = Clip.fixed(0.9) if self.wide else Clip.mse()
        self.wspec = QuantSpec(bits=BITS, group_size=GROUP, clip=clip)
        self.corpus = corpus.gen_corpus(
            corpus.CorpusSpec(count=count, rows=rows, cols=cols, seed=seed))
        self.items = count * len(VARIANTS)
        self._first_sha = None

    def run(self) -> CompareRound:
        report = harness.run_comparison(self.corpus, VARIANTS, self.wspec,
                                        quantizer=self.quantizer, seed=self.seed)
        csv_path = self.workdir / "report.csv"
        tensorfile.write_report(csv_path, report)
        rotations = ()
        if self.wide:
            rotations = tuple(self._round_trip(idx, v) for idx, v in enumerate(VARIANTS))
        return CompareRound(report, hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                            rotations)

    def _round_trip(self, idx: int, variant: str):
        # the same rotation run_comparison builds for this variant and seed
        cols = self.corpus[0].shape[1]
        built = rotation.resolve_variant(variant, cols, GROUP,
                                         _mix_seed(self.seed, 100 + idx))
        path = self.workdir / f"{variant}.gsrt"
        tensorfile.save_rotation(path, built)
        return built, tensorfile.load_rotation(path)

    def check(self, out: CompareRound, first: bool) -> list:
        values = _values(out.report)
        checks = [("fairness hashes equal the corpus hash", out.report.fairness_ok()),
                  ("report values finite", bool(np.all(np.isfinite(list(values.values())))))]
        if self._first_sha is None:
            self._first_sha = out.csv_sha256
        checks.append(("report CSV identical across rounds",
                       out.csv_sha256 == self._first_sha))
        for built, loaded in out.rotations:
            same = (loaded.signs.dtype == built.signs.dtype
                    and np.array_equal(loaded.signs, built.signs)
                    and (loaded.scale, loaded.kind, loaded.group_size,
                         loaded.block_kind, loaded.seed)
                    == (built.scale, built.kind, built.group_size,
                        built.block_kind, built.seed))
            checks.append((f"{built.kind} tensor-file round trip bit-exact", same))
            if first:
                checks.append((f"{built.kind} sign matrix orthogonality residual 0",
                               sign_residual(loaded) == 0.0))
        if first and self.quantizer == "gptq":
            rtn = harness.run_comparison(self.corpus, VARIANTS, self.wspec,
                                         quantizer="rtn", seed=self.seed)
            checks.append(("GPTQ median proxy error no larger than RTN's at the same scales",
                           all(out.report.summary[v]["proxy"]["median"]
                               <= rtn.summary[v]["proxy"]["median"] for v in VARIANTS)))
        return checks

    def fingerprint(self, out: CompareRound) -> dict:
        if self.quantizer == "rtn" and not self.wide:
            return {"csv_sha256": out.csv_sha256}
        return {"values": _values(out.report)}


def sign_residual(m) -> float:
    """max |S S^T - k I| of the integer sign matrix, k its block order.

    Entries are 0 or +-1 and k is at most 2^16, so float32 holds every
    product sum exactly and the residual is exact.
    """
    s = m.signs.astype(np.float32)
    gram = s @ s.T
    gram[np.diag_indices_from(gram)] -= float(m.group_size or m.n)
    return float(np.abs(gram).max())


@dataclass
class ToyRound:
    ablation: object
    invariance_f64: float
    invariance_f32: float


class ToyBlock:
    """``r4_ablation`` at the CLI defaults plus criterion 6's invariance sweep."""

    def __init__(self, name: str, seed: int, scale: str, workdir):
        self.seed = seed
        self.n_seeds = SIZES[scale][name]
        self.cfg = ToyBlockConfig()
        g = self.cfg.group_size
        self.wspec = QuantSpec(bits=BITS, group_size=g, clip=Clip.mse())
        self.aspec = QuantSpec(bits=4, group_size=g, symmetric=True, clip=Clip.fixed(0.9))
        self.sweep = [(ToyBlockConfig(seed=s),
                       RotationAssignment(**{**vars(a), "seed": s}))
                      for s, a in ((seed + i, INVARIANCE_ASSIGNMENTS[i % 6])
                                   for i in range(self.n_seeds))]
        self.items = self.n_seeds
        self._first_medians = None

    def run(self) -> ToyRound:
        ablation = harness.r4_ablation(self.cfg, weight_spec=self.wspec,
                                       act_spec=self.aspec, n_seeds=self.n_seeds,
                                       base_seed=self.seed)
        worst = {}
        for dtype in (np.float64, np.float32):
            worst[dtype] = max(rotation.invariance_max_diff(cfg, a, input_seed=cfg.seed,
                                                            dtype=dtype)
                               for cfg, a in self.sweep)
        return ToyRound(ablation, worst[np.float64], worst[np.float32])

    def check(self, out: ToyRound, first: bool) -> list:
        cells = out.ablation.cells
        if self._first_medians is None:
            self._first_medians = out.ablation.medians
        return [
            ("every w16a16 cell below 1e-10",
             all(np.all(cells[m]["w16a16"] < 1e-10) for m in out.ablation.modes)),
            ("invariance f64 below 1e-10", out.invariance_f64 < 1e-10),
            ("invariance f32 below 1e-4", out.invariance_f32 < 1e-4),
            ("ablation medians identical across rounds",
             out.ablation.medians == self._first_medians),
        ]

    def fingerprint(self, out: ToyRound) -> None:
        return None


WORKLOADS = {"compare_rtn": Compare, "compare_gptq": Compare,
             "rotate_wide": Compare, "toy_block": ToyBlock}


def make(name: str, seed: int, scale: str, workdir):
    return WORKLOADS[name](name, seed, scale, workdir)
