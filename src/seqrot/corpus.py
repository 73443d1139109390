"""Synthetic weight corpora with outlier channels and smooth channel structure.

Tensors are (rows, cols) = (output channels, input channels): quantization
groups run along each row, and the rotation under test acts on the column
(input-channel) dimension. Outlier channels are whole columns scaled up;
the smooth component varies slowly across the column index so its energy
concentrates in low-sequency filters after rotation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .transforms import _is_int

DIST_GAUSSIAN = "gaussian"
DIST_STUDENT_T = "student_t"
DISTS = (DIST_GAUSSIAN, DIST_STUDENT_T)

# cycles across the input-channel span of the smooth component's modes
_SMOOTH_CYCLES = (2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class CorpusSpec:
    count: int = 100
    rows: int = 512
    cols: int = 512
    base_dist: str = DIST_STUDENT_T
    t_dof: float = 4.0
    outlier_channels: int = 4
    outlier_gain: float = 20.0
    smooth_weight: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("count", "rows", "cols", "outlier_channels", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")
        if not np.isfinite([self.t_dof, self.outlier_gain, self.smooth_weight]).all():
            raise InvalidSpecError("t_dof, outlier_gain and smooth_weight must be finite")
        if self.count < 1:
            raise InvalidSpecError("count must be at least 1")
        if self.rows < 2 or self.cols < 2:
            raise InvalidSpecError("rows and cols must be at least 2")
        if self.base_dist not in DISTS:
            raise InvalidSpecError(f"unknown base distribution {self.base_dist!r}")
        if self.base_dist == DIST_STUDENT_T and self.t_dof <= 2:
            raise InvalidSpecError("student-t dof must exceed 2 for finite variance")
        if not 0 <= self.outlier_channels < min(self.rows, self.cols):
            raise InvalidSpecError("outlier channel count must be below the tensor dims")
        if self.outlier_gain <= 0:
            raise InvalidSpecError("outlier gain must be positive")
        if self.smooth_weight < 0:
            raise InvalidSpecError("smooth component weight must be non-negative")


def gen_corpus(spec: CorpusSpec) -> list[np.ndarray]:
    """Deterministic corpus: base draw + smooth channel component + outlier columns."""
    rng = np.random.default_rng(spec.seed)
    tensors = []
    for _ in range(spec.count):
        if spec.base_dist == DIST_GAUSSIAN:
            t = rng.standard_normal((spec.rows, spec.cols))
        else:
            t = rng.standard_t(spec.t_dof, size=(spec.rows, spec.cols))

        if spec.smooth_weight > 0:
            t += spec.smooth_weight * _smooth_component(rng, spec.rows, spec.cols)

        if spec.outlier_channels > 0:
            outliers = rng.choice(spec.cols, size=spec.outlier_channels, replace=False)
            t[:, outliers] *= spec.outlier_gain

        tensors.append(t)
    return tensors


def _smooth_component(rng, rows: int, cols: int) -> np.ndarray:
    """Unit-variance sum of slow cosines across the column index.

    Each mode gets a per-row amplitude and phase, so rows are correlated
    through the shared channel profile but not identical.
    """
    j = (np.arange(cols) + 0.5) / cols
    comp = np.zeros((rows, cols))
    for cycles in _SMOOTH_CYCLES:
        amp = rng.standard_normal((rows, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(rows, 1))
        comp += amp * np.cos(2.0 * np.pi * cycles * j[None, :] + phase)
    # each cos term contributes variance 1/2 per unit amplitude
    return comp / np.sqrt(len(_SMOOTH_CYCLES) / 2.0)


def corpus_hash(tensors) -> str:
    """SHA-256 over every tensor's bytes; the fairness fingerprint."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(np.ascontiguousarray(t, dtype=np.float64))
    return h.hexdigest()
