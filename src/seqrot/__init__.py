"""Sequency-arranged rotation matrices and group quantizers for low-bit PTQ
experiments: Walsh/Hadamard constructions, block-diagonal grouped rotations,
RTN/GPTQ quantizers, a toy transformer block with rotation fusion, and a
reproducible comparison harness."""

from .corpus import CorpusSpec, gen_corpus
from .quant import (
    CalibrationHessian,
    Clip,
    QuantizedTensor,
    QuantSpec,
    dequantize,
    gptq_quantize,
    hessian_from_calibration,
    quant_error,
    rtn_quantize,
)
from .rotation import (
    RotationAssignment,
    ToyBlockConfig,
    build_toy_block,
    forward,
    fuse_rotations,
    invariance_max_diff,
    rotate_weight,
)
from .transforms import (
    OrthoMatrix,
    SequencyProfile,
    gsr,
    hadamard_sylvester,
    orthogonality_residual,
    randomize_signs,
    sequency_profile,
    walsh_from_hadamard,
)

__version__ = "0.1.0"
