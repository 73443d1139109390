"""Exception types shared across the package."""


class SeqrotError(Exception):
    """Base class for all seqrot errors."""


class NonPowerOfTwoError(SeqrotError, ValueError):
    """A dimension that must be a power of two is not."""


class OrderTooLargeError(SeqrotError, ValueError):
    """Requested matrix order exceeds the supported maximum."""


class NotHadamardError(SeqrotError, ValueError):
    """Operation requires a natural-order Hadamard matrix."""


class GroupDoesNotDivideError(SeqrotError, ValueError):
    """Group size does not evenly divide the dimension it partitions."""


class EmptyCalibrationError(SeqrotError, ValueError):
    """Calibration requires at least one sample."""


class SingularHessianError(SeqrotError, RuntimeError):
    """The Hessian is not positive definite even after dampening."""


class NonFiniteInputError(SeqrotError, ValueError):
    """Input that must be finite holds NaN or inf."""


class ShapeMismatchError(SeqrotError, ValueError):
    """Two arrays that must share a shape do not, or an array does not have
    the shape an operation needs (e.g. a quantizer input that is not a
    matrix with at least one column)."""


class DimensionMismatchError(SeqrotError, ValueError):
    """Rotation matrix order does not match the dimension it acts on."""


class InvalidConfigError(SeqrotError, ValueError):
    """Block or experiment configuration violates its invariants."""


class InvalidSpecError(SeqrotError, ValueError):
    """Quantizer or corpus specification violates its invariants."""


class TensorFileError(SeqrotError):
    """Base class for tensor-file serialization errors."""


class NotOrthogonalError(TensorFileError, ValueError):
    """A float matrix read as an external rotation is not square or not orthogonal."""


class IoFailureError(TensorFileError):
    """Underlying file I/O failed."""


class UnsupportedDtypeError(TensorFileError, ValueError):
    """Dtype is not one of the supported codes (f64, f32, i8)."""


class BadMagicError(TensorFileError):
    """File does not start with the expected magic bytes."""


class VersionUnsupportedError(TensorFileError):
    """File declares a format version this reader does not understand."""


class TruncatedPayloadError(TensorFileError):
    """File ends before the declared payload (or header) is complete."""


class CorruptFileError(TensorFileError, ValueError):
    """File contents are inconsistent: undecodable or non-object metadata,
    dims that disagree with the payload length, or metadata that does not
    describe what the reader expects."""
