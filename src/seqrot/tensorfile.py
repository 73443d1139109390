"""Bit-exact tensor serialization and CSV report output.

File layout (all integers little-endian, independent of host byte order):

    magic   4 bytes  b"GSRT"
    version u32      currently 1
    dtype   u8       0 = float64, 1 = float32, 2 = int8
    mlen    u32      metadata byte length
    meta    mlen bytes of UTF-8 JSON (unknown keys preserved)
    ndim    u8
    dims    ndim * u64
    payload product(dims) * itemsize bytes, row-major

A rotation file is its value alone: metadata ``content: rotation``, ``kind``,
``n``, ``group`` and ``seed`` over an empty int8 payload, under 1 KiB at any
order. Writes go through a temp file and an atomic rename, so a reader never
sees a partially written file at the target path.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import (
    BadMagicError,
    CorruptFileError,
    IoFailureError,
    NotOrthogonalError,
    SeqrotError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    VersionUnsupportedError,
)
from .transforms import OrthoMatrix, orthogonality_residual

MAGIC = b"GSRT"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("i1")}
_CODE_FOR_KIND = {(dtype.kind, dtype.itemsize): code for code, dtype in _DTYPE_CODES.items()}


def _dtype_code(dtype: np.dtype) -> int:
    code = _CODE_FOR_KIND.get((dtype.kind, dtype.itemsize))
    if code is None:
        raise UnsupportedDtypeError(f"unsupported dtype {dtype} (use f64, f32 or i8)")
    return code


def _write_atomic(path, mode: str, write, **open_kw) -> None:
    """Call ``write(f)`` on a temp file next to ``path``, then rename it onto
    ``path``; on any failure the temp file is removed and the target is left
    as it was. OSError becomes IoFailureError."""
    path = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, mode, **open_kw) as f:
                write(f)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"failed to write {path}: {exc}") from exc


def write_tensor(path, tensor: np.ndarray, metadata: dict | None = None) -> None:
    """Serialize an array plus JSON metadata; read_tensor is the exact inverse."""
    arr = np.asarray(tensor)
    code = _dtype_code(arr.dtype)
    le = arr.astype(_DTYPE_CODES[code], copy=False)
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<B", code))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(np.ascontiguousarray(le).tobytes())

    _write_atomic(path, "wb", write)


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise TruncatedPayloadError(f"file ends inside {what} "
                                    f"(need {count} bytes at offset {offset})")
    return buf[offset:offset + count], offset + count


def read_tensor(path) -> tuple[np.ndarray, dict]:
    """Read a tensor file; returns (array, metadata). Fails cleanly, never partial."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise IoFailureError(f"failed to read {path}: {exc}") from exc

    magic, off = _take(buf, 0, 4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    raw, off = _take(buf, off, 4, "version")
    version = struct.unpack("<I", raw)[0]
    if version != VERSION:
        raise VersionUnsupportedError(f"version {version} unsupported (expected {VERSION})")
    raw, off = _take(buf, off, 1, "dtype code")
    code = raw[0]
    if code not in _DTYPE_CODES:
        raise UnsupportedDtypeError(f"unknown dtype code {code}")
    raw, off = _take(buf, off, 4, "metadata length")
    mlen = struct.unpack("<I", raw)[0]
    raw, off = _take(buf, off, mlen, "metadata")
    try:
        metadata = json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError; RecursionError for deep nesting
    except (ValueError, RecursionError) as exc:
        raise CorruptFileError(f"{path}: metadata is not UTF-8 JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise CorruptFileError(f"{path}: metadata is not a JSON object")
    raw, off = _take(buf, off, 1, "ndim")
    ndim = raw[0]
    dims = []
    for i in range(ndim):
        raw, off = _take(buf, off, 8, f"dim {i}")
        dims.append(struct.unpack("<Q", raw)[0])
    dtype = _DTYPE_CODES[code]
    # Python ints: a corrupt dim cannot overflow, and nothing is allocated
    # before the byte count is known to match what is left
    nbytes = math.prod(dims) * dtype.itemsize
    _take(buf, off, nbytes, "payload")
    if off + nbytes != len(buf):
        raise CorruptFileError(f"{path}: {len(buf) - off - nbytes} bytes after the payload")
    try:
        arr = np.frombuffer(buf, dtype=dtype, count=nbytes // dtype.itemsize,
                            offset=off).reshape(dims).copy()
    except ValueError as exc:   # more dims, or larger ones, than numpy supports
        raise CorruptFileError(f"{path}: unsupported shape {dims}: {exc}") from None
    return arr, metadata


def save_rotation(path, m: OrthoMatrix) -> None:
    """Write ``m`` as its value alone: metadata ``content``, ``kind``, ``n``,
    ``group`` and ``seed`` over an empty int8 payload."""
    write_tensor(path, np.empty(0, dtype=np.int8),
                 metadata={"content": "rotation", "kind": m.kind, "n": m.n, "group": m.group,
                           "seed": m.seed})


def load_rotation(path) -> OrthoMatrix | np.ndarray:
    """Read and check a rotation file: the ``OrthoMatrix`` its metadata names, for a
    file written by ``save_rotation``, or the float64 matrix of an external float
    tensor that is square, non-empty and orthogonal to 1e-8 (NaN or inf fails)."""
    arr, meta = read_tensor(path)
    if meta.get("content") == "rotation":
        # the (n/b, b, b) blocks and n x n signs of the layouts before are payloads too
        if arr.dtype != np.int8 or arr.shape != (0,):
            raise CorruptFileError(
                f"{path}: bad rotation file: {arr.dtype} payload of shape {arr.shape}; a "
                "rotation file holds no payload, only its kind, n, group and seed (rebuild "
                "a file of blocks or of an n x n sign matrix with `seqrot make-rotation` "
                "from its kind, order, group size and seed)")
        try:   # the blocks are not built
            return OrthoMatrix(*(meta.get(key) for key in ("kind", "n", "group", "seed")))
        except SeqrotError as exc:
            raise CorruptFileError(f"{path}: bad rotation file: {exc} "
                                   "(rebuild it with `seqrot make-rotation`)") from None
    if arr.dtype.kind != "f":
        raise CorruptFileError(f"{path} holds neither a sign rotation nor a float matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NotOrthogonalError(f"{path}: rotation must be square, got {arr.shape}")
    r = arr.astype(np.float64)
    residual = orthogonality_residual(r)
    if not residual <= 1e-8:   # a NaN residual fails too
        raise NotOrthogonalError(f"{path}: orthogonality residual {residual:.3e} exceeds 1e-8")
    return r


def save_quantized(path, qt) -> None:
    """Serialize a QuantizedTensor: int8 codes payload, parameters in metadata.

    Asymmetric codes are shifted by -2^(bits-1) so 8-bit codes fit int8; the
    shift is recorded as ``code_offset``, for a reader to add back.
    """
    spec = qt.spec
    offset = 0 if spec.symmetric else 1 << (spec.bits - 1)
    codes = (qt.codes - offset).astype(np.int8)
    write_tensor(path, codes, metadata={
        "content": "quantized",
        "code_offset": offset,
        "bits": spec.bits,
        "group_size": spec.group_size,
        "symmetric": spec.symmetric,
        "clip": {"kind": spec.clip.kind, "ratio": spec.clip.ratio,
                 "grid": list(spec.clip.grid)},
        "scales": qt.scales.tolist(),
        "zero_points": None if qt.zero_points is None else qt.zero_points.tolist(),
        "shape": list(qt.shape),
    })


REPORT_COLUMNS = ["variant", "tensor_id", "metric", "value"]


def write_report(path, report) -> None:
    """Write an experiment report as CSV: variant, tensor_id, metric, value.

    Rows are sorted by (tensor_id, variant, metric); float values use 17
    significant digits so they re-parse to the same double.
    """
    rows = []
    for variant in report.variants:
        for metric in report.metrics:
            values = report.per_tensor[variant][metric]
            for tensor_id, value in enumerate(values):
                rows.append((variant, tensor_id, metric, value))
    rows.sort(key=lambda r: (r[1], r[0], r[2]))

    def write(f):
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for variant, tensor_id, metric, value in rows:
            writer.writerow([variant, tensor_id, metric, f"{value:.17g}"])

    _write_atomic(path, "w", write, newline="", encoding="utf-8")

