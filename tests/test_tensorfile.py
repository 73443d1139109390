import json
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqrot.errors import (
    BadMagicError,
    CorruptFileError,
    DimensionMismatchError,
    IoFailureError,
    NotOrthogonalError,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    VersionUnsupportedError,
)
from seqrot.quant import Clip, QuantSpec, dequantize, rtn_quantize
from seqrot.rotation import resolve_variant
from seqrot.tensorfile import (
    load_quantized,
    load_rotation,
    read_report,
    read_tensor,
    save_quantized,
    save_rotation,
    write_report,
    write_tensor,
)
from seqrot.transforms import (
    KIND_GSR,
    KINDS,
    MAX_ORDER,
    OrthoMatrix,
    build_rotation,
    gsr,
    hadamard_sylvester,
    orthogonality_residual,
    randomize_signs,
)


class TestRoundTrip:
    def test_identity_f64_layout(self, tmp_path):
        p = tmp_path / "eye.gsrt"
        write_tensor(p, np.eye(2), metadata={})
        # magic + version + dtype + (mlen + "{}") + ndim + 2 dims + 4 doubles
        assert p.stat().st_size == 4 + 4 + 1 + (4 + 2) + 1 + 16 + 32
        arr, meta = read_tensor(p)
        assert np.array_equal(arr, np.eye(2))
        assert meta == {}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int8])
    def test_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        if dtype == np.int8:
            t = rng.integers(-128, 128, size=(5, 7)).astype(np.int8)
        else:
            t = rng.standard_normal((5, 7)).astype(dtype)
        p = tmp_path / "t.gsrt"
        write_tensor(p, t, {"note": "x"})
        arr, meta = read_tensor(p)
        assert arr.dtype.itemsize == t.dtype.itemsize
        assert np.array_equal(arr.view(np.uint8), t.view(np.uint8))
        assert meta == {"note": "x"}

    def test_many_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(42)
        p = tmp_path / "r.gsrt"
        for i in range(100):
            dtype = [np.float64, np.float32, np.int8][i % 3]
            shape = tuple(int(s) for s in rng.integers(1, 9, size=rng.integers(1, 4)))
            if dtype == np.int8:
                t = rng.integers(-128, 128, size=shape).astype(np.int8)
            else:
                t = rng.standard_normal(shape).astype(dtype)
            write_tensor(p, t, {"i": i})
            arr, meta = read_tensor(p)
            assert arr.shape == shape
            assert np.array_equal(arr.view(np.uint8), t.view(np.uint8))
            assert meta["i"] == i

    def test_unknown_metadata_keys_preserved(self, tmp_path):
        p = tmp_path / "m.gsrt"
        meta = {"kind": "walsh", "future_field": [1, {"deep": True}], "x": None}
        write_tensor(p, np.zeros(3), meta)
        _, got = read_tensor(p)
        assert got == meta

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(UnsupportedDtypeError):
            write_tensor(tmp_path / "bad.gsrt", np.zeros(3, dtype=np.int32))


_WRITERS = {
    "write_tensor": lambda p: write_tensor(p, np.arange(4.0), {"k": 1}),
    "write_report": lambda p: write_report(p, SimpleNamespace(
        variants=("gh",), metrics=("mse",), per_tensor={"gh": {"mse": [0.25, 0.5]}})),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", _WRITERS)
    def test_missing_directory(self, tmp_path, writer):
        with pytest.raises(IoFailureError):
            _WRITERS[writer](tmp_path / "missing" / "out")

    @pytest.mark.parametrize("writer", _WRITERS)
    def test_failed_rename_keeps_the_earlier_file(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "out"
        target.write_bytes(b"earlier")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoFailureError):
            _WRITERS[writer](target)
        assert target.read_bytes() == b"earlier"
        assert list(tmp_path.glob("*.tmp")) == []


class TestReportFiles:
    HEADER = b"variant,tensor_id,metric,value\r\n"

    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        _WRITERS["write_report"](p)
        assert read_report(p) == [{"variant": "gh", "tensor_id": 0, "metric": "mse",
                                   "value": 0.25},
                                  {"variant": "gh", "tensor_id": 1, "metric": "mse",
                                   "value": 0.5}]

    @pytest.mark.parametrize("content", [
        b"",
        b"variant,tensor_id,value\r\ngh,0,0.25\r\n",          # a missing column
        b"variant,tensor_id,metric\r\n",
        b"name,tensor_id,metric,value\r\ngh,0,mse,0.25\r\n",  # a renamed column
        HEADER + b"gh,zero,mse,0.25\r\n",                     # tensor_id not an int
        HEADER + b"gh,0.5,mse,0.25\r\n",
        HEADER + b"gh,0,mse,low\r\n",                         # value not a float
        HEADER + b"gh,0,mse\r\n",                             # a row too short
        HEADER + b"gh,0,mse,0.25,1\r\n",                      # a row too long
        HEADER + b"g\xffh,0,mse,0.25\r\n",                    # not UTF-8
    ])
    def test_not_a_report_is_corrupt(self, tmp_path, content):
        p = tmp_path / "r.csv"
        p.write_bytes(content)
        with pytest.raises(CorruptFileError, match="not a report CSV"):
            read_report(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_report(tmp_path / "missing.csv")


class TestCorruption:
    def _write(self, tmp_path):
        p = tmp_path / "c.gsrt"
        write_tensor(p, np.arange(6.0).reshape(2, 3), {"k": 1})
        return p

    def test_truncated_payload(self, tmp_path):
        p = self._write(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_tensor(p)

    def test_truncated_header(self, tmp_path):
        p = self._write(tmp_path)
        p.write_bytes(p.read_bytes()[:7])
        with pytest.raises(TruncatedPayloadError):
            read_tensor(p)

    def test_bad_magic(self, tmp_path):
        p = self._write(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        p = self._write(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionUnsupportedError):
            read_tensor(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_tensor(tmp_path / "nope.gsrt")

    @pytest.mark.parametrize("meta", [b"\xff\xfe", b"{not json", b"[1, 2]", b"3",
                                      b"[" * 100_000])
    def test_bad_metadata(self, tmp_path, meta):
        p = tmp_path / "m.gsrt"
        p.write_bytes(b"GSRT" + struct.pack("<IBI", 1, 0, len(meta)) + meta
                      + struct.pack("<BQ", 1, 1) + bytes(8))
        with pytest.raises(CorruptFileError):
            read_tensor(p)

    def test_huge_dims_fail_before_allocating(self, tmp_path):
        p = self._write(tmp_path)
        raw = bytearray(p.read_bytes())
        dims_at = len(raw) - 6 * 8 - 2 * 8
        raw[dims_at:dims_at + 16] = struct.pack("<QQ", 2 ** 63, 2 ** 63)
        p.write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError):
            read_tensor(p)

    def test_trailing_bytes(self, tmp_path):
        p = self._write(tmp_path)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(CorruptFileError):
            read_tensor(p)


def _mutated(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


class TestByteMutation:
    """Flipping bytes of a valid file gives a result or a TensorFileError,
    never another exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_only_tensor_file_errors(self, tmp_path, edits):
        quantized = rtn_quantize(np.arange(8.0).reshape(2, 4) - 3.0,
                                 QuantSpec(bits=3, group_size=2, clip=Clip.mse((1.0, 0.5))))
        readers = {"t": (read_tensor,), "r": (read_tensor, load_rotation),
                   "q": (read_tensor, load_quantized)}
        for name, write in (("t", lambda p: write_tensor(p, np.arange(6.0).reshape(2, 3),
                                                          {"k": [1, "x"]})),
                            ("r", lambda p: save_rotation(p, randomize_signs(gsr(8, 4), 1))),
                            ("q", lambda p: save_quantized(p, quantized))):
            p = tmp_path / f"{name}.gsrt"
            write(p)
            p.write_bytes(_mutated(p.read_bytes(), edits))
            for read in readers[name]:
                try:
                    read(p)
                except TensorFileError:
                    pass

    @pytest.mark.parametrize("change", [
        # the kinds of files written before gh/gw/lh/gsr, and other unknown kinds
        {"kind": "grouped"}, {"kind": "walsh"}, {"kind": "hadamard"}, {"kind": None},
        {"kind": 3}, {"kind": "GSR"}, {"kind": "identity"}, {"kind": ["gsr"]},
        {"seed": "1"}, {"seed": True}, {"seed": 1.5}, {"content": "rotatiom"},
        # the n x n sign matrix and the (n/b, b, b) blocks of the layouts before
        {"payload": "signs"}, {"seed": 2.0}, {"payload": "blocks"},
        {"payload": "blocks", "n": None, "group": None},
        # payloads that are not the empty int8 one
        {"payload": "one entry"}, {"payload": "0 x 0"}, {"payload": "empty float"},
        # orders and groups no rotation has
        {"n": None}, {"n": "8"}, {"n": 8.0}, {"n": 12}, {"n": 1}, {"n": -8}, {"n": 2 ** 17},
        {"n": True}, {"group": None}, {"group": 3}, {"group": 16}, {"group": 1},
        {"group": [4]},
        # a global kind is one block of order n
        {"kind": "gw"}, {"kind": "gh"},
    ])
    def test_bad_rotation_metadata(self, tmp_path, change):
        meta = {"content": "rotation", "kind": "gsr", "n": 8, "group": 4, "seed": None}
        m = gsr(8, 4)
        change = dict(change)
        payload = {"signs": m.signs, "blocks": m.blocks,
                   "one entry": np.ones(1, dtype=np.int8),
                   "0 x 0": np.ones((0, 0), dtype=np.int8),
                   "empty float": np.ones(0),
                   }.get(change.pop("payload", None), np.empty(0, dtype=np.int8))
        meta.update(change)
        p = tmp_path / "r.gsrt"
        write_tensor(p, payload, meta)
        with pytest.raises(CorruptFileError):
            load_rotation(p)
        with pytest.raises(CorruptFileError):
            resolve_variant(str(p), 8, 4, 0)

    def test_old_sign_layout_names_the_block_layout(self, tmp_path):
        # the layouts before held n x n signs or (n/b, b, b) blocks; now no payload
        p = tmp_path / "old.gsrt"
        for payload, meta in ((gsr(8, 4).signs, {"kind": "grouped", "scale": 0.5,
                                                 "group_size": 4, "block_kind": "walsh"}),
                              (gsr(8, 4).blocks, {"kind": "gsr"})):
            write_tensor(p, payload, {"content": "rotation", "seed": None, **meta})
            with pytest.raises(CorruptFileError, match=r"holds no payload.*make-rotation"):
                load_rotation(p)

    def test_old_kind_names_the_four_kinds(self, tmp_path):
        p = tmp_path / "old.gsrt"
        write_tensor(p, np.empty(0, dtype=np.int8),
                     {"content": "rotation", "kind": "grouped", "n": 8, "group": 4,
                      "seed": None})
        with pytest.raises(CorruptFileError, match=r"gh, gw, lh, gsr.*make-rotation"):
            load_rotation(p)

    def test_missing_rotation_keys(self, tmp_path):
        p = tmp_path / "r.gsrt"
        for key in ("kind", "n", "group"):   # an absent seed is None: signs as constructed
            save_rotation(p, build_rotation("lh", 8, 4, 1))
            arr, meta = read_tensor(p)
            del meta[key]
            write_tensor(p, arr, meta)
            with pytest.raises(CorruptFileError):
                load_rotation(p)


def _expected(kind, n, g, seed):
    """The n x n signs and the provenance of ``kind`` from the loop oracles."""
    b = g if kind in ("lh", "gsr") else n
    base = {"lh": "hadamard", "gsr": "walsh"}.get(kind)
    return (oracles.rotation_signs(kind, n, g if base else None, seed),
            (1 / np.sqrt(b), kind, g if base else None, base, seed))


def _provenance(m):
    return m.scale, m.kind, m.group_size, m.block_kind, m.seed


class TestRotationFiles:
    def test_round_trip_orthogonal(self, tmp_path):
        p = tmp_path / "rot.gsrt"
        m = gsr(8, 4)
        save_rotation(p, m)
        back = load_rotation(p)
        assert np.array_equal(back.signs, m.signs)
        assert back.scale == m.scale
        assert back.kind == m.kind
        assert back.group_size == 4
        assert orthogonality_residual(back.dense()) < 1e-10

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(KINDS), log_n=st.integers(1, 10), data=st.data(),
           seed=st.none() | st.integers(-2 ** 63, 2 ** 64 - 1))
    def test_every_kind_round_trips_its_blocks(self, tmp_path, kind, log_n, data, seed):
        n = 1 << log_n
        g = 1 << data.draw(st.integers(1, log_n), label="log_g")
        m = build_rotation(kind, n, g, seed)
        signs, provenance = _expected(kind, n, g, seed)
        assert m.blocks.dtype == np.int8 and np.array_equal(m.signs, signs)
        assert _provenance(m) == provenance
        p = tmp_path / "r.gsrt"
        save_rotation(p, m)
        back = load_rotation(p)
        assert isinstance(back, OrthoMatrix) and back == m
        assert back.blocks.dtype == np.int8 and np.array_equal(back.blocks, m.blocks)
        assert _provenance(back) == _provenance(m)
        assert read_tensor(p)[1] == {"content": "rotation", "kind": kind, "n": n,
                                     "group": m.group, "seed": seed}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(KINDS), log_n=st.integers(1, 10), data=st.data(),
           seed=st.none() | st.integers(-2 ** 63, 2 ** 64 - 1))
    def test_any_flipped_entry_is_rejected(self, tmp_path, kind, log_n, data, seed):
        # a file of blocks is rejected with or without a flipped entry: the
        # metadata alone is the rotation
        n = 1 << log_n
        g = 1 << data.draw(st.integers(1, log_n), label="log_g")
        m = build_rotation(kind, n, g, seed)
        blocks = m.blocks.copy()
        if data.draw(st.booleans(), label="flip"):
            index = tuple(data.draw(st.integers(0, d - 1), label=f"i{axis}")
                          for axis, d in enumerate(blocks.shape))
            blocks[index] = -blocks[index]
        p = tmp_path / "r.gsrt"
        write_tensor(p, blocks, {"content": "rotation", "kind": kind, "n": n,
                                 "group": m.group, "seed": seed})
        with pytest.raises(CorruptFileError, match="make-rotation"):
            load_rotation(p)

    def test_file_holds_only_the_metadata(self, tmp_path):
        p = tmp_path / "r.gsrt"
        for m in (gsr(4096, 64), build_rotation("gw", MAX_ORDER, seed=2 ** 64 - 1)):
            save_rotation(p, m)
            arr, meta = read_tensor(p)
            assert arr.shape == (0,) and arr.dtype == np.int8
            assert meta == {"content": "rotation", "kind": m.kind, "n": m.n,
                            "group": m.group, "seed": m.seed}
            # magic + version + dtype + (mlen + JSON) + ndim + 1 dim
            header = 4 + 4 + 1 + 4 + len(json.dumps(meta, sort_keys=True).encode()) + 1 + 8
            assert p.stat().st_size == header < 1024

    def test_dense_load_accepts_external_float_matrix(self, tmp_path):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        p = tmp_path / "ext.gsrt"
        # a float32 QR factor is orthogonal only to ~1e-7; +-1/4 entries are exact
        h = hadamard_sylvester(16).dense(np.float32)
        write_tensor(p, h, {"source": "external"})
        loaded = load_rotation(p)
        assert loaded.dtype == np.float64 and np.array_equal(loaded, h)
        write_tensor(p, q, {"source": "external"})
        assert np.array_equal(resolve_variant(str(p), 16, 4, 0), q)

    def test_dense_load_rejects_non_orthogonal(self, tmp_path):
        p = tmp_path / "bad.gsrt"
        write_tensor(p, np.random.default_rng(2).standard_normal((8, 8)), {})
        with pytest.raises(NotOrthogonalError):
            resolve_variant(str(p), 8, 4, 0)
        # +-1 blocks that are not orthogonal, under rotation metadata
        write_tensor(p, np.ones((2, 4, 4), dtype=np.int8),
                     {"content": "rotation", "kind": KIND_GSR, "n": 8, "group": 4, "seed": None})
        with pytest.raises(CorruptFileError):
            resolve_variant(str(p), 8, 4, 0)

    def test_dense_load_rejects_non_square(self, tmp_path):
        p = tmp_path / "rect.gsrt"
        for shape in ((4, 8), (4,), (2, 2, 2), (0, 0)):
            write_tensor(p, np.zeros(shape), {})
            with pytest.raises(NotOrthogonalError):
                load_rotation(p)
            with pytest.raises(NotOrthogonalError):
                resolve_variant(str(p), 4, 4, 0)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
           change=st.sampled_from(["none", "nan", "inf", "-inf", "perturb", "not square"]))
    def test_loader_accepts_exactly_the_orthogonal_float_matrices(self, tmp_path, n, seed,
                                                                  data, change):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        i, j = (data.draw(st.integers(0, n - 1), label=axis) for axis in "ij")
        if change == "perturb":   # |R R^T - I|_ii grows by at least d^2 >= 1e-6
            q[i, j] += np.copysign(data.draw(st.floats(1e-3, 1.0), label="d"), q[i, j])
        elif change == "not square":
            q = q[:, :-1]
        elif change != "none":
            q[i, j] = float(change)
        p = tmp_path / "ext.gsrt"
        write_tensor(p, q, {"source": "external"})
        if change == "none":
            assert np.array_equal(load_rotation(p), q)
            assert np.array_equal(resolve_variant(str(p), n, 4, 0), q)
            return
        with pytest.raises(NotOrthogonalError):
            load_rotation(p)
        with pytest.raises(NotOrthogonalError):
            resolve_variant(str(p), n, 4, 0)

    def test_global_kind_at_max_order_loads_without_a_block(self, tmp_path):
        # the block of this file would be 4 GiB
        p = tmp_path / "gh.gsrt"
        save_rotation(p, build_rotation("gh", MAX_ORDER, seed=3))
        tracemalloc.start()
        try:
            back = load_rotation(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == OrthoMatrix("gh", MAX_ORDER, None, 3)
        assert "blocks" not in vars(back) and peak < 1 << 20

    def test_int8_payload_without_rotation_metadata(self, tmp_path):
        p = tmp_path / "codes.gsrt"
        write_tensor(p, hadamard_sylvester(4).signs, {})
        with pytest.raises(CorruptFileError):
            load_rotation(p)

    def test_sign_structured_dense(self, tmp_path):
        p = tmp_path / "h.gsrt"
        save_rotation(p, hadamard_sylvester(16))
        r = resolve_variant(str(p), 16, 4, 0)
        assert isinstance(r, OrthoMatrix)
        assert np.allclose(r.dense(), hadamard_sylvester(16).dense())

    @pytest.mark.parametrize("size", [4, 16])
    def test_wrong_order(self, tmp_path, size):
        signs, floats = tmp_path / "s.gsrt", tmp_path / "f.gsrt"
        save_rotation(signs, gsr(8, 4))
        write_tensor(floats, gsr(8, 4).dense(), {})
        for p in (signs, floats):
            with pytest.raises(DimensionMismatchError):
                resolve_variant(str(p), size, 4, 0)


class TestQuantizedFiles:
    @pytest.mark.parametrize("symmetric,bits", [(False, 2), (False, 8), (True, 4)])
    def test_round_trip(self, tmp_path, symmetric, bits):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 16))
        spec = QuantSpec(bits=bits, group_size=8, symmetric=symmetric)
        qt = rtn_quantize(w, spec)
        p = tmp_path / "q.gsrt"
        save_quantized(p, qt)
        back = load_quantized(p)
        assert np.array_equal(back.codes, qt.codes)
        assert np.array_equal(back.scales, qt.scales)
        if symmetric:
            assert back.zero_points is None
        else:
            assert np.array_equal(back.zero_points, qt.zero_points)
        assert back.spec == qt.spec
        assert np.array_equal(dequantize(back), dequantize(qt))

    @pytest.mark.parametrize("change", [
        {"clip": 5}, {"clip": {"kind": "mse"}}, {"clip": {"kind": "x", "ratio": 1.0, "grid": []}},
        {"clip": {"kind": "mse", "ratio": 1.0, "grid": ["a"]}}, {"bits": "2"}, {"bits": 9},
        {"bits": True}, {"group_size": 3}, {"group_size": 0}, {"group_size": 8.0},
        {"symmetric": 1}, {"symmetric": True}, {"code_offset": 0}, {"code_offset": "2"},
        {"scales": [[1.0, 1.0]]}, {"scales": [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0]]},
        {"scales": "x"}, {"scales": [[10 ** 400, 1.0]] * 4}, {"zero_points": None},
        {"zero_points": [[0, 0]] * 3}, {"zero_points": [[0, 1.5]] * 4},
        {"zero_points": [[0, 4]] * 4}, {"shape": [4, 8]}, {"shape": [4, True]},
    ])
    def test_bad_metadata(self, tmp_path, change):
        qt = rtn_quantize(np.random.default_rng(0).standard_normal((4, 16)),
                          QuantSpec(bits=2, group_size=8))
        p = tmp_path / "q.gsrt"
        save_quantized(p, qt)
        arr, meta = read_tensor(p)
        meta.update(change)
        write_tensor(p, arr, meta)
        with pytest.raises(CorruptFileError):
            load_quantized(p)

    @pytest.mark.parametrize("key", ["clip", "bits", "symmetric", "code_offset", "scales",
                                     "zero_points", "shape"])
    def test_missing_key(self, tmp_path, key):
        p = tmp_path / "q.gsrt"
        save_quantized(p, rtn_quantize(np.ones((2, 4)), QuantSpec(bits=2, group_size=4)))
        arr, meta = read_tensor(p)
        del meta[key]
        write_tensor(p, arr, meta)
        with pytest.raises(CorruptFileError):
            load_quantized(p)

    def test_codes_outside_range(self, tmp_path):
        p = tmp_path / "q.gsrt"
        save_quantized(p, rtn_quantize(np.ones((2, 4)), QuantSpec(bits=2, group_size=4)))
        arr, meta = read_tensor(p)
        arr[0, 0] = 2   # offset 2 makes it code 4 > qmax 3
        write_tensor(p, arr, meta)
        with pytest.raises(CorruptFileError):
            load_quantized(p)
