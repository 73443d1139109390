"""Rotation wiring for a toy LLaMA-style transformer block.

Weights are stored (in_dim, out_dim) and applied as ``y = x @ W``, so the
front rotation of a weight acts on its rows (input channels) and the rear
rotation on its columns. Fusing a front rotation R means replacing W by
R^T W; a block whose hidden states live in the rotated basis then computes
exactly the same function as the original block.

Slot layout: r1 rotates the hidden dimension between blocks, r2 the per-head
value/output dimension, r3 queries and keys after RoPE (online only), r4 the
down-projection input (online, with its transpose fused into the down
projection rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError
from .quant import _round_trip
from .tensorfile import load_rotation
from .transforms import (
    KIND_GH,
    KIND_GSR,
    KIND_GW,
    KIND_LH,
    KINDS,
    OrthoMatrix,
    RotationOperator,
    _is_int,
    _mix_seed,
    build_rotation,
    is_power_of_two,
)

R1, R2, R3, R4, IDENTITY = "r1", "r2", "r3", "r4", "identity"

# (front, rear) rotation slot of each weight, in the order the block draws them
ASSIGNMENT = {
    "wq": (R1, IDENTITY),
    "wk": (R1, IDENTITY),
    "wv": (R1, R2),
    "wo": (R2, R1),
    "wup": (R1, IDENTITY),
    "wgate": (R1, IDENTITY),
    "wdown": (R4, R1),
}

R4_GLOBAL = "global"
R4_LOCAL = "local"
R4_MODES = (R4_GLOBAL, R4_LOCAL)


def _operator(r) -> RotationOperator:
    return r if isinstance(r, RotationOperator) else RotationOperator(r)


def rotate_weight(w: np.ndarray, front=None, rear=None) -> np.ndarray:
    """W' = front^T @ W @ rear; each side is a rotation, an operator or None
    (identity)."""
    out = np.asarray(w, dtype=np.float64)
    if front is not None:
        out = _operator(front).apply(out.T).T
    if rear is not None:
        out = _operator(rear).apply(out)
    return out


@dataclass(frozen=True)
class ToyBlockConfig:
    hidden: int = 64
    heads: int = 4
    ffn: int = 128
    group_size: int = 16
    seq_len: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden", "heads", "ffn", "group_size", "seq_len", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {self.seed}")
        if not is_power_of_two(self.hidden) or not is_power_of_two(self.ffn):
            raise InvalidConfigError("hidden and ffn dims must be powers of two")
        if self.hidden < 2 or self.ffn < 2 or self.seq_len < 1 or self.heads < 1:
            raise InvalidConfigError("all dimensions must be at least 2 (seq/heads at least 1)")
        if self.hidden % self.heads != 0 or self.hidden // self.heads < 2:
            raise InvalidConfigError("heads must divide hidden dim with head_dim >= 2")
        if not is_power_of_two(self.group_size) or self.hidden % self.group_size != 0:
            raise InvalidConfigError("group size must be a power of two dividing hidden dim")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass
class ToyBlock:
    """Weights plus any online rotations; immutable by convention after build."""

    cfg: ToyBlockConfig
    weights: dict
    r3_online: RotationOperator | None = None   # head_dim x head_dim
    r4_online: RotationOperator | None = None   # ffn x ffn
    input_rotation: RotationOperator | None = None  # hidden-basis change of the fused block


def build_toy_block(cfg: ToyBlockConfig) -> ToyBlock:
    """Deterministic seeded weights; RMSNorm scales are pre-folded to ones."""
    rng = np.random.default_rng(cfg.seed)
    c, h = cfg.hidden, cfg.ffn
    weights = {}
    for name in ASSIGNMENT:
        shape = {"wq": (c, c), "wk": (c, c), "wv": (c, c), "wo": (c, c),
                 "wup": (c, h), "wgate": (c, h), "wdown": (h, c)}[name]
        weights[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
    return ToyBlock(cfg=cfg, weights=weights)


@dataclass(frozen=True)
class RotationAssignment:
    """Which rotation to place in each slot; strings name a kind, identity or a file path."""

    r1: str = IDENTITY
    r2: str = IDENTITY
    r3: str = IDENTITY
    r4: str = IDENTITY
    r4_mode: str = R4_GLOBAL
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(r, str) for r in (self.r1, self.r2, self.r3, self.r4)):
            raise InvalidConfigError(f"r1-r4 name a kind, identity or a file path, got {self!r}")
        if self.r4_mode not in R4_MODES:
            raise InvalidConfigError(
                f"r4_mode must be one of {R4_MODES}, got {self.r4_mode!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidConfigError(f"seed must be a non-negative int, got {self.seed!r}")


def resolve_variant(kind: str, size: int, group: int, seed: int | None):
    """Build (or load) the rotation for one slot; None means identity.

    Randomization follows the usual convention: Hadamard-family matrices get
    seeded diagonal sign flips, Walsh-family matrices are left as constructed.
    Any other ``kind`` is a rotation file, read and checked by
    ``load_rotation``, whose order must be ``size``.
    """
    if kind == IDENTITY:
        return None
    if kind in KINDS:
        return build_rotation(kind, size, group,
                              seed if kind in (KIND_GH, KIND_LH) else None)
    r = load_rotation(kind)
    order = r.n if isinstance(r, OrthoMatrix) else r.shape[0]
    if order != size:
        raise DimensionMismatchError(
            f"external rotation {kind} has order {order}, slot needs {size}")
    return r


def resolve_assignment(assign: RotationAssignment, cfg: ToyBlockConfig) -> dict:
    g = cfg.group_size
    r4 = assign.r4
    if assign.r4_mode == R4_LOCAL:   # the local form of a global kind
        r4 = {KIND_GH: KIND_LH, KIND_GW: KIND_GSR}.get(r4, r4)
    return {
        R1: resolve_variant(assign.r1, cfg.hidden, g, _mix_seed(assign.seed, 1)),
        R2: resolve_variant(assign.r2, cfg.head_dim, min(g, cfg.head_dim),
                            _mix_seed(assign.seed, 2)),
        R3: resolve_variant(assign.r3, cfg.head_dim, min(g, cfg.head_dim),
                            _mix_seed(assign.seed, 3)),
        R4: resolve_variant(r4, cfg.ffn, g, _mix_seed(assign.seed, 4)),
    }


def fuse_rotations(block: ToyBlock, assign: RotationAssignment) -> ToyBlock:
    """Rotate every weight per ``ASSIGNMENT``; returns a new block.

    r3 and r4 stay online (r4 additionally folds its transpose into the down
    projection rows). The fused block consumes and produces hidden states in
    the r1-rotated basis; ``input_rotation`` records that basis change.
    """
    cfg = block.cfg
    # one operator per slot; r2 acts on each head, so it repeats once per head
    ops = {s: None if r is None else RotationOperator(r, repeat=cfg.heads if s == R2 else 1)
           for s, r in resolve_assignment(assign, cfg).items()}
    ops[IDENTITY] = None

    weights = {name: rotate_weight(block.weights[name], ops[front], ops[rear])
               for name, (front, rear) in ASSIGNMENT.items()}

    return ToyBlock(
        cfg=cfg,
        weights=weights,
        r3_online=ops[R3],
        r4_online=ops[R4],
        input_rotation=ops[R1],
    )


def _rms_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def _rope(x: np.ndarray, theta: float = 10000.0) -> np.ndarray:
    """Rotary embedding over (seq, heads, head_dim), half-split pairing."""
    seq, _, hd = x.shape
    half = hd // 2
    pos = np.arange(seq, dtype=x.dtype)[:, None]
    freq = theta ** (-np.arange(half, dtype=x.dtype) / half)
    ang = pos * freq[None, :]
    cos = np.cos(ang)[:, None, :]
    sin = np.sin(ang)[:, None, :]
    lo, hi = x[..., :half], x[..., half:]
    return np.concatenate([lo * cos - hi * sin, lo * sin + hi * cos], axis=-1)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def forward(block: ToyBlock, x: np.ndarray, act_spec=None,
            dtype=np.float64) -> np.ndarray:
    """RMSNorm -> causal attention (RoPE) -> residual -> RMSNorm -> SwiGLU -> residual.

    With ``act_spec`` the down-projection input is fake-quantized (symmetric
    RTN) after the online r4 rotation. Weight quantization happens before the
    call: pass a block whose weights are already round-tripped.
    """
    cfg = block.cfg
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != cfg.hidden:
        raise DimensionMismatchError(
            f"input must be (seq >= 1, {cfg.hidden}), got {x.shape}")
    seq = x.shape[0]
    hd = cfg.head_dim

    wts = {k: v.astype(dtype, copy=False) for k, v in block.weights.items()}

    h = _rms_norm(x)
    q = (h @ wts["wq"]).reshape(seq, cfg.heads, hd)
    k = (h @ wts["wk"]).reshape(seq, cfg.heads, hd)
    v = (h @ wts["wv"]).reshape(seq, cfg.heads, hd)
    q = _rope(q)
    k = _rope(k)
    if block.r3_online is not None:
        q = block.r3_online.apply(q.reshape(-1, hd)).reshape(q.shape)
        k = block.r3_online.apply(k.reshape(-1, hd)).reshape(k.shape)

    scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(np.asarray(hd, dtype=dtype))
    mask = np.triu(np.full((seq, seq), -np.inf, dtype=dtype), k=1)
    attn = _softmax(scores + mask[None, :, :])
    ctx = np.einsum("hts,shd->thd", attn, v).reshape(seq, cfg.hidden)
    x = x + ctx @ wts["wo"]

    h2 = _rms_norm(x)
    a = _silu(h2 @ wts["wgate"]) * (h2 @ wts["wup"])
    if block.r4_online is not None:
        a = block.r4_online.apply(a)
    if act_spec is not None:
        a = _round_trip(a, act_spec).astype(dtype)   # a is this call's own array
    return x + a @ wts["wdown"]


def invariance_max_diff(cfg: ToyBlockConfig, assign: RotationAssignment,
                        input_seed: int = 0, dtype=np.float64) -> float:
    """max |fused forward - reference forward| on a random input, full precision.

    The fused block runs in the rotated hidden basis, so the input is rotated
    in and the output rotated back before comparing.
    """
    if not (_is_int(input_seed) and input_seed >= 0):
        raise InvalidConfigError(f"input_seed must be a non-negative int, got {input_seed!r}")
    block = build_toy_block(cfg)
    fused = fuse_rotations(block, assign)
    rng = np.random.default_rng(input_seed)
    x = rng.standard_normal((cfg.seq_len, cfg.hidden))
    y_ref = forward(block, x, dtype=dtype)
    r1 = fused.input_rotation
    if r1 is None:
        y_fused = forward(fused, x, dtype=dtype)
    else:
        y_fused = r1.apply(forward(fused, r1.apply(x.astype(dtype)), dtype=dtype),
                           transpose=True)
    return float(np.max(np.abs(y_fused - y_ref)))
