"""Parameter table, initialization, complexity accounting, snapshots.

One walk of the layer stack, ``_blocks``, yields each named block in canonical
build order (``temporal_tokenizer``, ``spatial_tokenizer``, ``position``,
``layer{i}.spatial_ffn``, ``layer{i}.temporal_ffn``, ``layer{i}.tsia`` /
``layer{i}.tsia_rev`` or ``layer{i}.concat_proj``, ``fusion``, ``classifier``)
with its parameter specs and its forward FLOPs; the parameter table and both
counts read it. Names are dot-separated and the table's order is the draw
order, so a (config, seed) pair always produces the same values. Ablation
switches (cosine gate, embeddings, fusion mode) do not change the allocated
table, only which entries the forward pass and the counts consider active;
integration_mode and use_tsia change which blocks exist.
"""
from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import DataFormatError
from .rng import RngStream
from .tensor import BatchNormState, Tensor

SNAPSHOT_MAGIC = b"LDSN"
SNAPSHOT_VERSION = 1

INIT_STREAM = 0


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple
    init: tuple  # ("uniform", fan_in) | ("normal", std) | ("const", value), zeros and ones too
    active: bool  # counted by count_params_flops for this config


_ZERO, _ONE = ("const", 0.0), ("const", 1.0)
_Block = tuple[str, list[ParamSpec], int]  # (name, parameter specs, FLOPs)


# ---------------------------------------------------------------------------
# block table
#
# FLOP conventions (single-trial eval-mode forward): multiply-add pairs in
# convs/matmuls cost 2, bias/add/mul/ReLU/cos cost 1 per element, GELU 4,
# softmax 4, eval batchnorm 2, layernorm 8, avgpool 1 per pooled-in element.


def _ffn(prefix: str, rows: int, cfg: ModelConfig) -> _Block:
    d, e = cfg.embed_dim, cfg.ffn_expansion
    specs = [
        ParamSpec(f"{prefix}.norm.gain", (d,), _ONE, True),
        ParamSpec(f"{prefix}.norm.bias", (d,), _ZERO, True),
        ParamSpec(f"{prefix}.expand.weight", (d, e * d), ("uniform", d), True),
        ParamSpec(f"{prefix}.expand.bias", (e * d,), _ZERO, True),
        ParamSpec(f"{prefix}.contract.weight", (e * d, d), ("uniform", e * d), True),
        ParamSpec(f"{prefix}.contract.bias", (d,), _ZERO, True),
    ]
    f = 8 * rows * d
    f += 2 * rows * d * e * d + rows * e * d
    f += 4 * rows * e * d
    f += 2 * rows * e * d * d + rows * d
    f += rows * d  # residual add
    return prefix, specs, f


def _tsia(prefix: str, cfg: ModelConfig, source_rows: int, target_rows: int,
          embed_name: str) -> _Block:
    d, h, dh = cfg.embed_dim, cfg.n_heads, cfg.head_dim
    c, p = source_rows, target_rows
    heads = 1 if cfg.head_shared_electrode_embedding else h
    specs = [
        ParamSpec(f"{prefix}.query_a", (h, d, dh), ("uniform", d), True),
        ParamSpec(f"{prefix}.query_b", (h, d, dh), ("uniform", d), True),
        ParamSpec(f"{prefix}.{embed_name}", (heads, c, dh), ("normal", 0.02),
                  cfg.use_electrode_pos_embedding),
        ParamSpec(f"{prefix}.value", (h, d, dh), ("uniform", d), True),
        ParamSpec(f"{prefix}.gate", (h, d, dh), ("uniform", d), cfg.use_cosine_gate),
        ParamSpec(f"{prefix}.key", (h, d, dh), ("uniform", d), True),
        ParamSpec(f"{prefix}.out.weight", (d, d), ("uniform", d), True),
    ]
    # pooled-context side on the source stream
    f = 2 * (2 * h * c * d * dh)  # two query projections
    if cfg.use_electrode_pos_embedding:
        f += 2 * h * c * dh
    f += 2 * h * c * c * dh + h * c * c + 4 * h * c * c  # scores, scale, softmax
    f += 2 * h * c * c * dh  # context
    f += 2 * h * c * dh + h * c + 4 * h * c  # row norms + importance softmax
    f += 2 * h * c * dh  # weighted pooling
    # refinement side on the target stream
    n_proj = 3 if cfg.use_cosine_gate else 2
    f += n_proj * 2 * h * p * d * dh
    if cfg.use_cosine_gate:
        f += 2 * h * p * dh  # cos + gating multiply
    f += 2 * h * dh * dh * p + h * dh * dh + 4 * h * dh * dh
    f += 2 * h * p * dh * dh
    # integration
    f += h * p * dh  # broadcast gate multiply
    f += 2 * p * d * d  # output projection
    return prefix, specs, f


def _blocks(cfg: ModelConfig) -> Iterator[_Block]:
    """Each named block of a validated config, in canonical build order."""
    c, t, d = cfg.n_channels, cfg.n_samples, cfg.embed_dim
    s, k = cfg.spatial_maps, cfg.kernel_len
    p, ps, tc = cfg.n_patches, cfg.spatial_patches, cfg.spatial_conv_len
    f = 2 * d * c * t + d * t
    f += 2 * d * t  # eval batchnorm
    f += 2 * d * t * k + d * t
    f += 4 * d * t
    f += d * (cfg.pool_window * p + p)
    yield "temporal_tokenizer", [
        ParamSpec("temporal_tokenizer.pointwise.weight", (d, c), ("uniform", c), True),
        ParamSpec("temporal_tokenizer.pointwise.bias", (d,), _ZERO, True),
        ParamSpec("temporal_tokenizer.norm.gain", (d,), _ONE, True),
        ParamSpec("temporal_tokenizer.norm.bias", (d,), _ZERO, True),
        ParamSpec("temporal_tokenizer.depthwise.weight", (d, k), ("uniform", k), True),
        ParamSpec("temporal_tokenizer.depthwise.bias", (d,), _ZERO, True),
    ], f
    # shared across channels
    f = c * (2 * s * k * tc + s * tc)
    f += 4 * c * s * tc
    f += 2 * c * s * tc
    f += c * s * (cfg.spatial_pool_window * ps + ps)
    f += c * 2 * (s * ps) * d
    yield "spatial_tokenizer", [
        ParamSpec("spatial_tokenizer.conv.weight", (s, 1, k), ("uniform", k), True),
        ParamSpec("spatial_tokenizer.conv.bias", (s,), _ZERO, True),
        ParamSpec("spatial_tokenizer.norm.gain", (s,), _ONE, True),
        ParamSpec("spatial_tokenizer.norm.bias", (s,), _ZERO, True),
        ParamSpec("spatial_tokenizer.proj.weight", (s * ps, d), ("uniform", s * ps), True),
    ], f
    pos = cfg.use_positional_embedding
    yield "position", [
        ParamSpec("position.temporal", (p, d), ("normal", 0.02), pos),
        ParamSpec("position.spatial", (c, d), ("normal", 0.02), pos),
    ], (p * d + c * d) if pos else 0
    for layer in range(cfg.temporal_depth):
        if layer < cfg.spatial_depth:
            yield _ffn(f"layer{layer}.spatial_ffn", c, cfg)
        yield _ffn(f"layer{layer}.temporal_ffn", p, cfg)
        if not cfg.use_tsia:
            yield f"layer{layer}.concat_proj", [
                ParamSpec(f"layer{layer}.concat_proj.weight", (2 * d, d), ("uniform", 2 * d), True)
            ], c * d + 2 * p * 2 * d * d
            continue
        if cfg.integration_mode in ("st2t", "bidir"):
            yield _tsia(f"layer{layer}.tsia", cfg, c, p, "electrode_embedding")
        if cfg.integration_mode in ("st2s", "bidir"):
            yield _tsia(f"layer{layer}.tsia_rev", cfg, p, c, "token_embedding")
    w = cfg.fusion_width
    adaptive = cfg.fusion_mode == "adaptive"
    if adaptive:
        f = 2 * p * d * w + p * w + p * w  # hidden + bias + relu
        f += 2 * p * w + p + 4 * p  # score + bias + softmax
        f += 2 * p * d  # temporal weighted sum
        f += 2 * c * d  # channel-weighted spatial pooling
    else:
        f = p * d + c * d
    yield "fusion", [
        ParamSpec("fusion.channel_weights", (c,), ("const", 1.0 / c), adaptive),
        ParamSpec("fusion.score.hidden.weight", (d, w), ("uniform", d), adaptive),
        ParamSpec("fusion.score.hidden.bias", (w,), _ZERO, adaptive),
        ParamSpec("fusion.score.out.weight", (w, 1), ("uniform", w), adaptive),
        ParamSpec("fusion.score.out.bias", (1,), _ZERO, adaptive),
    ], f
    hc, n = cfg.classifier_hidden, cfg.n_classes
    yield "classifier", [
        ParamSpec("classifier.hidden.weight", (2 * d, hc), ("uniform", 2 * d), True),
        ParamSpec("classifier.hidden.bias", (hc,), _ZERO, True),
        ParamSpec("classifier.out.weight", (hc, n), ("uniform", hc), True),
        ParamSpec("classifier.out.bias", (n,), _ZERO, True),
    ], 2 * 2 * d * hc + hc + hc + 2 * hc * n + n


def param_specs(cfg: ModelConfig) -> list[ParamSpec]:
    """Canonical parameter table for a validated config."""
    return [spec for _, specs, _ in _blocks(cfg) for spec in specs]


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s.shape)) for s in param_specs(cfg) if s.active)


def count_flops(cfg: ModelConfig) -> int:
    return sum(f for _, _, f in _blocks(cfg))


def count_params_flops(cfg: ModelConfig) -> tuple[int, int]:
    """(active parameter count, eval-mode single-trial forward FLOPs)."""
    return count_params(cfg), count_flops(cfg)


class ParamSet:
    """Ordered name -> Tensor table plus batchnorm running-stat states."""

    def __init__(self):
        self.tensors: dict[str, Tensor] = {}
        self.states: dict[str, BatchNormState] = {}

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def replace(self, name: str, data: np.ndarray) -> None:
        self.tensors[name] = Tensor(data, requires_grad=True)

    def clone(self) -> "ParamSet":
        out = ParamSet()
        for name, t in self.tensors.items():
            out.tensors[name] = Tensor(t.data.copy(), requires_grad=True)
        for name, s in self.states.items():
            out.states[name] = s.copy()
        return out

    def value_dict(self) -> dict[str, np.ndarray]:
        """Every stored array (parameters and running stats) by name."""
        out = {name: t.data for name, t in self.tensors.items()}
        for site, s in self.states.items():
            out[f"{site}.running_mean"] = s.mean
            out[f"{site}.running_var"] = s.var
        return out

    def load_values(self, values: dict[str, np.ndarray], dtype=np.float64) -> None:
        table = self.value_dict()
        missing = sorted(set(table) - set(values))
        extra = sorted(set(values) - set(table))
        if missing or extra:
            raise DataFormatError(
                "snapshot_table_mismatch",
                f"snapshot parameter table mismatch (missing: {missing[:3]}, unexpected: {extra[:3]})",
            )
        for name, arr in values.items():
            want = table[name].shape
            if tuple(arr.shape) != want:
                raise DataFormatError(
                    "snapshot_shape_mismatch",
                    f"snapshot entry {name}: stored shape {tuple(arr.shape)} != configured {want}",
                )
            if name.endswith(".running_var") and np.any(arr < 0):
                raise DataFormatError(
                    "snapshot_negative_variance", f"snapshot entry {name} holds a negative variance"
                )
        for name in self.tensors:
            self.tensors[name] = Tensor(values[name].astype(dtype), requires_grad=True)
        for site, s in self.states.items():
            s.mean = values[f"{site}.running_mean"].astype(dtype)
            s.var = values[f"{site}.running_var"].astype(dtype)


def init_params(cfg: ModelConfig, seed: int) -> ParamSet:
    """Draw a fresh parameter set; same (cfg, seed) gives identical values."""
    rng = RngStream(seed, INIT_STREAM)
    dtype = cfg.np_dtype
    ps = ParamSet()
    for spec in param_specs(cfg):
        kind = spec.init[0]
        if kind == "uniform":
            bound = 1.0 / np.sqrt(spec.init[1])
            arr = rng.uniform(-bound, bound, spec.shape)
        elif kind == "normal":
            arr = rng.normal(0.0, spec.init[1], spec.shape)
        else:
            arr = np.full(spec.shape, spec.init[1])
        ps.tensors[spec.name] = Tensor(arr.astype(dtype), requires_grad=True)
    ps.states["temporal_tokenizer.norm"] = BatchNormState(cfg.embed_dim, dtype)
    ps.states["spatial_tokenizer.norm"] = BatchNormState(cfg.spatial_maps, dtype)
    return ps


# ---------------------------------------------------------------------------
# snapshots: magic, u16 version, u32 n_entries, then per entry sorted by name
# u16 name length + utf8 name, u8 ndim, u32 dims, float32 little-endian values


def save_snapshot(path, params: ParamSet) -> None:
    values = params.value_dict()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<HI", SNAPSHOT_VERSION, len(values)))
        for name in sorted(values):
            arr = np.ascontiguousarray(values[name], dtype="<f4")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_snapshot(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(n: int, off: int) -> int:
        if off + n > len(blob):
            raise DataFormatError("snapshot_truncated", f"snapshot truncated at byte {off}")
        return off + n

    off = need(4, 0)
    if blob[0:4] != SNAPSHOT_MAGIC:
        raise DataFormatError("snapshot_bad_magic", f"bad snapshot magic {blob[0:4]!r}")
    off2 = need(6, off)
    version, n_entries = struct.unpack_from("<HI", blob, off)
    off = off2
    if version != SNAPSHOT_VERSION:
        raise DataFormatError("snapshot_bad_version", f"unsupported snapshot version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(n_entries):
        off2 = need(2, off)
        (name_len,) = struct.unpack_from("<H", blob, off)
        off = need(name_len, off2)
        name = blob[off2:off].decode("utf-8")
        off2 = need(1, off)
        (ndim,) = struct.unpack_from("<B", blob, off)
        off = need(4 * ndim, off2)
        shape = struct.unpack_from(f"<{ndim}I", blob, off2)
        count = int(np.prod(shape)) if ndim else 1
        off2 = need(4 * count, off)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataFormatError("snapshot_non_finite", f"snapshot entry {name} holds non-finite values")
        out[name] = arr.copy()
        off = off2
    if off != len(blob):
        raise DataFormatError("snapshot_trailing_data", f"{len(blob) - off} trailing bytes")
    return out


def round_through_f32(params: ParamSet, dtype) -> ParamSet:
    """Parameters as a snapshot would restore them (float32 precision) in dtype."""
    out = params.clone()
    out.load_values({name: v.astype(np.float32) for name, v in params.value_dict().items()}, dtype)
    return out
